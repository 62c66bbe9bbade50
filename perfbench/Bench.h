//===- perfbench/Bench.h - Shared pieces of the repository benchmark ------===//
//
// Everything the three workloads share: the run configuration parsed from
// the command line, the metric report, timing and percentile helpers, the
// seeded input generator the oracles regenerate inputs from, the in-memory
// span recorder of the traced run, and the layer probes that time single
// layers through their public entry points.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/Program.h"
#include "api/Tensor.h"
#include "runtime/PlanCache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated percentile (\p Q in [0, 100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return percentile(std::move(V), 50); }

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Seeded input element \p Index of stream \p Stream: a counter-based hash,
/// so the oracles regenerate any input element without keeping a copy.
/// Values are multiples of 1/1024 in [-0.5, 0.5).
double inputValue(uint64_t Seed, uint64_t Stream, uint64_t Index);

/// Fills \p T (row-major over its shape) from inputValue(Seed, Stream, .).
void fillSeeded(distal::Tensor &T, uint64_t Seed, uint64_t Stream);

/// Row-major copy of the bytes a tensor's backing region holds.
std::vector<double> snapshot(const distal::Tensor &T);

/// True when \p Got matches the oracle \p Want within a relative tolerance
/// far below any real defect (which shows up as O(1) errors) and far above
/// floating-point reassociation noise.
bool closeTo(const std::vector<double> &Got, const std::vector<double> &Want);

/// Bitwise equality of a tensor's region with an earlier snapshot.
bool sameBytes(const distal::Tensor &T, const std::vector<double> &Golden);

/// One recorded span of the traced run.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 for a root.
  int64_t Request = -1; ///< Request id shared by a request's spans.
};

/// In-memory span store: spans are appended under a lock (at most two
/// client threads record) and written out once, when the run ends.
class Tracer {
public:
  Tracer();
  int32_t begin(const char *Name, int32_t Parent, int64_t Request);
  /// Begins a span whose start lies in the past (an open-loop request's
  /// due time).
  int32_t beginAt(const char *Name, Clock::time_point Start, int32_t Parent,
                  int64_t Request);
  void end(int32_t Id);
  void endAt(int32_t Id, Clock::time_point End);
  size_t size() const;
  /// Mean self time (ms) per span of each name: the span's duration minus
  /// the part of it its children cover.
  std::map<std::string, double> meanSelfMs() const;
  /// Writes every span as Chrome trace-event JSON (opens in Perfetto).
  bool write(const std::string &Path) const;

private:
  int64_t ns(Clock::time_point T) const;
  Clock::time_point Origin;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span; a null tracer records nothing (the untraced run).
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, int32_t Parent = -1,
            int64_t Request = -1)
      : T(T), Id(T ? T->begin(Name, Parent, Request) : -1) {}
  ~SpanScope() {
    if (T)
      T->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int32_t id() const { return Id; }

private:
  Tracer *T;
  int32_t Id;
};

/// What one run measured. Every metric is named once; main() checks the
/// fixed end-to-end and per-layer lists are complete before printing.
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> EndToEnd, PerLayer;
  /// Printed on standard output above the result line (sample counts,
  /// step health, metrics that exist on one workload only).
  std::vector<std::string> Notes;
  int64_t Attempted = 0, Failed = 0;
  /// False when an output mismatched the oracle or a run-invalidating
  /// condition (governor activity while disarmed) occurred.
  bool Correct = true;
  int64_t Failures = 0; ///< fail() calls so far.
  /// Spans of the traced run; main() writes them out when the run ends.
  Tracer Spans;

  void e2e(const std::string &Name, double V, const std::string &Unit) {
    EndToEnd[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const std::string &Unit) {
    PerLayer[Name] = {V, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Marks the run incorrect and notes why.
  void fail(const std::string &Why);
};

/// The command-line configuration of one run.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Threads = 0; ///< Executor threads (hardware concurrency).
};

/// Request latencies of one measured phase.
struct LoopStats {
  std::vector<double> LatMs;
  std::vector<double> CompileMs; ///< Cold compiles between requests.
  double BusyMs = 0;             ///< Sum of request latencies.
  int64_t Requests = 0, Failed = 0;
};

/// A closed-loop workload after its set-up, as three hooks.
struct ClosedLoop {
  const char *Name;
  double FlopsPerRequest;
  /// Issues one request and returns its Status.
  std::function<distal::Status()> Request;
  /// True when the request's outputs reproduce the golden bytes.
  std::function<bool()> Verify;
  /// Builds and compiles one fresh statement (a PlanCache miss); returns
  /// the compile's ms. The timed loop calls it after every CompileEvery-th
  /// request: compile samples taken only at set-up, or in one burst, moved
  /// 2x between runs with the host's phases, so they span the run.
  std::function<double()> ColdCompileMs;
  int CompileEvery;
};

/// The measured part of a closed-loop workload: a fixed number of requests
/// that close the PlanCache count window (counts since \p CacheBefore),
/// then the timed loop — with --trace 1 an untraced half (\p Plain) and a
/// traced half (\p Traced). Reports the end-to-end metrics.
void runClosedLoop(const Config &Cfg, Report &R, const ClosedLoop &W,
                   const distal::PlanCache::Stats &CacheBefore,
                   int CountedRequests, const std::vector<double> &SetupS,
                   LoopStats &Plain, LoopStats &Traced);

/// Adds setup_s, compile_ms_p50, and the setup notes.
void reportSetup(Report &R, const std::vector<double> &SetupS,
                 const std::vector<double> &CompileMs);

/// Traced-run overhead (traced minus untraced latency p50) and the mean
/// self time of every span name.
void reportTraceOverhead(Report &R, const LoopStats &Untraced,
                         const LoopStats &Traced);

/// Layer probes: each runs a public layer entry point a fixed number of
/// times on a workload artifact, recording a root span per call.
namespace probe {
/// Times Tensor::lower on \p T (lower.ms_p50).
void lower(Report &R, Tracer *Tr, distal::Tensor &T, const distal::Machine &M,
           int Reps);
/// Times the CompiledPlan constructor on \p T's lowered plan
/// (compiled_plan.build_ms_p50) and records the artifact footprint.
void buildPlan(Report &R, Tracer *Tr, distal::Tensor &T,
               const distal::Machine &M, int Reps);
/// Times a direct CompiledPlan::execute against submit+wait on the same
/// artifact and regions, alternating (exec.plan_ms_p50,
/// admission.overhead_ms_p50). \p Regions must not be in use.
void execVsAdmission(Report &R, Tracer *Tr, distal::CompiledPlan &CP,
                     const std::map<distal::TensorVar, distal::Region *> &Regions,
                     int Threads, int Reps);
/// Replays every coalesced gather of \p Plans through
/// Region::gatherCompiled (region.gather_gbps); \p Regions maps every
/// tensor they gather from.
void gatherReplay(Report &R, Tracer *Tr,
                  const std::vector<const distal::CompiledPlan *> &Plans,
                  const std::map<distal::TensorVar, distal::Region *> &Regions,
                  int Reps);
/// Times the CompiledProgram constructor over \p Members
/// (compiled_program.link_ms_p50) and a direct CompiledProgram::execute of
/// \p Prog (exec.program_ms_p50), alternating. \p Regions maps every
/// tensor of the program and must not be in use.
void linkAndExecute(
    Report &R, Tracer *Tr,
    const std::vector<std::shared_ptr<distal::CompiledPlan>> &Members,
    distal::CompiledProgram &Prog,
    const std::map<distal::TensorVar, distal::Region *> &Regions, int Threads,
    int Reps);
/// blas::gemm on an M x N x K tile (blas.gemm_gflops).
void blasGemm(Report &R, Tracer *Tr, int64_t M, int64_t N, int64_t K,
              int Reps);
/// blas::dot over \p Len contiguous doubles (blas.dot_gbps).
void blasDot(Report &R, Tracer *Tr, int64_t Len, int Reps);
/// Uncalibrated Simulator predictions of \p Traces, summed, next to their
/// communicated bytes.
void simulate(Report &R, Tracer *T,
              const std::vector<const distal::Trace *> &Traces,
              const distal::Machine &M);
} // namespace probe

/// Data movement per execution of each artifact in \p Plans and
/// \p Programs, summed: the compile-time dataMovementStats and linkStats
/// (computed, not measured).
void reportMovement(
    Report &R, const std::vector<std::shared_ptr<distal::CompiledPlan>> &Plans,
    const std::vector<std::shared_ptr<distal::CompiledProgram>> &Programs);

/// Arena-pool and admission counters summed over every artifact that ran
/// (admission peaks take the maximum). Programs bypass admission.
struct ArtifactCounters {
  int64_t ArenasCreated = 0, ArenasReused = 0;
  int64_t Admitted = 0, Coalesced = 0, Rejected = 0, Shed = 0;
  int64_t PeakActive = 0;
  void add(distal::CompiledPlan &CP);
  void add(const distal::CompiledProgram &CP);
  void report(Report &R) const;
};

/// PlanCache hit/miss counters since \p Before.
void reportPlanCache(Report &R, const distal::PlanCache::Stats &Before);

/// Governor and thread-pool counters; a governor that degraded or shed
/// while disarmed invalidates the run.
void reportProcessCounters(Report &R);

int runGemmDense(const Config &C, Report &R);
int runTensorChain(const Config &C, Report &R);
int runServingMix(const Config &C, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
