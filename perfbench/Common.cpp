//===- perfbench/Common.cpp - Shared pieces of the repository benchmark ---===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>

#include "blas/LocalKernels.h"
#include "runtime/PlanCache.h"
#include "runtime/Simulator.h"
#include "support/ExecContext.h"
#include "support/ResourceGovernor.h"

using namespace distal;

namespace perfbench {

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double inputValue(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  // splitmix64 over (seed, stream, index).
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream * 0xD1B54A32D192ED03ull +
               Index * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  Z ^= Z >> 31;
  return static_cast<double>(Z >> 54) / 1024.0 - 0.5;
}

void fillSeeded(Tensor &T, uint64_t Seed, uint64_t Stream) {
  std::vector<Coord> Shape = T.var().shape();
  T.fill([Seed, Stream, Shape](const Point &P) {
    uint64_t Idx = 0;
    for (int D = 0; D < P.dim(); ++D)
      Idx = Idx * static_cast<uint64_t>(Shape[D]) +
            static_cast<uint64_t>(P[D]);
    return inputValue(Seed, Stream, Idx);
  });
}

std::vector<double> snapshot(const Tensor &T) {
  const Region *R = T.region();
  if (!R)
    return {};
  return std::vector<double>(R->data(), R->data() + R->volume());
}

bool closeTo(const std::vector<double> &Got, const std::vector<double> &Want) {
  if (Got.size() != Want.size())
    return false;
  for (size_t I = 0; I < Got.size(); ++I)
    if (!(std::abs(Got[I] - Want[I]) <= 1e-9 * (1.0 + std::abs(Want[I]))))
      return false;
  return true;
}

bool sameBytes(const Tensor &T, const std::vector<double> &Golden) {
  const Region *R = T.region();
  return R && static_cast<size_t>(R->volume()) == Golden.size() &&
         std::memcmp(R->data(), Golden.data(),
                     Golden.size() * sizeof(double)) == 0;
}

void Report::fail(const std::string &Why) {
  Correct = false;
  // A broken build can fail every request; the first few say enough.
  if (++Failures <= 20)
    note("FAILURE: " + Why);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer() : Origin(Clock::now()) { Spans.reserve(1 << 16); }

int64_t Tracer::ns(Clock::time_point T) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
      .count();
}

int32_t Tracer::begin(const char *Name, int32_t Parent, int64_t Request) {
  return beginAt(Name, Clock::now(), Parent, Request);
}

int32_t Tracer::beginAt(const char *Name, Clock::time_point Start,
                        int32_t Parent, int64_t Request) {
  std::lock_guard<std::mutex> Lock(Mu);
  Span S;
  S.Name = Name;
  S.StartNs = S.EndNs = ns(Start);
  S.Parent = Parent;
  S.Request = Request;
  Spans.push_back(S);
  return static_cast<int32_t>(Spans.size() - 1);
}

void Tracer::end(int32_t Id) { endAt(Id, Clock::now()); }

void Tracer::endAt(int32_t Id, Clock::time_point End) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Id].EndNs = ns(End);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, double> Tracer::meanSelfMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::vector<int32_t>> Kids(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Kids[Spans[I].Parent].push_back(static_cast<int32_t>(I));
  std::map<std::string, std::pair<double, int64_t>> Acc;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (int32_t K : Kids[I])
      Iv.emplace_back(std::max(S.StartNs, Spans[K].StartNs),
                      std::min(S.EndNs, Spans[K].EndNs));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [Lo, Hi] : Iv) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    auto &[Sum, N] = Acc[S.Name];
    Sum += static_cast<double>(S.EndNs - S.StartNs - Covered) / 1e6;
    ++N;
  }
  std::map<std::string, double> Out;
  for (const auto &[Name, SN] : Acc)
    Out[Name] = SN.first / static_cast<double>(SN.second);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%lld}}",
                  I ? ",\n" : "\n", S.Name,
                  static_cast<long long>(S.Request < 0 ? 0 : S.Request % 64),
                  S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                  static_cast<long long>(S.Request));
    Out << Buf;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Report helpers
//===----------------------------------------------------------------------===//

static std::string fmt(const char *F, double A, double B = 0, double C = 0,
                       double D = 0) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), F, A, B, C, D);
  return Buf;
}

namespace {

LoopStats closedLoop(Report &R, const ClosedLoop &W, double Seconds,
                     int64_t MaxRequests, Tracer *Tr) {
  LoopStats L;
  Clock::time_point Start = Clock::now();
  while (MaxRequests > 0 ? L.Requests < MaxRequests
                         : msSince(Start) < Seconds * 1e3) {
    Status St;
    Clock::time_point T0 = Clock::now();
    {
      SpanScope Req(Tr, "request", -1, L.Requests);
      SpanScope Api(Tr, "api.evaluate", Req.id(), L.Requests);
      St = W.Request();
    }
    double Ms = msSince(T0);
    ++L.Requests;
    if (!St.ok() || !W.Verify()) {
      ++L.Failed;
      R.fail(std::string(W.Name) + " request " + std::to_string(L.Requests) +
             ": " + (St.ok() ? "output not bitwise-identical" : St.str()));
    }
    L.LatMs.push_back(Ms);
    L.BusyMs += Ms;
    // Every CompileEvery-th timed request is followed by one cold compile,
    // outside the request's time, so the samples span the run.
    if (Seconds > 0 && L.Requests % W.CompileEvery == 0)
      L.CompileMs.push_back(W.ColdCompileMs());
  }
  R.Attempted += L.Requests;
  R.Failed += L.Failed;
  return L;
}

} // namespace

void runClosedLoop(const Config &Cfg, Report &R, const ClosedLoop &W,
                   const PlanCache::Stats &CacheBefore, int CountedRequests,
                   const std::vector<double> &SetupS, LoopStats &Plain,
                   LoopStats &Traced) {
  // The PlanCache count window: set-up plus a fixed number of requests, so
  // the counts repeat exactly at a given seed.
  closedLoop(R, W, 0, CountedRequests, nullptr);
  reportPlanCache(R, CacheBefore);
  ExecutionSlot::resetPeakActiveExecutions();
  if (Cfg.Trace) {
    Plain = closedLoop(R, W, Cfg.Seconds / 2, 0, nullptr);
    Traced = closedLoop(R, W, Cfg.Seconds / 2, 0, &R.Spans);
  } else {
    Plain = closedLoop(R, W, Cfg.Seconds, 0, nullptr);
  }
  const LoopStats &S = Cfg.Trace ? Traced : Plain;
  double Ok = static_cast<double>(S.Requests - S.Failed);
  R.e2e("latency_ms_p50", percentile(S.LatMs, 50), "ms");
  R.e2e("latency_ms_p90", percentile(S.LatMs, 90), "ms");
  R.e2e("throughput_rps", S.BusyMs > 0 ? Ok / (S.BusyMs / 1e3) : 0, "1/s");
  R.e2e("gflops",
        S.BusyMs > 0 ? W.FlopsPerRequest * Ok / (S.BusyMs / 1e3) / 1e9 : 0,
        "GFLOP/s");
  R.e2e("peak_rss_mb", peakRssMb(), "MiB");
  R.note(std::string(W.Name) + (Cfg.Trace ? " (traced half)" : "") +
         fmt(": %.0f requests (latency samples), %.0f failed",
             static_cast<double>(S.Requests), static_cast<double>(S.Failed)));
  R.note(fmt("latency_ms_p99 is not reported for this closed loop: %.0f "
             "samples leave fewer than 10 beyond p99 below 1000",
             static_cast<double>(S.LatMs.size())));
  reportSetup(R, SetupS, S.CompileMs);
}

void reportSetup(Report &R, const std::vector<double> &SetupS,
                 const std::vector<double> &CompileMs) {
  R.e2e("setup_s", median(SetupS), "s");
  R.e2e("compile_ms_p50", median(CompileMs), "ms");
  std::string L = "setup_s samples:";
  for (double S : SetupS)
    L += fmt(" %.3f", S);
  R.note(L);
  R.note(fmt("compile_ms p10 %.4f p50 %.4f p90 %.4f over %.0f "
             "fresh-statement compiles (PlanCache misses)",
             percentile(CompileMs, 10), percentile(CompileMs, 50),
             percentile(CompileMs, 90), static_cast<double>(CompileMs.size())));
}

void reportTraceOverhead(Report &R, const LoopStats &Untraced,
                         const LoopStats &Traced) {
  double U = percentile(Untraced.LatMs, 50), V = percentile(Traced.LatMs, 50);
  R.layer("trace.untraced_latency_ms_p50", U, "ms");
  R.layer("trace.traced_latency_ms_p50", V, "ms");
  R.layer("trace.overhead_ms_p50", V - U, "ms");
  R.layer("trace.spans", static_cast<double>(R.Spans.size()), "count");
  std::map<std::string, double> Self = R.Spans.meanSelfMs();
  for (const auto &[Name, Ms] : Self)
    R.layer("self_ms." + Name, Ms, "ms");
}

//===----------------------------------------------------------------------===//
// Layer probes
//===----------------------------------------------------------------------===//

namespace probe {

void lower(Report &R, Tracer *Tr, Tensor &T, const Machine &M, int Reps) {
  std::vector<double> Ms;
  for (int I = 0; I < Reps; ++I) {
    SpanScope S(Tr, "lower");
    Clock::time_point T0 = Clock::now();
    Plan P = T.lower(M);
    Ms.push_back(msSince(T0));
  }
  R.layer("lower.ms_p50", median(Ms), "ms");
}

void buildPlan(Report &R, Tracer *Tr, Tensor &T, const Machine &M, int Reps) {
  Plan P = T.lower(M);
  std::vector<double> Ms;
  int64_t Footprint = 0;
  for (int I = 0; I < Reps; ++I) {
    Plan Copy = P;
    SpanScope S(Tr, "compiled_plan.build");
    Clock::time_point T0 = Clock::now();
    CompiledPlan CP(std::move(Copy));
    Ms.push_back(msSince(T0));
    Footprint = CP.footprintBytes();
  }
  R.layer("compiled_plan.build_ms_p50", median(Ms), "ms");
  R.layer("compiled_plan.footprint_bytes", static_cast<double>(Footprint),
          "B");
}

void execVsAdmission(Report &R, Tracer *Tr, CompiledPlan &CP,
                     const std::map<TensorVar, Region *> &Regions,
                     int Threads, int Reps) {
  ExecOptions Opts;
  Opts.NumThreads = Threads;
  Opts.Mode = TraceMode::Off;
  std::vector<double> Direct, Overhead;
  for (int I = 0; I < Reps; ++I) {
    double D, A;
    {
      SpanScope S(Tr, "exec.plan");
      Clock::time_point T0 = Clock::now();
      CP.execute(Regions, Opts);
      D = msSince(T0);
    }
    {
      SpanScope S(Tr, "admission.roundtrip");
      Clock::time_point T0 = Clock::now();
      ExecFuture F =
          CP.submit(Regions, Opts, AdmissionQueue::Dispatch::Deferred);
      Status St = F.wait();
      A = msSince(T0);
      if (!St.ok())
        R.fail("admission probe: " + St.str());
    }
    Direct.push_back(D);
    Overhead.push_back(A - D);
  }
  R.layer("exec.plan_ms_p50", median(Direct), "ms");
  R.layer("admission.overhead_ms_p50", median(Overhead), "ms");
}

void gatherReplay(Report &R, Tracer *Tr,
                  const std::vector<const CompiledPlan *> &Plans,
                  const std::map<TensorVar, Region *> &Regions, int Reps) {
  std::vector<const CompiledGather *> Gathers;
  auto Add = [&](const CompiledGather &G) {
    if (!G.IsOutput && G.Class == GatherClass::Coalesced)
      Gathers.push_back(&G);
  };
  for (const CompiledPlan *CP : Plans)
    for (const CompiledTask &T : CP->compiledTasks()) {
      for (const CompiledGather &G : T.LaunchGathers)
        Add(G);
      for (const auto &Step : T.StepGathers)
        for (const CompiledGather &G : Step)
          Add(G);
    }
  std::vector<Instance> Bufs(Gathers.size());
  int64_t Bytes = 0;
  for (size_t I = 0; I < Gathers.size(); ++I) {
    Bufs[I].reserve(Gathers[I]->R.volume());
    Bytes += Gathers[I]->R.volume() * 8;
  }
  std::vector<double> Ms;
  for (int Rep = 0; Rep < Reps && !Gathers.empty(); ++Rep) {
    SpanScope S(Tr, "region.gather");
    Clock::time_point T0 = Clock::now();
    for (size_t I = 0; I < Gathers.size(); ++I) {
      Bufs[I].reset(Gathers[I]->R);
      Regions.at(Gathers[I]->Tensor)->gatherCompiled(Bufs[I], Gathers[I]->Runs);
    }
    Ms.push_back(msSince(T0));
  }
  double Med = median(Ms);
  R.layer("region.gather_gbps", Med > 0 ? Bytes / (Med / 1e3) / 1e9 : 0,
          "GB/s");
  R.layer("region.gather_replay_bytes", static_cast<double>(Bytes), "B");
}

void linkAndExecute(Report &R, Tracer *Tr,
                    const std::vector<std::shared_ptr<CompiledPlan>> &Members,
                    CompiledProgram &Prog,
                    const std::map<TensorVar, Region *> &Regions, int Threads,
                    int Reps) {
  ExecOptions Opts;
  Opts.NumThreads = Threads;
  Opts.Mode = TraceMode::Off;
  std::vector<double> Link, Exec;
  for (int I = 0; I < Reps; ++I) {
    {
      SpanScope S(Tr, "compiled_program.link");
      Clock::time_point T0 = Clock::now();
      CompiledProgram Linked(Members);
      Link.push_back(msSince(T0));
    }
    SpanScope S(Tr, "exec.program");
    Clock::time_point T0 = Clock::now();
    Prog.execute(Regions, Opts);
    Exec.push_back(msSince(T0));
  }
  R.layer("compiled_program.link_ms_p50", median(Link), "ms");
  R.layer("exec.program_ms_p50", median(Exec), "ms");
}

void blasGemm(Report &R, Tracer *Tr, int64_t M, int64_t N, int64_t K,
              int Reps) {
  std::vector<double> A(M * K), B(K * N), C(M * N, 0.0);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = inputValue(7, 1, I);
  for (size_t I = 0; I < B.size(); ++I)
    B[I] = inputValue(7, 2, I);
  std::vector<double> Ms;
  for (int I = 0; I < Reps; ++I) {
    SpanScope S(Tr, "blas.gemm");
    Clock::time_point T0 = Clock::now();
    blas::gemm(C.data(), A.data(), B.data(), M, N, K, N, K, N);
    Ms.push_back(msSince(T0));
  }
  R.layer("blas.gemm_gflops", 2.0 * M * N * K / (median(Ms) / 1e3) / 1e9,
          "GFLOP/s");
}

void blasDot(Report &R, Tracer *Tr, int64_t Len, int Reps) {
  std::vector<double> A(Len), B(Len);
  for (int64_t I = 0; I < Len; ++I) {
    A[I] = inputValue(7, 3, I);
    B[I] = inputValue(7, 4, I);
  }
  std::vector<double> Ms;
  volatile double Sink = 0;
  for (int I = 0; I < Reps; ++I) {
    SpanScope S(Tr, "blas.dot");
    Clock::time_point T0 = Clock::now();
    Sink = Sink + blas::dot(A.data(), B.data(), Len);
    Ms.push_back(msSince(T0));
  }
  R.layer("blas.dot_gbps", 16.0 * Len / (median(Ms) / 1e3) / 1e9, "GB/s");
}

void simulate(Report &R, Tracer *T, const std::vector<const Trace *> &Traces,
              const Machine &M) {
  SpanScope S(T, "simulator.simulate");
  double Comm = 0, Ms = 0;
  for (const Trace *Tr : Traces) {
    Comm += static_cast<double>(Tr->totalCommBytes());
    Ms += distal::simulate(*Tr, M, MachineSpec{}).Seconds * 1e3;
  }
  R.layer("simulator.comm_bytes", Comm, "B");
  R.layer("simulator.predicted_ms", Ms, "ms");
}

} // namespace probe

void reportMovement(Report &R,
                    const std::vector<std::shared_ptr<CompiledPlan>> &Plans,
                    const std::vector<std::shared_ptr<CompiledProgram>> &Programs) {
  CompiledPlan::DataMovementStats Sum;
  auto Add = [&](const CompiledPlan::DataMovementStats &D) {
    Sum.GatheredBytes += D.GatheredBytes;
    Sum.ElidedBytes += D.ElidedBytes;
    Sum.WritebackBytes += D.WritebackBytes;
    Sum.WritebackElidedBytes += D.WritebackElidedBytes;
  };
  CompiledProgram::LinkStats Links;
  for (const auto &P : Plans)
    Add(P->dataMovementStats());
  for (const auto &P : Programs) {
    Add(P->dataMovementStats());
    CompiledProgram::LinkStats L = P->linkStats();
    Links.ElidedGatherBytes += L.ElidedGatherBytes;
    Links.DirectDeps += L.DirectDeps;
    Links.BarrierDeps += L.BarrierDeps;
  }
  R.layer("region.gathered_bytes", static_cast<double>(Sum.GatheredBytes), "B");
  R.layer("region.elided_bytes", static_cast<double>(Sum.ElidedBytes), "B");
  R.layer("region.writeback_bytes", static_cast<double>(Sum.WritebackBytes),
          "B");
  R.layer("region.writeback_elided_bytes",
          static_cast<double>(Sum.WritebackElidedBytes), "B");
  R.layer("region.moved_bytes", static_cast<double>(Sum.movedBytes()), "B");
  R.layer("compiled_program.elided_gather_bytes",
          static_cast<double>(Links.ElidedGatherBytes), "B");
  R.layer("compiled_program.direct_deps", static_cast<double>(Links.DirectDeps),
          "count");
  R.layer("compiled_program.barrier_deps",
          static_cast<double>(Links.BarrierDeps), "count");
}

void ArtifactCounters::add(CompiledPlan &CP) {
  CompiledPlan::ArenaStats A = CP.arenaStats();
  ArenasCreated += A.Created;
  ArenasReused += A.Reused;
  AdmissionQueue::Stats S = CP.admission().stats();
  Admitted += S.Admitted;
  Coalesced += S.Coalesced;
  Rejected += S.Rejected;
  Shed += S.Shed;
  PeakActive = std::max<int64_t>(PeakActive, S.PeakActive);
}

void ArtifactCounters::add(const CompiledProgram &CP) {
  CompiledPlan::ArenaStats A = CP.arenaStats();
  ArenasCreated += A.Created;
  ArenasReused += A.Reused;
}

void ArtifactCounters::report(Report &R) const {
  int64_t Acquired = ArenasCreated + ArenasReused;
  R.layer("arena.created", static_cast<double>(ArenasCreated), "count");
  R.layer("arena.reused", static_cast<double>(ArenasReused), "count");
  R.layer("arena.reuse_ratio",
          Acquired ? static_cast<double>(ArenasReused) / Acquired : 0,
          "ratio");
  R.layer("admission.admitted", static_cast<double>(Admitted), "count");
  R.layer("admission.coalesced", static_cast<double>(Coalesced), "count");
  R.layer("admission.rejected", static_cast<double>(Rejected), "count");
  R.layer("admission.shed", static_cast<double>(Shed), "count");
  R.layer("admission.peak_active", static_cast<double>(PeakActive), "count");
}

void reportPlanCache(Report &R, const PlanCache::Stats &Before) {
  PlanCache::Stats S = PlanCache::global().stats();
  double Hits = static_cast<double>(S.Hits - Before.Hits);
  double Misses = static_cast<double>(S.Misses - Before.Misses);
  R.layer("plan_cache.hits", Hits, "count");
  R.layer("plan_cache.misses", Misses, "count");
  R.layer("plan_cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
          "ratio");
  R.layer("plan_cache.program_hits",
          static_cast<double>(S.ProgramHits - Before.ProgramHits), "count");
  R.layer("plan_cache.program_misses",
          static_cast<double>(S.ProgramMisses - Before.ProgramMisses), "count");
}

void reportProcessCounters(Report &R) {
  ResourceGovernor::Stats G = ResourceGovernor::stats();
  R.layer("governor.degraded", static_cast<double>(G.DegradedAdmissions),
          "count");
  R.layer("governor.shed", static_cast<double>(G.ShedRequests), "count");
  if (G.DegradedAdmissions || G.ShedRequests)
    R.fail("the disarmed ResourceGovernor degraded or shed requests");
  R.layer("exec_context.peak_active",
          static_cast<double>(ExecutionSlot::peakActiveExecutions()), "count");
}

} // namespace perfbench
