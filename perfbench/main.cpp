//===- perfbench/main.cpp - Repository benchmark entry point --------------===//
//
// Usage:
//   perfbench --workload <gemm_dense|tensor_chain|serving_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Runs one seeded workload through the public Tensor/Program API, checks
// every output against an oracle written here, and prints a human-readable
// report followed, as the last line, by one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// perfbench/README.md for every metric and why each workload exists.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "support/ResourceGovernor.h"

using namespace perfbench;

namespace {

/// The metric lists of BENCHMARK.json, with their units.
struct NamedUnit {
  const char *Name, *Unit;
};

const NamedUnit EndToEndMetrics[] = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"throughput_rps", "1/s"},
    {"gflops", "GFLOP/s"},
    {"compile_ms_p50", "ms"},
    {"peak_rss_mb", "MiB"},
};

const NamedUnit PerLayerMetrics[] = {
    {"api.submit_ms_p50", "ms"},
    {"loadgen.lag_ms_p99", "ms"},
    {"lower.ms_p50", "ms"},
    {"plan_cache.hits", "count"},
    {"plan_cache.misses", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.program_hits", "count"},
    {"plan_cache.program_misses", "count"},
    {"compiled_plan.build_ms_p50", "ms"},
    {"compiled_program.link_ms_p50", "ms"},
    {"compiled_plan.footprint_bytes", "B"},
    {"admission.admitted", "count"},
    {"admission.coalesced", "count"},
    {"admission.rejected", "count"},
    {"admission.shed", "count"},
    {"admission.peak_active", "count"},
    {"admission.overhead_ms_p50", "ms"},
    {"arena.created", "count"},
    {"arena.reused", "count"},
    {"arena.reuse_ratio", "ratio"},
    {"exec.plan_ms_p50", "ms"},
    {"exec.program_ms_p50", "ms"},
    {"region.gathered_bytes", "B"},
    {"region.elided_bytes", "B"},
    {"region.writeback_bytes", "B"},
    {"region.writeback_elided_bytes", "B"},
    {"region.moved_bytes", "B"},
    {"region.gather_gbps", "GB/s"},
    {"region.gather_replay_bytes", "B"},
    {"compiled_program.elided_gather_bytes", "B"},
    {"compiled_program.direct_deps", "count"},
    {"compiled_program.barrier_deps", "count"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.dot_gbps", "GB/s"},
    {"kernel.flops_per_byte", "FLOP/B"},
    {"exec_context.peak_active", "count"},
    {"governor.degraded", "count"},
    {"governor.shed", "count"},
    {"simulator.comm_bytes", "B"},
    {"simulator.predicted_ms", "ms"},
    {"trace.untraced_latency_ms_p50", "ms"},
    {"trace.traced_latency_ms_p50", "ms"},
    {"trace.overhead_ms_p50", "ms"},
    {"trace.spans", "count"},
    {"self_ms.request", "ms"},
    {"self_ms.api.evaluate", "ms"},
    {"self_ms.api.submit", "ms"},
    {"self_ms.inflight", "ms"},
    {"self_ms.lower", "ms"},
    {"self_ms.plan_cache.compile", "ms"},
    {"self_ms.compiled_plan.build", "ms"},
    {"self_ms.compiled_program.link", "ms"},
    {"self_ms.exec.plan", "ms"},
    {"self_ms.exec.program", "ms"},
    {"self_ms.admission.roundtrip", "ms"},
    {"self_ms.region.gather", "ms"},
    {"self_ms.blas.gemm", "ms"},
    {"self_ms.blas.dot", "ms"},
    {"self_ms.simulator.simulate", "ms"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<gemm_dense|tensor_chain|serving_mix> --seed <n> --seconds "
               "<s> --trace <0|1> [--spans-out <file>]\n",
               Why);
  return 2;
}

/// Prints the selected metrics as the JSON result line.
void printResult(const Report &R,
                 const std::map<std::string, Report::Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<long long>(R.Attempted),
              static_cast<long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  std::string SpansOut;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = Argv[++I];
    if (Arg == "--workload") {
      Cfg.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Cfg.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Arg == "--seconds") {
      Cfg.Seconds = std::atof(Val.c_str());
    } else if (Arg == "--trace") {
      Cfg.Trace = Val == "1";
    } else if (Arg == "--spans-out") {
      SpansOut = Val;
    } else {
      return usage(("unknown flag " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (!(Cfg.Seconds > 0))
    return usage("--seconds must be positive");
  Cfg.Threads = static_cast<int>(std::thread::hardware_concurrency());
  if (Cfg.Threads < 1)
    Cfg.Threads = 1;

  // Measurements assume the memory governor is disarmed: its responses
  // (degrade, shed) would change what is measured. reportProcessCounters
  // invalidates a run in which it acted anyway.
  distal::ResourceGovernor::disarm();

  Report R;
  int Rc;
  if (Cfg.Workload == "gemm_dense")
    Rc = runGemmDense(Cfg, R);
  else if (Cfg.Workload == "tensor_chain")
    Rc = runTensorChain(Cfg, R);
  else if (Cfg.Workload == "serving_mix")
    Rc = runServingMix(Cfg, R);
  else
    return usage(("unknown workload " + Cfg.Workload).c_str());
  if (Rc != 0)
    return Rc;
  if (Cfg.Trace && !SpansOut.empty() && !R.Spans.write(SpansOut))
    R.note("could not write spans to " + SpansOut);

  // Select the contract's metrics; a workload must set every end-to-end
  // metric, per-layer metrics it does not exercise read 0.
  std::map<std::string, Report::Metric> Out;
  std::string Unset;
  auto Select = [&](const std::map<std::string, Report::Metric> &From,
                    const NamedUnit &N, bool Required) {
    auto It = From.find(N.Name);
    if (It == From.end()) {
      if (Required)
        return false;
      Unset += std::string(" ") + N.Name;
      Out[N.Name] = {0, N.Unit};
      return true;
    }
    Out[N.Name] = It->second;
    return It->second.Unit == N.Unit;
  };
  for (const NamedUnit &N : EndToEndMetrics)
    if (!Select(R.EndToEnd, N, true)) {
      std::fprintf(stderr, "perfbench: %s unset or not in %s\n", N.Name,
                   N.Unit);
      return 3;
    }
  if (Cfg.Trace) {
    Out.clear();
    for (const NamedUnit &N : PerLayerMetrics)
      if (!Select(R.PerLayer, N, false)) {
        std::fprintf(stderr, "perfbench: %s not in %s\n", N.Name, N.Unit);
        return 3;
      }
    if (!Unset.empty())
      R.note("not exercised by this workload (reported as 0):" + Unset);
  }
  for (auto &[Name, M] : Out)
    if (!std::isfinite(M.Value)) {
      R.fail(Name + " is not finite");
      M.Value = 0;
    }

  std::printf("workload %s seed %llu seconds %g trace %d threads %d\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Trace ? 1 : 0, Cfg.Threads);
  for (const std::string &L : R.Notes)
    std::printf("# %s\n", L.c_str());
  for (const auto &[Name, M] : R.EndToEnd)
    std::printf("e2e   %-34s %14.6g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  if (Cfg.Trace)
    for (const auto &[Name, M] : R.PerLayer)
      std::printf("layer %-34s %14.6g %s\n", Name.c_str(), M.Value,
                  M.Unit.c_str());
  std::printf("fail_share %.6g (%lld of %lld requests)\n",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
              static_cast<long long>(R.Failed),
              static_cast<long long>(R.Attempted));
  printResult(R, Out);
  return 0;
}
