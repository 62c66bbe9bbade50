//===- perfbench/GemmDense.cpp - Closed-loop Cannon GEMM workload ---------===//
//
// gemm_dense: one client calls Tensor::evaluate back to back on the paper's
// Fig. 2 Cannon schedule (distribute / divide / rotate / communicate /
// substitute GeMM) over a 2x2 grid. Compute-bound: blas and the thread
// pool do nearly all the work, while the PlanCache, admission, and compile
// see one warm hit per request — a front-end change should read "no
// change" here, a kernel or threading change should show.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace distal;

namespace perfbench {
namespace {

constexpr Coord N = 1024;
constexpr int Grid = 2;
constexpr int SetupReps = 15;
constexpr int WarmupRequests = 2;
constexpr int CountedRequests = 6;
/// About 35 compile samples in a 20 s run.
constexpr int CompileEvery = 16;

/// One Cannon GEMM statement A = B * C over shared inputs.
struct Gemm {
  Machine M = Machine::grid({Grid, Grid});
  std::unique_ptr<Tensor> B, C;

  Format tiles() const {
    return Format({ModeKind::Dense, ModeKind::Dense},
                  TensorDistribution::parse("xy->xy"));
  }
  void makeInputs(uint64_t Seed) {
    B = std::make_unique<Tensor>("B", std::vector<Coord>{N, N}, tiles());
    C = std::make_unique<Tensor>("C", std::vector<Coord>{N, N}, tiles());
    fillSeeded(*B, Seed, 1);
    fillSeeded(*C, Seed, 2);
  }
  /// A fresh output tensor with the Cannon schedule (a new statement, so
  /// its first compile misses the PlanCache).
  std::unique_ptr<Tensor> makeOutput(int Threads) const {
    auto A = std::make_unique<Tensor>("A", std::vector<Coord>{N, N}, tiles());
    IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji"),
        Ko("ko"), Ki("ki"), Kos("kos");
    (*A)(I, J) = (*B)(I, K) * (*C)(K, J);
    A->schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{Grid, Grid})
        .divide(K, Ko, Ki, Grid)
        .reorder({Io, Jo, Ko, Ii, Ji, Ki})
        .rotate(Ko, {Io, Jo}, Kos)
        .communicate(*A, Jo)
        .communicate({*B, *C}, Kos)
        .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
    A->execOptions().NumThreads = Threads;
    return A;
  }
};

/// Naive i-k-j loops over regenerated inputs.
std::vector<double> oracle(uint64_t Seed) {
  std::vector<double> Bv(N * N), Cv(N * N), Out(N * N, 0.0);
  for (Coord X = 0; X < N * N; ++X) {
    Bv[X] = inputValue(Seed, 1, X);
    Cv[X] = inputValue(Seed, 2, X);
  }
  for (Coord I = 0; I < N; ++I)
    for (Coord K = 0; K < N; ++K) {
      double Bik = Bv[I * N + K];
      for (Coord J = 0; J < N; ++J)
        Out[I * N + J] += Bik * Cv[K * N + J];
    }
  return Out;
}

} // namespace

int runGemmDense(const Config &Cfg, Report &R) {
  const double Flops = 2.0 * N * N * N;
  PlanCache::Stats CacheBefore = PlanCache::global().stats();
  std::vector<double> Want = oracle(Cfg.Seed);
  std::vector<double> Golden;

  Gemm G;
  std::unique_ptr<Tensor> A;
  std::vector<double> SetupS;
  for (int S = 0; S < SetupReps; ++S) {
    // Each set-up starts from an empty PlanCache, so the earlier set-ups'
    // artifacts and arenas do not add to peak_rss_mb. Its hit and miss
    // counters survive the clear.
    A.reset();
    G.B.reset();
    G.C.reset();
    PlanCache::global().clear();
    Clock::time_point T0 = Clock::now();
    G.makeInputs(Cfg.Seed);
    A = G.makeOutput(Cfg.Threads);
    A->compile(G.M);
    for (int W = 0; W < WarmupRequests; ++W)
      if (Status St = A->tryEvaluate(G.M); !St.ok())
        R.fail("gemm_dense warm-up: " + St.str());
    SetupS.push_back(msSince(T0) / 1e3);
    // The first output that matches the oracle becomes the golden bytes;
    // without one, every request fails its check.
    if (Golden.empty()) {
      if (closeTo(snapshot(*A), Want))
        Golden = snapshot(*A);
      else
        R.fail("gemm_dense output differs from the naive-loop oracle");
    } else if (!sameBytes(*A, Golden)) {
      R.fail("gemm_dense output of a fresh compile is not bitwise-identical");
    }
  }
  ClosedLoop W{"gemm_dense", Flops,
               [&] { return A->tryEvaluate(G.M); },
               [&] { return sameBytes(*A, Golden); },
               [&] {
                 std::unique_ptr<Tensor> Cold = G.makeOutput(Cfg.Threads);
                 Clock::time_point C0 = Clock::now();
                 Cold->compile(G.M);
                 return msSince(C0);
               },
               CompileEvery};
  LoopStats Plain, Traced;
  runClosedLoop(Cfg, R, W, CacheBefore, CountedRequests, SetupS, Plain,
                Traced);
  if (!Cfg.Trace)
    return 0;

  Tracer *Tr = &R.Spans;
  std::shared_ptr<CompiledPlan> CP = A->compile(G.M);
  reportProcessCounters(R);
  ArtifactCounters Counters;
  Counters.add(*CP);
  Counters.report(R);
  reportMovement(R, {CP}, {});

  std::map<TensorVar, Region *> Regions = {{A->var(), A->region()},
                                           {G.B->var(), G.B->region()},
                                           {G.C->var(), G.C->region()}};
  probe::lower(R, Tr, *A, G.M, 20);
  probe::buildPlan(R, Tr, *A, G.M, 10);
  probe::execVsAdmission(R, Tr, *CP, Regions, Cfg.Threads, 8);
  if (!sameBytes(*A, Golden))
    R.fail("gemm_dense output changed under the admission probe");
  probe::gatherReplay(R, Tr, {CP.get()}, Regions, 10);
  probe::blasGemm(R, Tr, N / Grid, N / Grid, N / Grid, 10);
  probe::simulate(R, Tr, {&CP->trace()}, G.M);
  R.layer("kernel.flops_per_byte", Flops / (3.0 * N * N * 8), "FLOP/B");
  reportTraceOverhead(R, Plain, Traced);
  return 0;
}

} // namespace perfbench
