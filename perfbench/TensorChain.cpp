//===- perfbench/TensorChain.cpp - Closed-loop linked tensor chain -------===//
//
// tensor_chain: one client calls Program::evaluate back to back on one
// linked program holding the CP-ALS chain (MTTKRP -> normalize) and the
// Tucker chain (TTM -> TTV -> fit) of examples/tucker_mttkrp.cpp, both
// reading one D^3 tensor that is at least 4x the host's last-level cache.
// Low ops per byte: Region gathers and writebacks, CompiledProgram's
// linked DAG, and the general-affine leaves do the work, blas::gemm does
// little. The rank, not D, is what keeps one program near 100 ms.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace distal;

namespace perfbench {
namespace {

/// 384^3 doubles = 432 MiB, over 4x a 105 MiB L3.
constexpr Coord D = 384;
constexpr Coord Rank = 2;
constexpr int Grid = 2;
constexpr int SetupReps = 5;
/// About 30 compile samples in a 20 s run.
constexpr int CompileEvery = 5;
constexpr int WarmupRequests = 1;
constexpr int CountedRequests = 2;

Format fmt(int Order, const std::string &Spec) {
  return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                TensorDistribution::parse(Spec));
}

/// Input streams of inputValue.
enum Stream : uint64_t { SB = 1, SC, SD, STtmC, STtvC, STtvX };

/// The shared inputs of both chains.
struct Inputs {
  Tensor B{"B", {D, D, D}, fmt(3, "xyz->xy")};
  Tensor CpC{"cpC", {D, Rank}, fmt(2, "xy->*x")};
  Tensor CpD{"cpD", {D, Rank}, fmt(2, "xy->**")};
  Tensor TtmC{"ttmC", {D, Rank}, fmt(2, "xy->**")};
  Tensor TtvC{"ttvC", {Rank}, fmt(1, "x->**")};
  Tensor TtvX{"ttvX", {D, D}, fmt(2, "xy->xy")};

  explicit Inputs(uint64_t Seed) {
    fillSeeded(B, Seed, SB);
    fillSeeded(CpC, Seed, SC);
    fillSeeded(CpD, Seed, SD);
    fillSeeded(TtmC, Seed, STtmC);
    fillSeeded(TtvC, Seed, STtvC);
    fillSeeded(TtvX, Seed, STtvX);
  }
};

/// The outputs of one instance of the five-statement program. Fresh
/// outputs make fresh statements, so the first compile misses.
struct Chain {
  Tensor CpA{"cpA", {D, Rank}, fmt(2, "xy->x0")};
  Tensor CpAn{"cpAn", {D, Rank}, fmt(2, "xy->xy")};
  Tensor TtmA{"ttmA", {D, D, Rank}, fmt(3, "xyz->xy")};
  Tensor TtvA{"ttvA", {D, D}, fmt(2, "xy->xy")};
  Tensor Fit{"fit", {}, fmt(0, "->00")};
  Program Prog;

  Chain(Inputs &In, int Threads) {
    IndexVar I("i"), J("j"), K("k"), L("l"), Io("io"), Ii("ii"), Jo("jo"),
        Ji("ji"), Lo("lo"), Li("li");
    std::vector<int> G{Grid, Grid};
    CpA(I, L) = In.B(I, J, K) * In.CpC(J, L) * In.CpD(K, L);
    CpA.schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, G)
        .communicate({CpA, In.B, In.CpC, In.CpD}, Jo)
        .parallelize(Ii);
    CpAn(I, L) = CpA(I, L) * 0.125;
    CpAn.schedule()
        .distribute({I, L}, {Io, Lo}, {Ii, Li}, G)
        .communicate({CpAn, CpA}, Lo)
        .parallelize(Ii);
    TtmA(I, J, L) = In.B(I, J, K) * In.TtmC(K, L);
    TtmA.schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, G)
        .communicate({TtmA, In.B, In.TtmC}, Jo)
        .parallelize(Ii);
    TtvA(I, J) = TtmA(I, J, L) * In.TtvC(L);
    TtvA.schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, G)
        .communicate({TtvA, TtmA, In.TtvC}, Jo)
        .parallelize(Ii);
    Fit() = TtvA(I, J) * In.TtvX(I, J);
    Fit.schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, G)
        .communicate({Fit, TtvA, In.TtvX}, Jo)
        .parallelize(Ii);
    Prog.add(CpA).add(CpAn).add(TtmA).add(TtvA).add(Fit);
    Prog.execOptions().NumThreads = Threads;
  }

  std::vector<Tensor *> outputs() { return {&CpA, &CpAn, &TtmA, &TtvA, &Fit}; }
};

/// Naive loops over regenerated inputs, in the program's output order.
std::vector<std::vector<double>> oracle(uint64_t Seed) {
  auto Gen = [Seed](Stream S, Coord N) {
    std::vector<double> V(N);
    for (Coord X = 0; X < N; ++X)
      V[X] = inputValue(Seed, S, X);
    return V;
  };
  std::vector<double> C = Gen(SC, D * Rank), Dm = Gen(SD, D * Rank),
                      TC = Gen(STtmC, D * Rank), TV = Gen(STtvC, Rank),
                      TX = Gen(STtvX, D * D);
  std::vector<double> A(D * Rank, 0.0), An(D * Rank), Ttm(D * D * Rank, 0.0),
      Ttv(D * D, 0.0), Fit(1, 0.0);
  for (Coord I = 0; I < D; ++I)
    for (Coord J = 0; J < D; ++J)
      for (Coord K = 0; K < D; ++K) {
        double Bv = inputValue(Seed, SB, (I * D + J) * D + K);
        for (Coord L = 0; L < Rank; ++L) {
          A[I * Rank + L] += Bv * C[J * Rank + L] * Dm[K * Rank + L];
          Ttm[(I * D + J) * Rank + L] += Bv * TC[K * Rank + L];
        }
      }
  for (Coord X = 0; X < D * Rank; ++X)
    An[X] = A[X] * 0.125;
  for (Coord X = 0; X < D * D; ++X) {
    for (Coord L = 0; L < Rank; ++L)
      Ttv[X] += Ttm[X * Rank + L] * TV[L];
    Fit[0] += Ttv[X] * TX[X];
  }
  return {A, An, Ttm, Ttv, Fit};
}

} // namespace

int runTensorChain(const Config &Cfg, Report &R) {
  const double Flops = 3.0 * D * D * D * Rank + D * Rank +
                       2.0 * D * D * D * Rank + 2.0 * D * D * Rank +
                       2.0 * D * D;
  PlanCache::Stats CacheBefore = PlanCache::global().stats();
  const std::vector<std::vector<double>> Want = oracle(Cfg.Seed);
  std::vector<std::vector<double>> Golden;
  Machine M = Machine::grid({Grid, Grid});

  std::unique_ptr<Inputs> In;
  std::unique_ptr<Chain> Ch;
  std::vector<double> SetupS;
  auto Check = [&](Chain &C, const char *When) {
    std::vector<Tensor *> Outs = C.outputs();
    bool Ok = true;
    for (size_t I = 0; I < Outs.size(); ++I)
      Ok &= Golden.empty() ? closeTo(snapshot(*Outs[I]), Want[I])
                           : sameBytes(*Outs[I], Golden[I]);
    if (!Ok)
      R.fail(std::string("tensor_chain output ") + When +
             (Golden.empty() ? " differs from the naive-loop oracle"
                             : " is not bitwise-identical"));
    return Ok;
  };
  for (int S = 0; S < SetupReps; ++S) {
    // An empty PlanCache per set-up: peak_rss_mb then holds one working
    // set, not the earlier set-ups' artifacts and arenas.
    Ch.reset();
    In.reset();
    PlanCache::global().clear();
    Clock::time_point T0 = Clock::now();
    In = std::make_unique<Inputs>(Cfg.Seed);
    Ch = std::make_unique<Chain>(*In, Cfg.Threads);
    Ch->Prog.compile(M);
    for (int W = 0; W < WarmupRequests; ++W)
      if (Status St = Ch->Prog.tryEvaluate(M); !St.ok())
        R.fail("tensor_chain warm-up: " + St.str());
    SetupS.push_back(msSince(T0) / 1e3);
    if (Check(*Ch, "after set-up") && Golden.empty())
      for (Tensor *T : Ch->outputs())
        Golden.push_back(snapshot(*T));
  }
  R.note("tensor_chain sizes: B is " + std::to_string(D) + "^3 doubles = " +
         std::to_string(D * D * D * 8 >> 20) + " MiB (L3 105 MiB), rank " +
         std::to_string(Rank) + ", 2x2 grid");

  ClosedLoop W{"tensor_chain", Flops,
               [&] { return Ch->Prog.tryEvaluate(M); },
               [&] { return Check(*Ch, "of a request"); },
               [&] {
                 Chain Cold(*In, Cfg.Threads);
                 Clock::time_point C0 = Clock::now();
                 Cold.Prog.compile(M);
                 return msSince(C0);
               },
               CompileEvery};
  LoopStats Plain, Traced;
  runClosedLoop(Cfg, R, W, CacheBefore, CountedRequests, SetupS, Plain,
                Traced);
  if (!Cfg.Trace)
    return 0;

  Tracer *Tr = &R.Spans;
  std::shared_ptr<CompiledProgram> Prog = Ch->Prog.compile(M);
  reportProcessCounters(R);

  std::vector<std::shared_ptr<CompiledPlan>> Members;
  for (Tensor *T : Ch->outputs())
    Members.push_back(T->compile(M));
  ArtifactCounters Counters;
  Counters.add(*Prog);
  Counters.report(R);
  reportMovement(R, {}, {Prog});

  // Every tensor of the program, for the direct-execute probes.
  std::map<TensorVar, Region *> All;
  for (Tensor *T : Ch->outputs())
    All[T->var()] = T->region();
  for (Tensor *T : {&In->B, &In->CpC, &In->CpD, &In->TtmC, &In->TtvC,
                    &In->TtvX})
    All[T->var()] = T->region();

  probe::lower(R, Tr, Ch->CpA, M, 20);
  probe::buildPlan(R, Tr, Ch->CpA, M, 10);
  probe::linkAndExecute(R, Tr, Members, *Prog, All, Cfg.Threads, 8);
  std::map<TensorVar, Region *> Mttkrp;
  for (const TensorVar &T : Members[0]->plan().Nest.Stmt.tensors())
    Mttkrp[T] = All.at(T);
  probe::execVsAdmission(R, Tr, *Members[0], Mttkrp, Cfg.Threads, 4);
  Check(*Ch, "after the direct-execute probes");
  std::vector<const CompiledPlan *> MemberPlans;
  for (const auto &CP : Members)
    MemberPlans.push_back(CP.get());
  probe::gatherReplay(R, Tr, MemberPlans, All, 5);
  probe::blasDot(R, Tr, D * D / (Grid * Grid), 20);
  probe::simulate(R, Tr, {&Prog->trace()}, M);
  R.layer("kernel.flops_per_byte",
          Flops / (static_cast<double>(D) * D * D * 8), "FLOP/B");
  reportTraceOverhead(R, Plain, Traced);
  return 0;
}

} // namespace perfbench
