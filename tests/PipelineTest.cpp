//===- tests/PipelineTest.cpp - Step-order correctness ---------*- C++ -*-===//
//
// The executor's one step order (per-task chains of gathers and leaves,
// no global step barrier) must produce the same bytes whatever the thread
// count and task/leaf split: output data bitwise-equal to the 1-thread
// walk, for home-fed step gathers (SUMMA broadcasts), relay-routed ones
// (rotated Cannon shifts), general-affine leaves (MTTKRP), and a collapsed
// placement where every task shares one processor. Also covers the
// launch-phase zero-skip for overwrite-proven leaves and concurrent
// executes of one artifact.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "algorithms/Matmul.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"

#include <gtest/gtest.h>

#include <thread>

using namespace distal;
using namespace distal::algorithms;

namespace {

struct RunResult {
  Trace T;
  std::vector<double> OutData;
};

/// Runs \p P at the given configuration over freshly filled regions.
/// TaskWays == 0 uses setNumThreads(Threads) (adaptive split); otherwise
/// the split is pinned.
RunResult runPlan(const Plan &P, const std::vector<TensorVar> &Tensors,
                  int Threads, int TaskWays = 0, int LeafWays = 0,
                  LeafStrategy Strategy = LeafStrategy::Compiled) {
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (I > 0)
      Storage.back()->fillRandom(37 * I + 7);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(P);
  Exec.setLeafStrategy(Strategy);
  if (TaskWays > 0)
    Exec.setThreadSplit(TaskWays, LeafWays);
  else
    Exec.setNumThreads(Threads);
  RunResult R;
  R.T = Exec.run(Regions);
  const TensorVar &Out = Tensors[0];
  Rect::forExtents(Out.shape()).forEachPoint(
      [&](const Point &Pt) { R.OutData.push_back(Regions[Out]->at(Pt)); });
  return R;
}

void expectSameData(const RunResult &A, const RunResult &B) {
  ASSERT_EQ(A.OutData.size(), B.OutData.size());
  for (size_t I = 0; I < A.OutData.size(); ++I)
    // Bitwise, not approximate: the split must not change any rounding.
    ASSERT_EQ(A.OutData[I], B.OutData[I]) << "element " << I;
}

/// Sweeps the 1-thread walk against the DeterminismTest thread grid —
/// adaptive 8 threads plus every pinned {1,2,8} x {1,4} task/leaf split —
/// for both leaf strategies.
void expectStepOrderIdentical(const Plan &P,
                              const std::vector<TensorVar> &Tensors) {
  for (LeafStrategy Strategy :
       {LeafStrategy::Compiled, LeafStrategy::Interpreted}) {
    SCOPED_TRACE(Strategy == LeafStrategy::Compiled ? "compiled leaves"
                                                    : "interpreted leaves");
    RunResult Ref = runPlan(P, Tensors, 1, 0, 0, Strategy);
    expectSameData(Ref, runPlan(P, Tensors, 8, 0, 0, Strategy));
    for (int TaskWays : {1, 2, 8})
      for (int LeafWays : {1, 4}) {
        SCOPED_TRACE("task ways " + std::to_string(TaskWays) +
                     ", leaf ways " + std::to_string(LeafWays));
        expectSameData(
            Ref, runPlan(P, Tensors, 0, TaskWays, LeafWays, Strategy));
      }
  }
}

/// A gather-heavy rotated-Cannon shape:
/// A(n, r) = B(n, n) * C(n, r) on a g x 1 grid, K rotated systolically —
/// B's shifts are home-fed per task, C's relay between neighbour tasks.
Plan tallSkinnyCannon(Coord N, Coord R, int G, TensorVar &A, TensorVar &B,
                      TensorVar &C) {
  Machine M = Machine::grid({G, 1});
  A = TensorVar("A", {N, R});
  B = TensorVar("B", {N, N});
  C = TensorVar("C", {N, R});
  IndexVar I("i"), J("j"), K("k");
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki"),
      Kos("kos");
  Assignment Stmt(Access(A, {I, J}), Access(B, {I, K}) * Access(C, {K, J}));
  auto Fmt = [&](const std::string &Spec) {
    return Format({ModeKind::Dense, ModeKind::Dense},
                  TensorDistribution::parse(Spec));
  };
  std::map<TensorVar, Format> Formats = {
      {A, Fmt("xy->xy")}, {B, Fmt("xy->xy")}, {C, Fmt("xy->xy")}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{G, 1})
      .divide(K, Ko, Ki, G)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .rotate(Ko, {Io, Jo}, Kos)
      .communicate(A, Jo)
      .communicate({B, C}, Kos)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
  return lower(S.takeNest(), M, std::move(Formats));
}

/// Mapper collapsing every task onto processor 0: several tasks share
/// each relay source, and the tasks' home-resident blocks change.
struct CollapseMapper : Mapper {
  Point placeTask(const Point &, const Rect &, const Machine &M) const
      override {
    return M.delinearize(0);
  }
};

} // namespace

TEST(StepOrder, RotatedCannonIdentical) {
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectStepOrderIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(StepOrder, SummaIdentical) {
  MatmulOptions Opts;
  Opts.N = 32;
  Opts.Procs = 4;
  Opts.ChunkSize = 4; // Many home-fed broadcast steps.
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Summa, Opts);
  expectStepOrderIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(StepOrder, MttkrpIdentical) {
  HigherOrderOptions Opts;
  Opts.Dim = 16;
  Opts.Rank = 8;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  expectStepOrderIdentical(Prob.P, Prob.Tensors);
}

TEST(StepOrder, TallSkinnyCannonIdentical) {
  TensorVar A, B, C;
  Plan P = tallSkinnyCannon(64, 8, 4, A, B, C);
  expectStepOrderIdentical(P, {A, B, C});
}

TEST(StepOrder, UnevenTilesIdentical) {
  // Ragged edge tiles: guarded leaves + empty-iteration steps must not
  // confuse the per-task chains.
  MatmulOptions Opts;
  Opts.N = 19;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectStepOrderIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(StepOrder, RelayRoutingInTraceSkeleton) {
  // Rotated Cannon: after the first step, fetches relay from the
  // neighbour that held the block last step, and each task's systolic
  // walk passes over its home block once per operand (those fetches bind
  // as views, so some step bytes are elided). Phase 0 is the launch,
  // phases 1..steps the step loop, the last one the writeback.
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Cannon = buildMatmul(MatmulAlgo::Cannon, Opts);
  CompiledPlan CannonCP(Cannon.P);
  const Trace &CT = CannonCP.trace();
  ASSERT_GT(CT.Phases.size(), 3u);
  int64_t Relays = 0;
  for (size_t Ph = 2; Ph + 1 < CT.Phases.size(); ++Ph)
    for (const Message &M : CT.Phases[Ph].Messages)
      Relays += M.Src != M.Dst ? 1 : 0;
  EXPECT_GT(Relays, 0);
  EXPECT_GT(CannonCP.dataMovementStats().ElidedBytes, 0);

  // Collapsed placement: every task runs on processor 0, which holds every
  // block after the first step, so the relay routing reads every later
  // step block locally — and execution still matches across threads.
  CollapseMapper Collapse;
  CompiledPlan CollapsedCP(Cannon.P, Collapse);
  for (size_t Ph = 2; Ph + 1 < CollapsedCP.trace().Phases.size(); ++Ph)
    for (const Message &M : CollapsedCP.trace().Phases[Ph].Messages)
      EXPECT_EQ(M.Src, M.Dst);

  std::vector<TensorVar> Tensors = {Cannon.A, Cannon.B, Cannon.C};
  auto runWith = [&](int Threads) {
    std::map<TensorVar, Region *> Regions;
    std::vector<std::unique_ptr<Region>> Storage;
    for (size_t I = 0; I < Tensors.size(); ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Cannon.P.formatOf(Tensors[I]), Cannon.P.M));
      if (I > 0)
        Storage.back()->fillRandom(91 * I + 3);
      Regions[Tensors[I]] = Storage.back().get();
    }
    ExecOptions O;
    O.NumThreads = Threads;
    CollapsedCP.execute(Regions, O);
    std::vector<double> Out;
    Rect::forExtents(Tensors[0].shape()).forEachPoint([&](const Point &Pt) {
      Out.push_back(Regions[Tensors[0]]->at(Pt));
    });
    return Out;
  };
  EXPECT_EQ(runWith(1), runWith(8));
}

TEST(StepOrder, ZeroSkipOverwriteLeaves) {
  // Elementwise non-reduction assignment: every original variable appears
  // in the output access, so the compile phase proves full overwrite and
  // skips the launch-phase accumulator zero.
  Coord N = 24;
  Machine M = Machine::grid({2, 2});
  TensorVar A("A", {N, N}), B("B", {N, N}), C("C", {N, N});
  IndexVar I("i"), J("j"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  Assignment Stmt(Access(A, {I, J}),
                  Access(B, {I, J}) * Access(C, {I, J}) + Expr(0.5));
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->xy"));
  std::map<TensorVar, Format> Formats = {{A, F}, {B, F}, {C, F}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate({A, B, C}, Jo);
  Plan P = lower(S.takeNest(), M, std::move(Formats));

  CompiledPlan CP(P);
  EXPECT_EQ(CP.zeroSkipTaskCount(), 4);

  auto makeRegions = [&](std::vector<std::unique_ptr<Region>> &Storage) {
    std::map<TensorVar, Region *> Regions;
    for (const TensorVar &T : {A, B, C}) {
      Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
      if (!(T == A))
        Storage.back()->fillRandom(17 * Storage.size());
      Regions[T] = Storage.back().get();
    }
    return Regions;
  };

  // Interpreted reference (always zeroes; no overwrite mode).
  std::vector<std::unique_ptr<Region>> RefStorage;
  auto RefRegions = makeRegions(RefStorage);
  CompiledPlan RefCP(P, defaultMapper(), LeafStrategy::Interpreted);
  ExecOptions RefOpts;
  RefOpts.NumThreads = 1;
  RefCP.execute(RefRegions, RefOpts);

  // Compiled with zero-skip, executed twice: the second execution reuses
  // instance buffers holding the previous results — exactly the state a
  // broken overwrite would leak.
  std::vector<std::unique_ptr<Region>> Storage;
  auto Regions = makeRegions(Storage);
  ExecOptions Opts;
  Opts.NumThreads = 8;
  for (int Round = 0; Round < 2; ++Round) {
    CP.execute(Regions, Opts);
    Rect::forExtents(A.shape()).forEachPoint([&](const Point &Pt) {
      ASSERT_EQ(Regions[A]->at(Pt), RefRegions[A]->at(Pt))
          << "round " << Round << " at " << Pt.str();
    });
  }

  // A reducing statement must never skip its zero.
  MatmulOptions MOpts;
  MOpts.N = 16;
  MOpts.Procs = 4;
  MatmulProblem Gemm = buildMatmul(MatmulAlgo::Cannon, MOpts);
  CompiledPlan GemmCP(Gemm.P);
  EXPECT_EQ(GemmCP.zeroSkipTaskCount(), 0);
}

TEST(StepOrder, ConcurrentExecutesAreIndependent) {
  // The documented contract: the artifact is reentrant — concurrent
  // execute() calls run concurrently, each in its own ExecArena. Two
  // threads execute the same artifact over distinct region sets; both
  // results must equal the reference run. (ConcurrencyTest stresses this
  // at higher thread counts; TSan covers the memory side.)
  MatmulOptions Opts;
  Opts.N = 24;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  std::vector<TensorVar> Tensors = {Prob.A, Prob.B, Prob.C};
  CompiledPlan CP(Prob.P);

  auto makeRegions = [&](std::vector<std::unique_ptr<Region>> &Storage) {
    std::map<TensorVar, Region *> Regions;
    for (size_t I = 0; I < Tensors.size(); ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(37 * I + 7); // Match runPlan's fills.
      Regions[Tensors[I]] = Storage.back().get();
    }
    return Regions;
  };

  RunResult Ref = runPlan(Prob.P, Tensors, 1);
  std::vector<std::unique_ptr<Region>> S1, S2;
  auto R1 = makeRegions(S1), R2 = makeRegions(S2);
  ExecOptions O;
  O.NumThreads = 4;
  std::thread T1([&] { CP.execute(R1, O); });
  std::thread T2([&] { CP.execute(R2, O); });
  T1.join();
  T2.join();
  size_t Idx = 0;
  Rect::forExtents(Tensors[0].shape()).forEachPoint([&](const Point &Pt) {
    ASSERT_EQ(R1[Tensors[0]]->at(Pt), Ref.OutData[Idx]);
    ASSERT_EQ(R2[Tensors[0]]->at(Pt), Ref.OutData[Idx]);
    ++Idx;
  });
}
