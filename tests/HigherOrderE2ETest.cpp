//===- tests/HigherOrderE2ETest.cpp - §7.2 kernel validation ---*- C++ -*-===//

#include "algorithms/HigherOrder.h"
#include "blas/LocalKernels.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/LeafCompiler.h"
#include "runtime/Region.h"

#include <gtest/gtest.h>

using namespace distal;
using namespace distal::algorithms;

namespace {

double runAndCompare(HigherOrderKernel K, Coord Dim, int64_t Procs,
                     Coord Rank = 4, Trace *TraceOut = nullptr) {
  HigherOrderOptions Opts;
  Opts.Dim = Dim;
  Opts.Rank = Rank;
  Opts.Procs = Procs;
  HigherOrderProblem Prob = buildHigherOrder(K, Opts);

  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Prob.Tensors.size(); ++I) {
    const TensorVar &T = Prob.Tensors[I];
    Storage.push_back(
        std::make_unique<Region>(T, Prob.P.formatOf(T), Prob.P.M));
    if (I > 0)
      Storage.back()->fillRandom(17 * I + 3);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(Prob.P);
  Trace T = Exec.run(Regions);
  if (TraceOut)
    *TraceOut = T;

  // Reference run on identical input data.
  Machine Seq = Machine::grid({1});
  std::map<TensorVar, Region *> SeqRegions;
  std::vector<std::unique_ptr<Region>> SeqStorage;
  for (size_t I = 0; I < Prob.Tensors.size(); ++I) {
    const TensorVar &T = Prob.Tensors[I];
    std::string Spec(T.order(), ' ');
    for (int D = 0; D < T.order(); ++D)
      Spec[D] = static_cast<char>('w' + D);
    Format F(std::vector<ModeKind>(T.order(), ModeKind::Dense),
             TensorDistribution::parse(Spec + "->*"));
    SeqStorage.push_back(std::make_unique<Region>(T, F, Seq));
    if (I > 0)
      SeqStorage.back()->fillRandom(17 * I + 3);
    SeqRegions[T] = SeqStorage.back().get();
  }
  referenceExecute(Prob.Stmt, SeqRegions);

  const TensorVar &Out = Prob.Tensors[0];
  double MaxDiff = 0;
  Rect::forExtents(Out.shape()).forEachPoint([&](const Point &P) {
    MaxDiff = std::max(MaxDiff,
                       std::abs(Regions[Out]->at(P) - SeqRegions[Out]->at(P)));
  });
  return MaxDiff;
}

struct Config {
  HigherOrderKernel K;
  Coord Dim;
  int64_t Procs;
  Coord Rank;
};

std::string configName(const ::testing::TestParamInfo<Config> &Info) {
  const Config &C = Info.param;
  return toString(C.K) + "_d" + std::to_string(C.Dim) + "_p" +
         std::to_string(C.Procs) + "_r" + std::to_string(C.Rank);
}

class HigherOrderE2E : public ::testing::TestWithParam<Config> {};

} // namespace

TEST_P(HigherOrderE2E, MatchesReference) {
  const Config &C = GetParam();
  EXPECT_LE(runAndCompare(C.K, C.Dim, C.Procs, C.Rank), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, HigherOrderE2E,
    ::testing::Values(
        Config{HigherOrderKernel::TTV, 8, 4, 4},
        Config{HigherOrderKernel::TTV, 12, 3, 4},
        Config{HigherOrderKernel::TTV, 9, 4, 4}, // Uneven split.
        Config{HigherOrderKernel::Innerprod, 8, 4, 4},
        Config{HigherOrderKernel::Innerprod, 10, 8, 4},
        Config{HigherOrderKernel::TTM, 8, 4, 4},
        Config{HigherOrderKernel::TTM, 12, 6, 5},
        Config{HigherOrderKernel::MTTKRP, 8, 4, 4},
        Config{HigherOrderKernel::MTTKRP, 12, 6, 3},
        Config{HigherOrderKernel::MTTKRP, 9, 4, 4}),
    configName);

TEST(HigherOrderDetail, TtvHasNoInterNodeCommunication) {
  // The paper's TTV schedule computes element-wise with tensors already
  // aligned: zero bytes should cross processors.
  Trace T;
  runAndCompare(HigherOrderKernel::TTV, 12, 4, 4, &T);
  EXPECT_EQ(T.totalCommBytes(), 0);
}

TEST(HigherOrderDetail, TtmHasNoInterNodeCommunication) {
  Trace T;
  runAndCompare(HigherOrderKernel::TTM, 8, 4, 4, &T);
  EXPECT_EQ(T.totalCommBytes(), 0);
}

TEST(HigherOrderDetail, InnerprodReducesToOneScalarOwner) {
  Trace T;
  runAndCompare(HigherOrderKernel::Innerprod, 8, 4, 4, &T);
  // Communication is exactly the reduction of the scalar partials.
  int64_t ReductionBytes = 0;
  for (const Message &M : T.Phases.back().Messages)
    if (M.Reduction)
      ReductionBytes += M.Bytes;
  EXPECT_EQ(T.totalCommBytes(), ReductionBytes);
  EXPECT_EQ(ReductionBytes, 3 * 8); // Three non-owner tasks, 8 bytes each.
}

TEST(HigherOrderDetail, MttkrpReducesPartialFactors) {
  HigherOrderOptions Opts;
  Opts.Dim = 8;
  Opts.Rank = 4;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  EXPECT_GT(Prob.P.distReductionFactor(), 1);
  Trace T;
  runAndCompare(HigherOrderKernel::MTTKRP, 8, 4, 4, &T);
  // All communication is the A-partial reduction: B is in place (Ballard et
  // al.), C is distributed to match its readers, D is replicated.
  int64_t NonReduction = 0;
  for (const Phase &Ph : T.Phases)
    for (const Message &M : Ph.Messages)
      if (M.Src != M.Dst && !M.Reduction)
        NonReduction += M.Bytes;
  EXPECT_EQ(NonReduction, 0);
}

namespace {

Format denseFormat(int Order, const std::string &Spec) {
  return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                TensorDistribution::parse(Spec));
}

/// MTTKRP A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with the paper's 2x2-grid
/// schedule; D = 31 leaves uneven tiles, so the leaf guards fire.
struct Mttkrp {
  static constexpr Coord Dim = 31, Rank = 3;
  IndexVar I{"i"}, J{"j"}, K{"k"}, L{"l"}, Io{"io"}, Ii{"ii"}, Jo{"jo"},
      Ji{"ji"};
  TensorVar A{"A", {Dim, Rank}}, B{"B", {Dim, Dim, Dim}}, C{"C", {Dim, Rank}},
      Dm{"D", {Dim, Rank}};
  Assignment Stmt{Access(A, {I, L}),
                  Access(B, {I, J, K}) * Access(C, {J, L}) *
                      Access(Dm, {K, L})};
  Machine M = Machine::grid({2, 2});

  /// The schedule's own leaf order, or with \p LeafOrder imposed by an
  /// explicit reorder.
  Plan plan(const std::vector<IndexVar> &LeafOrder = {}) const {
    Schedule S(Stmt);
    S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
        .communicate({A, B, C, Dm}, Jo)
        .parallelize(Ii);
    if (!LeafOrder.empty())
      S.reorder(LeafOrder);
    return lower(S.takeNest(), M,
                 {{A, denseFormat(2, "xy->x0")},
                  {B, denseFormat(3, "xyz->xy")},
                  {C, denseFormat(2, "xy->*x")},
                  {Dm, denseFormat(2, "xy->**")}});
  }
};

std::vector<double> snapshot(const Region &R) {
  std::vector<double> Out;
  Rect::forExtents(R.shape()).forEachPoint(
      [&](const Point &P) { Out.push_back(R.at(P)); });
  return Out;
}

/// Runs the first task's leaf of \p P once through a fresh engine, on
/// instances covering every tensor whole, and returns the engine's leaf
/// loop order by name.
std::vector<std::string>
runFirstLeaf(const Plan &P, const std::map<TensorVar, Instance *> &Insts) {
  std::map<IndexVar, Coord> Fixed;
  for (int D = 0; D < P.LeafBegin; ++D)
    Fixed[P.Nest.Loops[D].Var] = 0;
  std::map<TensorVar, Instance *> Bound = Insts;
  leaf::LeafEngine E;
  leaf::runCompiledLeaf(E, P, Fixed, Bound,
                        leaf::compileTape(P.Nest.Stmt.rhs()), {});
  std::vector<std::string> Order;
  for (const IndexVar &V : E.LeafV)
    Order.push_back(V.name());
  return Order;
}

} // namespace

TEST(LeafSinking, MttkrpDefaultOrderMatchesExplicitReorderBitwise) {
  // The leaf engine moves MTTKRP's output-only loop l below ii and ji, so
  // B streams once per task instead of once per l. That must give the same
  // bits as writing the order into the schedule, with views on and off and
  // at one and four threads, and both must match the naive reference.
  Mttkrp Mt;
  Plan Default = Mt.plan();
  Plan Reordered = Mt.plan({Mt.Ii, Mt.Ji, Mt.L, Mt.K});
  ASSERT_NE(Default.leafVars(), Reordered.leafVars());

  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;
  uint64_t Seed = 7;
  for (const TensorVar &T : {Mt.A, Mt.B, Mt.C, Mt.Dm}) {
    Storage.push_back(
        std::make_unique<Region>(T, Default.formatOf(T), Mt.M));
    Storage.back()->fillRandom(Seed++);
    Regions[T] = Storage.back().get();
  }
  Region Ref(Mt.A, Default.formatOf(Mt.A), Mt.M);
  std::map<TensorVar, Region *> RefRegions = Regions;
  RefRegions[Mt.A] = &Ref;
  referenceExecute(Mt.Stmt, RefRegions);
  std::vector<double> Want = snapshot(Ref);

  std::vector<double> First;
  for (const Plan *P : {&Default, &Reordered})
    for (bool Views : {true, false})
      for (int Threads : {1, 4}) {
        Executor Exec(*P);
        Exec.setZeroCopyViews(Views);
        Exec.setNumThreads(Threads);
        Exec.run(Regions);
        std::vector<double> Got = snapshot(*Regions[Mt.A]);
        std::string Config =
            std::string(P == &Default ? "default" : "reorder") +
            (Views ? " views" : " copies") + " threads " +
            std::to_string(Threads);
        if (First.empty())
          First = Got;
        ASSERT_EQ(Got.size(), Want.size());
        for (size_t X = 0; X < Got.size(); ++X) {
          ASSERT_EQ(Got[X], First[X]) << Config << ", element " << X;
          ASSERT_NEAR(Got[X], Want[X], 1e-9) << Config << ", element " << X;
        }
      }
}

TEST(LeafSinking, MovesOnlyOutputLoopsAndKeepsGemmLeaves) {
  // MTTKRP: l indexes the output but not B, so it sinks to just above the
  // innermost k. The explicitly reordered schedule is left as it is.
  Mttkrp Mt;
  std::map<TensorVar, std::unique_ptr<Instance>> Whole;
  std::map<TensorVar, Instance *> Insts;
  for (const TensorVar &T : {Mt.A, Mt.B, Mt.C, Mt.Dm}) {
    Whole[T] = std::make_unique<Instance>(Rect::forExtents(T.shape()));
    Insts[T] = Whole[T].get();
  }
  const std::vector<std::string> Sunk{"ii", "ji", "l", "k"};
  EXPECT_EQ(runFirstLeaf(Mt.plan(), Insts), Sunk);
  EXPECT_EQ(runFirstLeaf(Mt.plan({Mt.Ii, Mt.Ji, Mt.L, Mt.K}), Insts), Sunk);

  // A GEMM leaf C(i,j) += A(i,k) * B(k,j) keeps its order and still runs
  // as one blas::gemm call: its bits equal a direct call on the same
  // block, which the dot-product path (lane-associated over k) would not.
  constexpr Coord N = 48, Half = N / 2;
  IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  TensorVar C("C", {N, N}), A("A", {N, N}), B("B", {N, N});
  Assignment Gemm(Access(C, {I, J}), Access(A, {I, K}) * Access(B, {K, J}));
  Schedule S(Gemm);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate({C, A, B}, Jo);
  Plan P = lower(S.takeNest(), Machine::grid({2, 2}),
                 {{C, denseFormat(2, "xy->xy")},
                  {A, denseFormat(2, "xy->x*")},
                  {B, denseFormat(2, "xy->*y")}});
  Instance CI(Rect::forExtents({N, N})), AI(Rect::forExtents({N, N})),
      BI(Rect::forExtents({N, N}));
  std::vector<double> Direct(Half * Half, 0.0);
  for (Coord X = 0; X < N * N; ++X) {
    AI.data()[X] = 0.5 + static_cast<double>((X * 37) % 101) / 101.0;
    BI.data()[X] = 0.25 + static_cast<double>((X * 53) % 97) / 97.0;
    CI.data()[X] = 0;
  }
  EXPECT_EQ(runFirstLeaf(P, {{C, &CI}, {A, &AI}, {B, &BI}}),
            (std::vector<std::string>{"ii", "ji", "k"}));
  blas::gemm(Direct.data(), AI.data(), BI.data(), Half, Half, N, Half, N, N);
  for (Coord R = 0; R < Half; ++R)
    for (Coord Col = 0; Col < Half; ++Col)
      ASSERT_EQ(CI.data()[R * N + Col], Direct[R * Half + Col])
          << "element (" << R << ", " << Col << ")";
}
