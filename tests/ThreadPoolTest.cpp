//===- tests/ThreadPoolTest.cpp - Nested pool + ExecContext ----*- C++ -*-===//
//
// Property tests for the nested-capable ThreadPool and the ExecContext
// split policy: an ExecContext-scoped pool must never exceed its configured
// N live workers no matter how task- and leaf-level fan-outs nest (the
// counter is asserted inside ThreadPool on every chunk claim and exposed as
// a high-water mark here), every index of a nested fan-out must run exactly
// once, and the adaptive split must cover its invariants.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "blas/LocalKernels.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"
#include "support/ExecContext.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

using namespace distal;
using namespace distal::algorithms;

TEST(ThreadPool, NestedFanoutRunsEveryIndexOnce) {
  ThreadPool Pool(4);
  constexpr int Outer = 12, Inner = 97;
  std::vector<std::atomic<int>> Counts(Outer * Inner);
  Pool.parallelFor(Outer, [&](int64_t O) {
    Pool.parallelForWays(Inner, 4, [&](int64_t Lo, int64_t Hi) {
      for (int64_t I = Lo; I < Hi; ++I)
        Counts[O * Inner + I].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (int I = 0; I < Outer * Inner; ++I)
    ASSERT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, LiveWorkersBoundedUnderNestedFanout) {
  for (int N : {2, 4, 8}) {
    ThreadPool Pool(N);
    Pool.resetLiveWorkerHighWater();
    // Deep two-level fan-out with more jobs than threads at both levels:
    // every leaf sub-range job lands on the same pool, so the live count
    // must stay within N even while task chunks and leaf chunks interleave.
    std::atomic<int64_t> Sink{0};
    Pool.parallelFor(4 * N, [&](int64_t) {
      Pool.parallelForWays(256, N, [&](int64_t Lo, int64_t Hi) {
        int64_t S = 0;
        for (int64_t I = Lo; I < Hi; ++I)
          S += I * I;
        Sink.fetch_add(S, std::memory_order_relaxed);
      });
    });
    EXPECT_LE(Pool.liveWorkerHighWater(), N) << "pool size " << N;
    EXPECT_GE(Pool.liveWorkerHighWater(), 1);
  }
}

TEST(ThreadPool, FanoutActuallyOverlapsWorkers) {
  // Rendezvous: four chunks on a four-thread pool each wait until all four
  // have started. A correct pool runs them on distinct threads and the
  // barrier clears; a pool that silently degenerated to sequential
  // execution would never get past the first chunk (caught by the
  // timeout instead of a hang).
  ThreadPool Pool(4);
  Pool.resetLiveWorkerHighWater();
  std::atomic<int> Arrived{0};
  std::atomic<bool> TimedOut{false};
  Pool.parallelForWays(4, 4, [&](int64_t, int64_t) {
    Arrived.fetch_add(1);
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Arrived.load() < 4 && !TimedOut.load()) {
      if (std::chrono::steady_clock::now() > Deadline)
        TimedOut.store(true);
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(TimedOut.load());
  EXPECT_EQ(Pool.liveWorkerHighWater(), 4);
}

TEST(ThreadPool, AsyncTicketsCompleteAndHelpInline) {
  // The background-lane primitive: detached jobs complete exactly once
  // whether a worker claims them or the waiter runs them inline, and
  // tickets are safe to wait from inside structured fan-outs.
  ThreadPool Pool(4);
  constexpr int N = 64;
  std::vector<std::atomic<int>> Ran(N);
  {
    std::vector<ThreadPool::Ticket> Tickets;
    for (int I = 0; I < N; ++I)
      Tickets.push_back(Pool.submitAsync(
          [&Ran, I] { Ran[I].fetch_add(1, std::memory_order_relaxed); }));
    for (ThreadPool::Ticket &T : Tickets)
      T.wait();
  }
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Ran[I].load(), 1) << "job " << I;

  // Mixed: submit from inside a structured chunk, wait before the chunk
  // ends; the live-worker bound must hold throughout.
  Pool.resetLiveWorkerHighWater();
  std::vector<std::atomic<int>> Nested(N);
  Pool.parallelFor(N, [&](int64_t I) {
    ThreadPool::Ticket T = Pool.submitAsync(
        [&Nested, I] { Nested[I].fetch_add(1, std::memory_order_relaxed); });
    T.wait();
  });
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Nested[I].load(), 1) << "nested job " << I;
  EXPECT_LE(Pool.liveWorkerHighWater(), 4);

  // A sequential pool runs the body inline at submit time.
  ThreadPool Seq(1);
  bool RanInline = false;
  ThreadPool::Ticket T = Seq.submitAsync([&] { RanInline = true; });
  EXPECT_TRUE(RanInline);
  T.wait();

  // An un-waited ticket must complete before destruction (dtor waits).
  std::atomic<int> Dropped{0};
  { ThreadPool::Ticket D = Pool.submitAsync([&] { ++Dropped; }); }
  EXPECT_EQ(Dropped.load(), 1);
}

TEST(ThreadPool, CrossPoolCallsRunInline) {
  // A worker of pool A calling pool B must not recruit B's workers:
  // stacking two pools would exceed the configured thread budget.
  ThreadPool A(4), B(4);
  B.resetLiveWorkerHighWater();
  A.parallelFor(8, [&](int64_t) {
    B.parallelForChunks(64, [&](int64_t Lo, int64_t Hi) {
      volatile int64_t S = 0;
      for (int64_t I = Lo; I < Hi; ++I)
        S += I;
    });
  });
  EXPECT_EQ(B.liveWorkerHighWater(), 0);
}

TEST(ThreadPool, InlineScopeForcesSerial) {
  ThreadPool Pool(4);
  Pool.resetLiveWorkerHighWater();
  ThreadPool::InlineScope Scope;
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(32, [&](int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
  EXPECT_EQ(Pool.liveWorkerHighWater(), 0);
}

TEST(ExecContext, AdaptiveSplitInvariants) {
  ExecContext Ctx(8);
  // Single-task plans hand every thread to the leaf.
  EXPECT_EQ(Ctx.splitFor(1).TaskWays, 1);
  EXPECT_EQ(Ctx.splitFor(1).LeafWays, 8);
  // Saturated task level keeps leaves sequential.
  EXPECT_EQ(Ctx.splitFor(8).TaskWays, 8);
  EXPECT_EQ(Ctx.splitFor(8).LeafWays, 1);
  EXPECT_EQ(Ctx.splitFor(100).TaskWays, 8);
  EXPECT_EQ(Ctx.splitFor(100).LeafWays, 1);
  // In between, leaves get the threads the task level cannot use, and the
  // product never exceeds the budget.
  for (int64_t Tasks = 1; Tasks <= 20; ++Tasks) {
    ExecContext::Split S = Ctx.splitFor(Tasks);
    EXPECT_GE(S.TaskWays, 1);
    EXPECT_GE(S.LeafWays, 1);
    EXPECT_LE(S.TaskWays * S.LeafWays, 8) << "tasks " << Tasks;
  }
  EXPECT_EQ(Ctx.splitFor(2).LeafWays, 4);
  ExecContext Seq(1);
  EXPECT_EQ(Seq.splitFor(1).LeafWays, 1);
  EXPECT_EQ(Seq.pool(), nullptr);
}

TEST(ExecContext, ExecutorNestedRunStaysWithinBudget) {
  // Drive a real plan through an explicitly shared context at a pinned
  // 2 x 4 split: task chunks and nested leaf sub-jobs interleave on one
  // 8-thread pool, and the live-worker high-water must respect it. N = 224
  // on a 2x2 grid keeps each leaf above the GEMM parallel cutoff so the
  // leaf level genuinely fans out.
  MatmulOptions Opts;
  Opts.N = 224;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  Region RA(Prob.A, Prob.P.formatOf(Prob.A), Prob.P.M);
  Region RB(Prob.B, Prob.P.formatOf(Prob.B), Prob.P.M);
  Region RC(Prob.C, Prob.P.formatOf(Prob.C), Prob.P.M);
  RB.fillRandom(7);
  RC.fillRandom(8);
  ExecContext Ctx(8);
  ASSERT_NE(Ctx.pool(), nullptr);
  Ctx.pool()->resetLiveWorkerHighWater();
  Executor Exec(Prob.P);
  Exec.setExecContext(&Ctx);
  Exec.setThreadSplit(2, 4);
  Exec.run({{Prob.A, &RA}, {Prob.B, &RB}, {Prob.C, &RC}});
  EXPECT_LE(Ctx.pool()->liveWorkerHighWater(), 8);
}

TEST(ExecContext, ParallelGatherMatchesSequential) {
  // 640x320 rectangles are comfortably above the copy parallel cutoff
  // (2^17 elements), so both gather fast paths really fan out.
  TensorVar T("G", {640, 640});
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->*"));
  Region R(T, F, Machine::grid({1}));
  R.fillRandom(13);
  ExecContext Ctx(4);
  LeafParallelism LP{Ctx.pool(), 4};
  // Strided (many runs, split across runs) and contiguous (single run,
  // split memcpy) shapes.
  for (Rect Rt : {Rect(Point({0, 160}), Point({640, 480})),
                  Rect(Point({160, 0}), Point({480, 640}))}) {
    Instance Par = R.gather(Rt, LP);
    Instance Seq = R.gather(Rt);
    Rt.forEachPoint([&](const Point &P) {
      ASSERT_EQ(Par.at(P), Seq.at(P));
    });
  }
}

TEST(ExecContext, ParallelBlasKernelsBitwiseMatchSequential) {
  // Each pool-parameterized kernel above its parallel cutoff: the parallel
  // result must equal the sequential-handle result bit for bit (disjoint
  // output splits for gemm/axpy, fixed-chunk association for the
  // reductions). Runs under the CI TSan job, so races in the nested
  // fan-outs surface here too.
  ExecContext Ctx(4);
  LeafParallelism LP{Ctx.pool(), 4};
  LeafParallelism Seq;

  constexpr int64_t VN = 150000; // > 4 reduction chunks, > axpy cutoff.
  std::vector<double> X(VN), Y(VN);
  for (int64_t I = 0; I < VN; ++I) {
    X[I] = static_cast<double>((I * 13) % 101) / 101.0 - 0.5;
    Y[I] = static_cast<double>((I * 29) % 97) / 97.0 - 0.5;
  }
  EXPECT_EQ(blas::dot(LP, X.data(), Y.data(), VN),
            blas::dot(Seq, X.data(), Y.data(), VN));
  EXPECT_EQ(blas::dotStrided(LP, X.data(), 2, Y.data(), 3, VN / 3),
            blas::dotStrided(Seq, X.data(), 2, Y.data(), 3, VN / 3));
  EXPECT_EQ(blas::sumStrided(LP, X.data(), 2, VN / 2),
            blas::sumStrided(Seq, X.data(), 2, VN / 2));

  std::vector<double> YPar = Y, YSeq = Y;
  blas::axpy(LP, YPar.data(), X.data(), 1.75, VN);
  blas::axpy(Seq, YSeq.data(), X.data(), 1.75, VN);
  for (int64_t I = 0; I < VN; ++I)
    ASSERT_EQ(YPar[I], YSeq[I]) << "axpy element " << I;

  constexpr int64_t GN = 128; // 128^3 multiply-adds > gemm parallel cutoff.
  std::vector<double> A(GN * GN), B(GN * GN), CPar(GN * GN, 0),
      CSeq(GN * GN, 0);
  for (int64_t I = 0; I < GN * GN; ++I) {
    A[I] = static_cast<double>((I * 7) % 13) / 13.0;
    B[I] = static_cast<double>((I * 11) % 17) / 17.0;
  }
  blas::gemm(LP, CPar.data(), A.data(), B.data(), GN, GN, GN, GN, GN, GN);
  blas::gemm(Seq, CSeq.data(), A.data(), B.data(), GN, GN, GN, GN, GN, GN);
  for (int64_t I = 0; I < GN * GN; ++I)
    ASSERT_EQ(CPar[I], CSeq[I]) << "gemm element " << I;
}

TEST(ExecContext, ReductionKernelsKeepOneAssociation) {
  // The reductions sum in fixed accumulator lanes inside fixed chunks, so
  // lengths around the lane width and the chunk size are the edge cases.
  // Every result must be bitwise-identical without a pool and at 2 and 4
  // leaf ways, stride-1 dotStrided must be dot, and each sum must be close
  // to a long double reference. The data is positive, so the sums are well
  // conditioned and a relative bound of 1e-12 is tight.
  ExecContext Ctx(4);
  const LeafParallelism Ways[] = {{}, {Ctx.pool(), 2}, {Ctx.pool(), 4}};
  const int64_t C = blas::ReduceChunk;
  const int64_t Lengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 383, 384, 385,
                             C - 1, C, C + 1, 3 * C + 5};
  const int64_t MaxLen = 3 * C + 5;
  std::vector<double> X(3 * MaxLen), Y(3 * MaxLen);
  for (size_t I = 0; I < X.size(); ++I) {
    X[I] = 0.5 + static_cast<double>((I * 37) % 1009) / 1009.0;
    Y[I] = 0.25 + static_cast<double>((I * 53) % 997) / 997.0;
  }
  auto Close = [](double Got, long double Want) {
    long double Err = std::abs(static_cast<long double>(Got) - Want);
    return Err <= 1e-12L * std::abs(Want);
  };
  for (int64_t N : Lengths) {
    long double Dot = 0;
    for (int64_t I = 0; I < N; ++I)
      Dot += static_cast<long double>(X[I]) * Y[I];
    double Want = blas::dot(Ways[0], X.data(), Y.data(), N);
    EXPECT_TRUE(Close(Want, Dot)) << "dot N=" << N;
    for (const LeafParallelism &LP : Ways) {
      EXPECT_EQ(blas::dot(LP, X.data(), Y.data(), N), Want) << "N=" << N;
      EXPECT_EQ(blas::dotStrided(LP, X.data(), 1, Y.data(), 1, N), Want)
          << "N=" << N;
    }
    for (int64_t S : {1, 2, 3}) {
      long double StridedDot = 0, Sum = 0;
      for (int64_t I = 0; I < N; ++I) {
        StridedDot += static_cast<long double>(X[I * S]) * Y[I * (4 - S)];
        Sum += X[I * S];
      }
      double WantDot =
          blas::dotStrided(Ways[0], X.data(), S, Y.data(), 4 - S, N);
      double WantSum = blas::sumStrided(Ways[0], X.data(), S, N);
      EXPECT_TRUE(Close(WantDot, StridedDot)) << "dotStrided N=" << N;
      EXPECT_TRUE(Close(WantSum, Sum)) << "sumStrided N=" << N;
      for (const LeafParallelism &LP : Ways) {
        EXPECT_EQ(blas::dotStrided(LP, X.data(), S, Y.data(), 4 - S, N),
                  WantDot)
            << "N=" << N << " stride " << S;
        EXPECT_EQ(blas::sumStrided(LP, X.data(), S, N), WantSum)
            << "N=" << N << " stride " << S;
      }
    }
  }
}
