//===- runtime/CompiledPlan.cpp -------------------------------*- C++ -*-===//
//
// The execute phase: a thin walk over the compiled program that only moves
// data and runs kernels. Gathers replay the recorded rectangles into reused
// Instance buffers, leaves run through the persistent per-task engines, and
// the writeback merge applies task instances in task order within each
// output stripe — so output data is bitwise-identical at every thread count
// and task/leaf split, and across repeated executions. Nothing here touches
// the trace: it was fully computed at compile time (PlanAnalysis).
//
// Reentrancy: everything the walk mutates lives in the execution's own
// ExecArena — the artifact members read here (Tasks, StepVals, RhsTape,
// Skeleton, the gather run programs) are immutable after construction, so
// concurrent executions share them freely. tryExecute is acquire-arena /
// run / release-or-discard; there is no execution-wide lock. Each
// execution also claims an ExecutionSlot, dividing the configured thread
// count by the number of executions in flight so N concurrent executions
// never oversubscribe the machine (and at budget 1 an execution runs fully
// inline on its client thread — N clients, N truly parallel walks).
//
// Step order: after the launch phase, each task runs its own chain over
// the steps — gathers, then leaf — with no global step barrier between
// tasks. That is legal because a task's step gathers only read input
// Regions, which are immutable for the whole execution, and each task
// accumulates into its private (or exclusively aliased) output instance;
// the only cross-task merge is the task-ordered writeback at the end.
// There is no prefetch: in shared memory a copy issued a step early has no
// wire to hide behind, so it only competes with the leaves for bandwidth.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledPlan.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <sstream>

#include "runtime/PlanAnalysis.h"
#include "support/Error.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

using namespace distal;

CompiledPlan::CompiledPlan(Plan Pl, const Mapper &Map, LeafStrategy Strategy)
    : P(std::move(Pl)), Strategy(Strategy),
      RhsTape(leaf::compileTape(P.Nest.Stmt.rhs())) {
  PlanAnalysisResult R = analyzePlan(P, Map);
  Skeleton = std::move(R.Skeleton);
  Tasks = std::move(R.Tasks);
  StepVals = std::move(R.StepVals);
}

CompiledPlan::~CompiledPlan() = default;

CompiledPlan::DataMovementStats CompiledPlan::dataMovementStats() const {
  DataMovementStats D;
  for (const CompiledTask &CT : Tasks) {
    for (const CompiledGather &G : CT.LaunchGathers) {
      int64_t Bytes = (G.R.dim() == 0 ? 1 : G.R.volume()) * 8;
      if (G.IsOutput)
        (G.Class == GatherClass::Aliasable ? D.WritebackElidedBytes
                                           : D.WritebackBytes) += Bytes;
      else
        (G.Class == GatherClass::Aliasable ? D.ElidedBytes
                                           : D.GatheredBytes) += Bytes;
    }
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        (G.Class == GatherClass::Aliasable ? D.ElidedBytes
                                           : D.GatheredBytes) +=
            (G.R.dim() == 0 ? 1 : G.R.volume()) * 8;
  }
  return D;
}

int64_t CompiledPlan::zeroSkipTaskCount() const {
  int64_t N = 0;
  for (const CompiledTask &CT : Tasks)
    N += CT.SkipOutputZero ? 1 : 0;
  return N;
}

void CompiledPlan::ensureExecState(ExecArena &A) const {
  if (!A.Execs.empty() || Tasks.empty())
    return;
  A.Execs.resize(Tasks.size());
  // The reserved capacities are charged against the governor in one sum —
  // Instance::reserve only reserves capacity, so the ledger records the
  // compile-time maxima the buffers will grow to.
  int64_t Sum = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const CompiledTask &CT = Tasks[I];
    ExecArena::TaskExec &TE = A.Execs[I];
    TE.FixedVals = CT.DistVals;
    // Size every instance buffer once, at the maximum rectangle volume the
    // compiled program will ever bind it to, so steady-state executions
    // never reallocate.
    std::map<TensorVar, int64_t> MaxVol;
    for (const CompiledGather &G : CT.LaunchGathers)
      MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
    for (const auto &[TV, Vol] : MaxVol) {
      TE.OwnedInsts[TV].reserve(Vol);
      Sum += std::max<int64_t>(Vol, 1) * 8;
    }
  }
  A.Progress = std::make_unique<std::atomic<int32_t>[]>(Tasks.size());
  Sum += static_cast<int64_t>(Tasks.size() * sizeof(std::atomic<int32_t>));
  A.MemCharge.add(Sum);
}

std::unique_ptr<ExecArena> CompiledPlan::acquireArena() {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (!FreeArenas.empty()) {
      std::unique_ptr<ExecArena> A = std::move(FreeArenas.back());
      FreeArenas.pop_back();
      ++Arenas.Reused;
      return A;
    }
    ++Arenas.Created;
  }
  return std::make_unique<ExecArena>();
}

void CompiledPlan::releaseArena(std::unique_ptr<ExecArena> A) {
  // Under memory pressure the pool stops caching: the idle arena's buffers
  // are freed immediately (its Charge releases their bytes), draining
  // usage instead of parking it.
  if (ResourceGovernor::pressure() != ResourceGovernor::Pressure::None) {
    ResourceGovernor::noteArenaCacheBypass();
    return;
  }
  std::lock_guard<std::mutex> Lock(StateMutex);
  if (static_cast<int>(FreeArenas.size()) < ArenaCacheCap)
    FreeArenas.push_back(std::move(A));
  // Past the cap, A simply dies here.
}

CompiledPlan::ArenaStats CompiledPlan::arenaStats() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaStats S = Arenas;
  S.Cached = static_cast<int>(FreeArenas.size());
  return S;
}

int64_t CompiledPlan::footprintBytes() const {
  // An estimate of the artifact's resident metadata: the dominant terms
  // are the per-task gather programs. Exact
  // malloc accounting is not the goal — the PlanCache only needs a
  // consistent measure to charge cached artifacts with.
  int64_t Sum = static_cast<int64_t>(sizeof(*this));
  for (const CompiledTask &CT : Tasks) {
    Sum += static_cast<int64_t>(sizeof(CompiledTask));
    Sum += static_cast<int64_t>(CT.LaunchGathers.size() *
                                sizeof(CompiledGather));
    for (const auto &Step : CT.StepGathers)
      Sum += static_cast<int64_t>(Step.size() * sizeof(CompiledGather));
    Sum += static_cast<int64_t>(CT.RunLeaf.size());
  }
  return Sum;
}

std::string CompiledPlan::stuckReport() const {
  using Clock = std::chrono::steady_clock;
  int64_t NowNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  std::lock_guard<std::mutex> Lock(StateMutex);
  std::ostringstream OS;
  for (const ExecArena *A : InFlight) {
    // Acquire pairs with the phase-2 release store: once the step loop is
    // observed, the Progress array is allocated and reset.
    int32_t Phase = A->HbPhase.load(std::memory_order_acquire);
    int64_t AgeMs =
        (NowNs - A->HbStartNs.load(std::memory_order_relaxed)) / 1000000;
    OS << "execution (age " << AgeMs << " ms): ";
    switch (Phase) {
    case 1:
      OS << "launch gathers";
      break;
    case 2: {
      // Per-task watermarks: min identifies the parked task(s); max shows
      // how far the fastest chain ran ahead.
      int32_t Min = INT32_MAX, Max = INT32_MIN;
      size_t AtMin = 0;
      for (size_t I = 0; I < Tasks.size(); ++I) {
        int32_t S = A->Progress[I].load(std::memory_order_relaxed);
        if (S < Min) {
          Min = S;
          AtMin = 1;
        } else if (S == Min) {
          ++AtMin;
        }
        Max = std::max(Max, S);
      }
      OS << "step loop, task step watermark min " << Min << " max " << Max
         << " of " << StepVals.size() << ", " << AtMin
         << " task(s) parked at min";
      break;
    }
    case 3:
      OS << "writeback";
      break;
    default:
      OS << "entering";
      break;
    }
    OS << "\n";
  }
  return OS.str();
}

void CompiledPlan::setArenaCacheCap(int N) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaCacheCap = N < 0 ? 0 : N;
  while (static_cast<int>(FreeArenas.size()) > ArenaCacheCap)
    FreeArenas.pop_back();
}

Trace CompiledPlan::execute(const std::map<TensorVar, Region *> &Regions,
                            const ExecOptions &Opts) {
  Trace Out;
  Status S = tryExecute(Regions, Out, Opts);
  if (!S.ok())
    throwStatus(std::move(S));
  return Out;
}

Status CompiledPlan::tryExecute(const std::map<TensorVar, Region *> &Regions,
                                Trace &Out, const ExecOptions &Opts) {
  std::unique_ptr<ExecArena> A = acquireArena();
  // Census in, budget derived: while this slot is held, sibling executions
  // see one more active execution and size their thread budgets down.
  ExecutionSlot Slot;
  // Per-arena fault scope: this execution's injection-site arrivals are
  // counted privately, so a configured fault schedule hits THIS execution
  // deterministically regardless of what sibling arenas are doing.
  FaultInjector::beginExecution(A->Fault);
  // Heartbeat registration: stuckReport() renders the arenas on this list.
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.push_back(A.get());
  }
  auto Unregister = [&] {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.erase(std::find(InFlight.begin(), InFlight.end(), A.get()));
  };
  try {
    Out = executeBody(*A, Slot, Regions, Opts);
    Unregister();
    releaseArena(std::move(A));
    return Status();
  } catch (...) {
    Unregister();
    Status S = statusFromCurrentException();
    // Containment, per-arena: discard the arena instead of returning it to
    // the pool, so no partially-mutated buffer survives into a later run.
    // The artifact and sibling executions are untouched.
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      ++Arenas.Discarded;
    }
    A.reset();
    S.appendNote("failed execution's arena discarded; the artifact "
                 "remains reusable");
    return S;
  }
}

Trace CompiledPlan::executeBody(ExecArena &A, const ExecutionSlot &Slot,
                                const std::map<TensorVar, Region *> &Regions,
                                const ExecOptions &Opts) {
  const TensorVar &Out = P.Nest.Stmt.lhs().tensor();
  for (const TensorVar &TV : P.Nest.Stmt.tensors())
    if (!Regions.count(TV))
      reportFatalError("no region provided for tensor '" + TV.name() + "'");
  // Cancellation gate before any side effect, then heartbeat start. The
  // token (invalid: a pointer test; quiet: one relaxed load) is re-polled
  // at every per-task step boundary and chunk claim below.
  Opts.Cancel.check();
  const CancelToken *Tok = Opts.Cancel.valid() ? &Opts.Cancel : nullptr;
  A.HbStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_relaxed);
  A.HbPhase.store(1, std::memory_order_relaxed);
  Regions.at(Out)->zero();

  // Resolve the execution context and the task/leaf thread split. The
  // configured width is divided by the number of executions in flight
  // (ExecutionSlot::budget) so concurrent executions share the machine
  // instead of oversubscribing it; at budget 1 the walk runs fully inline
  // on the calling thread. The budget only changes scheduling, never
  // output bytes.
  int Configured = Opts.Ctx              ? Opts.Ctx->numThreads()
                   : Opts.NumThreads > 0 ? Opts.NumThreads
                                         : defaultExecutorThreads();
  int Threads = Slot.budget(Configured);
  ExecContext *Ctx = nullptr;
  if (Threads > 1) {
    if (Opts.Ctx && Opts.Ctx->numThreads() == Threads) {
      Ctx = Opts.Ctx;
    } else {
      if (!A.OwnCtx || A.OwnCtx->numThreads() != Threads)
        A.OwnCtx = std::make_unique<ExecContext>(Threads);
      Ctx = A.OwnCtx.get();
    }
  }
  // At 1 thread the whole run — including nested BLAS kernels — must stay
  // on this thread.
  std::optional<ThreadPool::InlineScope> InlineGuard;
  if (Threads == 1)
    InlineGuard.emplace();

  // Divide the context's threads between task fan-out and leaf fan-out.
  // Leaf kernels receive the pool plus a ways budget and fan out as
  // sub-range jobs on the *same* pool, so task- and leaf-level work share
  // one set of N threads with no oversubscription.
  ExecContext::Split Split;
  ThreadPool *Pool = nullptr;
  LeafParallelism LeafLP;
  int64_t NumTasks = static_cast<int64_t>(Tasks.size());
  if (Ctx && Threads > 1) {
    Split = Opts.ForceTaskWays > 0
                ? ExecContext::Split{Opts.ForceTaskWays, Opts.ForceLeafWays}
                : Ctx->splitFor(NumTasks);
    if (Split.TaskWays > 1 || Split.LeafWays > 1)
      Pool = Ctx->pool();
    if (Pool && Split.LeafWays > 1)
      LeafLP = {Pool, Split.LeafWays};
  }
  auto parallelTasks = [&](const std::function<void(int64_t)> &Fn) {
    if (Pool && Split.TaskWays > 1)
      Pool->parallelForWays(
          NumTasks, Split.TaskWays,
          [&](int64_t Lo, int64_t Hi) {
            for (int64_t I = Lo; I < Hi; ++I)
              Fn(I);
          },
          Tok);
    else
      for (int64_t I = 0; I < NumTasks; ++I)
        Fn(I);
  };

  bool OverwriteLeaves = Strategy == LeafStrategy::Compiled;
  // Zero-copy views only for the compiled strategy: the interpreted path
  // is the seed reference and always copies.
  bool ViewsOn = Opts.ZeroCopyViews && Strategy == LeafStrategy::Compiled;

  ensureExecState(A);

  // Bind one recorded input gather into its instance. Aliasable gathers
  // bind a zero-copy view of Region storage (no bytes move); the rest
  // reset + replay the precomputed coalesced run program.
  auto syncGather = [&](ExecArena::TaskExec &TE, const CompiledGather &G) {
    FaultInjector::inject(FaultInjector::Site::Gather, &A.Fault);
    Instance &Inst = TE.OwnedInsts[G.Tensor];
    if (ViewsOn && G.Class == GatherClass::Aliasable) {
      Regions.at(G.Tensor)->bindView(Inst, G.R);
    } else {
      Inst.reset(G.R);
      if (Strategy == LeafStrategy::Compiled)
        Regions.at(G.Tensor)->gatherCompiled(Inst, G.Runs, LeafLP);
      else
        Regions.at(G.Tensor)->gatherIntoPointwise(Inst);
    }
    TE.Insts[G.Tensor] = &Inst;
  };

  // Launch phase: task-level instances (private accumulator for the
  // output, fetched copies for the inputs). Tasks only read shared
  // regions, so they are independent. The accumulator's zero is skipped
  // when the compile phase proved the leaf overwrites it entirely; an
  // aliased accumulator (exclusive home-resident rectangle) binds the
  // region storage itself, which the region-wide zero above already
  // cleared, and elides its writeback at the end.
  parallelTasks([&](int64_t I) {
    const CompiledTask &CT = Tasks[static_cast<size_t>(I)];
    ExecArena::TaskExec &TE = A.Execs[static_cast<size_t>(I)];
    for (const CompiledGather &G : CT.LaunchGathers) {
      if (!G.IsOutput) {
        syncGather(TE, G);
        continue;
      }
      Instance &Inst = TE.OwnedInsts[G.Tensor];
      if (ViewsOn && G.Class == GatherClass::Aliasable) {
        Regions.at(G.Tensor)->bindView(Inst, G.R);
      } else {
        Inst.reset(G.R);
        if (!(OverwriteLeaves && CT.SkipOutputZero))
          Inst.zero();
      }
      TE.Insts[G.Tensor] = &Inst;
    }
  });

  // Steps: each task runs its own chain of fetches and leaf kernels,
  // replayed from the compiled program (rectangles, residency dedup, and
  // leaf activation were all decided at compile time). The release store
  // publishes the reset Progress slots to stuckReport.
  for (int64_t I = 0; I < NumTasks; ++I)
    A.Progress[static_cast<size_t>(I)].store(-1, std::memory_order_relaxed);
  A.HbPhase.store(2, std::memory_order_release);
  parallelTasks([&](int64_t I) {
    const CompiledTask &CT = Tasks[static_cast<size_t>(I)];
    ExecArena::TaskExec &TE = A.Execs[static_cast<size_t>(I)];
    for (size_t S = 0; S < StepVals.size(); ++S) {
      // Per-task step boundary: the step loop's cancellation point.
      Opts.Cancel.check();
      for (const auto &[V, C] : StepVals[S])
        TE.FixedVals[V] = C;
      for (const CompiledGather &G : CT.StepGathers[S])
        syncGather(TE, G);
      if (CT.RunLeaf[S]) {
        FaultInjector::inject(FaultInjector::Site::Leaf, &A.Fault);
        if (Strategy == LeafStrategy::Compiled)
          leaf::runCompiledLeaf(TE.Leaf, P, TE.FixedVals, TE.Insts, RhsTape,
                                LeafLP, OverwriteLeaves && CT.SkipOutputZero);
        else
          leaf::runInterpretedLeaf(P, TE.FixedVals, TE.Insts);
      }
      A.Progress[static_cast<size_t>(I)].store(static_cast<int32_t>(S),
                                               std::memory_order_relaxed);
    }
  });

  // Writeback / reduction of every task's output instance to its owners.
  // A viewed accumulator already wrote the home region in place — its
  // striped owner-ordered writeback is elided entirely (the alias proof
  // guarantees no other task contributes to those elements, so there is
  // no merge order to preserve).
  Region *OutR = Regions.at(Out);
  A.HbPhase.store(3, std::memory_order_relaxed);
  Opts.Cancel.check();
  if (Strategy != LeafStrategy::Compiled) {
    for (ExecArena::TaskExec &TE : A.Execs) {
      FaultInjector::inject(FaultInjector::Site::Writeback, &A.Fault);
      OutR->reduceBackPointwise(TE.OwnedInsts.at(Out));
    }
  } else if (!Pool || Out.order() == 0) {
    for (ExecArena::TaskExec &TE : A.Execs) {
      const Instance &OutInst = TE.OwnedInsts.at(Out);
      if (!OutInst.isView()) {
        FaultInjector::inject(FaultInjector::Site::Writeback, &A.Fault);
        OutR->reduceBack(OutInst);
      }
    }
  } else {
    // Stripe the merge over output rows. Within a stripe every element
    // still accumulates the tasks in task order, so the result is
    // bitwise-identical to the sequential merge.
    Coord Rows = OutR->shape()[0];
    Pool->parallelForChunks(
        Rows,
        [&](int64_t RowLo, int64_t RowHi) {
          FaultInjector::inject(FaultInjector::Site::Writeback, &A.Fault);
          for (ExecArena::TaskExec &TE : A.Execs) {
            const Instance &OutInst = TE.OwnedInsts.at(Out);
            if (!OutInst.isView())
              OutR->reduceBackRows(OutInst, RowLo, RowHi);
          }
        },
        Tok);
  }
  A.HbPhase.store(0, std::memory_order_relaxed);

  if (Opts.Mode == TraceMode::Off) {
    Trace Empty;
    Empty.NumProcs = Skeleton.NumProcs;
    return Empty;
  }
  return Skeleton;
}
