//===- api/Tensor.h - User-facing tensor API -------------------*- C++ -*-===//
///
/// \file
/// The user-facing API mirroring the paper's Fig. 2: declare tensors with
/// formats (distribution + memory), write tensor index notation with
/// overloaded operators, schedule the computation with the chained
/// scheduling language, then compile and evaluate on a machine:
///
/// \code
///   Machine m = Machine::grid({gx, gy}, ProcessorKind::GPU);
///   Format f({Dense, Dense}, TensorDistribution::parse("xy->xy"),
///            MemoryKind::GPUFrameBuffer);
///   Tensor A("A", {n, n}, f), B("B", {n, n}, f), C("C", {n, n}, f);
///   IndexVar i, j, k;
///   A(i, j) = B(i, k) * C(k, j);
///   A.schedule().distribute(...).communicate(...);
///   A.evaluate(m);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_API_TENSOR_H
#define DISTAL_API_TENSOR_H

#include <memory>

#include "lower/Plan.h"
#include "runtime/CompiledPlan.h"
#include "runtime/Ledger.h"
#include "runtime/Region.h"
#include "schedule/Schedule.h"

namespace distal {

class Tensor;

/// Proxy returned by Tensor::operator(); assigning an expression to it
/// records the computation on the accessed tensor.
class TensorAccess {
public:
  /// Built by Tensor::operator(); not constructed directly by users.
  TensorAccess(Tensor &T, std::vector<IndexVar> Indices);

  /// Records `tensor(indices) = rhs` as the tensor's computation.
  TensorAccess &operator=(const Expr &Rhs);

  /// An access used on a right-hand side converts to the expression /
  /// access IR so `A(i, j) = B(i, k) * C(k, j)` reads naturally.
  operator Expr() const;   // NOLINT(google-explicit-constructor)
  operator Access() const; // NOLINT(google-explicit-constructor)

private:
  Tensor &T;
  std::vector<IndexVar> Indices;
};

/// A dense distributed tensor with a format and (once evaluated) data.
class Tensor {
public:
  /// Declares a dense tensor of shape \p Dims with format \p Fmt
  /// (distribution + memory kind). The name identifies it in plans,
  /// traces, and the PlanCache key.
  Tensor(std::string Name, std::vector<Coord> Dims, Format Fmt);
  ~Tensor();
  Tensor(const Tensor &) = delete;
  Tensor &operator=(const Tensor &) = delete;

  /// The IR-level variable this tensor declares.
  const TensorVar &var() const { return Var; }
  /// The declared format (distribution + memory kind).
  const Format &format() const { return Fmt; }

  /// Implicit conversion so tensors can be passed to scheduling commands
  /// (`.communicate(A, jo)`, `.communicate({B, C}, ko)`) exactly as in the
  /// paper's Fig. 2.
  operator const TensorVar &() const { return Var; } // NOLINT

  /// Access for building tensor index notation (up to four indices; use
  /// the vector overload beyond that).
  TensorAccess operator()() { return TensorAccess(*this, {}); }
  TensorAccess operator()(const IndexVar &I) { return TensorAccess(*this, {I}); }
  TensorAccess operator()(const IndexVar &I, const IndexVar &J) {
    return TensorAccess(*this, {I, J});
  }
  TensorAccess operator()(const IndexVar &I, const IndexVar &J,
                          const IndexVar &K) {
    return TensorAccess(*this, {I, J, K});
  }
  TensorAccess operator()(const IndexVar &I, const IndexVar &J,
                          const IndexVar &K, const IndexVar &L) {
    return TensorAccess(*this, {I, J, K, L});
  }
  TensorAccess operator()(std::vector<IndexVar> Indices) {
    return TensorAccess(*this, std::move(Indices));
  }

  /// Records this tensor's defining computation (called by TensorAccess).
  void defineComputation(Assignment Stmt);
  bool hasComputation() const { return Sched != nullptr; }

  /// The schedule of this tensor's computation (Fig. 2 line 23).
  Schedule &schedule();

  /// Pending input data (applied when regions are materialised).
  void fillRandom(uint64_t Seed);
  void fill(std::function<double(const Point &)> Fn);

  /// Lowers the scheduled computation to a Plan for machine \p M (the
  /// pre-compile program; see compile() for the executable artifact).
  Plan lower(const Machine &M);

  /// Compiles the scheduled computation for machine \p M into a persistent
  /// CompiledPlan artifact, consulting the process-wide PlanCache: the
  /// first call per (statement, schedule, formats, machine) pays the full
  /// analysis, later calls return the cached artifact. The artifact (and
  /// its reusable instance buffers) is shared between the cache and the
  /// caller. Steady-state calls also skip re-lowering and re-fingerprinting:
  /// the cache key is memoized per machine and dropped whenever the
  /// computation is redefined or schedule() is accessed (mutating a held
  /// Schedule reference without going through schedule() is not tracked).
  /// PlanCache invalidation is still honoured — the memoized key is only a
  /// shortcut to the lookup, never to the artifact.
  std::shared_ptr<CompiledPlan> compile(const Machine &M);

  /// Non-throwing compile: a lowering or validation failure comes back as
  /// a Status instead of a DistalError.
  StatusOr<std::shared_ptr<CompiledPlan>> tryCompile(const Machine &M);

  /// Compiles (or cache-hits) and runs on real data; operand tensors'
  /// fills are applied. The steady-state path: repeated calls reuse the
  /// cached artifact, its per-execution arenas, and this tensor's backing
  /// Region, and skip trace accounting entirely (TraceMode::Off). Routed
  /// through the artifact's admission queue, so concurrent evaluations of
  /// one tensor on one machine coalesce onto a single pass (when neither
  /// has started yet) or serialize behind each other — they never race on
  /// the shared output region — while evaluations of different tensors run
  /// concurrently, each in its own arena. Evaluating on a different
  /// machine than an in-flight evaluation of this tensor (or of a tensor
  /// reading it) is safe but blocks until the in-flight executions over
  /// the old Region drain before the Region is rebuilt. Thread-safe
  /// against other evaluate-family calls; the caller must hold input data
  /// immutable while any evaluation is in flight. Throws DistalError on
  /// failure; tryEvaluate is the non-throwing form.
  void evaluate(const Machine &M);

  /// Non-throwing evaluate. A failed execution is contained inside its
  /// arena (CompiledPlan's failure contract) — the cached artifact stays
  /// usable. Thread-safe like evaluate().
  Status tryEvaluate(const Machine &M);

  /// Asynchronous evaluate: admits the execution to the cached artifact's
  /// admission queue, dispatches it to the process pool's background lane,
  /// and returns a future immediately. The future carries the Status
  /// (never throws) and keeps the artifact alive even across a PlanCache
  /// eviction; the admitted request additionally holds the backing Regions
  /// (shared ownership) until the execution completes, so the future may
  /// safely outlive this tensor and its operands — even a later machine
  /// change that rebuilds their Regions waits for the pending execution to
  /// drain rather than freeing storage under it. Identical concurrent
  /// submissions coalesce (or serialize; see evaluate()); a full admission
  /// queue resolves the future with ResourceExhausted. Compilation and
  /// region materialisation still happen synchronously in this call (and
  /// may throw, as in evaluate()). The returned future supports bounded
  /// waits (ExecFuture::waitFor) and cancellation (ExecFuture::cancel);
  /// a deadline set via execOptions().Cancel resolves the future
  /// DeadlineExceeded — without executing if it expires while the request
  /// is still queued. Under memory pressure (Executor::setMemoryBudget /
  /// DISTAL_MEM_BUDGET) the admission may be shed with
  /// ResourceExhausted carrying a retry-after hint, or refused
  /// FailedPrecondition by the artifact's circuit breaker — see
  /// support/ResourceGovernor.h. Thread-safe like evaluate().
  ExecFuture evaluateAsync(const Machine &M);

  /// Like evaluate(), returning the execution trace (precomputed at
  /// compile time; this copies the cached skeleton). Thread-safe like
  /// evaluate().
  Trace evaluateWithTrace(const Machine &M);

  /// Escape hatch: compiles a fresh artifact, bypassing the PlanCache in
  /// both directions (no lookup, no insertion). Results are
  /// bitwise-identical to the cached path.
  Trace evaluateUncached(const Machine &M);

  /// The trace of the compiled plan without touching data (for cost
  /// studies). Uses the same cached artifact as evaluate().
  Trace simulateOn(const Machine &M);

  /// Evaluates an ordered chain of statements as one linked program (see
  /// api/Program.h): each tensor in \p Stmts contributes its defined
  /// computation, in order. Equivalent to (and bitwise-identical with)
  /// calling evaluate(M) on each tensor in sequence, but compiled into one
  /// cached CompiledProgram whose tasks run as a single dependency graph —
  /// cross-statement barriers, interior gathers, and interior writebacks
  /// are elided where the residency analysis allows. Throws DistalError on
  /// failure.
  static void evaluateProgram(const std::vector<Tensor *> &Stmts,
                              const Machine &M);

  /// Execute-time options applied by evaluate()/evaluateWithTrace()/
  /// evaluateUncached(): threading, the task/leaf split, zero-copy alias
  /// views (on by default — home-resident gathers bind leaves directly to
  /// Region storage), and the cancellation/deadline token (Cancel; see
  /// CancelToken — a tripped token stops the evaluation at its next
  /// cancellation point with Cancelled/DeadlineExceeded, contained like
  /// any other failure, and a clean re-evaluate stays bitwise-identical).
  /// None of these participate in the PlanCache key, so flipping them
  /// costs no recompile and results stay bitwise-identical. The trace
  /// mode field is overridden per call.
  ExecOptions &execOptions() { return ExecOpts; }

  /// The PlanCache key evaluate()/compile() use for machine \p M (for
  /// explicit invalidation via PlanCache::global().invalidate).
  std::string planKey(const Machine &M);

  /// Element access after evaluate().
  double at(const Point &P) const;
  /// The region backing this tensor after evaluate(), if any. Owned by the
  /// tensor (shared with in-flight executions) and reused across
  /// evaluations on the same machine; evaluating on a different machine
  /// rebuilds it after in-flight executions drain (re-applying any pending
  /// fill).
  Region *region() const { return Reg.get(); }

private:
  /// Program builds on the same compile-memo, registry, and
  /// materialisation internals the evaluate family uses.
  friend class Program;

  /// Resolves \p V back to its live api::Tensor (fatal when none exists).
  static Tensor &lookupTensor(const TensorVar &V);
  /// The process-wide mutex serializing the evaluate-family front half
  /// (compile memo + region materialisation). Never held during execution.
  static std::mutex &apiMu();

  /// Ensures the backing Region exists for machine \p M and returns the
  /// owning pointer (shared so in-flight executions can anchor it). A
  /// machine change waits for executions pinning the old Region to drain,
  /// then rebuilds. Caller holds the api mutex.
  const std::shared_ptr<Region> &materialize(const Machine &M,
                                             bool PreserveData = true);
  Trace runCompiled(CompiledPlan &CP, const Machine &M, TraceMode Mode);
  /// compile() body; caller holds the api mutex (guards the memo fields).
  std::shared_ptr<CompiledPlan> compileLocked(const Machine &M);

  /// One admission-ready request: the cached artifact, the materialised
  /// region map over this tensor and its operands, the snapshotted
  /// options, and the Hold — shared ownership of (and execution pins on)
  /// every Region in the map, passed to the admission queue as the
  /// request's RunAnchor so the storage outlives the execution even if a
  /// tensor dies or re-materialises meanwhile. Built under the api mutex
  /// (compile-memo writes and Region materialisation are the shared
  /// mutable state); the execution itself then runs outside it.
  struct PreparedRun {
    std::shared_ptr<CompiledPlan> CP;
    std::map<TensorVar, Region *> Regions;
    ExecOptions Opts;
    std::shared_ptr<void> Hold;
  };
  PreparedRun prepareRun(const Machine &M, TraceMode Mode);

  TensorVar Var;
  Format Fmt;
  std::unique_ptr<Schedule> Sched;
  /// Shared, not unique: in-flight executions co-own the Region through
  /// their request's Hold, so a machine-change rebuild (or this tensor's
  /// destruction) can never free storage an execution still touches.
  std::shared_ptr<Region> Reg;
  std::function<double(const Point &)> PendingFill;
  ExecOptions ExecOpts;
  /// Steady-state shortcut past lowering + fingerprinting: the PlanCache
  /// key last computed, valid for MemoMachine while the schedule is
  /// untouched (cleared by defineComputation and schedule()).
  std::string MemoMachine, MemoKey;
};

} // namespace distal

#endif // DISTAL_API_TENSOR_H
