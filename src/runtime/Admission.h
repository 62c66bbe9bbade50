//===- runtime/Admission.h - Execution admission + batching ----*- C++ -*-===//
///
/// \file
/// The admission/batching front-end of a CompiledPlan: a bounded
/// submission queue that admits up to K concurrent executions of one
/// artifact, coalesces identical requests onto a single pass, serializes
/// requests that share an output region but cannot coalesce, and hands
/// every submitter an ExecFuture — a StatusOr-carrying handle resolved
/// when the execution completes.
///
/// Why coalescing is sound: executions only read input regions, which the
/// engine requires to be immutable for the duration of an execution, and
/// an execution over the same region map re-zeroes and fully recomputes
/// the same output region to the same bytes (the engine's determinism
/// contract). Two rules keep that argument airtight:
///
///  * A request only coalesces onto one that has **not started yet**
///    (admitted or queued, but unclaimed). A running pass may already have
///    read its inputs, so piggybacking on it could return bytes computed
///    from data older than the submitter's own writes; an unclaimed pass
///    is guaranteed to read the inputs after the submission, so a caller
///    that filled data and then submitted always observes its fill.
///  * The coalescing key is the region map plus *result compatibility*,
///    not option equality: every ExecOptions knob except the trace mode
///    produces bitwise-identical output (see ExecOptions), so requests
///    differing only in threading/view options share one pass
///    (the first submission's options win). A request wanting a trace
///    never coalesces onto a TraceMode::Off pass.
///
/// Requests that share an output region (or read a region another request
/// writes) and cannot coalesce are **serialized**: the later request
/// queues behind the in-flight one instead of racing it on the shared
/// output bytes. Requests over disjoint region sets run concurrently,
/// each in its own ExecArena.
///
/// Execution model: no dedicated dispatcher thread. A Background request
/// is handed to the process pool's detached (communication) lane; a
/// Deferred request waits for a claimant. Either way, ExecFuture::wait()
/// is a worker: the waiting client thread claims and runs its own request
/// inline when nobody else has (so a sequential host degenerates to
/// synchronous execution, never a stall), and helps run other unclaimed
/// admitted requests while its own is queued (so an abandoned future can
/// never wedge the queue).
///
/// Deadlines and cancellation: every request carries a CancelToken
/// (ExecOptions::Cancel; submit installs one when the caller doesn't). A
/// token tripped before the request is claimed resolves the future
/// without running — at submission, at claim time, or in the queue pump's
/// sweep of waiting requests — so a queued request past its deadline
/// never executes and never holds a slot. A token tripped mid-execution
/// stops the pass at its next cancellation point and resolves through the
/// ordinary containment path. Dropping every ExecFuture copy of a
/// still-unclaimed Deferred request auto-cancels it (see ExecFuture).
///
/// Memory pressure (see support/ResourceGovernor.h): under the *hard*
/// watermark, submit() sheds every queued *unclaimed* request
/// newest-first — running executions are never touched — and rejects the
/// new submission, all with ResourceExhausted
/// carrying a machine-readable "retry-after-ms=N" hint
/// (ResourceGovernor::parseRetryAfterMs reads it back). Both are counted
/// in Stats::Shed.
///
/// Circuit breaker: K consecutive non-user-error execution failures
/// (Internal/Injected — not InvalidArgument, Cancelled, or deadline
/// trips) open a per-artifact breaker, after which submissions fail fast
/// with FailedPrecondition (counted in Stats::BreakerOpen). After a
/// configured number of rejected submissions — a deterministic cooldown,
/// no wall clock — the breaker goes half-open and admits exactly one
/// canary execution: success closes it, another non-user-error failure
/// reopens it. Defaults come from ResourceGovernor::breakerDefaults()
/// (DISTAL_BREAKER_*); setBreaker overrides per artifact, and a
/// threshold of 0 disables the breaker entirely.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_ADMISSION_H
#define DISTAL_RUNTIME_ADMISSION_H

#include <chrono>
#include <map>
#include <memory>

#include "lower/Plan.h"
#include "runtime/Ledger.h"
#include "support/Status.h"

namespace distal {

class CompiledPlan;
class Region;
struct ExecOptions;

namespace detail {
struct AdmissionState;
struct AdmissionRequest;
} // namespace detail

/// Handle to one admitted (or rejected) execution request. Cheap to copy;
/// all copies resolve to the same result. A default-constructed future is
/// invalid. The handles are watcher-counted: destroying the *last* copy of
/// a still-unclaimed Deferred request auto-cancels it (nobody can ever
/// claim or observe it, so running it would only leak its queue slot); a
/// Background request, or one some thread is already running, completes
/// normally with nobody reading the result.
class ExecFuture {
public:
  ExecFuture() = default;
  ExecFuture(const ExecFuture &O);
  ExecFuture(ExecFuture &&O) noexcept;
  ExecFuture &operator=(const ExecFuture &O);
  ExecFuture &operator=(ExecFuture &&O) noexcept;
  ~ExecFuture();

  /// False for a default-constructed handle.
  bool valid() const { return R != nullptr; }

  /// Non-blocking poll: true once the result is available.
  bool done() const;

  /// Blocks until the execution completes and returns its Status. May run
  /// the execution inline on the calling thread (caller-runs; see file
  /// comment). Idempotent — the result is latched. Never throws the
  /// execution's error.
  const Status &wait();

  /// Bounded wait: blocks until the result is available or \p Timeout
  /// elapses, returning done(). Unlike wait() this never claims or helps
  /// run anything — it is a pure observer, so it returns on time even with
  /// the execution still in flight. An unclaimed Deferred request makes no
  /// progress during a waitFor (nobody is working it); claim it with
  /// wait() or cancel it. Precondition: valid().
  bool waitFor(std::chrono::nanoseconds Timeout);

  /// Requests cancellation of the underlying pass. An unclaimed request
  /// resolves Cancelled immediately without ever executing; a running one
  /// trips its CancelToken and stops at the next cancellation point,
  /// resolving Cancelled/DeadlineExceeded after containment. Cancelling a
  /// coalesced future cancels the *shared* pass — siblings that piggybacked
  /// on it observe the same Cancelled result (submit a fresh request to
  /// re-run). No-op on an invalid or already-resolved future. Never blocks
  /// on the execution.
  void cancel();

  /// wait(), then the execution's trace: the precomputed skeleton under
  /// TraceMode::Full, empty under TraceMode::Off or on failure.
  const Trace &trace();

private:
  friend class AdmissionQueue;
  ExecFuture(std::shared_ptr<detail::AdmissionRequest> R,
             std::shared_ptr<void> Keeper);
  /// Releases this handle's watch on the request; the last watcher of an
  /// unclaimed Deferred request auto-cancels it (see class comment).
  void drop();
  std::shared_ptr<detail::AdmissionRequest> R;
  /// Optional lifetime anchor (e.g. the shared_ptr<CompiledPlan> of a
  /// cached artifact) kept alive until the future is destroyed, so a
  /// PlanCache eviction can never destroy an artifact out from under a
  /// pending handle.
  std::shared_ptr<void> Keeper;
};

/// The per-artifact admission queue (owned by CompiledPlan; reach it via
/// CompiledPlan::admission()). Thread-safe: every member may be called
/// concurrently. Destroying the queue (i.e. the artifact) fails all
/// not-yet-claimed requests with FailedPrecondition and waits for running
/// executions to finish, so futures always resolve.
class AdmissionQueue {
public:
  /// How a submitted request gets a worker. Background hands the request
  /// to the process pool's detached lane at admission (true fire-and-forget
  /// asynchrony — on a sequential host this degenerates to running it
  /// before submit returns); Deferred leaves it for the first
  /// ExecFuture::wait() to claim (the right choice when the caller waits
  /// immediately, avoiding a pointless dispatch round-trip).
  enum class Dispatch { Background, Deferred };

  explicit AdmissionQueue(CompiledPlan *CP);
  ~AdmissionQueue();
  AdmissionQueue(const AdmissionQueue &) = delete;
  AdmissionQueue &operator=(const AdmissionQueue &) = delete;

  /// Submits one execution request. Coalesces onto a result-compatible
  /// not-yet-started request over the same region map when one exists, and
  /// queues behind (rather than racing) a conflicting request that shares
  /// a region this one writes — or writes a region this one reads (see
  /// file comment); otherwise admits it if the queue has room (running +
  /// queued < capacity) and returns a future. A full queue rejects
  /// immediately: the returned future is already resolved with
  /// ResourceExhausted and no execution happens.
  ///
  /// Deadlines and cancellation ride in \p Opts.Cancel: a token tripped at
  /// submission resolves the future Cancelled/DeadlineExceeded without
  /// admitting anything, a queued request whose deadline expires before it
  /// runs resolves DeadlineExceeded without ever executing, and a running
  /// request stops at its next cancellation point. When the caller leaves
  /// Opts.Cancel invalid, submit installs a fresh token on the admitted
  /// request so ExecFuture::cancel() always has teeth; requests never
  /// coalesce onto a pass whose token has already tripped.
  ///
  /// \p Keeper is an optional
  /// lifetime anchor stored in the future (see ExecFuture::Keeper).
  /// \p RunAnchor is an optional lifetime anchor held by the *request*
  /// itself and released when the execution completes (or the request is
  /// rejected/coalesced/failed) — the hook Tensor uses to keep Region
  /// storage alive and pinned exactly as long as an execution might touch
  /// it. The RunAnchor must NOT own the artifact (directly or
  /// transitively): it can be released from inside a background dispatch
  /// job, and destroying the artifact there would join that job's own
  /// pool ticket. Use \p Keeper for artifact lifetime.
  ExecFuture submit(const std::map<TensorVar, Region *> &Regions,
                    const ExecOptions &Opts,
                    Dispatch D = Dispatch::Background,
                    std::shared_ptr<void> Keeper = nullptr,
                    std::shared_ptr<void> RunAnchor = nullptr);

  /// Cap on concurrently *running* executions of this artifact (default
  /// 8). Admitted requests beyond it queue FIFO. Must be >= 1.
  void setMaxConcurrent(int K);
  /// Cap on admitted requests — running plus queued (default 64).
  /// Submissions beyond it are rejected with ResourceExhausted. Must be
  /// >= 1; capacity below max-concurrent simply caps concurrency further.
  void setCapacity(int N);
  /// Reconfigures this artifact's circuit breaker (see the file comment):
  /// \p Failures consecutive non-user-error failures open it (0 disables),
  /// and \p CooldownRejections rejected submissions later it half-opens
  /// for one canary. Resets the breaker to closed with fresh counters.
  void setBreaker(int Failures, int64_t CooldownRejections);

  /// Counters since construction plus a snapshot of the current state.
  /// PeakActive is how tests prove executions genuinely overlapped.
  struct Stats {
    int64_t Admitted = 0;  ///< Requests that got their own execution.
    int64_t Coalesced = 0; ///< Requests resolved by piggybacking.
    int64_t Rejected = 0;  ///< Requests refused with ResourceExhausted.
    /// Requests resolved Cancelled/DeadlineExceeded *without executing*:
    /// tripped at submit, cancelled or expired while queued/unclaimed, or
    /// abandoned (every future copy dropped while unclaimed). A running
    /// execution cancelled mid-flight is not counted here — it resolves
    /// through the normal completion path.
    int64_t Cancelled = 0;
    /// Requests shed by hard memory pressure: queued unclaimed requests
    /// resolved ResourceExhausted newest-first, plus new submissions
    /// rejected while the governor reports hard pressure. Each carries a
    /// "retry-after-ms=N" hint in its Status message.
    int64_t Shed = 0;
    /// Submissions refused fast with FailedPrecondition because the
    /// circuit breaker was open (or half-open with the canary already in
    /// flight).
    int64_t BreakerOpen = 0;
    int Active = 0;        ///< Currently admitted-and-activated requests.
    int Queued = 0;        ///< Currently admitted-but-waiting requests.
    int PeakActive = 0;    ///< High-water mark of Active.
  };
  /// Snapshot of the counters above, all read under one lock — a single
  /// coherent picture, never a torn mix of before/after a completion.
  Stats stats() const;

private:
  std::shared_ptr<detail::AdmissionState> St;
};

} // namespace distal

#endif // DISTAL_RUNTIME_ADMISSION_H
