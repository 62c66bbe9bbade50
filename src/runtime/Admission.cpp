//===- runtime/Admission.cpp ----------------------------------*- C++ -*-===//
//
// The admission queue's execution model, in one page: a request is a
// heap-shared record (AdmissionRequest) holding its key (region map +
// execute options), its lifecycle flags, and its result. The queue state
// (AdmissionState) is itself heap-shared so futures and detached dispatch
// jobs can outlive the AdmissionQueue handle safely: the handle's
// destructor (i.e. the artifact's) fails unclaimed requests and waits out
// running ones, after which late-firing dispatch jobs see Shutdown and
// return without touching the artifact.
//
// Claiming is the one race that matters: a request may be run by its
// background dispatch job, by its own future's wait(), or by a sibling
// future helping the lane drain. Whoever flips Claimed under the queue
// mutex runs it; everyone else keeps waiting. Completion latches the
// result, removes the request from the active set, promotes queued
// requests into the freed slots, and broadcasts.
//
//===----------------------------------------------------------------------===//

#include "runtime/Admission.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/CompiledPlan.h"
#include "support/CancelToken.h"
#include "support/Error.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"

using namespace distal;
using distal::detail::AdmissionRequest;
using distal::detail::AdmissionState;

namespace distal {
namespace detail {

struct AdmissionRequest {
  // The coalescing key: what to execute and how. Opts.Cancel is always a
  // valid token for an admitted request (submit installs one when the
  // caller's is invalid); the handle is never reassigned after admission,
  // so tripping it from any thread is safe concurrently with the runner.
  std::map<TensorVar, Region *> Regions;
  ExecOptions Opts;
  AdmissionQueue::Dispatch D = AdmissionQueue::Dispatch::Background;

  // Lifecycle (guarded by AdmissionState::Mu; Done is additionally an
  // acquire/release flag so resolved futures read the result lock-free).
  bool Active = false;  ///< Holds one of the MaxConcurrent slots.
  bool Claimed = false; ///< Some thread is (about to be) running it.
  /// The half-open breaker's single probe execution: its outcome decides
  /// whether the breaker closes (success) or reopens (non-user-error
  /// failure); any other resolution releases the probe slot.
  bool Canary = false;
  std::atomic<bool> Done{false};
  Status Result;
  Trace Out;

  /// Live ExecFuture copies referencing this request. Every future is
  /// constructed while AdmissionState::Mu is held, so the last drop's
  /// under-lock re-check of Watchers == 0 cannot race a concurrent
  /// coalesce handing out a new copy (see ExecFuture::drop).
  std::atomic<int> Watchers{0};

  /// Request-held lifetime anchor (see AdmissionQueue::submit): released
  /// when the request completes or is failed, always *outside* the queue
  /// mutex as hygiene. The anchor must NOT own the artifact — a Background
  /// request's anchor is released from inside its pool dispatch job, and
  /// an artifact destroyed there would drain that job's *own* ticket: a
  /// self-join deadlock. Artifact lifetime is the future Keeper's job.
  std::shared_ptr<void> RunAnchor;

  /// Back-reference so a future can pump the queue; one-way once the
  /// request leaves Active/Queued, so no reference cycle survives
  /// completion.
  std::shared_ptr<AdmissionState> State;
};

struct AdmissionState {
  std::mutex Mu;
  std::condition_variable CV;
  CompiledPlan *CP = nullptr;
  /// The statement's output tensor — its Region in a request's map is what
  /// the execution zeroes and writes, and therefore what conflict
  /// serialization keys on.
  TensorVar OutVar;
  bool Shutdown = false;
  int MaxConcurrent = 8;
  int Capacity = 64;
  /// Circuit-breaker state (all guarded by Mu). BreakerK <= 0 disables
  /// the breaker. The cooldown is counted in *rejected submissions* — a
  /// deterministic, injectable clock, so tests drive the state machine by
  /// submitting instead of sleeping.
  enum class BreakerPhase { Closed, Open, HalfOpen };
  int BreakerK = 5;
  int64_t BreakerCooldown = 8;
  BreakerPhase Breaker = BreakerPhase::Closed;
  int ConsecFailures = 0;
  int64_t CooldownLeft = 0;
  bool ProbeInFlight = false;
  std::vector<std::shared_ptr<AdmissionRequest>> Active;
  std::deque<std::shared_ptr<AdmissionRequest>> Queued;
  /// Tickets of dispatched background jobs, destroyed (= drained) in
  /// batches from submit() and finally by the queue destructor. The jobs
  /// capture only weak references, so the tickets are the sole owners of
  /// pool-side state.
  std::vector<ThreadPool::Ticket> Reap;
  AdmissionQueue::Stats Counters;
};

} // namespace detail
} // namespace distal

namespace {

/// Whether a new request (\p Regions, \p O) may piggyback on \p R. Mu
/// held. Requires: R not yet claimed (a running pass may already have read
/// inputs the submitter has since overwritten — see the file comment in
/// Admission.h), the identical region map, and a result-compatible trace
/// mode (every other ExecOptions knob yields bitwise-identical output, so
/// it is not part of the key; a Full pass satisfies an Off request but not
/// vice versa).
bool coalescibleLocked(const AdmissionRequest &R,
                       const std::map<TensorVar, Region *> &Regions,
                       const ExecOptions &O) {
  if (R.Claimed || R.Done.load(std::memory_order_relaxed))
    return false;
  // Never piggyback on a pass that is already doomed: a tripped token
  // resolves the target Cancelled/DeadlineExceeded without running.
  if (R.Opts.Cancel.tripped())
    return false;
  if (R.Regions != Regions)
    return false;
  return R.Opts.Mode == O.Mode || R.Opts.Mode == TraceMode::Full;
}

/// Whether two requests may run concurrently. Mu held. They may not when
/// either one's output region appears anywhere in the other's map: an
/// execution zeroes and rewrites its output region, so a shared output
/// races byte-for-byte and an output that is another request's *input*
/// breaks the input-immutability premise. A request missing its output
/// entry is malformed (tryExecute will fail it); treat it as conflicting
/// so it at least fails serially.
bool conflictsLocked(const AdmissionState &St, const AdmissionRequest &A,
                     const AdmissionRequest &B) {
  auto ItA = A.Regions.find(St.OutVar);
  auto ItB = B.Regions.find(St.OutVar);
  if (ItA == A.Regions.end() || ItB == B.Regions.end())
    return true;
  for (const auto &KV : B.Regions)
    if (KV.second == ItA->second)
      return true;
  for (const auto &KV : A.Regions)
    if (KV.second == ItB->second)
      return true;
  return false;
}

/// Whether \p R must keep waiting: it conflicts with an active request, or
/// with an earlier queued one (FIFO within a conflict group, so same-output
/// requests complete in submission order). Mu held. \p UpTo bounds the
/// queue scan — pass Queued.end() for a new submission.
bool blockedLocked(const AdmissionState &St, const AdmissionRequest &R,
                   std::deque<std::shared_ptr<AdmissionRequest>>::const_iterator
                       UpTo) {
  for (const std::shared_ptr<AdmissionRequest> &A : St.Active)
    if (!A->Done.load(std::memory_order_relaxed) &&
        conflictsLocked(St, *A, R))
      return true;
  for (auto It = St.Queued.begin(); It != UpTo; ++It)
    if (conflictsLocked(St, **It, R))
      return true;
  return false;
}

/// Resolves an unclaimed request without running it (Mu held): latches
/// \p S as its result, frees its slot or queue position, releases a
/// canary's probe slot (so a resolved probe can never wedge the breaker
/// half-open), and collects its RunAnchor into \p Anchors for release
/// outside the lock. Counts nothing — callers pick the counter (Cancelled
/// for cancellation paths, Shed for load shedding), then pump and
/// broadcast.
void finishLocked(AdmissionState &St,
                  const std::shared_ptr<AdmissionRequest> &R, Status S,
                  std::vector<std::shared_ptr<void>> &Anchors) {
  R->Result = std::move(S);
  Anchors.push_back(std::move(R->RunAnchor));
  R->Done.store(true, std::memory_order_release);
  if (R->Canary)
    St.ProbeInFlight = false;
  auto It = std::find(St.Active.begin(), St.Active.end(), R);
  if (It != St.Active.end())
    St.Active.erase(It);
  auto Qt = std::find(St.Queued.begin(), St.Queued.end(), R);
  if (Qt != St.Queued.end())
    St.Queued.erase(Qt);
}

/// finishLocked counting toward Stats::Cancelled — the cancellation and
/// deadline paths.
void resolveLocked(AdmissionState &St,
                   const std::shared_ptr<AdmissionRequest> &R, Status S,
                   std::vector<std::shared_ptr<void>> &Anchors) {
  finishLocked(St, R, std::move(S), Anchors);
  ++St.Counters.Cancelled;
}

/// Resolves every waiting (unclaimed) request whose token has tripped —
/// the deadline sweep: a queued request past its deadline resolves
/// DeadlineExceeded here without ever executing and without holding a
/// slot. Mu held; anchors collected for release outside the lock.
void sweepTrippedLocked(AdmissionState &St,
                        std::vector<std::shared_ptr<void>> &Anchors) {
  for (;;) {
    std::shared_ptr<AdmissionRequest> Victim;
    Status S;
    for (const std::shared_ptr<AdmissionRequest> &R : St.Queued)
      if (R->Opts.Cancel.tripped(&S)) {
        Victim = R;
        break;
      }
    if (!Victim)
      for (const std::shared_ptr<AdmissionRequest> &R : St.Active)
        if (!R->Claimed && !R->Done.load(std::memory_order_relaxed) &&
            R->Opts.Cancel.tripped(&S)) {
          Victim = R;
          break;
        }
    if (!Victim)
      return;
    resolveLocked(St, Victim, std::move(S), Anchors);
  }
}

/// Moves queued requests into freed active slots — FIFO, except that a
/// request conflicting with an active or earlier-queued one stays queued
/// (conflict serialization; see the file comment). Sweeps tripped waiting
/// requests first, so an expired deadline frees its slot at every pump.
/// Mu held. Requests needing a background dispatch are collected for the
/// caller to dispatch *after* releasing the lock (dispatch may run the
/// job inline on a sequential pool, and the job locks Mu); \p Anchors
/// likewise collects resolved requests' RunAnchors for out-of-lock
/// release. Callers broadcast when Anchors comes back non-empty (futures
/// of swept requests must wake).
void pumpLocked(AdmissionState &St,
                std::vector<std::shared_ptr<AdmissionRequest>> &ToDispatch,
                std::vector<std::shared_ptr<void>> &Anchors) {
  if (St.Shutdown)
    return;
  sweepTrippedLocked(St, Anchors);
  bool Promoted = true;
  while (Promoted && static_cast<int>(St.Active.size()) < St.MaxConcurrent &&
         !St.Queued.empty()) {
    Promoted = false;
    for (auto It = St.Queued.begin(); It != St.Queued.end(); ++It) {
      if (blockedLocked(St, **It, It))
        continue;
      std::shared_ptr<AdmissionRequest> R = *It;
      St.Queued.erase(It);
      R->Active = true;
      St.Active.push_back(R);
      St.Counters.PeakActive = std::max(
          St.Counters.PeakActive, static_cast<int>(St.Active.size()));
      if (R->D == AdmissionQueue::Dispatch::Background)
        ToDispatch.push_back(R);
      Promoted = true;
      break; // The erase invalidated It; rescan from the front.
    }
  }
}

void dispatchBackground(const std::shared_ptr<AdmissionState> &St,
                        const std::shared_ptr<AdmissionRequest> &R);

/// Runs \p R (whose Claimed flag the caller just set under Mu) and
/// completes it: latch result, free the slot, promote, broadcast. Every
/// claim path (background dispatch, caller-runs, sibling help) funnels
/// through here, so the entry token check is the single choke point that
/// keeps a request whose token tripped while it waited from executing.
void runRequest(const std::shared_ptr<AdmissionState> &St,
                const std::shared_ptr<AdmissionRequest> &R) {
  Status Pre;
  bool Tripped = R->Opts.Cancel.tripped(&Pre);
  Trace T;
  Status S = Tripped ? std::move(Pre)
                     : St->CP->tryExecute(R->Regions, T, R->Opts);
  ErrorCode EC = S.code();
  std::vector<std::shared_ptr<AdmissionRequest>> ToDispatch;
  std::vector<std::shared_ptr<void>> Anchors;
  {
    std::lock_guard<std::mutex> L(St->Mu);
    if (Tripped)
      ++St->Counters.Cancelled; // Resolved without executing.
    // Breaker accounting. Only Internal/Injected count as failures —
    // user errors (InvalidArgument), cancellations, and deadline trips
    // say nothing about the artifact's health. A canary's outcome decides
    // the half-open verdict; a neutral canary outcome just releases the
    // probe slot so the next submission can probe again.
    if (St->BreakerK > 0) {
      bool Okay = !Tripped && EC == ErrorCode::Ok;
      bool Fail = !Tripped &&
                  (EC == ErrorCode::Internal || EC == ErrorCode::Injected);
      if (Okay) {
        St->ConsecFailures = 0;
        if (R->Canary) {
          St->Breaker = AdmissionState::BreakerPhase::Closed;
          St->ProbeInFlight = false;
        }
      } else if (Fail) {
        if (R->Canary) {
          St->Breaker = AdmissionState::BreakerPhase::Open;
          St->CooldownLeft = St->BreakerCooldown;
          St->ProbeInFlight = false;
          St->ConsecFailures = 0;
        } else if (St->Breaker == AdmissionState::BreakerPhase::Closed &&
                   ++St->ConsecFailures >= St->BreakerK) {
          St->Breaker = AdmissionState::BreakerPhase::Open;
          St->CooldownLeft = St->BreakerCooldown;
          St->ConsecFailures = 0;
        }
      } else if (R->Canary) {
        St->ProbeInFlight = false;
      }
    }
    R->Result = std::move(S);
    R->Out = std::move(T);
    Anchors.push_back(std::move(R->RunAnchor));
    R->Done.store(true, std::memory_order_release);
    auto It = std::find(St->Active.begin(), St->Active.end(), R);
    if (It != St->Active.end())
      St->Active.erase(It);
    pumpLocked(*St, ToDispatch, Anchors);
    St->CV.notify_all();
  }
  for (const std::shared_ptr<AdmissionRequest> &N : ToDispatch)
    dispatchBackground(St, N);
  // Released last, outside the lock. Note this may run inside the pool
  // dispatch job, which is why the anchors must never own the artifact
  // (see the RunAnchor field comment).
  Anchors.clear();
}

void dispatchBackground(const std::shared_ptr<AdmissionState> &St,
                        const std::shared_ptr<AdmissionRequest> &R) {
  // Weak captures only: the job must not keep the queue or the request
  // alive (the queue's destructor is what breaks every cycle), and a job
  // firing after shutdown must observe it and stand down.
  std::weak_ptr<AdmissionState> WS = St;
  std::weak_ptr<AdmissionRequest> WR = R;
  ThreadPool::Ticket T = ThreadPool::global().submitAsync([WS, WR] {
    std::shared_ptr<AdmissionState> St = WS.lock();
    std::shared_ptr<AdmissionRequest> R = WR.lock();
    if (!St || !R)
      return;
    {
      std::lock_guard<std::mutex> L(St->Mu);
      if (St->Shutdown || R->Claimed || !R->Active ||
          R->Done.load(std::memory_order_relaxed))
        return;
      R->Claimed = true;
    }
    runRequest(St, R);
  });
  std::lock_guard<std::mutex> L(St->Mu);
  St->Reap.push_back(std::move(T));
}

} // namespace

ExecFuture::ExecFuture(std::shared_ptr<AdmissionRequest> R,
                       std::shared_ptr<void> Keeper)
    : R(std::move(R)), Keeper(std::move(Keeper)) {
  if (this->R)
    this->R->Watchers.fetch_add(1, std::memory_order_relaxed);
}

ExecFuture::ExecFuture(const ExecFuture &O) : R(O.R), Keeper(O.Keeper) {
  if (R)
    R->Watchers.fetch_add(1, std::memory_order_relaxed);
}

ExecFuture::ExecFuture(ExecFuture &&O) noexcept
    : R(std::move(O.R)), Keeper(std::move(O.Keeper)) {}

ExecFuture &ExecFuture::operator=(const ExecFuture &O) {
  // Copy-and-swap: the temporary takes this handle's old watch and drops
  // it on scope exit (correct even for self-assignment).
  ExecFuture Tmp(O);
  std::swap(R, Tmp.R);
  std::swap(Keeper, Tmp.Keeper);
  return *this;
}

ExecFuture &ExecFuture::operator=(ExecFuture &&O) noexcept {
  if (this != &O) {
    drop();
    R = std::move(O.R);
    Keeper = std::move(O.Keeper);
  }
  return *this;
}

ExecFuture::~ExecFuture() { drop(); }

void ExecFuture::drop() {
  if (!R)
    return;
  std::shared_ptr<AdmissionRequest> Req = std::move(R);
  Keeper.reset();
  if (Req->Watchers.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  // Last watcher gone. A resolved or rejected placeholder has no queue
  // state; anything claimed, done, or Background completes on its own.
  std::shared_ptr<AdmissionState> St = Req->State;
  if (!St)
    return;
  std::vector<std::shared_ptr<AdmissionRequest>> ToDispatch;
  std::vector<std::shared_ptr<void>> Anchors;
  {
    std::lock_guard<std::mutex> L(St->Mu);
    // Re-check under Mu: every ExecFuture is constructed while Mu is
    // held, so a concurrent coalesce either bumped Watchers before we got
    // here (abort — somebody can observe the request again) or will see
    // Done below and refuse the target.
    if (St->Shutdown || Req->Claimed ||
        Req->Done.load(std::memory_order_relaxed) ||
        Req->D != AdmissionQueue::Dispatch::Deferred ||
        Req->Watchers.load(std::memory_order_relaxed) != 0)
      return;
    resolveLocked(*St, Req,
                  Status(ErrorCode::Cancelled,
                         "every ExecFuture copy of the unclaimed request "
                         "was dropped; execution auto-cancelled"),
                  Anchors);
    pumpLocked(*St, ToDispatch, Anchors);
    St->CV.notify_all();
  }
  for (const std::shared_ptr<AdmissionRequest> &N : ToDispatch)
    dispatchBackground(St, N);
  Anchors.clear();
}

void ExecFuture::cancel() {
  if (!R)
    return;
  std::shared_ptr<AdmissionState> St = R->State;
  if (!St || R->Done.load(std::memory_order_acquire))
    return;
  // Trip the shared token first: if some thread is already running the
  // pass, this is what stops it (at its next cancellation point).
  R->Opts.Cancel.cancel();
  std::vector<std::shared_ptr<AdmissionRequest>> ToDispatch;
  std::vector<std::shared_ptr<void>> Anchors;
  {
    std::lock_guard<std::mutex> L(St->Mu);
    if (St->Shutdown || R->Claimed ||
        R->Done.load(std::memory_order_relaxed))
      return; // Running (or already resolved): the token does the rest.
    Status S;
    R->Opts.Cancel.tripped(&S);
    resolveLocked(*St, R, std::move(S), Anchors);
    pumpLocked(*St, ToDispatch, Anchors);
    St->CV.notify_all();
  }
  for (const std::shared_ptr<AdmissionRequest> &N : ToDispatch)
    dispatchBackground(St, N);
  Anchors.clear();
}

bool ExecFuture::waitFor(std::chrono::nanoseconds Timeout) {
  DISTAL_ASSERT(R != nullptr, "waitFor() on an invalid ExecFuture");
  if (R->Done.load(std::memory_order_acquire))
    return true;
  std::shared_ptr<AdmissionState> St = R->State;
  if (!St)
    return R->Done.load(std::memory_order_acquire);
  // Pure observer: unlike wait() this never claims or helps, so it
  // returns when the timeout elapses even with the execution in flight.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::now() + Timeout;
  std::unique_lock<std::mutex> L(St->Mu);
  St->CV.wait_until(L, Deadline, [&] {
    return R->Done.load(std::memory_order_relaxed);
  });
  return R->Done.load(std::memory_order_relaxed);
}

bool ExecFuture::done() const {
  return R != nullptr && R->Done.load(std::memory_order_acquire);
}

const Status &ExecFuture::wait() {
  DISTAL_ASSERT(R != nullptr, "wait() on an invalid ExecFuture");
  if (R->Done.load(std::memory_order_acquire))
    return R->Result;
  std::shared_ptr<AdmissionState> St = R->State;
  std::unique_lock<std::mutex> L(St->Mu);
  while (!R->Done.load(std::memory_order_relaxed)) {
    // Free slots first (a completion may have raced our wake-up); the
    // pump also sweeps tripped waiting requests, which may resolve R
    // itself (e.g. its deadline expired while queued).
    std::vector<std::shared_ptr<AdmissionRequest>> ToDispatch;
    std::vector<std::shared_ptr<void>> Anchors;
    pumpLocked(*St, ToDispatch, Anchors);
    if (!Anchors.empty())
      St->CV.notify_all();
    if (!ToDispatch.empty() || !Anchors.empty()) {
      L.unlock();
      for (const std::shared_ptr<AdmissionRequest> &N : ToDispatch)
        dispatchBackground(St, N);
      Anchors.clear();
      L.lock();
      continue;
    }
    // Caller-runs: claim our own admitted request if nobody else has.
    if (R->Active && !R->Claimed) {
      R->Claimed = true;
      L.unlock();
      runRequest(St, R);
      L.lock();
      continue;
    }
    // Help an unclaimed sibling — a Deferred request whose future nobody
    // is waiting on would otherwise hold its slot forever and wedge the
    // lane behind it.
    std::shared_ptr<AdmissionRequest> Help;
    for (const std::shared_ptr<AdmissionRequest> &O : St->Active)
      if (!O->Claimed && !O->Done.load(std::memory_order_relaxed)) {
        Help = O;
        break;
      }
    if (Help) {
      Help->Claimed = true;
      L.unlock();
      runRequest(St, Help);
      L.lock();
      continue;
    }
    St->CV.wait(L);
  }
  return R->Result;
}

const Trace &ExecFuture::trace() {
  wait();
  return R->Out;
}

AdmissionQueue::AdmissionQueue(CompiledPlan *CP)
    : St(std::make_shared<AdmissionState>()) {
  St->CP = CP;
  St->OutVar = CP->plan().Nest.Stmt.lhs().tensor();
  ResourceGovernor::BreakerConfig B = ResourceGovernor::breakerDefaults();
  St->BreakerK = B.Failures;
  St->BreakerCooldown = B.CooldownRejections;
}

AdmissionQueue::~AdmissionQueue() {
  std::vector<ThreadPool::Ticket> ReapLocal;
  std::vector<std::shared_ptr<void>> Anchors;
  {
    std::unique_lock<std::mutex> L(St->Mu);
    St->Shutdown = true;
    Status Destroyed(ErrorCode::FailedPrecondition,
                     "CompiledPlan destroyed before the admitted execution "
                     "ran");
    for (const std::shared_ptr<AdmissionRequest> &R : St->Queued) {
      R->Result = Destroyed;
      Anchors.push_back(std::move(R->RunAnchor));
      R->Done.store(true, std::memory_order_release);
    }
    St->Queued.clear();
    for (const std::shared_ptr<AdmissionRequest> &R : St->Active)
      if (!R->Claimed) {
        R->Result = Destroyed;
        Anchors.push_back(std::move(R->RunAnchor));
        R->Done.store(true, std::memory_order_release);
      }
    St->Active.erase(
        std::remove_if(St->Active.begin(), St->Active.end(),
                       [](const std::shared_ptr<AdmissionRequest> &R) {
                         return R->Done.load(std::memory_order_relaxed);
                       }),
        St->Active.end());
    St->CV.notify_all();
    // Claimed requests are executing against the artifact right now; the
    // artifact must not die under them.
    while (!St->Active.empty())
      St->CV.wait(L);
    ReapLocal.swap(St->Reap);
  }
  // Drains every dispatched job (late firers see Shutdown and stand down).
  ReapLocal.clear();
  // Failed requests' anchors release outside the lock (Anchors' dtor).
}

ExecFuture AdmissionQueue::submit(const std::map<TensorVar, Region *> &Regions,
                                  const ExecOptions &Opts, Dispatch D,
                                  std::shared_ptr<void> Keeper,
                                  std::shared_ptr<void> RunAnchor) {
  std::shared_ptr<AdmissionRequest> R;
  ExecFuture Ret;
  bool NeedDispatch = false;
  std::vector<ThreadPool::Ticket> ReapLocal;
  // Declared before the lock block so shed requests' RunAnchors release
  // after Mu is dropped, even on the early-return reject paths.
  std::vector<std::shared_ptr<void>> ShedAnchors;
  {
    std::unique_lock<std::mutex> L(St->Mu);
    auto resolved = [&](Status S) {
      auto Rej = std::make_shared<AdmissionRequest>();
      Rej->Result = std::move(S);
      Rej->Done.store(true, std::memory_order_release);
      return ExecFuture(std::move(Rej), std::move(Keeper));
    };
    if (St->Shutdown)
      return resolved(Status(ErrorCode::FailedPrecondition,
                             "CompiledPlan is shutting down"));
    // A token already tripped at submission resolves without admitting —
    // nothing runs, nothing holds a slot, and a deadline that expired
    // before submit behaves exactly like one that expires while queued.
    Status Pre;
    if (Opts.Cancel.tripped(&Pre)) {
      ++St->Counters.Cancelled;
      return resolved(std::move(Pre));
    }
    // Circuit breaker. Open: fail fast, counting this rejection against
    // the cooldown (the cooldown clock is rejected submissions, not wall
    // time); once the cooldown is spent the breaker half-opens and the
    // *next* submission is admitted as the single canary probe. Half-open
    // with the probe already in flight: fail fast too — exactly one
    // canary at a time.
    if (St->BreakerK > 0) {
      if (St->Breaker == AdmissionState::BreakerPhase::Open &&
          St->CooldownLeft <= 0)
        St->Breaker = AdmissionState::BreakerPhase::HalfOpen;
      if (St->Breaker == AdmissionState::BreakerPhase::Open) {
        ++St->Counters.BreakerOpen;
        --St->CooldownLeft;
        return resolved(
            Status(ErrorCode::FailedPrecondition,
                   "circuit breaker is open: this artifact failed " +
                       std::to_string(St->BreakerK) +
                       " consecutive executions; cooling down"));
      }
      if (St->Breaker == AdmissionState::BreakerPhase::HalfOpen &&
          St->ProbeInFlight) {
        ++St->Counters.BreakerOpen;
        return resolved(Status(ErrorCode::FailedPrecondition,
                               "circuit breaker is half-open: a canary "
                               "execution is already probing"));
      }
    }
    // Hard memory pressure: shed the queued unclaimed requests newest-
    // first (claimed/running executions are never touched — their work
    // completes), then reject this submission the same way. Every shed
    // status carries the machine-readable retry-after hint.
    if (ResourceGovernor::pressure() == ResourceGovernor::Pressure::Hard) {
      Status SheddingS(ErrorCode::ResourceExhausted,
                       "memory budget exceeded: load shed under the hard "
                       "watermark (" +
                           ResourceGovernor::retryAfterNote() + ")");
      bool ShedAny = false;
      while (!St->Queued.empty()) {
        // Queued requests are unclaimed by invariant (claiming activates
        // them first); back() is the newest submission.
        std::shared_ptr<AdmissionRequest> Victim = St->Queued.back();
        finishLocked(*St, Victim, SheddingS, ShedAnchors);
        ++St->Counters.Shed;
        ResourceGovernor::noteShed();
        ShedAny = true;
      }
      ++St->Counters.Shed;
      ResourceGovernor::noteShed();
      if (ShedAny)
        St->CV.notify_all();
      return resolved(std::move(SheddingS));
    }
    // Coalesce onto a result-compatible request that has not started yet:
    // its pass will read the inputs after this submission, so piggybacking
    // returns exactly what a fresh pass would (see the file comment in
    // Admission.h). A claimed (running) pass is never a target — it may
    // already have read inputs the caller has since overwritten. The
    // coalesced submitter's RunAnchor is released on return; the target
    // request holds its own anchor over the same regions.
    for (const std::shared_ptr<AdmissionRequest> &O : St->Active)
      if (coalescibleLocked(*O, Regions, Opts)) {
        ++St->Counters.Coalesced;
        return ExecFuture(O, std::move(Keeper));
      }
    for (const std::shared_ptr<AdmissionRequest> &O : St->Queued)
      if (coalescibleLocked(*O, Regions, Opts)) {
        ++St->Counters.Coalesced;
        return ExecFuture(O, std::move(Keeper));
      }
    if (static_cast<int>(St->Active.size() + St->Queued.size()) >=
        St->Capacity) {
      ++St->Counters.Rejected;
      return resolved(Status(ErrorCode::ResourceExhausted,
                             "CompiledPlan admission queue is full"));
    }
    R = std::make_shared<AdmissionRequest>();
    R->Regions = Regions;
    R->Opts = Opts;
    // Every admitted request carries a valid token, so ExecFuture::cancel
    // always has teeth; the quiet-token cost is one relaxed load per
    // cancellation point (the allowed disarmed budget).
    if (!R->Opts.Cancel.valid())
      R->Opts.Cancel = CancelToken::create();
    R->D = D;
    R->RunAnchor = std::move(RunAnchor);
    R->State = St;
    // Half-open breaker with a free probe slot: this request is the
    // canary (admitted normally; its outcome decides the verdict).
    if (St->BreakerK > 0 &&
        St->Breaker == AdmissionState::BreakerPhase::HalfOpen &&
        !St->ProbeInFlight) {
      R->Canary = true;
      St->ProbeInFlight = true;
    }
    ++St->Counters.Admitted;
    // Activate only when a slot is free AND no admitted request conflicts
    // (shares a region this one writes, or writes one this one reads);
    // conflicting requests serialize in submission order instead of racing
    // on shared bytes.
    if (static_cast<int>(St->Active.size()) < St->MaxConcurrent &&
        !blockedLocked(*St, *R, St->Queued.end())) {
      R->Active = true;
      St->Active.push_back(R);
      St->Counters.PeakActive = std::max(
          St->Counters.PeakActive, static_cast<int>(St->Active.size()));
      NeedDispatch = D == Dispatch::Background;
    } else {
      St->Queued.push_back(R);
    }
    // Bound the ticket graveyard; destruction happens outside the lock
    // (a not-yet-run job's ticket runs it inline while being destroyed).
    if (St->Reap.size() > 128)
      ReapLocal.swap(St->Reap);
    // Constructed while Mu is held — the watcher-count invariant every
    // auto-cancel drop relies on (see AdmissionRequest::Watchers).
    Ret = ExecFuture(R, std::move(Keeper));
  }
  if (NeedDispatch)
    dispatchBackground(St, R);
  ReapLocal.clear();
  return Ret;
}

void AdmissionQueue::setMaxConcurrent(int K) {
  DISTAL_ASSERT(K >= 1, "admission concurrency must be >= 1");
  std::vector<std::shared_ptr<AdmissionRequest>> ToDispatch;
  std::vector<std::shared_ptr<void>> Anchors;
  {
    std::lock_guard<std::mutex> L(St->Mu);
    St->MaxConcurrent = K;
    pumpLocked(*St, ToDispatch, Anchors);
    if (!Anchors.empty())
      St->CV.notify_all();
  }
  for (const std::shared_ptr<AdmissionRequest> &N : ToDispatch)
    dispatchBackground(St, N);
  Anchors.clear();
}

void AdmissionQueue::setCapacity(int N) {
  DISTAL_ASSERT(N >= 1, "admission capacity must be >= 1");
  std::lock_guard<std::mutex> L(St->Mu);
  St->Capacity = N;
}

void AdmissionQueue::setBreaker(int Failures, int64_t CooldownRejections) {
  std::lock_guard<std::mutex> L(St->Mu);
  St->BreakerK = Failures;
  St->BreakerCooldown = CooldownRejections > 0 ? CooldownRejections : 0;
  St->Breaker = AdmissionState::BreakerPhase::Closed;
  St->ConsecFailures = 0;
  St->CooldownLeft = 0;
  St->ProbeInFlight = false;
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> L(St->Mu);
  Stats S = St->Counters;
  S.Active = static_cast<int>(St->Active.size());
  S.Queued = static_cast<int>(St->Queued.size());
  return S;
}
