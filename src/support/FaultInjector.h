//===- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
///
/// \file
/// Seeded, deterministic fault injection for the execute stack. Hooks sit
/// at the four failure surfaces of a CompiledPlan execution — gather,
/// leaf-launch, writeback, and allocation — and, when
/// armed, throw DistalError(ErrorCode::Injected) so the containment and
/// recovery machinery can be driven without real hardware faults.
///
/// Determinism: arrivals are counted per *execution scope* (each
/// CompiledPlan execution arena owns one; see ExecutionScope below), and
/// arrival K at site S within execution E fires iff
/// splitmix64(Seed ^ site ^ execSeq(E) ^ K) maps below Rate. The set of
/// firing arrivals inside one execution is therefore a pure function of
/// (Seed, Rate, execution sequence number) — independent of how that
/// execution's threads interleave AND of what sibling executions running
/// concurrently in other arenas are doing. At Rate = 1 every arrival
/// fires, which is what the fault-tolerance tests use to hit a specific
/// site on a specific execution. Hooks outside any execution scope (the
/// Region allocation site) fall back to a process-global arrival counter,
/// which is deterministic for serial runs.
///
/// Actions: a firing arrival either throws DistalError(Injected) (the
/// default) or, under Action::Delay, sleeps a configured duration and
/// returns — a seeded, deterministic slowdown that never corrupts results.
/// Delay is what makes deadline/cancellation trips testable without
/// wall-clock flakiness: the delayed execution is guaranteed to still be
/// in flight when a short deadline expires.
///
/// Arming: programmatically via configure()/ScopedFaultInjection (tests),
/// or from the environment at process start:
///   DISTAL_FAULT_RATE     fire probability in [0, 1] (0 or unset = disarmed)
///   DISTAL_FAULT_SEED     determinism seed (default 0)
///   DISTAL_FAULT_SITES    comma list of gather,leaf,writeback,alloc
///                         or "all" (default all)
///   DISTAL_FAULT_MAX      stop after this many injections (default unlimited)
///   DISTAL_FAULT_ACTION   "throw" (default) or "delay"
///   DISTAL_FAULT_DELAY_US sleep per firing arrival under delay (default 1000)
/// Malformed values are rejected with a one-line stderr warning and treated
/// as unset (see parseEnvConfig) — a typo must not silently arm a different
/// schedule than the one intended.
///
/// Cost: disarmed, every hook is a single relaxed atomic load of one global
/// flag and a predicted-not-taken branch — nothing the bench gate can see.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_FAULTINJECTOR_H
#define DISTAL_SUPPORT_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace distal {

class FaultInjector {
public:
  enum class Site : uint8_t { Gather, Leaf, Writeback, Alloc };
  static constexpr int NumSites = 4;

  /// What a firing arrival does: throw the Injected error, or sleep
  /// DelayMicros and continue (a deterministic slowdown, results intact).
  enum class Action : uint8_t { Throw, Delay };

  struct Config {
    uint64_t Seed = 0;
    double Rate = 0; ///< Fire probability per arrival; 0 disarms.
    /// Bitmask of (1 << Site) values; allSites() covers everything.
    uint32_t SiteMask = 0;
    /// Total injections before the injector exhausts itself; < 0 means
    /// unlimited. MaxInjections = 1 makes exactly the first eligible
    /// arrival fail — the fault-tolerance tests' "transient fault".
    int64_t MaxInjections = -1;
    /// Firing behaviour; Delay sleeps instead of throwing.
    Action Act = Action::Throw;
    /// Sleep length per firing arrival under Action::Delay.
    int64_t DelayMicros = 1000;
    /// Budget-threshold alloc faults: when >= 0 (and Site::Alloc is in
    /// SiteMask), every Alloc arrival fires while the ResourceGovernor's
    /// accounted usage exceeds this many bytes — regardless of Rate, so a
    /// scenario can make allocation fail exactly when the process is over
    /// budget (the out-of-memory drill the overload tests drive). The
    /// MaxInjections budget still applies. < 0 (default) disables the
    /// threshold; Rate keeps governing Alloc arrivals as usual.
    int64_t AllocAboveBytes = -1;
  };

  static constexpr uint32_t allSites() { return (1u << NumSites) - 1; }
  static uint32_t maskFor(Site S) { return 1u << static_cast<int>(S); }
  /// Parses "gather,leaf" / "all" into a site mask. Unknown names are
  /// skipped; when \p Warnings is non-null, one warning line per unknown
  /// name is appended to it so a typo cannot silently shrink the mask.
  static uint32_t parseSites(const std::string &Spec,
                             std::string *Warnings = nullptr);
  static const char *siteName(Site S);

  /// Builds a Config from raw DISTAL_FAULT_* values (null or empty string
  /// = unset). Strictly validated: a malformed or out-of-range value is
  /// treated as unset and reported as one warning line appended to
  /// \p Warnings (the process-start path prints each to stderr). Pure —
  /// exposed so tests can drive it without touching the environment.
  static Config parseEnvConfig(const char *Rate, const char *Seed,
                               const char *Sites, const char *Max,
                               const char *ActionStr, const char *DelayUs,
                               std::string *Warnings = nullptr);

  /// Installs \p C (Rate > 0 and a non-empty mask arm the hooks) and
  /// resets the arrival counters and stats.
  static void configure(const Config &C);
  /// Disarms every hook; counters and stats reset.
  static void disarm();
  /// The currently installed configuration.
  static Config current();
  static bool armed() {
    return Armed.load(std::memory_order_relaxed);
  }

  /// Per-execution arrival counters — the injector's arena keying. Each
  /// execution arena owns one scope and opens it with beginExecution() at
  /// the start of every execution: the scope claims the next process-wide
  /// execution sequence number and zeroes its counters, so sites keyed by
  /// the scope see the arrival sequence 0, 1, 2, ... exactly as a serial
  /// run of that execution would, no matter how many sibling executions
  /// run concurrently in other arenas. Serial workloads claim sequence
  /// numbers 0, 1, 2, ... so their injection schedule is reproducible
  /// run-to-run.
  struct ExecutionScope {
    std::array<std::atomic<int64_t>, NumSites> Arrivals{};
    uint64_t ExecSeq = 0;
    bool Active = false;
  };

  /// Opens \p E for one execution: claims the next execution sequence
  /// number and resets the arrival counters. Disarmed, this is a single
  /// relaxed load (the scope stays inactive).
  static void beginExecution(ExecutionScope &E);

  /// The hook. Disarmed: one relaxed load. Armed: deterministically decides
  /// whether this arrival fires and, if so, either throws
  /// DistalError(ErrorCode::Injected) with the site and arrival index in
  /// the message (Action::Throw) or sleeps Config::DelayMicros and returns
  /// (Action::Delay). \p E keys the arrival to the calling execution's
  /// scope (see ExecutionScope); null falls back to the global counter.
  static void inject(Site S, ExecutionScope *E = nullptr) {
    if (armed())
      injectSlow(S, E);
  }

  /// Per-site arrival and injection counts since the last configure().
  struct Stats {
    std::array<int64_t, NumSites> Arrivals{};
    std::array<int64_t, NumSites> Injected{};
    int64_t totalInjected() const {
      int64_t N = 0;
      for (int64_t I : Injected)
        N += I;
      return N;
    }
  };
  static Stats stats();

private:
  static void injectSlow(Site S, ExecutionScope *E);
  static std::atomic<bool> Armed;
};

/// RAII configuration for tests: installs a config on construction and
/// restores the previous one (usually disarmed) on destruction.
class ScopedFaultInjection {
public:
  explicit ScopedFaultInjection(const FaultInjector::Config &C);
  ~ScopedFaultInjection();
  ScopedFaultInjection(const ScopedFaultInjection &) = delete;
  ScopedFaultInjection &operator=(const ScopedFaultInjection &) = delete;

private:
  FaultInjector::Config Prev;
};

} // namespace distal

#endif // DISTAL_SUPPORT_FAULTINJECTOR_H
