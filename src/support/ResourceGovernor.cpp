//===- support/ResourceGovernor.cpp ---------------------------*- C++ -*-===//

#include "support/ResourceGovernor.h"

#include <cstdio>
#include <mutex>

#include "support/EnvParse.h"

using namespace distal;
using namespace distal::envparse;

std::atomic<bool> ResourceGovernor::Armed{false};

namespace {

/// All governor state in one place. Configuration changes are rare (tests,
/// process start) and go through Mu; the hot paths — charge/release and
/// the pressure read — touch only the atomics.
struct GovernorState {
  std::mutex Mu;
  ResourceGovernor::Config Cfg;
  ResourceGovernor::BreakerConfig Breaker;
  /// Precomputed watermark thresholds in bytes, so pressure() is pure
  /// integer compares against Used (no per-read floating point).
  std::atomic<int64_t> Budget{0};
  std::atomic<int64_t> SoftBytes{0};
  std::atomic<int64_t> HardBytes{0};
  std::atomic<int64_t> Used{0};
  std::atomic<int64_t> Peak{0};
  std::atomic<int64_t> Shed{0};
  std::atomic<int64_t> CacheShrinks{0};
  std::atomic<int64_t> ArenaBypasses{0};
};

GovernorState &state() {
  static GovernorState S;
  return S;
}

/// Installs the environment configuration once, at static-initialization
/// time, so DISTAL_MEM_* / DISTAL_BREAKER_* arm the governor without any
/// code change. Validation warnings print to stderr here — the one place
/// the raw environment is consumed.
struct EnvInit {
  EnvInit() {
    std::string Warnings;
    ResourceGovernor::Config C = ResourceGovernor::parseEnvConfig(
        std::getenv("DISTAL_MEM_BUDGET"), std::getenv("DISTAL_MEM_SOFT"),
        std::getenv("DISTAL_MEM_HARD"), &Warnings);
    ResourceGovernor::BreakerConfig B =
        ResourceGovernor::parseBreakerEnvConfig(
            std::getenv("DISTAL_BREAKER_FAILURES"),
            std::getenv("DISTAL_BREAKER_COOLDOWN"), &Warnings);
    if (!Warnings.empty())
      std::fputs(Warnings.c_str(), stderr);
    ResourceGovernor::setBreakerDefaults(B);
    if (C.BudgetBytes > 0)
      ResourceGovernor::configure(C);
  }
} EnvInitOnce;

} // namespace

ResourceGovernor::Config
ResourceGovernor::parseEnvConfig(const char *Budget, const char *Soft,
                                 const char *Hard, std::string *Warnings) {
  Config C;
  if (envSet(Budget)) {
    int64_t V;
    if (!parseI64Strict(Budget, V) || V < 0)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_MEM_BUDGET '") +
                         Budget + "' (want a non-negative byte count)");
    else
      C.BudgetBytes = V;
  }
  if (envSet(Soft)) {
    double V;
    if (!parseDoubleStrict(Soft, V) || V < 0 || V > 1)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_MEM_SOFT '") +
                         Soft + "' (want a fraction in [0, 1])");
    else
      C.SoftFraction = V;
  }
  if (envSet(Hard)) {
    double V;
    if (!parseDoubleStrict(Hard, V) || V < 0 || V > 1)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_MEM_HARD '") +
                         Hard + "' (want a fraction in [0, 1])");
    else
      C.HardFraction = V;
  }
  if (C.HardFraction < C.SoftFraction) {
    warn(Warnings,
         "distal: DISTAL_MEM_HARD is below DISTAL_MEM_SOFT; raising the "
         "hard watermark to the soft one");
    C.HardFraction = C.SoftFraction;
  }
  return C;
}

ResourceGovernor::BreakerConfig
ResourceGovernor::parseBreakerEnvConfig(const char *Failures,
                                        const char *Cooldown,
                                        std::string *Warnings) {
  BreakerConfig B;
  if (envSet(Failures)) {
    int64_t V;
    if (!parseI64Strict(Failures, V) || V < 0 || V > 1000000)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_BREAKER_FAILURES '") +
                         Failures + "' (want a small non-negative integer; "
                                    "0 disables the breaker)");
    else
      B.Failures = static_cast<int>(V);
  }
  if (envSet(Cooldown)) {
    int64_t V;
    if (!parseI64Strict(Cooldown, V) || V < 0)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_BREAKER_COOLDOWN '") +
                         Cooldown + "' (want a non-negative integer)");
    else
      B.CooldownRejections = V;
  }
  return B;
}

void ResourceGovernor::configure(const Config &C) {
  GovernorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Cfg = C;
  bool Arm = C.BudgetBytes > 0;
  S.Budget.store(Arm ? C.BudgetBytes : 0, std::memory_order_relaxed);
  S.SoftBytes.store(
      Arm ? static_cast<int64_t>(static_cast<double>(C.BudgetBytes) *
                                 C.SoftFraction)
          : 0,
      std::memory_order_relaxed);
  S.HardBytes.store(
      Arm ? static_cast<int64_t>(static_cast<double>(C.BudgetBytes) *
                                 C.HardFraction)
          : 0,
      std::memory_order_relaxed);
  // Outstanding accounted usage persists (the memory is still held); the
  // event counters and the peak watermark restart with the configuration.
  S.Peak.store(S.Used.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  S.Shed.store(0, std::memory_order_relaxed);
  S.CacheShrinks.store(0, std::memory_order_relaxed);
  S.ArenaBypasses.store(0, std::memory_order_relaxed);
  Armed.store(Arm, std::memory_order_release);
}

void ResourceGovernor::setBudget(int64_t Bytes) {
  Config C;
  C.BudgetBytes = Bytes;
  configure(C);
}

void ResourceGovernor::disarm() { configure(Config{}); }

ResourceGovernor::Config ResourceGovernor::current() {
  GovernorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Cfg;
}

bool ResourceGovernor::charge(int64_t Bytes) {
  if (!armed())
    return false;
  GovernorState &S = state();
  int64_t Now = S.Used.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  int64_t Peak = S.Peak.load(std::memory_order_relaxed);
  while (Now > Peak &&
         !S.Peak.compare_exchange_weak(Peak, Now, std::memory_order_relaxed))
    ;
  return true;
}

void ResourceGovernor::release(int64_t Bytes) {
  if (Bytes > 0)
    state().Used.fetch_sub(Bytes, std::memory_order_relaxed);
}

int64_t ResourceGovernor::usedBytes() {
  return state().Used.load(std::memory_order_relaxed);
}

ResourceGovernor::Pressure ResourceGovernor::pressure() {
  if (!armed())
    return Pressure::None;
  GovernorState &S = state();
  int64_t U = S.Used.load(std::memory_order_relaxed);
  if (U > S.HardBytes.load(std::memory_order_relaxed))
    return Pressure::Hard;
  if (U > S.SoftBytes.load(std::memory_order_relaxed))
    return Pressure::Soft;
  return Pressure::None;
}

ResourceGovernor::Stats ResourceGovernor::stats() {
  GovernorState &S = state();
  Stats St;
  St.BudgetBytes = S.Budget.load(std::memory_order_relaxed);
  St.UsedBytes = S.Used.load(std::memory_order_relaxed);
  St.PeakUsedBytes = S.Peak.load(std::memory_order_relaxed);
  St.ShedRequests = S.Shed.load(std::memory_order_relaxed);
  St.CacheShrinks = S.CacheShrinks.load(std::memory_order_relaxed);
  St.ArenaCacheBypasses = S.ArenaBypasses.load(std::memory_order_relaxed);
  return St;
}

void ResourceGovernor::noteShed() {
  state().Shed.fetch_add(1, std::memory_order_relaxed);
}

void ResourceGovernor::noteCacheShrink() {
  state().CacheShrinks.fetch_add(1, std::memory_order_relaxed);
}

void ResourceGovernor::noteArenaCacheBypass() {
  state().ArenaBypasses.fetch_add(1, std::memory_order_relaxed);
}

int64_t ResourceGovernor::retryAfterHintMs() {
  GovernorState &S = state();
  int64_t Budget = S.Budget.load(std::memory_order_relaxed);
  if (Budget <= 0)
    return 1;
  int64_t Over = S.Used.load(std::memory_order_relaxed) -
                 S.HardBytes.load(std::memory_order_relaxed);
  if (Over <= 0)
    return 1;
  // Deterministic: scale the overshoot's budget fraction onto [1, 100] ms.
  // No wall clock anywhere, so tests can pin the hint exactly.
  int64_t Ms = 1 + (Over * 100) / Budget;
  return Ms > 100 ? 100 : Ms;
}

std::string ResourceGovernor::retryAfterNote() {
  return "retry-after-ms=" + std::to_string(retryAfterHintMs());
}

int64_t ResourceGovernor::parseRetryAfterMs(const std::string &Message) {
  static const char Key[] = "retry-after-ms=";
  size_t At = Message.find(Key);
  if (At == std::string::npos)
    return -1;
  At += sizeof(Key) - 1;
  if (At >= Message.size() || Message[At] < '0' || Message[At] > '9')
    return -1;
  int64_t V = 0;
  while (At < Message.size() && Message[At] >= '0' && Message[At] <= '9') {
    V = V * 10 + (Message[At] - '0');
    ++At;
  }
  return V;
}

ResourceGovernor::BreakerConfig ResourceGovernor::breakerDefaults() {
  GovernorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Breaker;
}

void ResourceGovernor::setBreakerDefaults(const BreakerConfig &B) {
  GovernorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Breaker = B;
}
