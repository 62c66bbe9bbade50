//===- bench/soak_overload.cpp - Overload soak driver --------------------===//
//
// The CI overload soak: many client threads sustain submissions against
// one CompiledPlan artifact while the process runs under a (typically
// tight) DISTAL_MEM_BUDGET. The driver verifies the governance contract
// end to end, exactly as a server operator would observe it:
//
//  * no crash, no std::bad_alloc — overload degrades service, never the
//    process;
//  * every completed execution is bitwise-identical to the serial
//    reference, under pressure or not;
//  * every shed request carries ResourceExhausted with a parseable
//    retry-after hint;
//  * when the budget is armed, the pressure responses really fired
//    (Rejected + Shed > 0 at the admission queue).
//
// Run under ASan/UBSan in the overload-soak CI job with a budget a small
// multiple of one client's working set. Each round every client builds
// its region set and then waits at a shared barrier before submitting,
// so the round's submissions start while all clients' regions are
// resident: with enough clients the accounted usage is deterministically
// above the hard watermark at the first submissions (they shed), and it
// drains back below as shed clients destroy their sets, so later
// submissions in the same round admit. Exits
// nonzero on any contract violation. Runs (vacuously unshed) with no
// budget too.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "runtime/CompiledPlan.h"
#include "runtime/Region.h"
#include "support/ResourceGovernor.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace distal;
using namespace distal::algorithms;

namespace {

MatmulProblem makeProblem() {
  MatmulOptions O;
  O.N = 32;
  O.Procs = 4;
  return buildMatmul(MatmulAlgo::Cannon, O);
}

/// One client's private region set, inputs seeded identically across
/// clients so every completed output must match the reference bytes.
struct ClientRegions {
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;

  explicit ClientRegions(const MatmulProblem &Prob) {
    const TensorVar Tensors[] = {Prob.A, Prob.B, Prob.C};
    for (size_t I = 0; I < 3; ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(37 * I + 7);
      Regions[Tensors[I]] = Storage.back().get();
    }
  }

  std::vector<double> output(const TensorVar &Out) const {
    std::vector<double> Data;
    Rect::forExtents(Out.shape()).forEachPoint([&](const Point &P) {
      Data.push_back(Regions.at(Out)->at(P));
    });
    return Data;
  }
};

/// Reusable generation barrier (C++17 has no std::barrier): round N's
/// submissions may not start until every client has built round N's
/// regions.
class RoundBarrier {
public:
  explicit RoundBarrier(int Count) : Count(Count), Waiting(0) {}

  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    int64_t Gen = Generation;
    if (++Waiting == Count) {
      Waiting = 0;
      ++Generation;
      CV.notify_all();
      return;
    }
    CV.wait(L, [&] { return Generation != Gen; });
  }

private:
  std::mutex Mu;
  std::condition_variable CV;
  const int Count;
  int Waiting;
  int64_t Generation = 0;
};

int64_t intFlag(int argc, char **argv, const char *Name, int64_t Default) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return std::atoll(argv[I] + Prefix.size());
  return Default;
}

} // namespace

int main(int argc, char **argv) {
  const int Clients = static_cast<int>(intFlag(argc, argv, "clients", 64));
  const int Rounds = static_cast<int>(intFlag(argc, argv, "rounds", 8));

  MatmulProblem Prob = makeProblem();
  CompiledPlan CP(Prob.P);

  // Serial reference through the direct execute path (never admitted, so
  // never shed — correct under any budget).
  ClientRegions Ref(Prob);
  ExecOptions RefOpts;
  RefOpts.NumThreads = 1;
  RefOpts.Mode = TraceMode::Off;
  CP.execute(Ref.Regions, RefOpts);
  const std::vector<double> Expected = Ref.output(Prob.A);

  std::atomic<int64_t> Ok{0}, ShedSeen{0}, RejectedSeen{0}, Mismatch{0},
      BadShedStatus{0}, Other{0};
  RoundBarrier Gate(Clients);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (int R = 0; R < Rounds; ++R) {
        // Regions live for one round only, and the barrier guarantees
        // all Clients sets are resident when the round's submissions
        // begin — the round deterministically starts above the hard
        // watermark and drains below it as shed clients destroy theirs.
        ClientRegions Set(Prob);
        Gate.arriveAndWait();
        ExecOptions O;
        O.NumThreads = 2;
        O.Mode = TraceMode::Off;
        ExecFuture F = CP.submit(Set.Regions, O);
        const Status &S = F.wait();
        if (S.ok()) {
          ++Ok;
          if (Set.output(Prob.A) != Expected)
            ++Mismatch;
        } else if (S.code() == ErrorCode::ResourceExhausted) {
          // Shed by hard pressure or rejected by a full queue; a
          // pressure shed must carry the machine-readable hint.
          if (S.message().find("load shed") != std::string::npos) {
            ++ShedSeen;
            if (ResourceGovernor::parseRetryAfterMs(S.message()) < 1)
              ++BadShedStatus;
          } else {
            ++RejectedSeen;
          }
        } else {
          ++Other;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  // Recovery: the storm is over and its regions are destroyed, so
  // accounted usage has drained below the watermarks — a clean submission
  // must be admitted and reproduce the reference bytes (the artifact
  // stays reusable no matter how much was shed).
  bool Recovered = false;
  for (int Attempt = 0; Attempt < 64 && !Recovered; ++Attempt) {
    ClientRegions Set(Prob);
    ExecOptions O;
    O.NumThreads = 2;
    O.Mode = TraceMode::Off;
    ExecFuture F = CP.submit(Set.Regions, O);
    if (F.wait().ok()) {
      Recovered = Set.output(Prob.A) == Expected;
      break;
    }
  }

  AdmissionQueue::Stats Q = CP.admission().stats();
  ResourceGovernor::Stats G = ResourceGovernor::stats();
  std::printf("soak: clients=%d rounds=%d budget=%lld\n", Clients, Rounds,
              static_cast<long long>(G.BudgetBytes));
  std::printf("  ok=%lld shed=%lld rejected=%lld other=%lld\n",
              static_cast<long long>(Ok.load()),
              static_cast<long long>(ShedSeen.load()),
              static_cast<long long>(RejectedSeen.load()),
              static_cast<long long>(Other.load()));
  std::printf("  queue: admitted=%lld coalesced=%lld rejected=%lld "
              "shed=%lld breaker_open=%lld\n",
              static_cast<long long>(Q.Admitted),
              static_cast<long long>(Q.Coalesced),
              static_cast<long long>(Q.Rejected),
              static_cast<long long>(Q.Shed),
              static_cast<long long>(Q.BreakerOpen));
  std::printf("  governor: used=%lld peak=%lld shed=%lld "
              "cache_shrinks=%lld arena_bypasses=%lld\n",
              static_cast<long long>(G.UsedBytes),
              static_cast<long long>(G.PeakUsedBytes),
              static_cast<long long>(G.ShedRequests),
              static_cast<long long>(G.CacheShrinks),
              static_cast<long long>(G.ArenaCacheBypasses));

  bool Failed = false;
  if (Mismatch.load() > 0) {
    std::fprintf(stderr, "FAIL: %lld completed executions mismatched the "
                         "reference bytes\n",
                 static_cast<long long>(Mismatch.load()));
    Failed = true;
  }
  if (BadShedStatus.load() > 0) {
    std::fprintf(stderr, "FAIL: %lld shed statuses lacked a retry-after "
                         "hint >= 1 ms\n",
                 static_cast<long long>(BadShedStatus.load()));
    Failed = true;
  }
  if (Other.load() > 0) {
    std::fprintf(stderr, "FAIL: %lld submissions resolved with an "
                         "unexpected code\n",
                 static_cast<long long>(Other.load()));
    Failed = true;
  }
  if (!Recovered) {
    std::fprintf(stderr, "FAIL: no clean execution completed with the "
                         "reference bytes after the storm drained\n");
    Failed = true;
  }
  if (ResourceGovernor::armed() && Q.Rejected + Q.Shed == 0) {
    std::fprintf(stderr, "FAIL: budget armed but no request was ever "
                         "rejected or shed — the soak did not overload\n");
    Failed = true;
  }
  if (!ResourceGovernor::armed() && Q.Shed != 0) {
    std::fprintf(stderr, "FAIL: disarmed governor fired a pressure "
                         "response\n");
    Failed = true;
  }
  return Failed ? 1 : 0;
}
