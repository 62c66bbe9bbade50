//===- lower/Plan.h - Lowered distributed plans ----------------*- C++ -*-===//
///
/// \file
/// The target program of DISTAL's lowering (paper §6.2): distributed loops
/// become an index task launch over the machine; sequential loops carrying
/// communicate tags become per-step partitions; the remaining inner loops
/// become the leaf kernel run by every task. A Plan is the runtime-program
/// analogue of the Legion program DISTAL generates.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_LOWER_PLAN_H
#define DISTAL_LOWER_PLAN_H

#include <map>
#include <vector>

#include "format/Format.h"
#include "machine/Machine.h"
#include "schedule/Schedule.h"
#include "support/Status.h"

namespace distal {

/// A tensor communicated at a sequential (step) loop.
struct StepComm {
  TensorVar Tensor;
  int LoopIdx;
};

/// A lowered distributed program.
class Plan {
public:
  ConcreteNest Nest;
  Machine M;
  std::map<TensorVar, Format> Formats;
  /// Loops [0, NumDist) are the index task launch dimensions.
  int NumDist = 0;
  /// Loops [NumDist, LeafBegin) are lock-step sequential loops; loops
  /// [LeafBegin, end) form the leaf kernel.
  int LeafBegin = 0;

  /// The index task launch domain (one task per point).
  Rect launchDomain() const;
  std::vector<IndexVar> distVars() const;
  std::vector<IndexVar> stepVars() const;
  std::vector<IndexVar> leafVars() const;
  /// The sequential step domain iterated in lock step by every task.
  Rect stepDomain() const;

  /// Tensors communicated once per task (tagged at distributed loops).
  std::vector<TensorVar> taskComms() const;
  /// Tensors communicated at each iteration of a sequential loop.
  std::vector<StepComm> stepComms() const;

  const Format &formatOf(const TensorVar &T) const;

  /// Number of distinct tasks contributing partial sums to the same output
  /// element: the product of extents of distributed reduction variables
  /// (1 when the launch is owner-computes).
  int64_t distReductionFactor() const;

  /// A stable cache key for the compiled form of this plan: a canonical
  /// serialization of everything compilation depends on — machine, loop
  /// structure and tags (with index variables renamed by first
  /// appearance, so textually identical schedules built from fresh
  /// IndexVars key equal), statement, per-variable extents, provenance
  /// relations, and per-tensor name/shape/format/identity. Execute-time
  /// knobs (threads, trace mode) do not participate. Two plans with equal
  /// fingerprints compile to interchangeable artifacts.
  std::string fingerprint() const;

  std::string str() const;
};

/// Validates an ordered statement chain for program-level linking: every
/// plan non-null and on the same machine (residency linking compares
/// processor ids across statements, which is only meaningful on one
/// machine). Returns OK or InvalidArgument naming the offending member.
Status validateProgramPlans(const std::vector<const Plan *> &Plans);

/// The statement-fingerprint chain of an ordered plan list — the
/// program-level analogue of Plan::fingerprint. Two chains with equal
/// program fingerprints link to interchangeable program artifacts.
std::string programFingerprint(const std::vector<const Plan *> &Plans);

} // namespace distal

#endif // DISTAL_LOWER_PLAN_H
