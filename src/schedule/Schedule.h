//===- schedule/Schedule.h - DISTAL scheduling language --------*- C++ -*-===//
///
/// \file
/// The scheduling language (paper §2, §3.3). A Schedule wraps a tensor
/// index notation assignment and applies loop transformations, producing
/// concrete index notation: an ordered loop nest whose loops carry `s.t.`
/// tags (distributed, communicate) with derivations in a provenance graph.
///
/// Supported commands: split, divide, reorder, collapse, parallelize,
/// precompute (recorded; a single-memory no-op for the dense distributed
/// kernels studied here), plus the paper's distributed primitives:
/// distribute (including the compound tiling form of §3.3), communicate,
/// and rotate, and leaf-kernel substitution (Fig. 2 line 40).
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SCHEDULE_SCHEDULE_H
#define DISTAL_SCHEDULE_SCHEDULE_H

#include <string>
#include <vector>

#include "ir/IndexNotation.h"
#include "machine/Machine.h"
#include "schedule/Provenance.h"

namespace distal {

/// Leaf kernels a schedule may substitute for the innermost loops
/// (Fig. 2 line 40). Generic runs the fused scalar loop nest; GeMM calls the
/// local BLAS kernel when the leaf matches a matrix-multiply pattern.
enum class LeafKernel { Generic, GeMM };

/// One loop of concrete index notation with its `s.t.` tags.
struct LoopSpec {
  IndexVar Var;
  bool Distributed = false;
  bool Parallelized = false; ///< Local (intra-processor) parallelism tag.
  std::vector<TensorVar> Communicate;
};

/// Concrete index notation (paper §5.1) rendered as a tagged loop nest over
/// an assignment statement, with scheduling relations in a provenance graph.
struct ConcreteNest {
  std::vector<LoopSpec> Loops;
  Assignment Stmt;
  ProvenanceGraph Prov;
  LeafKernel Leaf = LeafKernel::Generic;

  /// Index of the loop over \p V, or -1.
  int loopIndexOf(const IndexVar &V) const;

  /// Distributed loops must form a contiguous outermost block; returns its
  /// size (0 when nothing is distributed). Fatal error when violated.
  int distributedPrefix() const;

  /// Renders the nest in the paper's forall style with s.t. clauses.
  std::string str() const;
};

/// Builder for schedules, chaining like Fig. 2.
class Schedule {
public:
  explicit Schedule(Assignment Stmt);

  Schedule &split(const IndexVar &V, const IndexVar &Outer,
                  const IndexVar &Inner, Coord Factor);
  Schedule &divide(const IndexVar &V, const IndexVar &Outer,
                   const IndexVar &Inner, Coord Divisor);
  /// Permutes the named loops into the given relative order. The loops must
  /// all be present; unnamed loops keep their positions.
  Schedule &reorder(const std::vector<IndexVar> &Order);
  /// Fuses two adjacent nested loops into one.
  Schedule &collapse(const IndexVar &Outer, const IndexVar &Inner,
                     const IndexVar &Fused);
  /// Tags a loop as intra-processor parallel (LoopSpec::Parallelized). Only
  /// printing and fingerprinting (ConcreteNest::str, Plan::fingerprint) and
  /// the C++ emitter (EmitCpp) read the tag; the execution engine ignores
  /// it. Leaf fan-out comes from the ExecContext's leaf-ways budget
  /// instead, and the leaf engine may move a tagged leaf loop when it sinks
  /// output-only loops (see runtime/LeafCompiler).
  Schedule &parallelize(const IndexVar &V);
  /// Records a precompute (workspace) request. Workspaces do not change
  /// distributed structure for the dense kernels studied here; the command
  /// is validated and recorded for printing.
  Schedule &precompute(const IndexVar &V, const std::string &Note = "");

  /// Marks loops as distributed (paper §3.3). Distributed loops must form a
  /// contiguous outermost block by lowering time.
  Schedule &distribute(const std::vector<IndexVar> &Vars);
  /// The compound form: divides each target by the corresponding machine
  /// grid dimension, reorders the outer variables outermost, and
  /// distributes them.
  Schedule &distribute(const std::vector<IndexVar> &Targets,
                       const std::vector<IndexVar> &Dist,
                       const std::vector<IndexVar> &Local,
                       const std::vector<int> &GridDims);
  Schedule &distribute(const std::vector<IndexVar> &Targets,
                       const std::vector<IndexVar> &Dist,
                       const std::vector<IndexVar> &Local, const Machine &M);

  /// Aggregates communication of \p T at each iteration of \p V.
  Schedule &communicate(const TensorVar &T, const IndexVar &V);
  Schedule &communicate(const std::vector<TensorVar> &Ts, const IndexVar &V);

  /// Systolic symmetry breaking (paper §3.3): replaces loop \p Target with
  /// \p Result, where Target = (Result + sum(Over)) mod extent(Target).
  Schedule &rotate(const IndexVar &Target, const std::vector<IndexVar> &Over,
                   const IndexVar &Result);

  /// Substitutes an optimized kernel for the leaf loops \p LeafVars.
  Schedule &substitute(const std::vector<IndexVar> &LeafVars, LeafKernel K);

  const ConcreteNest &nest() const { return Nest; }
  ConcreteNest takeNest() { return std::move(Nest); }

private:
  LoopSpec &loopFor(const IndexVar &V, const char *Command);

  ConcreteNest Nest;
};

} // namespace distal

#endif // DISTAL_SCHEDULE_SCHEDULE_H
