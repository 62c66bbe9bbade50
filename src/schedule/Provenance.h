//===- schedule/Provenance.h - Index variable provenance --------*- C++ -*-===//
///
/// \file
/// The provenance graph tracks how derived index variables relate to the
/// original variables of a tensor index notation statement, mirroring the
/// `s.t.` scheduling relations of concrete index notation (paper §5.1-5.2):
///
///   divide(i, io, ii, d)  : i = io * ceil(ext(i)/d) + ii, ext(io) = d
///   split(i, io, ii, f)   : i = io * f + ii,              ext(ii) = f
///   collapse(o, i, f)     : o = f / ext(i), i = f % ext(i)
///   rotate(t, I, r)       : t = (r + sum(I)) mod ext(t)
///
/// It supports recovering exact values and conservative intervals of
/// original variables from assignments to loop variables — the "standard
/// bounds analysis procedure" used to derive partition rectangles (§6.2).
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SCHEDULE_PROVENANCE_H
#define DISTAL_SCHEDULE_PROVENANCE_H

#include <map>
#include <string>
#include <vector>

#include "ir/IndexNotation.h"

namespace distal {

/// A half-open integer interval [Lo, Hi).
struct Interval {
  Coord Lo = 0;
  Coord Hi = 0;

  static Interval point(Coord V) { return {V, V + 1}; }
  static Interval range(Coord Lo, Coord Hi) { return {Lo, Hi}; }

  bool isPoint() const { return Hi == Lo + 1; }
  Coord width() const { return Hi - Lo; }
  bool operator==(const Interval &O) const { return Lo == O.Lo && Hi == O.Hi; }

  std::string str() const;
};

/// Provenance graph over index variables.
class ProvenanceGraph {
public:
  /// Registers an original (underived) variable with its iteration extent.
  void addSource(const IndexVar &V, Coord Extent);

  /// Relations; each checks its operands and registers derived extents.
  void divide(const IndexVar &Parent, const IndexVar &Outer,
              const IndexVar &Inner, Coord Divisor);
  void split(const IndexVar &Parent, const IndexVar &Outer,
             const IndexVar &Inner, Coord Factor);
  void fuse(const IndexVar &Outer, const IndexVar &Inner,
            const IndexVar &Fused);
  void rotate(const IndexVar &Target, const std::vector<IndexVar> &Over,
              const IndexVar &Result);

  bool known(const IndexVar &V) const { return Extents.count(V) != 0; }
  Coord extent(const IndexVar &V) const;

  /// Recovers the exact value of \p V given exact values for the loop
  /// variables it is derived from. All transitive operands must be present
  /// in \p LoopValues. The result may exceed extent(V) when a divide/split
  /// does not evenly cover the domain; callers must guard.
  Coord recoverValue(const IndexVar &V,
                     const std::map<IndexVar, Coord> &LoopValues) const;

  /// Recovers a conservative interval for \p V: loop variables present in
  /// \p Known use the given interval; rotation shifts that wrap and fusions
  /// that straddle block boundaries degrade to the full extent. The result
  /// is clamped to [0, extent(V)).
  Interval recoverInterval(const IndexVar &V,
                           const std::map<IndexVar, Interval> &Known) const;

  /// Textual rendering of all relations (for concrete index notation
  /// printing and golden tests).
  std::string str() const;

private:
  enum class RecoveryKind { Source, SplitLike, FuseOuter, FuseInner, Rotate };
  struct Recovery {
    RecoveryKind Kind = RecoveryKind::Source;
    IndexVar A, B;             ///< SplitLike: outer/inner. Fuse*: fused var.
    Coord InnerExtent = 1;     ///< SplitLike / Fuse*.
    std::vector<IndexVar> Over; ///< Rotate.
  };

  const Recovery &recoveryOf(const IndexVar &V) const;

  std::map<IndexVar, Coord> Extents;
  std::map<IndexVar, Recovery> Recoveries;
  std::vector<std::string> RelationStrings;
};

} // namespace distal

#endif // DISTAL_SCHEDULE_PROVENANCE_H
