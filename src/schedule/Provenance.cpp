//===- schedule/Provenance.cpp --------------------------------*- C++ -*-===//

#include "schedule/Provenance.h"

#include <algorithm>
#include <sstream>

#include "support/Error.h"
#include "support/Util.h"

using namespace distal;

std::string Interval::str() const {
  return "[" + std::to_string(Lo) + ", " + std::to_string(Hi) + ")";
}

void ProvenanceGraph::addSource(const IndexVar &V, Coord Extent) {
  DISTAL_ASSERT(Extent > 0, "index variable extent must be positive");
  if (known(V))
    reportFatalError("index variable '" + V.name() + "' already registered");
  Extents[V] = Extent;
  Recoveries[V] = Recovery{}; // Source.
}

void ProvenanceGraph::divide(const IndexVar &Parent, const IndexVar &Outer,
                             const IndexVar &Inner, Coord Divisor) {
  if (!known(Parent))
    reportFatalError("divide of unknown variable '" + Parent.name() + "'");
  if (known(Outer) || known(Inner))
    reportFatalError("divide result variable already in use");
  if (Divisor <= 0)
    reportFatalError("divide requires a positive divisor");
  Coord InnerExt = ceilDiv(Extents[Parent], Divisor);
  Extents[Outer] = Divisor;
  Extents[Inner] = InnerExt;
  Recovery R;
  R.Kind = RecoveryKind::SplitLike;
  R.A = Outer;
  R.B = Inner;
  R.InnerExtent = InnerExt;
  Recoveries[Parent] = R;
  Recoveries[Outer] = Recovery{};
  Recoveries[Inner] = Recovery{};
  RelationStrings.push_back("divide(" + Parent.name() + ", " + Outer.name() +
                            ", " + Inner.name() + ", " +
                            std::to_string(Divisor) + ")");
}

void ProvenanceGraph::split(const IndexVar &Parent, const IndexVar &Outer,
                            const IndexVar &Inner, Coord Factor) {
  if (!known(Parent))
    reportFatalError("split of unknown variable '" + Parent.name() + "'");
  if (known(Outer) || known(Inner))
    reportFatalError("split result variable already in use");
  if (Factor <= 0)
    reportFatalError("split requires a positive factor");
  Extents[Outer] = ceilDiv(Extents[Parent], Factor);
  Extents[Inner] = Factor;
  Recovery R;
  R.Kind = RecoveryKind::SplitLike;
  R.A = Outer;
  R.B = Inner;
  R.InnerExtent = Factor;
  Recoveries[Parent] = R;
  Recoveries[Outer] = Recovery{};
  Recoveries[Inner] = Recovery{};
  RelationStrings.push_back("split(" + Parent.name() + ", " + Outer.name() +
                            ", " + Inner.name() + ", " +
                            std::to_string(Factor) + ")");
}

void ProvenanceGraph::fuse(const IndexVar &Outer, const IndexVar &Inner,
                           const IndexVar &Fused) {
  if (!known(Outer) || !known(Inner))
    reportFatalError("collapse of unknown variables");
  if (known(Fused))
    reportFatalError("collapse result variable already in use");
  Coord InnerExt = Extents[Inner];
  Extents[Fused] = Extents[Outer] * InnerExt;
  Recovery RO;
  RO.Kind = RecoveryKind::FuseOuter;
  RO.A = Fused;
  RO.InnerExtent = InnerExt;
  Recoveries[Outer] = RO;
  Recovery RI;
  RI.Kind = RecoveryKind::FuseInner;
  RI.A = Fused;
  RI.InnerExtent = InnerExt;
  Recoveries[Inner] = RI;
  Recoveries[Fused] = Recovery{};
  RelationStrings.push_back("collapse(" + Outer.name() + ", " + Inner.name() +
                            ", " + Fused.name() + ")");
}

void ProvenanceGraph::rotate(const IndexVar &Target,
                             const std::vector<IndexVar> &Over,
                             const IndexVar &Result) {
  if (!known(Target))
    reportFatalError("rotate of unknown variable '" + Target.name() + "'");
  if (known(Result))
    reportFatalError("rotate result variable already in use");
  for (const IndexVar &V : Over)
    if (!known(V))
      reportFatalError("rotate over unknown variable '" + V.name() + "'");
  Extents[Result] = Extents[Target];
  Recovery R;
  R.Kind = RecoveryKind::Rotate;
  R.A = Result;
  R.Over = Over;
  Recoveries[Target] = R;
  Recoveries[Result] = Recovery{};
  std::vector<std::string> OverNames;
  for (const IndexVar &V : Over)
    OverNames.push_back(V.name());
  RelationStrings.push_back("rotate(" + Target.name() + ", {" +
                            join(OverNames) + "}, " + Result.name() + ")");
}

Coord ProvenanceGraph::extent(const IndexVar &V) const {
  auto It = Extents.find(V);
  DISTAL_ASSERT(It != Extents.end(), "extent of unknown index variable");
  return It->second;
}

const ProvenanceGraph::Recovery &
ProvenanceGraph::recoveryOf(const IndexVar &V) const {
  auto It = Recoveries.find(V);
  DISTAL_ASSERT(It != Recoveries.end(), "recovery of unknown index variable");
  return It->second;
}

Coord ProvenanceGraph::recoverValue(
    const IndexVar &V, const std::map<IndexVar, Coord> &LoopValues) const {
  auto It = LoopValues.find(V);
  if (It != LoopValues.end())
    return It->second;
  const Recovery &R = recoveryOf(V);
  switch (R.Kind) {
  case RecoveryKind::Source:
    reportFatalError("no value available for index variable '" + V.name() +
                     "'");
  case RecoveryKind::SplitLike:
    return recoverValue(R.A, LoopValues) * R.InnerExtent +
           recoverValue(R.B, LoopValues);
  case RecoveryKind::FuseOuter:
    return recoverValue(R.A, LoopValues) / R.InnerExtent;
  case RecoveryKind::FuseInner:
    return recoverValue(R.A, LoopValues) % R.InnerExtent;
  case RecoveryKind::Rotate: {
    Coord Sum = recoverValue(R.A, LoopValues);
    for (const IndexVar &O : R.Over)
      Sum += recoverValue(O, LoopValues);
    return Sum % extent(V);
  }
  }
  unreachable("unknown recovery kind");
}

Interval ProvenanceGraph::recoverInterval(
    const IndexVar &V, const std::map<IndexVar, Interval> &Known) const {
  Coord Ext = extent(V);
  Interval Full = Interval::range(0, Ext);
  auto Clamp = [&](Interval I) {
    return Interval::range(std::max<Coord>(I.Lo, 0), std::min(I.Hi, Ext));
  };
  auto It = Known.find(V);
  if (It != Known.end())
    return Clamp(It->second);
  const Recovery &R = recoveryOf(V);
  switch (R.Kind) {
  case RecoveryKind::Source:
    // A source variable not bound by any loop spans its full extent.
    return Full;
  case RecoveryKind::SplitLike: {
    Interval O = recoverInterval(R.A, Known);
    Interval I = recoverInterval(R.B, Known);
    // v = o * E + i: min at (O.Lo, I.Lo), max at (O.Hi-1, I.Hi-1).
    return Clamp(Interval::range(O.Lo * R.InnerExtent + I.Lo,
                                 (O.Hi - 1) * R.InnerExtent + I.Hi));
  }
  case RecoveryKind::FuseOuter: {
    Interval F = recoverInterval(R.A, Known);
    return Clamp(Interval::range(F.Lo / R.InnerExtent,
                                 (F.Hi - 1) / R.InnerExtent + 1));
  }
  case RecoveryKind::FuseInner: {
    Interval F = recoverInterval(R.A, Known);
    // Exact only when the fused interval stays within one block.
    if (F.Lo / R.InnerExtent == (F.Hi - 1) / R.InnerExtent)
      return Clamp(Interval::range(F.Lo % R.InnerExtent,
                                   (F.Hi - 1) % R.InnerExtent + 1));
    return Clamp(Interval::range(0, R.InnerExtent));
  }
  case RecoveryKind::Rotate: {
    Interval Res = recoverInterval(R.A, Known);
    Coord Shift = 0;
    for (const IndexVar &O : R.Over) {
      Interval OI = recoverInterval(O, Known);
      if (!OI.isPoint())
        return Full; // Conservative: unknown rotation offset.
      Shift += OI.Lo;
    }
    if (Res.width() >= Ext)
      return Full;
    Coord Lo = (Res.Lo + Shift) % Ext;
    if (Lo + Res.width() <= Ext)
      return Interval::range(Lo, Lo + Res.width());
    return Full; // Conservative: the shifted interval wraps around.
  }
  }
  unreachable("unknown recovery kind");
}

std::string ProvenanceGraph::str() const {
  std::ostringstream OS;
  for (size_t I = 0; I < RelationStrings.size(); ++I) {
    if (I != 0)
      OS << ", ";
    OS << RelationStrings[I];
  }
  return OS.str();
}
