"""Alternating sets, curve segments, and the per-column edge-alternation check.

On every column of a simple closed directed grid curve, the left-pointing
and right-pointing horizontal edges interleave.  The segment taxonomy
(sticking / minimal / entirely-on) ties that statement to the geometry of
excursions left of a vertical line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, or_
from typing import Dict, Iterable, List, NamedTuple

from .errors import PreconditionViolation, TheoremViolation
from .grid import CLOSED, EdgeSequence, column_marks, column_slice, columns


def alternate(xs: Iterable[int], ys: Iterable[int]) -> bool:
    """Disjoint sets interleave: between two members of one set lies a member
    of the other, in both directions."""
    xset, yset = set(xs), set(ys)
    if xset & yset:
        raise PreconditionViolation("disjoint sets", f"sets share {sorted(xset & yset)}")
    merged = sorted([(v, 0) for v in xset] + [(v, 1) for v in yset])
    return all(merged[i][1] != merged[i + 1][1] for i in range(len(merged) - 1))


def check_crossing_condition(pairs) -> bool:
    """True iff no two arcs ``x -> f(x)`` drawn above the number line cross."""
    pairs = [(int(x), int(fx)) for x, fx in pairs]
    xs = [x for x, _ in pairs]
    ys = [fx for _, fx in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys) or set(xs) & set(ys):
        raise PreconditionViolation("bijection between disjoint sets")
    arcs = [tuple(sorted(p)) for p in pairs]
    for i in range(len(arcs)):
        a1, b1 = arcs[i]
        for j in range(i + 1, len(arcs)):
            a2, b2 = arcs[j]
            inside1 = (a1 < a2 < b1) + (a1 < b2 < b1)
            if inside1 == 1:  # exactly one endpoint inside: the arcs cross
                return False
    return True


def alternation_lemma_witness(xs, ys, f: Dict[int, int], x1: int, x2: int) -> int:
    """Element z of X outside [x1, x2] whose image lands strictly inside.

    Requires alternating sets, a non-crossing bijection, and that neither
    endpoint image lies inside the open interval.  Existence is guaranteed;
    not finding one is reported as a theorem violation.
    """
    xset, yset = set(xs), set(ys)
    if not alternate(xset, yset):
        raise PreconditionViolation("alternate(X, Y)")
    if set(f) != xset or set(f.values()) != yset or len(set(f.values())) != len(f):
        raise PreconditionViolation("f is a bijection from X onto Y")
    if not check_crossing_condition(list(f.items())):
        raise PreconditionViolation("non-crossing bijection")
    if not (x1 in xset and x2 in xset and x1 < x2):
        raise PreconditionViolation("x1 < x2 in X")
    if x1 < f[x1] < x2 or x1 < f[x2] < x2:
        raise PreconditionViolation("f(x1), f(x2) outside (x1, x2)")
    for z in sorted(xset):
        if (z < x1 or z > x2) and x1 < f[z] < x2:
            return z
    raise TheoremViolation("no witness found despite valid preconditions (bug)")


class Segment(NamedTuple):
    """Index range [a, b] of curve points on the vertical line x = line."""

    a: int
    b: int
    line: int


class SegmentClass(NamedTuple):
    sticks: bool
    minimal: bool
    entirely_on: bool


def classify_segment(seq: EdgeSequence, a: int, b: int, m: int) -> SegmentClass:
    """Classify the point range [a, b] against the vertical line x = m."""
    pts = seq.points()
    t = len(pts)
    if not (0 <= a <= b < t):
        raise PreconditionViolation("0 <= a <= b < t", f"bad segment indices {a}, {b} (t={t})")
    xs = [pts[i].x for i in range(a, b + 1)]
    ends_on = xs[0] == m and xs[-1] == m
    sticks = ends_on and all(x <= m for x in xs[1:-1])
    minimal = sticks and b - a > 1 and all(x < m for x in xs[1:-1])
    entirely_on = ends_on and all(x == m for x in xs)
    return SegmentClass(sticks=sticks, minimal=minimal, entirely_on=entirely_on)


def reindex_canonical(seq: EdgeSequence) -> EdgeSequence:
    """Rotate a closed curve so its wrap-around edge sits on the rightmost
    occupied vertical line.

    A point on that line has at most one curve neighbour to its left, so the
    line carries a vertical edge; index 0 becomes the head of the lowest one.
    No segment examined from the left then spans the wrap.
    """
    if seq.validate().kind != CLOSED:
        raise PreconditionViolation("closed sequence")
    cols = columns(seq)
    xmax = max(cols[0])  # every point of a closed curve starts an edge
    k = min((min(b, d), i) for i, (a, b, c, d) in enumerate(zip(*cols)) if a == c == xmax)[1]
    return seq.rotate(k + 1)  # edge k becomes the wrap edge <p_{t-1}, p_0>


def minimal_segments(seq: EdgeSequence, m: int) -> List[Segment]:
    """All minimal segments sticking to x = m, in index order (pairwise disjoint)."""
    if seq.validate().kind != CLOSED:
        raise PreconditionViolation("closed sequence")
    pts = seq.points()
    if pts[0].x != max(p.x for p in pts):
        raise PreconditionViolation(
            "canonical indexing", "curve must start on its rightmost line; "
            "apply reindex_canonical first")
    t = len(pts)
    out = []
    a = None
    for i in range(t + 1):
        p = pts[i % t]
        if p.x == m:
            if a is not None and i - a > 1:
                out.append(Segment(a, i, m))
            a = i
        elif p.x > m:
            a = None
    # No run ever spans the wrap: point 0 lies on the rightmost line, so any
    # wrapping interior would contain a point with x = xmax >= m.
    return [s for s in out if s.b < t]


@dataclass(frozen=True)
class ColumnAlternation:
    """y-coordinates of left- and right-pointing horizontal edges in a column."""

    column: int
    left_ys: frozenset
    right_ys: frozenset

    def alternates(self) -> bool:
        if self.left_ys & self.right_ys:
            return False
        return alternate(self.left_ys, self.right_ys)


def column_sets(seq: EdgeSequence, m: int) -> ColumnAlternation:
    """Directed horizontal edges in column m, read off the column index
    :func:`check_edge_alternation` tests."""
    col = column_slice(column_marks(seq), m)
    return ColumnAlternation(m, frozenset(y for _, y, step in col if step < 0),
                             frozenset(y for _, y, step in col if step > 0))


def column_sets_from_segments(seq: EdgeSequence, m: int) -> ColumnAlternation:
    """Column sets recovered from the minimal segments sticking to x = m+1:
    their first edges point left in column m and their last edges point right."""
    canonical = reindex_canonical(seq)
    pts = canonical.points()
    segs = minimal_segments(canonical, m + 1)
    left = frozenset(pts[s.a].y for s in segs)
    right = frozenset(pts[s.b].y for s in segs)
    return ColumnAlternation(m, left, right)


def check_edge_alternation(seq: EdgeSequence) -> bool:
    """Every column's left- and right-pointing edges alternate.

    True for every simple closed curve; ``False`` flags a revisiting chain or
    an implementation bug.  ``check_chain`` requires chaining, not simplicity,
    so the merge diagnostics can feed deliberately broken sequences through.
    """
    if seq.kind != CLOSED or len(seq) == 0:
        raise PreconditionViolation("closed sequence")
    seq.check_chain()
    # sorted marks alternate when no two in a column share a row or a step
    marks = column_marks(seq)
    cols, rows, steps = zip(*marks) if marks else ((), (), ())
    return not any(compress(map(or_, map(eq, rows[1:], rows), map(eq, steps[1:], steps)),
                            map(eq, cols[1:], cols)))
