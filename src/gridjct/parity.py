"""Parity machinery for curves and paths given as edge sets.

A horizontal red edge is *odd* when an odd number of horizontal blue edges
lie strictly below it in the same column.  The per-column parities of the
odd-edge sets form a profile that is constant except for a single flip at
the side-pair column; a path joining two points on different sides of a
curve without touching it would contradict that invariant, which is how
``find_intersection_set`` is backed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import PreconditionViolation, TheoremViolation
from .grid import (
    Edge,
    EdgeSet,
    GridObject,
    GridPoint,
    SidePair,
    _check_same_n,
    check_crossing,
    column_marks,
    column_slice,
    connects,
    intersects,
    marks_below,
    on_different_sides,
    pair_code,
    refine,
    side_pair,
    translate,
)


@dataclass(frozen=True)
class ParityProfile:
    """bits[k] = parity of the number of odd red edges in column k."""

    bits: tuple

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


class IntersectionWitness(NamedTuple):
    """Grid point touched by both colors, with the two degrees."""

    point: GridPoint
    blue_degree: int
    red_degree: int


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of checking the two parity-profile claims on one instance."""

    m: int
    profile: ParityProfile
    part_a: bool
    part_b_violations: tuple

    @property
    def holds(self) -> bool:
        return self.part_a and not self.part_b_violations


def is_odd_edge(blue: GridObject, r: Edge) -> bool:
    """Odd number of horizontal blue edges strictly below ``r`` in its column;
    ``blue`` in either form."""
    r = Edge.of(r.a, r.b)
    if not r.horizontal:
        raise PreconditionViolation("horizontal edge", "odd-edge test needs a horizontal edge")
    return marks_below(column_marks(blue), r.column, r.row) % 2 == 1


def parity_profile(blue: GridObject, red: GridObject) -> ParityProfile:
    """Per-column parities of the odd red edges, with respect to ``blue``; both in
    either form."""
    _check_same_n(blue, red)
    marks = column_marks(blue)
    bits = [0] * blue.n
    for k, row, _ in column_marks(red):
        bits[k] ^= marks_below(marks, k, row) & 1
    return ParityProfile(tuple(bits))


def column_transition_parities(blue: GridObject, red: GridObject, k: int):
    """Parities of the odd red edges along the staircase lists interpolating
    between column k and column k+1 (j = 0 .. n+1); both colors in either form.

    The j-th list runs up column k+1 for j slots, crosses on the vertical
    edge, then continues up column k; an edge is odd in the list when an odd
    number of blue edges precede it.  Read off both colors' column index and
    the one vertical edge per list.
    """
    _check_same_n(blue, red)
    n = blue.n
    if not 0 <= k <= n - 2:
        raise PreconditionViolation("0 <= k <= n-2")
    blue_marks, red_marks = column_marks(blue), column_marks(red)
    blue_edges, red_edges = blue.to_edge_set().edges, red.to_edge_set().edges

    def blue_before(c, lo, hi, start):  # summed over column c's red rows in [lo, hi), after start
        return sum(start + marks_below(blue_marks, c, yy) - marks_below(blue_marks, c, lo)
                   for _, yy, _ in column_slice(red_marks, c) if lo <= yy < hi)

    parities = []  # the XOR of the red edges' blue-before parities is their sum's parity
    for j in range(n + 2):
        v = Edge(GridPoint(k + 1, j - 1), GridPoint(k + 1, j))  # off the grid at j = 0, n+1
        up = marks_below(blue_marks, k + 1, j)
        parities.append((blue_before(k + 1, 0, j, 0) + (v in red_edges) * up
                         + blue_before(k, j, n + 1, up + (v in blue_edges))) & 1)
    return parities


def approaches_from_left(red: EdgeSet, sides: SidePair) -> bool:
    """Both red end edges are horizontal, entering p1 and p2 from the left."""
    for p in (sides.p1, sides.p2):
        left = Edge(GridPoint(p.x - 1, p.y), p)
        if red.degree(p) != 1 or left not in red.edges:
            return False
    return True


def left_approach_route(end: GridPoint, s: int, from_left: bool) -> list:
    """Points from a doubled path end to its new side point one step toward
    the midpoint (``s`` is +1 below it, -1 above), arriving from the left.
    The route starts at the end's left neighbour when the path already
    arrives from there, else at the end itself."""
    route = [GridPoint(end.x - 1, end.y), GridPoint(end.x - 1, end.y + s),
             GridPoint(end.x, end.y + s)]
    return route if from_left else [end] + route


def normalize_instance(blue: EdgeSet, red: EdgeSet, sides: SidePair):
    """Double the grid density (with a margin shift) and reroute the red path
    ends so both approach the side points horizontally from the left.

    Returns an equivalent instance ``(blue', red', sides')`` on the grid
    ``2n + 4``: intersection status is unchanged, the new side points flank
    the doubled midpoint at distance one, and no edge of either color lies in
    the two outermost columns on each side.
    """
    check_crossing(blue, red, sides)

    n2 = 2 * blue.n + 4
    blue2 = translate(refine(blue, 2), 2, 2, n2)
    red2 = set(translate(refine(red, 2), 2, 2, n2).edges)

    def t(p):
        return GridPoint(2 * p.x + 2, 2 * p.y + 2)

    lower, upper = sorted((sides.p1, sides.p2), key=lambda p: p.y)
    new_end = {}
    for p, s in ((lower, 1), (upper, -1)):
        end = t(p)
        target = GridPoint(end.x, end.y + s)
        new_end[p] = target
        end_edge = next(e for e in red.edges if p in (e.a, e.b))
        prev = end_edge.b if end_edge.a == p else end_edge.a
        if prev == GridPoint(p.x, p.y + s):  # arrives via the midpoint side
            mid2 = GridPoint(end.x, end.y + 2 * s)
            red2.discard(Edge.of(end, target))
            red2.discard(Edge.of(target, mid2))
            other_dirs = [d for d in ((1, 0), (-1, 0), (0, s))
                          if Edge.of(mid2, (mid2.x + d[0], mid2.y + d[1])) in red2]
            if (-1, 0) in other_dirs:
                route = [mid2, (end.x + 1, mid2.y), (end.x + 1, end.y + s),
                         (end.x + 1, end.y), end, (end.x - 1, end.y),
                         (end.x - 1, end.y + s), target]
            else:
                route = [mid2, (end.x - 1, mid2.y), (end.x - 1, end.y + s), target]
        else:  # from the left the last edge is replaced, else a C-shape is added
            from_left = prev == GridPoint(p.x - 1, p.y)
            if from_left:
                red2.discard(Edge.of(end, (end.x - 1, end.y)))
            route = left_approach_route(end, s, from_left)
        for i in range(len(route) - 1):
            red2.add(Edge.of(route[i], route[i + 1]))

    red_out = EdgeSet(frozenset(red2), n2)
    sides_out = side_pair(new_end[sides.p1], new_end[sides.p2])
    ok = (connects(red_out, sides_out.p1, sides_out.p2)
          and on_different_sides(blue2, sides_out.p1, sides_out.p2)
          and approaches_from_left(red_out, sides_out)
          and intersects(blue2, red_out) == intersects(blue, red)
          and 2 <= sides_out.mid.x <= n2 - 2)
    if not ok:
        raise TheoremViolation("normalization produced an inconsistent instance (bug)")
    return blue2, red_out, sides_out


def check_parity_lemma(blue: EdgeSet, red: EdgeSet, sides: SidePair) -> LemmaReport:
    """Check the single-flip profile claims on one instance.

    Part a: the profile flips between columns m-1 and m.  Part b: it is
    constant across every other column boundary.  Valid non-intersecting
    inputs cannot exist, so on real (intersecting) instances at least one
    part fails; the report says where.
    """
    check_crossing(blue, red, sides)
    if not approaches_from_left(red, sides):
        raise PreconditionViolation("red path approaches p1, p2 from the left")
    m = sides.mid.x
    n = blue.n
    if not 2 <= m <= n - 2:
        raise PreconditionViolation("2 <= m <= n-2")
    profile = parity_profile(blue, red)
    part_a = profile.bits[m - 1] != profile.bits[m]
    violations = tuple(k for k in range(n - 1)
                       if k != m - 1 and profile.bits[k] != profile.bits[k + 1])
    return LemmaReport(m=m, profile=profile, part_a=part_a, part_b_violations=violations)


def find_intersection_set(blue: GridObject, red: GridObject,
                          sides: SidePair) -> IntersectionWitness:
    """Return a grid point touched by both colors, given in either form.

    One exists for every valid input; failing to find one is a bug, reported
    as a theorem violation.
    """
    check_crossing(blue, red, sides)
    blue, red = blue.to_edge_set(), red.to_edge_set()
    shared = blue.points & red.points
    if not shared:
        raise TheoremViolation("no shared grid point found on a valid instance (bug)")
    w = min(shared, key=lambda p: pair_code(*p))
    return IntersectionWitness(w, blue.degree(w), red.degree(w))
