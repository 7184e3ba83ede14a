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
    connects,
    intersects,
    on_different_sides,
    pair_code,
    refine,
    translate,
)


@dataclass(frozen=True)
class ParityProfile:
    """bits[k] = parity of the number of odd red edges in column k."""

    bits: tuple

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


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


def is_odd_edge(blue: EdgeSet, r: Edge) -> bool:
    """Odd number of horizontal blue edges strictly below ``r`` in its column."""
    r = Edge.of(r.a, r.b)
    if not r.horizontal:
        raise PreconditionViolation("horizontal edge", "odd-edge test needs a horizontal edge")
    k, yy = r.column, r.row
    count = sum(1 for b in blue.edges if b.horizontal and b.column == k and b.row < yy)
    return count % 2 == 1


def _horizontal_rows_by_column(es: EdgeSet, n: int) -> list:
    cols = [[] for _ in range(n)]
    for e in es.edges:
        if e.horizontal:
            cols[e.column].append(e.row)
    for rows in cols:
        rows.sort()
    return cols


def parity_profile(blue: EdgeSet, red: EdgeSet) -> ParityProfile:
    """Per-column parities of the odd red edges, with respect to ``blue``."""
    _check_same_n(blue, red)
    n = blue.n
    blue_cols = _horizontal_rows_by_column(blue, n)
    red_cols = _horizontal_rows_by_column(red, n)
    bits = []
    for k in range(n):
        bit = 0
        below = blue_cols[k]
        for yy in red_cols[k]:
            bit ^= bisect_left(below, yy) & 1
        bits.append(bit)
    return ParityProfile(tuple(bits))


def column_transition_parities(blue: EdgeSet, red: EdgeSet, k: int):
    """Parities of the odd red edges along the staircase lists interpolating
    between column k and column k+1 (j = 0 .. n+1).

    The j-th list runs up column k+1 for j slots, crosses on the vertical
    edge, then continues up column k; an edge is odd in the list when an odd
    number of blue edges precede it.
    """
    _check_same_n(blue, red)
    n = blue.n
    if not 0 <= k <= n - 2:
        raise PreconditionViolation("0 <= k <= n-2")

    def h(col, yy):
        return Edge(GridPoint(col, yy), GridPoint(col + 1, yy))

    def v(x, yy):
        return Edge(GridPoint(x, yy), GridPoint(x, yy + 1))

    parities = []
    for j in range(n + 2):
        if j == 0:
            items = [h(k, yy) for yy in range(n + 1)]
        elif j == n + 1:
            items = [h(k + 1, yy) for yy in range(n + 1)]
        else:
            items = ([h(k + 1, yy) for yy in range(j)]
                     + [v(k + 1, j - 1)]
                     + [h(k, yy) for yy in range(j, n + 1)])
        blue_prefix = 0
        odd = 0
        for e in items:
            if e in red.edges and blue_prefix & 1:
                odd ^= 1
            if e in blue.edges:
                blue_prefix += 1
        parities.append(odd)
    return parities


def approaches_from_left(red: EdgeSet, sides: SidePair) -> bool:
    """Both red end edges are horizontal, entering p1 and p2 from the left."""
    for p in (sides.p1, sides.p2):
        if p.x == 0:
            return False
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
    sides_out = SidePair(new_end[sides.p1], new_end[sides.p2], t(sides.mid))
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
