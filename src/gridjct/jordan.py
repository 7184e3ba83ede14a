"""Sequence-form crossing machinery and the two-region labeling.

``merge_paths`` splices a point-disjoint closed curve and side-to-side path
into one closed chain whose column m-1 carries two same-direction horizontal
edges at adjacent heights: the merged chain always fails the edge-alternation
check, which is why point-disjoint valid inputs cannot exist.

``side_sequences`` builds the two unit-offset rings of a refined (x3) curve;
``region_connect`` routes any free refined point to whichever side point
shares its region, and ``count_regions`` is the flood-fill oracle for the
two-region statement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

from .errors import InvalidInstance, PreconditionViolation, TheoremViolation
from .grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    EdgeSequence,
    GridPoint,
    SidePair,
    _check_same_n,
    on_different_sides,
    pair_code,
    refine,
)
from .parity import IntersectionWitness, find_intersection_set


def merge_paths(blue: EdgeSequence, red: EdgeSequence, sides: SidePair) -> EdgeSequence:
    """Splice a closed chain and a point-disjoint side-to-side path into one
    closed chain violating edge alternation in column m-1.

    Inputs are chain-checked, not simplicity-checked: genuinely valid
    point-disjoint inputs cannot exist, so the interesting callers feed
    deliberately broken (revisiting) chains.  Intersecting inputs are
    rejected; density is doubled internally when the path ends need to be
    re-routed or the splice point is occupied.
    """
    _check_same_n(blue, red)
    if blue.kind != CLOSED or red.kind != OPEN:
        raise PreconditionViolation("closed chain and open path")
    bpts = set(blue.check_chain().points())
    rpts = set(red.check_chain().points())
    if bpts & rpts:
        raise InvalidInstance("blue and red share a grid point; merge undefined")

    lower, upper = sorted((sides.p1, sides.p2), key=lambda p: p.y)
    mid = sides.mid
    if {red.edges[0].src, red.edges[-1].dst} != {lower, upper}:
        raise InvalidInstance("red path endpoints are not the side pair")
    if red.edges[0].src != lower:
        red = red.reverse()

    u = GridPoint(lower.x + 1, lower.y)
    if not (_left_approach(red, lower, upper) and u not in bpts and u not in rpts):
        blue, red, lower, upper, mid = _double_and_fix_ends(blue, red, lower, upper, mid)
        bpts = set(blue.points())
        u = GridPoint(lower.x + 1, lower.y)

    # Orient the curve so some pass through the midpoint runs east -> mid -> west.
    east = GridPoint(mid.x + 1, mid.y)
    b1 = DirectedEdge(mid, GridPoint(mid.x - 1, mid.y))
    e_in = DirectedEdge(east, mid)
    i = _find_splice(blue, b1, e_in)
    if i is None:
        blue = blue.reverse()
        i = _find_splice(blue, b1, e_in)
    if i is None:
        raise InvalidInstance("curve has no horizontal pass through the midpoint")
    rotated = blue.rotate(i).edges  # starts with b1, ends with the east in-edge

    merged = (list(rotated[:-1])
              + [DirectedEdge(east, u), DirectedEdge(u, lower)]
              + list(red.edges)
              + [DirectedEdge(upper, mid)])
    return EdgeSequence(tuple(merged), blue.n, CLOSED).check_chain()


def _find_splice(blue: EdgeSequence, b1: DirectedEdge, e_in: DirectedEdge):
    """Index of an occurrence of b1 whose cyclic predecessor is the east in-edge."""
    edges = blue.edges
    for i, e in enumerate(edges):
        if e == b1 and edges[i - 1] == e_in:
            return i
    return None


def _left_approach(red: EdgeSequence, lower: GridPoint, upper: GridPoint) -> bool:
    first, last = red.edges[0], red.edges[-1]
    return (first.src == lower and first.dst == GridPoint(lower.x - 1, lower.y)
            and last.dst == upper and last.src == GridPoint(upper.x - 1, upper.y))


def _double_and_fix_ends(blue, red, lower, upper, mid):
    """Refine x2, then trim or extend the path ends so both meet the new side
    points horizontally from the left.  Arrivals via the midpoint cannot
    occur here (they would have been rejected as intersecting)."""
    n2 = blue.n * 2
    blue2 = refine(blue, 2)
    red2 = list(refine(red, 2).edges)

    e0 = GridPoint(2 * lower.x, 2 * lower.y)
    p1 = GridPoint(e0.x, e0.y + 1)
    d0 = red.edges[0].direction
    if d0 == (0, 1):
        raise InvalidInstance("red path leaves the lower side point via the midpoint")
    if d0 == (-1, 0):
        red2 = red2[1:]
        head = [DirectedEdge(p1, GridPoint(e0.x - 1, e0.y + 1)),
                DirectedEdge(GridPoint(e0.x - 1, e0.y + 1), GridPoint(e0.x - 1, e0.y))]
    else:
        head = [DirectedEdge(p1, GridPoint(e0.x - 1, e0.y + 1)),
                DirectedEdge(GridPoint(e0.x - 1, e0.y + 1), GridPoint(e0.x - 1, e0.y)),
                DirectedEdge(GridPoint(e0.x - 1, e0.y), e0)]

    e1 = GridPoint(2 * upper.x, 2 * upper.y)
    p2 = GridPoint(e1.x, e1.y - 1)
    dl = red.edges[-1].direction
    if dl == (0, -1):
        raise InvalidInstance("red path enters the upper side point via the midpoint")
    if dl == (1, 0):
        red2 = red2[:-1]
        tail = [DirectedEdge(GridPoint(e1.x - 1, e1.y), GridPoint(e1.x - 1, e1.y - 1)),
                DirectedEdge(GridPoint(e1.x - 1, e1.y - 1), p2)]
    else:
        tail = [DirectedEdge(e1, GridPoint(e1.x - 1, e1.y)),
                DirectedEdge(GridPoint(e1.x - 1, e1.y), GridPoint(e1.x - 1, e1.y - 1)),
                DirectedEdge(GridPoint(e1.x - 1, e1.y - 1), p2)]

    red_out = EdgeSequence(tuple(head + red2 + tail), n2, OPEN).check_chain()
    mid2 = GridPoint(2 * mid.x, 2 * mid.y)
    if not _left_approach(red_out, p1, p2):
        raise TheoremViolation("end fix failed to establish left approach (bug)")
    return blue2, red_out, p1, p2, mid2


def find_intersection_seq(blue: EdgeSequence, red: EdgeSequence,
                          sides: SidePair) -> IntersectionWitness:
    """Shared grid point of a closed curve and a path joining its two sides.

    Guaranteed to exist on valid inputs; not finding one is a bug.  The
    sequence form of :func:`~gridjct.parity.find_intersection_set`.
    """
    return find_intersection_set(blue, red, sides)


@dataclass(frozen=True)
class SideSequences:
    """The two closed rings running one unit to either side of the refined curve."""

    q1: EdgeSequence  # left of the direction of travel
    q2: EdgeSequence  # right of the direction of travel


def _normal(d: Tuple[int, int], side: int) -> Tuple[int, int]:
    dx, dy = d
    return (-dy, dx) if side > 0 else (dy, -dx)


def _refined_interior_curve(curve: EdgeSequence) -> EdgeSequence:
    """The x3 refinement of a simple closed curve with no point on the grid border."""
    if curve.validate().kind != CLOSED:
        raise PreconditionViolation("closed curve")
    n = curve.n
    for p in curve.points():
        if p.x in (0, n) or p.y in (0, n):
            raise PreconditionViolation(
                "curve off the grid border", f"curve touches the border at {tuple(p)}")
    return refine(curve, 3)


def _offset_ring(p3: EdgeSequence, side: int) -> EdgeSequence:
    pts = p3.points()
    t = len(pts)
    raw = []
    for i in range(t):
        prev, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % t]
        din = (cur.x - prev.x, cur.y - prev.y)
        dout = (nxt.x - cur.x, nxt.y - cur.y)
        nin, nout = _normal(din, side), _normal(dout, side)
        if din == dout:
            raw.append(GridPoint(cur.x + nin[0], cur.y + nin[1]))
            continue
        cross = din[0] * dout[1] - din[1] * dout[0]
        if (cross > 0) == (side > 0):  # turning toward the ring: cut the corner
            raw.append(GridPoint(cur.x + nin[0] + nout[0], cur.y + nin[1] + nout[1]))
        else:  # turning away: go around the corner
            raw.append(GridPoint(cur.x + nin[0], cur.y + nin[1]))
            raw.append(GridPoint(cur.x + nin[0] + nout[0], cur.y + nin[1] + nout[1]))
            raw.append(GridPoint(cur.x + nout[0], cur.y + nout[1]))
    ded = []
    for p in raw:
        if not ded or ded[-1] != p:
            ded.append(p)
    while len(ded) > 1 and ded[0] == ded[-1]:
        ded.pop()
    ring = EdgeSequence.from_points(ded, p3.n, CLOSED)
    if not p3.point_set.isdisjoint(ring.point_set):
        raise TheoremViolation("offset ring touches the curve (bug)")
    return ring


def side_sequences(curve: EdgeSequence) -> SideSequences:
    """Unit-offset rings of the x3-refined curve, one on each side.

    Requires a simple closed curve with no point on the grid border.  Corner
    fill-in points of the outward ring sit at Manhattan distance 2 from the
    curve; every other ring point is at distance exactly 1.
    """
    return _side_rings(_refined_interior_curve(curve))


def _side_rings(p3: EdgeSequence) -> SideSequences:
    q1 = _offset_ring(p3, +1)
    q2 = _offset_ring(p3, -1)
    if not q1.point_set.isdisjoint(q2.point_set):
        raise TheoremViolation("offset rings overlap (bug)")
    return SideSequences(q1, q2)


def count_regions(curve: EdgeSequence) -> int:
    """Connected components of refined-grid points off the x3-refined curve.

    Only the curve's bounding box and the one-unit ring around it are
    flooded, so the work follows the curve, not the grid: the curve is off
    the border, so the ring lies inside the grid, is free, and joins every
    point outside it into one region.
    """
    p3 = _refined_interior_curve(curve)
    blocked = p3.point_set
    x0, x1 = min(p.x for p in blocked) - 1, max(p.x for p in blocked) + 1
    y0, y1 = min(p.y for p in blocked) - 1, max(p.y for p in blocked) + 1
    seen = set()
    comps = 0
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            start = GridPoint(x, y)
            if start in blocked or start in seen:
                continue
            comps += 1
            seen.add(start)
            queue = deque([start])
            while queue:
                cx, cy = queue.popleft()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if x0 <= nx <= x1 and y0 <= ny <= y1:
                        np = GridPoint(nx, ny)
                        if np not in blocked and np not in seen:
                            seen.add(np)
                            queue.append(np)
    return comps


def _staircase(p: GridPoint, q: GridPoint) -> List[GridPoint]:
    """Monotone shortest lattice path, x-moves before y-moves."""
    pts = [p]
    x, y = p
    step = 1 if q.x > x else -1
    while x != q.x:
        x += step
        pts.append(GridPoint(x, y))
    step = 1 if q.y > y else -1
    while y != q.y:
        y += step
        pts.append(GridPoint(x, y))
    return pts


def region_connect(curve: EdgeSequence, p, sides: SidePair) -> EdgeSequence:
    """Path on the x3-refined grid from ``p`` to whichever side point shares
    its region, never touching the refined curve.

    Hops to the Manhattan-nearest ring point (x-moves first; pair-code ties),
    then follows that ring to its side point.  ``p`` and ``sides`` live on
    the refined grid.
    """
    p3 = _refined_interior_curve(curve)
    p = GridPoint(*p)
    n3 = p3.n
    if not (0 <= p.x <= n3 and 0 <= p.y <= n3):
        raise PreconditionViolation("point inside the refined grid")
    if p in p3.point_set:
        raise PreconditionViolation("point off the refined curve")
    if not on_different_sides(p3.to_edge_set(), sides.p1, sides.p2):
        raise PreconditionViolation("on_different_sides(P', p1, p2)")
    if p == sides.p1 or p == sides.p2:
        return EdgeSequence((), n3, OPEN)  # trivial zero-length connection

    rings = _side_rings(p3)
    ring_pts = [rings.q1.points(), rings.q2.points()]
    ring_sets = [frozenset(ring_pts[0]), frozenset(ring_pts[1])]
    homes = {}
    for tgt in (sides.p1, sides.p2):
        if tgt in ring_sets[0]:
            homes[tgt] = 0
        elif tgt in ring_sets[1]:
            homes[tgt] = 1
        else:
            raise TheoremViolation("side point not on either ring (bug)")
    if homes[sides.p1] == homes[sides.p2]:
        raise TheoremViolation("side points landed on the same ring (bug)")

    dists = [min(abs(p.x - r.x) + abs(p.y - r.y) for r in ring_pts[i]) for i in range(2)]
    d = min(dists)
    candidates = [r for i in range(2) if dists[i] == d
                  for r in ring_pts[i] if abs(p.x - r.x) + abs(p.y - r.y) == d]
    q = min(candidates, key=lambda r: pair_code(*r))
    ring_idx = 0 if q in ring_sets[0] else 1
    target = sides.p1 if homes[sides.p1] == ring_idx else sides.p2

    hop = _staircase(p, q)
    if any(w in p3.point_set for w in hop):
        raise TheoremViolation("shortest hop crossed the curve (bug)")
    ring = ring_pts[ring_idx]
    k = len(ring)
    iq, it = ring.index(q), ring.index(target)
    fwd, bwd = (it - iq) % k, (iq - it) % k
    if fwd <= bwd:
        arc = [ring[(iq + s) % k] for s in range(fwd + 1)]
    else:
        arc = [ring[(iq - s) % k] for s in range(bwd + 1)]
    path = hop + arc[1:]
    out = EdgeSequence.from_points(path, n3, OPEN)
    if not p3.point_set.isdisjoint(out.point_set):
        raise TheoremViolation("connection touches the curve (bug)")
    return out
