"""Sequence-form crossing machinery and the two-region labeling.

``merge_paths`` splices a point-disjoint closed curve and side-to-side path
into one closed chain whose column m-1 carries two same-direction horizontal
edges at adjacent heights: the merged chain always fails the edge-alternation
check, which is why point-disjoint valid inputs cannot exist.

``side_sequences`` builds the two unit-offset rings of a refined (x3) curve;
``region_connect`` routes any free refined point along its own ring to the
side point in its region, and ``count_regions`` counts the regions by joining
column runs, checking the two-region statement.  All three work on refined
points coded as ints.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter, sub
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
    column_marks,
    columns,
    pair_code,
    refine,
    side_pair,
)
from .parity import IntersectionWitness, find_intersection_set, left_approach_route


def merge_paths(blue: EdgeSequence, red: EdgeSequence) -> EdgeSequence:
    """Splice a closed chain and a point-disjoint path joining a side pair
    into one closed chain violating edge alternation in column m-1.  The side
    pair is red's two ends.

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
    lower, upper, mid = side_pair(red.start, red.end)
    if bpts & rpts:
        raise InvalidInstance("blue and red share a grid point; merge undefined")
    if lower.y > upper.y:
        lower, upper, red = upper, lower, red.reverse()

    u = GridPoint(lower.x + 1, lower.y)
    if not (_left_approach(red) and u not in bpts and u not in rpts):
        blue, red = _double_and_fix_ends(blue, red)
        lower, upper, mid = side_pair(red.start, red.end)
        u = GridPoint(lower.x + 1, lower.y)

    # Splice at a pass east -> mid -> west.  Red joins the side points off the
    # curve, so the curve passes the midpoint westward as often as eastward.
    east = GridPoint(mid.x + 1, mid.y)
    b1, e_in = DirectedEdge(mid, GridPoint(mid.x - 1, mid.y)), DirectedEdge(east, mid)
    edges = blue.edges
    i = next((k for k, e in enumerate(edges) if e == b1 and edges[k - 1] == e_in), None)
    if i is None:
        raise InvalidInstance("curve has no horizontal pass through the midpoint")
    rotated = blue.rotate(i).edges  # starts with b1, ends with the east in-edge

    merged = (list(rotated[:-1])
              + [DirectedEdge(east, u), DirectedEdge(u, lower)]
              + list(red.edges)
              + [DirectedEdge(upper, mid)])
    return EdgeSequence(tuple(merged), blue.n, CLOSED).check_chain()


def _left_approach(red: EdgeSequence) -> bool:
    """Red leaves its first point westward and enters its last one eastward."""
    return red.edges[0].direction == (-1, 0) and red.edges[-1].direction == (1, 0)


def _double_and_fix_ends(blue: EdgeSequence, red: EdgeSequence):
    """Refine x2, then trim or extend the path ends, red running upward,
    along :func:`~gridjct.parity.left_approach_route` so both meet the new
    side points horizontally from the left, which a side pair on the left
    border cannot.  A red end through the midpoint is left to the
    disjointness check or the splice search."""
    lower, upper = red.start, red.end
    if lower.x == 0:
        raise InvalidInstance(f"side pair {tuple(lower)}, {tuple(upper)} is on the left border: "
                              "its red ends cannot be rerouted from the left")
    head_left, tail_left = red.edges[0].direction == (-1, 0), red.edges[-1].direction == (1, 0)
    head = left_approach_route(GridPoint(2 * lower.x, 2 * lower.y), 1, head_left)[::-1]
    tail = left_approach_route(GridPoint(2 * upper.x, 2 * upper.y), -1, tail_left)
    core = refine(red, 2).edges
    edges = [*map(DirectedEdge, head, head[1:]), *core[head_left:len(core) - tail_left],
             *map(DirectedEdge, tail, tail[1:])]
    red_out = EdgeSequence(tuple(edges), 2 * blue.n, OPEN).check_chain()
    if not _left_approach(red_out):
        raise TheoremViolation("end fix failed to establish left approach (bug)")
    return refine(blue, 2), red_out


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


def _refined_codes(curve: EdgeSequence) -> Tuple[List[int], int]:
    """The x3 refinement of a simple closed curve with no point on the grid
    border: its points in order as codes ``x * s + y``, and the stride
    ``s = 3n + 2``.  The spare row ``y = 3n + 1`` keeps a code step of 1
    inside one column and gives a point one unit off the grid a code no grid
    point has."""
    if curve.validate().kind != CLOSED:
        raise PreconditionViolation("closed curve")
    n, (x1, y1, x2, y2) = curve.n, columns(curve)
    if not (0 < min(x1) and max(x1) < n and 0 < min(y1) and max(y1) < n):
        p = next(p for p in zip(x1, y1) if p[0] in (0, n) or p[1] in (0, n))
        raise PreconditionViolation("curve off the grid border", f"curve touches the border at {p}")
    s, codes = 3 * n + 2, []
    for px, py, qx, qy in zip(x1, y1, x2, y2):
        c, d = 3 * (px * s + py), (qx - px) * s + qy - py
        codes += (c, c + d, c + 2 * d)
    return codes, s


def _ring_points(codes: List[int], s: int, side: int) -> List[int]:
    """Codes one unit to the left (``side`` +1) or right (-1) of the coded
    x3 curve, unchecked: a cut corner where the curve turns toward that side,
    three points around the corner where it turns away.  Only the coarse
    vertices ``codes[::3]`` turn; each adds its (in, out) turn's table entry."""
    normal = {s: side, -s: -side, 1: -side * s, -1: side * s}  # left of (dx, dy) is (-dy, dx)
    turns = {}
    for din, nin in normal.items():
        for dout, nout in normal.items():
            straight = (dout + nout, 2 * dout + nout)
            if din == dout:
                turns[din, dout] = (nin, *straight)
            elif dout == nin:  # turning toward the ring: its cut corner is the
                turns[din, dout] = straight[1:]  # point before and the first after
            else:  # turning away: go around the corner
                turns[din, dout] = (nin, nin + nout, nout, *straight)
    vertices = codes[::3]
    dirs = list(map(sub, codes[1::3], vertices))
    ring = [cur + o for cur, turn in zip(vertices, zip(dirs[-1:] + dirs[:-1], dirs))
            for o in turns[turn]]
    if dirs[0] == normal[dirs[-1]]:  # the ring starts at the first vertex's cut corner
        ring.insert(0, ring.pop())
    return ring


def _offset_ring(codes: List[int], s: int, side: int, on: set) -> Tuple[List[int], set]:
    """The one ring builder: :func:`_ring_points`, checked as a simple closed curve of
    at least 4 points inside the grid and off the curve ``on``, with its point set."""
    ring = _ring_points(codes, s, side)
    if len(ring) < 4:
        raise TheoremViolation("offset ring has fewer than 4 points (bug)")
    seen, lo, hi = set(ring), min(ring), max(ring)
    # off the grid: x out of range, or on the spare row y = s - 1, tested in the ring's columns
    if lo < 0 or hi >= s * (s - 1) or not seen.isdisjoint(range(lo - lo % s + s - 1, hi + 1, s)):
        raise TheoremViolation("offset ring leaves the grid (bug)")
    if not set(map(sub, ring[1:] + ring[:1], ring)) <= {1, -1, s, -s}:
        raise TheoremViolation("offset ring takes a non-unit step (bug)")
    if len(seen) != len(ring):
        raise TheoremViolation("offset ring revisits a point (bug)")
    if not on.isdisjoint(seen):
        raise TheoremViolation("offset ring touches the curve (bug)")
    return ring, seen


def side_sequences(curve: EdgeSequence) -> SideSequences:
    """Unit-offset rings of the x3-refined curve, one on each side.

    Requires a simple closed curve with no point on the grid border.  The
    rings come from the same checked builder :func:`connect_codes` uses.
    Corner fill-in points of the outward ring sit at Manhattan distance 2
    from the curve; every other ring point is at distance exactly 1.
    """
    codes, s = _refined_codes(curve)
    on = set(codes)
    (q1, set1), (q2, set2) = _offset_ring(codes, s, +1, on), _offset_ring(codes, s, -1, on)
    if not set1.isdisjoint(set2):
        raise TheoremViolation("offset rings overlap (bug)")
    return SideSequences(*(EdgeSequence.from_codes(ring, s, s - 2, CLOSED) for ring in (q1, q2)))


def count_regions(curve: EdgeSequence) -> int:
    """Connected components of refined-grid points off the x3-refined curve.

    The curve's bounding box, grown by a ring and a frame unit on each side, is
    laid out in one ``bytearray`` of columns of height ``h`` with the frame
    blocked; :func:`_free_components` counts its free cells by column runs.  The
    curve is off the grid border, so the ring lies in the grid, is free, and joins
    every point outside the curve into one region.  Work and memory follow the box.
    """
    codes, s = _refined_codes(curve)
    ys = [c % s for c in codes]
    x0, y0 = min(codes) // s - 2, min(ys) - 2  # ring, then frame
    w, h = max(codes) // s + 3 - x0, max(ys) + 3 - y0
    grid = bytearray(w * h)
    grid[:h] = grid[-h:] = b"\1" * h
    grid[::h] = grid[h - 1::h] = b"\1" * w
    for c in codes:
        grid[(c // s - x0) * h + c % s - y0] = 1
    return _free_components(grid, h)


_FREE_RUN = re.compile(b"\0+")


def _free_components(grid: bytearray, h: int) -> int:
    """4-connected components of the zero cells of a grid of columns of
    height ``h`` whose first and last cell are blocked: each column's free
    runs, joined across neighbouring columns where their heights overlap
    (Rosenfeld & Pfaltz's two-pass labeling, by union-find over runs)."""
    runs = [m.span() for m in _FREE_RUN.finditer(grid)]
    parent = list(range(len(runs)))
    comps = len(runs)
    i = 0
    for j, (b0, b1) in enumerate(runs):  # run i is in the column left of run j
        b0, b1 = b0 - h, b1 - h
        while i < j:
            a0, a1 = runs[i]
            if a0 < b1 and b0 < a1:  # a shared height, not just a corner
                ra, rb = i, j  # j is a root: only runs before it get a new parent
                while parent[ra] != ra:
                    parent[ra] = ra = parent[parent[ra]]
                if ra != rb:
                    parent[ra] = rb
                    comps -= 1
            if a1 > b1:
                break
            i += 1
    return comps


def ring_side(marks: list, x: int, y: int) -> int:
    """The x3 curve's ring in the free refined point (x, y)'s region, +1 left of travel or -1
    right: the step of the last ``column_marks`` mark below it in coarse column x // 3 (at
    x = 3k, its free right neighbour's), or none below: outside, minus a lowest mark's step."""
    i = bisect_left(marks, (x // 3, (y + 2) // 3)) - 1
    return marks[i][2] if i >= 0 and marks[i][0] == x // 3 else -min(marks, key=itemgetter(1))[2]


def connect_codes(curve: EdgeSequence, p, sides: SidePair) -> Tuple[List[int], int]:
    """:func:`region_connect`'s path as points coded ``x * s + y`` (none if trivial), and the
    stride ``s``.  It builds p's ring alone, on the side :func:`ring_side` reads, with
    :func:`side_sequences`' checked builder (a path to the other ring crosses the curve just
    after a nearer point of p's ring), hops to the Manhattan-nearest ring point (x-moves first;
    pair-code ties; by bisection in the sorted ring codes, one column at a time outward from
    ``p``) and follows the shorter arc to the side point, all on the refined grid."""
    codes, s = _refined_codes(curve)
    n3, on = s - 2, set(codes)

    def code(q) -> int:  # -1, never a curve code, off the refined grid
        return q[0] * s + q[1] if 0 <= q[0] <= n3 and 0 <= q[1] <= n3 else -1

    p, p1, p2 = GridPoint(*p), sides.p1, sides.p2
    pc, c1, c2 = code(p), code(p1), code(p2)
    if pc < 0:
        raise PreconditionViolation("point inside the refined grid")
    if pc in on:
        raise PreconditionViolation("point off the refined curve")
    # on a simple closed curve "degree 2" is "on the curve": membership suffices
    if (p1.x != p2.x or abs(p1.y - p2.y) != 2 or c1 in on or c2 in on
            or code((p1.x, (p1.y + p2.y) // 2)) not in on):
        raise PreconditionViolation("on_different_sides(P', p1, p2)")
    if pc in (c1, c2):
        return [], s  # trivial zero-length connection

    ring, seen = _offset_ring(codes, s, ring_side(column_marks(curve), p.x, p.y), on)
    if (c1 in seen) == (c2 in seen):
        raise TheoremViolation("the point's ring holds both side points or neither (bug)")

    # codes sort column by column: in each column the nearest ring points
    # flank p's height; columns farther off than the best hop cannot win
    ordered = sorted(ring)
    best = (2 * s,)  # (distance, pair code, code); starts farther off than any grid point
    for dx in range(n3 + 1):
        if dx > best[0]:
            break
        for x in {p.x - dx, p.x + dx}:
            lo = x * s
            i = bisect_left(ordered, lo + p.y)
            for c in ordered[i - 1 if i else 0:i + 1]:
                if lo <= c < lo + s:
                    best = min(best, (dx + abs(c - lo - p.y), pair_code(x, c - lo), c))
    qc = best[2]
    corner = qc - qc % s + p.y  # in q's column at p's height
    hop = [*range(pc, corner, s if corner > pc else -s),  # x-moves, then y-moves
           *range(corner, qc, 1 if qc > corner else -1), qc]
    if not on.isdisjoint(hop):
        raise TheoremViolation("shortest hop crossed the curve (bug)")
    iq = ring.index(qc)  # the shorter arc from q, forward on a tie
    ring, fwd = ring[iq:] + ring[:iq], (ring.index(c1 if c1 in seen else c2) - iq) % len(ring)
    return hop + (ring[1:fwd + 1] if 2 * fwd <= len(ring) else ring[:fwd - 1:-1]), s


def region_connect(curve: EdgeSequence, p, sides: SidePair) -> EdgeSequence:
    """Path on the x3-refined grid from ``p`` to whichever side point shares its region,
    off the refined curve: :func:`connect_codes` through :meth:`EdgeSequence.from_codes`."""
    path, s = connect_codes(curve, p, sides)
    return EdgeSequence.from_codes(path, s, s - 2, OPEN) if path else EdgeSequence((), s - 2, OPEN)
