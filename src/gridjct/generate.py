"""Seeded random test-instance sources.

Curves come from the boundary of a randomly grown simply connected polyomino
(grown under a contiguous-neighborhood rule so the boundary is one simple
cycle); crossing instances add a side pair on the curve and a breadth-first
red path between the two side points.  All randomness flows from the explicit
seed; identical seeds give identical outputs.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import List, Optional, Set, Tuple

from .errors import GenerationExhausted, PreconditionViolation, TheoremViolation
from .grid import CLOSED, MAX_N, OPEN, EdgeSequence, GridPoint, Instance, side_pair

_RING8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))

MAX_ATTEMPTS = 1000  # curves gen_crossing_instance tries before GenerationExhausted


def _one_arc(mask: int) -> bool:
    """Occupied cells among the 8 neighbors (bit i set when the cell at
    ``_RING8[i]`` is occupied) form one contiguous arc with an edge-neighbor."""
    occ = [mask >> i & 1 for i in range(8)]
    if not (occ[0] or occ[2] or occ[4] or occ[6]):  # needs an edge-neighbor
        return False
    transitions = sum(occ[i] != occ[(i + 1) % 8] for i in range(8))
    return transitions == 2


_ONE_ARC = tuple(_one_arc(mask) for mask in range(256))
_BACK = tuple(1 << (i + 4) % 8 for i in range(8))  # a cell's bit in the mask of its i-th neighbor


def _grow_polyomino(n: int, rng: random.Random, margin: int,
                    min_cells: int = 1) -> Set[int]:
    """Cells (x, y) in [0, n)^2, coded ``x * (n + 2) + y``: the codes sort as
    the pairs do, and a neighbor off the square has no cell's code."""
    lo, hi = margin, n - 1 - margin
    span = hi - lo + 1
    min_cells = min(min_cells, span * span)
    target = rng.randint(min_cells, max(min_cells, (span * span) // 3))
    m = n + 2
    ring = [(dx * m + dy + m + 1, back) for (dx, dy), back in zip(_RING8, _BACK)]
    added = rng.randint(lo, hi) * m + rng.randint(lo, hi)
    cells = {added}
    # A cell c's state and the _ONE_ARC mask of its occupied 8 neighbors sit at c + m + 1
    # (each neighbor of a cell in [0, n)^2 has them, at c + d for d in ring).  States: 0
    # off the square [lo, hi]^2 or taken, 1 free, 2 listed in the sorted candidates.
    state, masks = bytearray(m * m), bytearray(m * m)
    for i in range((lo + 1) * m + lo + 1, (hi + 1) * m + hi + 2, m):
        state[i:i + span] = b"\1" * span
    candidates: List[int] = []
    for _ in range(target - 1):  # one cell added a round
        state[added + m + 1] = 0
        for d, back in ring:
            i = added + d
            s = state[i]
            if s:  # a taken or off-square cell's mask is never read
                masks[i] = v = masks[i] | back
                if _ONE_ARC[v] != (s == 2):  # a free cell passes, or a listed one fails
                    state[i] = 3 - s
                    if s == 1:
                        insort(candidates, i - m - 1)
                    else:
                        del candidates[bisect_left(candidates, i - m - 1)]
        if not candidates:
            break
        added = rng.choice(candidates)
        cells.add(added)
        del candidates[bisect_left(candidates, added)]
    return cells


def _trace_boundary(cells: Set[int], n: int) -> EdgeSequence:
    """Directed boundary with the interior on the left (counterclockwise), with
    cells and points coded as :func:`_grow_polyomino` codes cells.  Its
    growth rule (:func:`_one_arc`) leaves no hole or corner-only touch, so it
    is one loop."""
    m = n + 2
    hops = {}
    for c in cells:
        if c - 1 not in cells:
            hops[c] = c + m
        if c + m not in cells:
            hops[c + m] = c + m + 1
        if c + 1 not in cells:
            hops[c + m + 1] = c + 1
        if c - m not in cells:
            hops[c + 1] = c
    if len(set(hops.values())) != len(hops):  # a pinch point is entered twice: the walk never ends
        raise TheoremViolation("polyomino boundary has a pinch point (bug)")
    start = min(hops)
    codes = [start]
    cur = hops[start]
    while cur != start:
        codes.append(cur)
        cur = hops[cur]
    if len(codes) != len(hops):
        raise TheoremViolation("polyomino boundary splits into several loops (bug)")
    return EdgeSequence.from_codes(codes, m, n, CLOSED)


def gen_random_curve(n: int, seed: int, *, margin: int = 0,
                     min_cells: int = 1) -> EdgeSequence:
    """Boundary of a random simply connected polyomino, as a directed closed
    sequence; deterministic per seed.  ``margin`` keeps the curve that many
    units away from the grid border.  Grids larger than ``MAX_N`` are
    rejected before any work."""
    if n < 2:
        raise PreconditionViolation("n >= 2")
    if n > MAX_N:
        raise PreconditionViolation(f"n <= {MAX_N}", f"generators need n <= {MAX_N}, got n={n}")
    if n - 2 * margin < 1:
        raise PreconditionViolation("margin leaves room for at least one cell")
    return _trace_boundary(_grow_polyomino(n, random.Random(seed), margin, min_cells), n)


def _side_candidates(curve: EdgeSequence) -> List[GridPoint]:
    """Curve points whose neighbors above and below are off the curve."""
    pts = curve.point_set
    return [w for w in sorted(pts)
            if 0 < w.y < curve.n and (w.x, w.y - 1) not in pts and (w.x, w.y + 1) not in pts]


def _bfs_path(n: int, src: GridPoint, dst: GridPoint, rng: random.Random,
              forbidden: Set[GridPoint]) -> Optional[Tuple[List[int], List[int]]]:
    """The x and y lists of a shortest grid path from ``src`` to ``dst`` off the grid points
    ``forbidden``, or None; the grid less an inner point is connected, so generation gets one."""
    m = n + 3  # (x, y) coded (x + 1) * m + y + 1; blocked: the frame, forbidden, visited
    steps = [m, -m, 1, -1]  # +x, -x, +y, -y, then in a seeded order
    rng.shuffle(steps)
    blocked = bytearray(b"\1" * m + (b"\1" + bytes(n + 1) + b"\1") * (n + 1) + b"\1" * m)
    for x, y in (src, *forbidden):
        blocked[(x + 1) * m + y + 1] = 1
    start, goal = (src.x + 1) * m + src.y + 1, (dst.x + 1) * m + dst.y + 1
    parent = {start: None}
    queue = [start]
    for cur in queue:  # grows as it is read: breadth-first
        if cur == goal:
            path = [cur]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return [c // m - 1 for c in path[::-1]], [c % m - 1 for c in path[::-1]]
        for d in steps:
            nxt = cur + d
            if not blocked[nxt]:
                blocked[nxt] = 1
                parent[nxt] = cur
                queue.append(nxt)


def gen_crossing_instance(n: int, seed: int, *, avoid_midpoint: bool = False) -> Instance:
    """Random curve plus a red path between a valid different-sides pair.

    The path is found by breadth-first search and may touch the curve (the
    crossing guarantee is the point).  ``avoid_midpoint`` keeps the path off
    the side-pair midpoint.
    Deterministic per seed; ``n`` is capped by :func:`gen_random_curve`.
    """
    if n < 4:
        raise PreconditionViolation("n >= 4")
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        # a side pair needs an interior lattice point, hence at least a 2x2 block
        curve = gen_random_curve(n, rng.getrandbits(32), margin=1, min_cells=4)
        mids = _side_candidates(curve)
        if not mids:
            continue
        mid = rng.choice(mids)
        p1 = GridPoint(mid.x, mid.y - 1)
        p2 = GridPoint(mid.x, mid.y + 1)
        skip_mid = avoid_midpoint or rng.random() < 0.5
        xs, ys = _bfs_path(n, p1, p2, rng, {mid} if skip_mid else set())
        red = EdgeSequence.accept(xs[:-1], ys[:-1], xs[1:], ys[1:], n, OPEN)
        return Instance(n=n, form="seq", blue=curve, red=red,
                        sides=side_pair(p1, p2)).validate()
    raise GenerationExhausted(
        f"no crossing instance in {MAX_ATTEMPTS} attempts (n={n}, seed={seed})")
