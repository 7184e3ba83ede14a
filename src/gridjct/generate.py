"""Seeded random test-instance sources.

Curves come from the boundary of a randomly grown simply connected polyomino
(grown under a contiguous-neighborhood rule so the boundary is one simple
cycle); crossing instances add a side pair on the curve and a breadth-first
red path between the two side points.  All randomness flows from the explicit
seed; identical seeds give identical outputs.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from typing import List, Set, Tuple

from .errors import GenerationExhausted, PreconditionViolation, TheoremViolation
from .grid import CLOSED, OPEN, EdgeSequence, GridPoint, Instance, SidePair

_RING8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))

MAX_ATTEMPTS = 1000  # curves gen_crossing_instance tries before GenerationExhausted
MAX_N = 512  # the polyomino target grows as n^2; render.MAX_N is the same cap


def _one_arc(mask: int) -> bool:
    """Occupied cells among the 8 neighbors (bit i set when the cell at
    ``_RING8[i]`` is occupied) form one contiguous arc with an edge-neighbor."""
    occ = [mask >> i & 1 for i in range(8)]
    if not (occ[0] or occ[2] or occ[4] or occ[6]):  # needs an edge-neighbor
        return False
    transitions = sum(occ[i] != occ[(i + 1) % 8] for i in range(8))
    return transitions == 2


_ONE_ARC = tuple(_one_arc(mask) for mask in range(256))


def _can_add(cells: Set[Tuple[int, int]], c: Tuple[int, int]) -> bool:
    """Whether ``c``'s occupied 8 neighbors pass :func:`_one_arc`."""
    x, y = c
    return _ONE_ARC[((x + 1, y) in cells) | ((x + 1, y + 1) in cells) << 1
                    | ((x, y + 1) in cells) << 2 | ((x - 1, y + 1) in cells) << 3
                    | ((x - 1, y) in cells) << 4 | ((x - 1, y - 1) in cells) << 5
                    | ((x, y - 1) in cells) << 6 | ((x + 1, y - 1) in cells) << 7]


def _grow_polyomino(n: int, rng: random.Random, margin: int,
                    min_cells: int = 1) -> Set[Tuple[int, int]]:
    lo, hi = margin, n - 1 - margin
    span = hi - lo + 1
    min_cells = min(min_cells, span * span)
    target = rng.randint(min_cells, max(min_cells, (span * span) // 3))
    added = (rng.randint(lo, hi), rng.randint(lo, hi))
    cells = {added}
    # Sorted in-bounds free cells that _can_add accepts.  Adding a cell
    # changes the 8-neighborhood only of the 8 cells around it, so only
    # those are re-tested.
    candidates: List[Tuple[int, int]] = []
    while len(cells) < target:
        for dx, dy in _RING8:
            c = (added[0] + dx, added[1] + dy)
            if not (lo <= c[0] <= hi and lo <= c[1] <= hi) or c in cells:
                continue
            k = bisect_left(candidates, c)
            listed = k < len(candidates) and candidates[k] == c
            if _can_add(cells, c):
                if not listed:
                    candidates.insert(k, c)
            elif listed:
                del candidates[k]
        if not candidates:
            break
        added = rng.choice(candidates)
        cells.add(added)
        del candidates[bisect_left(candidates, added)]
    return cells


def _trace_boundary(cells: Set[Tuple[int, int]], n: int) -> EdgeSequence:
    """Directed boundary with the interior on the left (counterclockwise).
    :func:`_can_add` leaves no hole or corner-only touch, so it is one loop."""
    hops = {}
    for (i, j) in cells:
        if (i, j - 1) not in cells:
            hops[GridPoint(i, j)] = GridPoint(i + 1, j)
        if (i + 1, j) not in cells:
            hops[GridPoint(i + 1, j)] = GridPoint(i + 1, j + 1)
        if (i, j + 1) not in cells:
            hops[GridPoint(i + 1, j + 1)] = GridPoint(i, j + 1)
        if (i - 1, j) not in cells:
            hops[GridPoint(i, j + 1)] = GridPoint(i, j)
    total = sum(((i, j - 1) not in cells) + ((i + 1, j) not in cells)
                + ((i, j + 1) not in cells) + ((i - 1, j) not in cells)
                for (i, j) in cells)
    if len(hops) != total:  # a pinch point carries two outgoing edges; the walk would not end
        raise TheoremViolation("polyomino boundary has a pinch point (bug)")
    start = min(hops)
    pts = [start]
    cur = hops[start]
    while cur != start:
        pts.append(cur)
        cur = hops[cur]
    if len(pts) != total:
        raise TheoremViolation("polyomino boundary splits into several loops (bug)")
    return EdgeSequence.from_points(pts, n, CLOSED)


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
              forbidden: Set[GridPoint]) -> List[GridPoint]:
    """A shortest grid path from ``src`` to ``dst`` off ``forbidden``; the
    grid less one inner point is connected, so one always exists."""
    order = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    rng.shuffle(order)
    parent = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            path = [cur]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for dx, dy in order:
            np = GridPoint(cur.x + dx, cur.y + dy)
            if 0 <= np.x <= n and 0 <= np.y <= n and np not in parent and np not in forbidden:
                parent[np] = cur
                queue.append(np)


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
        pts = _bfs_path(n, p1, p2, rng, {mid} if skip_mid else set())
        red = EdgeSequence.from_points(pts, n, OPEN)
        return Instance(n=n, form="seq", blue=curve, red=red,
                        sides=SidePair(p1, p2, mid)).validate()
    raise GenerationExhausted(
        f"no crossing instance in {MAX_ATTEMPTS} attempts (n={n}, seed={seed})")
