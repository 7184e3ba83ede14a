"""The generator's growth and path search against reference implementations.

``reference_grow_polyomino`` and ``reference_bfs_path`` are the generator's
earlier set- and ``GridPoint``-based versions, kept unchanged as oracles: on
the same seeded inputs the int-code versions must give the same cells, the
same path and leave the random stream in the same state.
"""

import random
from bisect import bisect_left, insort
from collections import deque
from typing import List, Set

import pytest

from gridjct import generate
from gridjct.generate import _BACK, _ONE_ARC, _RING8
from gridjct.grid import GridPoint


def reference_grow_polyomino(n: int, rng: random.Random, margin: int,
                             min_cells: int = 1) -> Set[int]:
    """Cells (x, y) in [0, n)^2, coded ``x * (n + 2) + y``: the codes sort as
    the pairs do, and a neighbor off the square has no cell's code."""
    lo, hi = margin, n - 1 - margin
    span = hi - lo + 1
    min_cells = min(min_cells, span * span)
    target = rng.randint(min_cells, max(min_cells, (span * span) // 3))
    m = n + 2
    ring = [(dx, dy, dx * m + dy, back) for (dx, dy), back in zip(_RING8, _BACK)]
    added = rng.randint(lo, hi) * m + rng.randint(lo, hi)
    cells = {added}
    # Each cell's occupied 8 neighbors as a _ONE_ARC mask, at c + m + 1 (every
    # neighbor of a cell in [0, n)^2 has an index).  Sorted in-bounds free cells
    # whose mask passes (also as a set).  Adding a cell changes the masks only
    # of the 8 cells around it, so only those are re-tested.
    masks = bytearray(m * m)
    candidates: List[int] = []
    listed = set()
    while len(cells) < target:
        x, y = divmod(added, m)
        inside = lo < x < hi and lo < y < hi  # then so are its 8 neighbors
        for dx, dy, d, back in ring:
            c = added + d
            masks[c + m + 1] |= back
            if c in cells or not (inside or (lo <= x + dx <= hi and lo <= y + dy <= hi)):
                continue
            if _ONE_ARC[masks[c + m + 1]]:
                if c not in listed:
                    listed.add(c)
                    insort(candidates, c)
            elif c in listed:
                listed.remove(c)
                del candidates[bisect_left(candidates, c)]
        if not candidates:
            break
        added = rng.choice(candidates)
        cells.add(added)
        listed.remove(added)
        del candidates[bisect_left(candidates, added)]
    return cells


def reference_bfs_path(n: int, src: GridPoint, dst: GridPoint, rng: random.Random,
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


@pytest.mark.parametrize("n", range(2, 65))
def test_grow_polyomino_matches_the_reference(n):
    for margin in sorted({0, 1, n // 8}):
        if n - 2 * margin < 1:
            continue
        for min_cells in (1, n * n):  # n * n: grow until nothing is addable
            for seed in range(2):
                rng, ref = random.Random(seed), random.Random(seed)
                got = generate._grow_polyomino(n, rng, margin, min_cells)
                assert got == reference_grow_polyomino(n, ref, margin, min_cells), (margin, seed)
                assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", range(2, 65))
def test_bfs_path_matches_the_reference(n):
    for seed in range(6):
        pick = random.Random(seed)
        mid = GridPoint(pick.randint(1, n - 1), pick.randint(1, n - 1))
        ends = GridPoint(mid.x, mid.y - 1), GridPoint(mid.x, mid.y + 1)
        if seed % 2:  # two points anywhere, not a side pair
            ends = tuple(GridPoint(pick.randint(0, n), pick.randint(0, n)) for _ in range(2))
        for forbidden in (set(), {mid} - set(ends)):
            rng, ref = random.Random(seed), random.Random(seed)
            got = generate._bfs_path(n, *ends, rng, forbidden)
            assert list(zip(*got)) == reference_bfs_path(n, *ends, ref, forbidden), seed
            assert rng.getstate() == ref.getstate()


def test_bfs_path_is_none_where_the_reference_finds_no_path():
    # the corner (0, 0) walled off by its two neighbors
    walls = {GridPoint(1, 0), GridPoint(0, 1)}
    src, dst = GridPoint(0, 0), GridPoint(3, 3)
    assert reference_bfs_path(4, src, dst, random.Random(0), walls) is None
    assert generate._bfs_path(4, src, dst, random.Random(0), walls) is None
