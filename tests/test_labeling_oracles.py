"""The labeling's fast paths against plain oracles: the column-run region
count against a cell flood, the per-vertex ring builder against the
per-point one, and the bisection hop against a full scan of both rings."""

import random

from gridjct import jordan
from gridjct.generate import gen_random_curve
from gridjct.grid import GridPoint, pair_code, refine, side_pair
from gridjct.jordan import region_connect, side_sequences

from conftest import rect_curve


# --------------------------------------------------------------------------
# region count: column runs joined by union-find vs a cell flood
# --------------------------------------------------------------------------

def cell_flood_count(grid, h):
    """4-connected components of the zero cells, one cell at a time."""
    w = len(grid) // h
    free = {(x, y) for x in range(w) for y in range(h) if not grid[x * h + y]}
    comps = 0
    while free:
        comps += 1
        stack = [free.pop()]
        while stack:
            x, y = stack.pop()
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q in free:
                    free.remove(q)
                    stack.append(q)
    return comps


def framed_grid(rows):
    """Columns of ``rows`` (strings, '#' blocked, read top row first as the
    highest y) inside a blocked frame; returns the grid and its height."""
    w, h = len(rows[0]) + 2, len(rows) + 2
    grid = bytearray(b"\1" * (w * h))
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            grid[(c + 1) * h + h - 2 - r] = ch == "#"
    return grid, h


def test_run_union_matches_a_cell_flood():
    rng = random.Random(19)
    densities = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8)
    for k in range(2400):
        w, h = rng.randint(3, 15), rng.randint(3, 15)
        p = densities[k % len(densities)]
        grid = bytearray(b"\1" * (w * h))
        for x in range(1, w - 1):
            for y in range(1, h - 1):
                grid[x * h + y] = rng.random() < p
        assert jordan._free_components(grid, h) == cell_flood_count(grid, h), (w, h, bytes(grid))


def test_runs_touching_at_a_corner_stay_apart():
    grid, h = framed_grid(["#.",
                           ".#"])
    assert jordan._free_components(grid, h) == cell_flood_count(grid, h) == 2
    grid, h = framed_grid(["##.",
                           "#..",
                           ".##",
                           "..#"])
    assert jordan._free_components(grid, h) == cell_flood_count(grid, h) == 2
    # one shared height joins them
    grid, h = framed_grid(["#.",
                           ".."])
    assert jordan._free_components(grid, h) == 1


def test_run_union_joins_one_run_to_many():
    # the middle column's one run meets three runs on either side
    grid, h = framed_grid(["...",
                           "#.#",
                           "...",
                           "#.#",
                           "..."])
    assert jordan._free_components(grid, h) == cell_flood_count(grid, h) == 1
    # a loop: the right column's run meets two runs already joined
    grid, h = framed_grid(["...",
                           ".#.",
                           "..."])
    assert jordan._free_components(grid, h) == cell_flood_count(grid, h) == 1
    grid, h = framed_grid([".#.",
                           "###",
                           ".#.",
                           "...",
                           ".#."])
    assert jordan._free_components(grid, h) == cell_flood_count(grid, h) == 3


# --------------------------------------------------------------------------
# ring builder: one table lookup per coarse vertex vs one step per point
# --------------------------------------------------------------------------

def per_point_ring_points(codes, s, side):
    """The ring builder as it was before it walked coarse vertices: each
    refined point looks at its own in and out step."""
    normal = {s: side, -s: -side, 1: -side * s, -1: side * s}
    t = len(codes)
    raw = []
    for i, cur in enumerate(codes):
        din, dout = cur - codes[i - 1], codes[(i + 1) % t] - cur
        nin, nout = normal[din], normal[dout]
        if din == dout:
            raw.append(cur + nin)
        elif dout == nin:
            raw.append(cur + nin + nout)
        else:
            raw += (cur + nin, cur + nin + nout, cur + nout)
    ring = [c for i, c in enumerate(raw) if i == 0 or c != raw[i - 1]]
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return ring


def first_turn(codes, s, side):
    """How the curve turns at its first point, seen from the ring's side."""
    normal = {s: side, -s: -side, 1: -side * s, -1: side * s}
    din, dout = codes[0] - codes[-1], codes[1] - codes[0]
    return "straight" if din == dout else "toward" if dout == normal[din] else "away"


def test_ring_builder_matches_the_per_point_oracle():
    curves = [rect_curve(1, 1, 2, 2, 4), rect_curve(1, 1, 3, 3, 5),
              rect_curve(1, 1, 7, 2, 9), rect_curve(2, 3, 5, 9, 11)]
    curves += [gen_random_curve(n, seed, margin=1) for n in range(3, 17) for seed in range(8)]
    curves += [gen_random_curve(n, seed, margin=1, min_cells=(n - 2) ** 2 // 3)
               for n in range(6, 15) for seed in range(4)]
    seen = set()
    for curve in curves:
        for k in range(len(curve.edges)):  # every vertex once as the first
            codes, s = jordan._refined_codes(curve.rotate(k))
            for side in (1, -1):
                assert jordan._ring_points(codes, s, side) == per_point_ring_points(codes, s, side)
                seen.add((side, first_turn(codes, s, side)))
    assert seen == {(side, turn) for side in (1, -1) for turn in ("straight", "toward", "away")}


# --------------------------------------------------------------------------
# the hop: bisection per column vs a full scan of both rings
# --------------------------------------------------------------------------

def nearest_by_full_scan(p, ring_points):
    """Every ring point at the least Manhattan distance, and the one with the
    least pair code among them."""
    dist = {q: abs(p[0] - q.x) + abs(p[1] - q.y) for q in ring_points}
    d = min(dist.values())
    ties = [q for q in ring_points if dist[q] == d]
    return min(ties, key=lambda q: pair_code(*q)), ties, d


def hop_end(path, ring_points):
    """The first path point on a ring, and how many steps in it is."""
    pts = list(path.points())
    k = next(i for i, q in enumerate(pts) if q in ring_points)
    return pts[k], k


def with_side_pairs(n, count):
    """The first ``count`` seeded curves of assorted sizes that a side pair
    can straddle, each with the curve points it can straddle."""
    found = []
    for seed in range(40):
        curve = gen_random_curve(n, seed, margin=1, min_cells=1 + seed % (n - 2) ** 2)
        on = curve.point_set
        mids = [p for p in sorted(on) if (p.x, p.y - 1) not in on and (p.x, p.y + 1) not in on]
        if mids:
            found.append((curve, mids))
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} seeded curves with a side pair at n={n}")


def test_hop_ends_at_the_nearest_ring_point():
    in_column = across_columns = 0
    for n in range(4, 9):
        for k, (curve, mids) in enumerate(with_side_pairs(n, 3)):
            x, y = mids[k % len(mids)]
            sides = side_pair((3 * x, 3 * y - 1), (3 * x, 3 * y + 1))
            rings = side_sequences(curve)
            ring_points = rings.q1.point_set | rings.q2.point_set
            blocked = refine(curve, 3).point_set
            for p in ((px, py) for px in range(3 * n + 1) for py in range(3 * n + 1)):
                if p in blocked or p in (sides.p1, sides.p2):
                    continue
                want, ties, d = nearest_by_full_scan(p, ring_points)
                assert hop_end(region_connect(curve, p, sides), ring_points) == (want, d), p
                in_column += any(q.x == r.x and q.y < p[1] < r.y for q in ties for r in ties)
                across_columns += len({q.x for q in ties}) > 1
    assert in_column and across_columns


def test_hop_ties_go_to_the_least_pair_code():
    curve = rect_curve(1, 1, 3, 3, 5)  # inner ring: x, y in 4..8
    sides = side_pair((6, 2), (6, 4))
    rings = side_sequences(curve)
    ring_points = rings.q1.point_set | rings.q2.point_set
    # (6, 4) and (6, 8) tie above and below in p's column, (4, 6) and (8, 6)
    # in the columns two away; (6, 4) has the least pair code
    assert hop_end(region_connect(curve, (6, 6), sides), ring_points) == (GridPoint(6, 4), 2)
    # (8, 7) one column right ties (7, 8) in p's column and wins
    assert hop_end(region_connect(curve, (7, 7), sides), ring_points) == (GridPoint(8, 7), 1)
    # a tall box: (4, 9) and (8, 9) tie two columns left and right, nothing
    # in p's column comes as near, and the left one wins
    curve = rect_curve(1, 1, 3, 5, 7)
    rings = side_sequences(curve)
    ring_points = rings.q1.point_set | rings.q2.point_set
    path = region_connect(curve, (6, 9), side_pair((6, 2), (6, 4)))
    assert hop_end(path, ring_points) == (GridPoint(4, 9), 2)
    want, ties, d = nearest_by_full_scan((6, 9), ring_points)
    assert (want, sorted(ties), d) == (GridPoint(4, 9), [(4, 9), (8, 9)], 2)
