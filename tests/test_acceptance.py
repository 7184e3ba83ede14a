"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance (corpus sizes, index counts, solver
modes) is pinned here.
"""

import itertools
import random
import time

from gridjct.alternation import (
    alternate,
    check_edge_alternation,
    column_sets,
    minimal_segments,
    reindex_canonical,
)
from gridjct.cnf import check_unsat, decode_model, gen_stconn, gen_stseq, solve
from gridjct.errors import InvalidInstance
from gridjct.generate import gen_crossing_instance, gen_random_curve
from gridjct.grid import GridPoint, Instance, connects, intersects, refine, side_pair
from gridjct.jordan import count_regions, find_intersection_seq, region_connect
from gridjct.parity import find_intersection_set, parity_profile
from gridjct.reduce import (
    jct_to_stconn_seq,
    jct_to_stconn_set,
    jct_witness_to_stconn,
    stconn_to_jct_seq,
    stconn_to_jct_set,
)

from conftest import edge_set, flood_components
from test_reduce import staircase_instance


def _report(num, desc, t0):
    print(f"PASS criterion {num}: {desc} [{time.time() - t0:.1f}s]")


def test_criterion_1_jordan_crossing_guarantee():
    t0 = time.time()
    count = 1000
    for seed in range(count):
        n = 6 + (seed % 27)  # n <= 32
        inst = gen_crossing_instance(n, seed)
        bset, rset = inst.blue.to_edge_set(), inst.red.to_edge_set()
        w_set = find_intersection_set(bset, rset, inst.sides)
        w_seq = find_intersection_seq(inst.blue, inst.red, inst.sides)
        shared = {GridPoint(x, y)
                  for x in range(n + 1) for y in range(n + 1)
                  if bset.degree((x, y)) >= 1 and rset.degree((x, y)) >= 1}
        assert shared, seed
        assert w_set.point in shared and w_seq.point in shared
        assert w_set.blue_degree >= 1 and w_set.red_degree >= 1
    _report(1, f"{count} instances, both witness finders confirmed by exhaustive scan", t0)


def test_criterion_2_edge_alternation():
    t0 = time.time()
    count = 1000
    for seed in range(count):
        n = 6 + (seed % 27)
        curve = reindex_canonical(gen_random_curve(n, seed))
        assert check_edge_alternation(curve), seed
        pts = curve.points()
        xs = sorted({p.x for p in pts})
        for m in range(xs[0], xs[-1] + 1):
            direct = column_sets(curve, m)
            assert direct.alternates(), (seed, m)
            segs = minimal_segments(curve, m + 1) if m + 1 <= xs[-1] else []
            assert direct.left_ys == frozenset(pts[s.a].y for s in segs), (seed, m)
            assert direct.right_ys == frozenset(pts[s.b].y for s in segs), (seed, m)
    _report(2, f"{count} curves, every column alternates and matches the "
               "minimal-segment characterization", t0)


def test_criterion_3_exactly_two_regions():
    t0 = time.time()
    count = 500
    rng = random.Random(2024)
    checked = 0
    seed = 0
    while checked < count:
        n = 6 + (seed % 11)  # n <= 16
        curve = gen_random_curve(n, seed, margin=1)
        seed += 1
        assert count_regions(curve) == 2, seed
        p3 = refine(curve, 3)
        comp, ncomp = flood_components(p3.point_set, p3.n)
        assert ncomp == 2
        cset = curve.to_edge_set()
        mids = [p for p in sorted(curve.point_set)
                if cset.degree((p.x, p.y - 1)) == 0 and cset.degree((p.x, p.y + 1)) == 0]
        if mids:
            mid = mids[rng.randrange(len(mids))]
            sides = side_pair((3 * mid.x, 3 * mid.y - 1), (3 * mid.x, 3 * mid.y + 1))
            free = sorted(comp)
            for p in rng.sample(free, 2):
                if p in (sides.p1, sides.p2):
                    continue
                path = region_connect(curve, p, sides)
                if path.edges:
                    assert path.point_set.isdisjoint(p3.point_set)
                    assert path.start == p and path.end in (sides.p1, sides.p2)
                    assert comp[path.end] == comp[p]
        checked += 1
    _report(3, f"{count} curves, flood fill sees exactly 2 regions and "
               "region_connect stays off the curve in the right component", t0)


def _sticking_blocks(pts, m):
    """On-line indices grouped into maximal runs staying left of or on x=m."""
    blocks, cur = [], []
    for i, p in enumerate(pts):
        if p.x > m:
            if len(cur) >= 2:
                blocks.append(cur)
            cur = []
        elif p.x == m:
            cur.append(i)
    if len(cur) >= 2:
        blocks.append(cur)
    return blocks


def _pairs_do_not_alternate(pts, segs, budget):
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a, b = segs[i]
            c, d = segs[j]
            if b >= c:  # the lemma is about strictly disjoint index ranges
                continue
            y1, y2 = sorted((pts[a].y, pts[b].y))
            z1, z2 = sorted((pts[c].y, pts[d].y))
            assert ((y1 < z1 < y2) + (y1 < z2 < y2)) != 1, (segs[i], segs[j])
            budget -= 1
            if budget <= 0:
                return budget
    return budget


def test_criterion_4_segment_lemmas():
    t0 = time.time()
    count = 1000
    for seed in range(count):
        n = 6 + (seed % 27)
        curve = reindex_canonical(gen_random_curve(n, seed))
        pts = curve.points()
        budget = 600
        for m in sorted({p.x for p in pts}):
            # disjoint sticking pairs never alternate endpoint-wise
            segs = [(blk[i], blk[j]) for blk in _sticking_blocks(pts, m)
                    for i in range(len(blk)) for j in range(i + 1, len(blk))]
            budget = _pairs_do_not_alternate(pts, segs[:80], budget)
            # minimal subsegments of every sticking segment alternate
            minimal = minimal_segments(curve, m)
            starts = {pts[s.a].y for s in minimal}
            ends = {pts[s.b].y for s in minimal}
            assert alternate(starts, ends), (seed, m)
            for a, b in segs[:20]:
                sub = [s for s in minimal if a <= s.a and s.b <= b]
                assert alternate({pts[s.a].y for s in sub},
                                 {pts[s.b].y for s in sub}), (seed, m, a, b)
            if budget <= 0:
                break
    _report(4, f"{count} curves, sticking pairs never alternate and minimal "
               "subsegments always do", t0)


def test_criterion_5_reduction_exactness():
    t0 = time.time()
    # the two padding identities, symbolically for every 1 <= l < n <= 32
    for n in range(1, 33):
        assert 8 * n + 4 * n * (4 * n - 2) == 16 * n * n
        for ell in range(1, n):
            assert (2 * ell + 1) * 8 * n + 4 * n * (4 * n - 4 * ell - 2) == 16 * n * n

    checked = 0
    # corner-to-corner -> side-crossing, set and sequence forms
    for seed in range(70):
        n = 2 + (seed % 7)  # n <= 8
        src = staircase_instance(n, seed, "set")
        out = stconn_to_jct_set(src)
        out.validate()
        dx, dy = out.offset
        shifted = {GridPoint(p.x + dx, p.y + dy)
                   for p in (src.blue.points & src.red.points)}
        assert shifted == (out.blue.points & out.red.points)
        checked += 1
    for seed in range(70):
        n = 2 + (seed % 7)
        src = staircase_instance(n, 1000 + seed, "seq")
        out = stconn_to_jct_seq(src)
        out.validate()
        checked += 1

    # side-crossing -> corner-to-corner, set form with witness transport
    for seed in range(40):
        inst = gen_crossing_instance(5 + (seed % 4), seed, avoid_midpoint=True)
        src = Instance(inst.n, "set", inst.blue.to_edge_set(), inst.red.to_edge_set(),
                       inst.sides)
        out = jct_to_stconn_set(src)
        out.validate()
        moved = set()
        for w in sorted(inst.blue.point_set & inst.red.point_set):
            try:
                img = jct_witness_to_stconn(src, w)
            except InvalidInstance:
                continue
            assert img in (out.blue.points & out.red.points)
            moved.add(img)
        assert moved
        checked += 1

    # sequence form: materialized block lengths are exactly 16N^2 (n <= 8
    # instances), edge_at matches materialization at 100 random indices
    rng = random.Random(0)
    for seed in range(20):
        inst = gen_crossing_instance(5 + (seed % 2), seed, avoid_midpoint=True)
        handle = jct_to_stconn_seq(inst)
        out = handle.instance
        out.validate()
        bs = handle.block_size
        assert bs == 16 * handle.n_base ** 2
        for color in ("red", "blue"):
            pre = len(handle._prefix[color]) * handle.factor
            core = handle.core_length(color)
            seq = out.red if color == "red" else out.blue
            core_edges = seq.edges[pre:pre + core]
            n_blocks = len(handle._blocks[color])
            assert len(core_edges) == bs * n_blocks  # every block is 16N^2 long
        for _ in range(100):
            j = rng.randrange(handle.core_length("red"))
            pre = len(handle._prefix["red"]) * handle.factor
            assert handle.edge_at(j, "red") == out.red.edges[pre + j]
        moved = None
        for w in sorted(inst.blue.point_set & inst.red.point_set):
            try:
                moved = jct_witness_to_stconn(inst, w, scale=handle.factor)
            except InvalidInstance:
                continue
            assert moved in (out.blue.point_set & out.red.point_set)
        assert moved is not None
        checked += 1
    assert checked >= 200
    _report(5, f"{checked} reductions: invariants, 16N^2 blocks, edge_at, "
               "witness transport", t0)


def test_criterion_6_tautology_families():
    t0 = time.time()
    assert check_unsat(gen_stconn(2), "exhaustive")  # 2^24 space, pruned
    assert check_unsat(gen_stconn(3), "dpll")
    assert check_unsat(gen_stseq(2), "dpll")
    # weakened variants are satisfiable and decode to genuine crossing objects
    weak_conn = gen_stconn(2, intersection_clauses=False)
    model = solve(weak_conn, "dpll")
    assert model is not None
    blue, red = decode_model(weak_conn, model)
    assert connects(blue, (0, 2), (2, 0)) and connects(red, (0, 0), (2, 2))
    assert intersects(blue, red)
    weak_seq = gen_stseq(2, intersection_clauses=False)
    model = solve(weak_seq, "dpll")
    assert model is not None
    bseq, rseq = decode_model(weak_seq, model)
    bseq.validate()
    rseq.validate()
    assert connects(bseq.to_edge_set(), (0, 2), (2, 0))
    assert connects(rseq.to_edge_set(), (0, 0), (2, 2))
    assert intersects(bseq, rseq)
    _report(6, "stconn(2) exhaustive-UNSAT, stconn(3)/stseq(2) dpll-UNSAT, "
               "weakened variants decode to crossing objects", t0)


def test_criterion_7_oracle_equivalences():
    t0 = time.time()
    # alternate() vs the merged-tag oracle, exhaustive over subsets of {0..10}
    universe = list(range(11))
    for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
        xs = {v for v, a in zip(universe, assignment) if a == 1}
        ys = {v for v, a in zip(universe, assignment) if a == 2}
        tagged = sorted([(v, 0) for v in xs] + [(v, 1) for v in ys])
        oracle = all(tagged[i][1] != tagged[i + 1][1] for i in range(len(tagged) - 1))
        assert alternate(xs, ys) == oracle

    # parity_profile vs an independent double-loop recount on 1000 instances
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(2, 8)
        pool = [((x, y), (x + 1, y)) for x in range(n) for y in range(n + 1)]
        pool += [((x, y), (x, y + 1)) for x in range(n + 1) for y in range(n)]
        blue = edge_set(rng.sample(pool, rng.randint(0, len(pool) // 2)), n)
        red = edge_set(rng.sample(pool, rng.randint(0, len(pool) // 2)), n)
        bits = []
        for k in range(n):
            odd = 0
            for r in red.edges:
                if r.horizontal and r.column == k:
                    below = sum(1 for b in blue.edges
                                if b.horizontal and b.column == k and b.row < r.row)
                    odd ^= below & 1
            bits.append(odd)
        assert parity_profile(blue, red).bits == tuple(bits)

    # exhaustive vs dpll on every suite formula within the exhaustive cap
    small = [gen_stconn(1), gen_stseq(1), gen_stconn(2)]
    for f in small:
        assert f.num_vars <= 26
        assert check_unsat(f, "exhaustive") == check_unsat(f, "dpll")
    _report(7, "alternate/profile/solver oracle equivalences", t0)
