"""Alternating sets, arcs, segment taxonomy, and the per-column theorem."""

import itertools
import random

import pytest

from gridjct import alternation
from gridjct.alternation import (
    alternate,
    alternation_lemma_witness,
    check_crossing_condition,
    check_edge_alternation,
    classify_segment,
    column_sets,
    column_sets_from_segments,
    minimal_segments,
    reindex_canonical,
)
from gridjct.errors import InvalidInstance, PreconditionViolation, TheoremViolation
from gridjct.generate import gen_random_curve
from gridjct.grid import DirectedEdge, EdgeSequence, GridPoint

from conftest import rect_curve


def merged_tag_oracle(xs, ys):
    """Independent alternation oracle: sort the union with origin tags and
    demand strict tag alternation."""
    tagged = sorted([(v, "x") for v in xs] + [(v, "y") for v in ys])
    return all(tagged[i][1] != tagged[i + 1][1] for i in range(len(tagged) - 1))


def test_alternate_examples():
    assert alternate({1, 5}, {3})
    assert not alternate({1, 3}, {5, 7})
    assert alternate(set(), set())
    assert alternate(set(), {3})
    # Two same-set members with nothing between them never alternate, even
    # when the other set is empty.
    assert not alternate(set(), {1, 2})
    with pytest.raises(PreconditionViolation):
        alternate({1, 2}, {2, 3})


def test_alternate_matches_oracle_small_exhaustive():
    universe = list(range(8))
    for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
        xs = {v for v, a in zip(universe, assignment) if a == 1}
        ys = {v for v, a in zip(universe, assignment) if a == 2}
        assert alternate(xs, ys) == merged_tag_oracle(xs, ys)


def test_crossing_condition_examples():
    assert not check_crossing_condition([(1, 4), (6, 3)])  # the canonical crossing
    assert check_crossing_condition([(1, 2), (5, 6)])      # disjoint arcs
    assert check_crossing_condition([(1, 6), (2, 5)])      # nested arcs
    with pytest.raises(PreconditionViolation):
        check_crossing_condition([(1, 2), (3, 2)])


def test_lemma_no_two_pair_instance_exists():
    # Enumerating all bijections on 2+2 elements shows the hypotheses are
    # unsatisfiable there: alternation forces a Y element strictly between
    # x1 and x2, and with only two Y elements it must be an endpoint image.
    values = range(10)
    for x1, y1, x2, y2 in itertools.permutations(values, 4):
        xs, ys = {x1, x2}, {y1, y2}
        if x1 >= x2 or not merged_tag_oracle(xs, ys):
            continue
        for img in (((x1, y1), (x2, y2)), ((x1, y2), (x2, y1))):
            f = dict(img)
            if not check_crossing_condition(list(f.items())):
                continue
            assert x1 < f[x1] < x2 or x1 < f[x2] < x2


def test_lemma_witness_smallest_instance():
    # The smallest satisfying shape has three pairs; the unique element of X
    # outside [x1, x2] is the witness.
    xs, ys = {0, 4, 6}, {1, 5, 7}
    f = {0: 5, 4: 1, 6: 7}
    z = alternation_lemma_witness(xs, ys, f, 4, 6)
    assert z == 0 and f[z] == 5


def test_lemma_witness_exhaustive_small():
    # All alternating X, Y of size 3 in a small universe, all non-crossing
    # bijections with the endpoint condition: the witness always checks out.
    universe = list(range(9))
    cases = 0
    for xs in itertools.combinations(universe, 3):
        rest = [v for v in universe if v not in xs]
        for ys in itertools.combinations(rest, 3):
            if not merged_tag_oracle(set(xs), set(ys)):
                continue
            for perm in itertools.permutations(ys):
                f = dict(zip(xs, perm))
                if not check_crossing_condition(list(f.items())):
                    continue
                for x1, x2 in itertools.combinations(sorted(xs), 2):
                    if x1 < f[x1] < x2 or x1 < f[x2] < x2:
                        continue
                    z = alternation_lemma_witness(set(xs), set(ys), f, x1, x2)
                    assert (z < x1 or z > x2) and x1 < f[z] < x2
                    cases += 1
    assert cases > 100


def test_lemma_witness_rejects_crossing():
    with pytest.raises(PreconditionViolation):
        alternation_lemma_witness({1, 6}, {4, 8}, {1: 4, 6: 8}, 1, 6)


@pytest.mark.parametrize("xs,ys,f,x1,x2,condition", [
    ({1, 2}, {5, 6}, {1: 5, 2: 6}, 1, 2, "alternate(X, Y)"),
    ({0, 2}, {1, 3}, {0: 1}, 0, 2, "f is a bijection from X onto Y"),
    ({0, 2, 4}, {1, 3, 5}, {0: 3, 2: 5, 4: 1}, 0, 4, "non-crossing bijection"),
    ({0, 4, 6}, {1, 5, 7}, {0: 5, 4: 1, 6: 7}, 6, 4, "x1 < x2 in X"),
    ({0, 4, 6}, {1, 5, 7}, {0: 5, 4: 1, 6: 7}, 4, 8, "x1 < x2 in X"),
], ids=["not-alternating", "not-onto", "crossing", "x1-after-x2", "x2-outside-X"])
def test_lemma_witness_preconditions(xs, ys, f, x1, x2, condition):
    with pytest.raises(PreconditionViolation) as info:
        alternation_lemma_witness(xs, ys, f, x1, x2)
    assert info.value.condition == condition


def test_lemma_witness_bug_guard_is_a_theorem_violation(monkeypatch):
    # X and Y do not alternate, so no witness exists once that check is lied to
    monkeypatch.setattr(alternation, "alternate", lambda xs, ys: True)
    with pytest.raises(TheoremViolation, match="no witness found"):
        alternation_lemma_witness([1, 2], [3, 4], {1: 4, 2: 3}, 1, 2)


def notched_curve():
    """Rectangle with two notches cut into its right side (x = 4)."""
    pts = [(4, 0), (4, 1), (3, 1), (3, 2), (4, 2), (4, 3), (3, 3), (3, 4), (4, 4),
           (4, 5), (3, 5), (2, 5), (1, 5), (0, 5), (0, 4), (0, 3), (0, 2), (0, 1),
           (0, 0), (1, 0), (2, 0), (3, 0)]
    return EdgeSequence.from_points(pts, 6, "closed")


def test_classify_segments_on_notched_curve():
    seq = reindex_canonical(notched_curve())
    pts = seq.points()
    idx = {p: i for i, p in enumerate(pts)}
    m = 4

    def seg(p, q):
        return classify_segment(seq, idx[GridPoint(*p)], idx[GridPoint(*q)], m)

    # the two notch excursions and the big western loop are minimal
    assert seg((4, 1), (4, 2)) == (True, True, False)
    assert seg((4, 3), (4, 4)) == (True, True, False)
    assert seg((4, 5), (4, 0)) == (True, True, False)
    # runs along the line are entirely-on (and stick)
    assert seg((4, 2), (4, 3)) == (True, False, True)
    assert seg((4, 4), (4, 5)) == (True, False, True)
    # single point on the line sticks but is not minimal
    assert seg((4, 2), (4, 2)) == (True, False, True)
    # an interior point right of the line kills every flag
    inner = classify_segment(seq, idx[GridPoint(3, 1)], idx[GridPoint(3, 3)], 3)
    assert inner == (False, False, False)


@pytest.mark.parametrize("a,b", [(-1, 2), (3, 2), (0, 22)])
def test_classify_segment_rejects_bad_indices(a, b):
    seq = reindex_canonical(notched_curve())  # 22 points
    with pytest.raises(PreconditionViolation, match=f"bad segment indices {a}, {b} \\(t=22\\)"):
        classify_segment(seq, a, b, 4)


def test_minimal_segments_rectangle():
    seq = reindex_canonical(rect_curve(1, 1, 4, 3, 6))
    pts = seq.points()
    right = minimal_segments(seq, 4)
    assert len(right) == 1
    a, b, _ = right[0]
    assert pts[a].x == pts[b].x == 4
    mid = minimal_segments(seq, 2)
    assert len(mid) == 1
    assert minimal_segments(seq, 0) == []
    off_canonical = reindex_canonical(rect_curve(1, 1, 4, 3, 6)).rotate(7)
    with pytest.raises(PreconditionViolation):
        minimal_segments(off_canonical, 2)


def test_minimal_segments_notched():
    seq = reindex_canonical(notched_curve())
    segs = minimal_segments(seq, 4)
    assert len(segs) == 3  # two notches plus the big western loop
    pts = seq.points()
    for a, b, m in segs:
        assert pts[a].x == pts[b].x == 4
        assert all(pts[c].x < 4 for c in range(a + 1, b))
    # pairwise disjoint in index order
    for (a1, b1, _), (a2, b2, _) in zip(segs, segs[1:]):
        assert b1 <= a2


def test_column_sets_rectangle_orientation():
    seq = rect_curve(1, 0, 4, 2, 6)  # counterclockwise
    cols = column_sets(seq, 2)
    assert cols.right_ys == frozenset({0})
    assert cols.left_ys == frozenset({2})
    assert cols.alternates()
    empty = column_sets(seq, 5)
    assert empty.left_ys == empty.right_ys == frozenset()
    assert empty.alternates()
    wide = rect_curve(0, 1, 4, 3, 4)  # from border to border: columns 0 and n - 1
    for m in (0, 3):
        assert column_sets(wide, m) == alternation.ColumnAlternation(m, frozenset({3}),
                                                                     frozenset({1}))


def test_column_sets_dual_route():
    for seed in range(30):
        curve = gen_random_curve(10, seed)
        for m in range(10):
            direct = column_sets(curve, m)
            via_segments = column_sets_from_segments(curve, m)
            assert direct.left_ys == via_segments.left_ys
            assert direct.right_ys == via_segments.right_ys
            # and the column's directed edges, read one by one
            flat = [(a.x, b.x, a.y) for a, b in curve.edges if a.y == b.y]
            assert direct.left_ys == {y for xa, xb, y in flat if (xa, xb) == (m + 1, m)}
            assert direct.right_ys == {y for xa, xb, y in flat if (xa, xb) == (m, m + 1)}


def test_edge_alternation_rectangles_and_random():
    assert check_edge_alternation(rect_curve(0, 0, 3, 3, 5))
    assert check_edge_alternation(notched_curve())
    for seed in range(60):
        assert check_edge_alternation(gen_random_curve(12, seed))


def _edges(*pts):
    return tuple(DirectedEdge(GridPoint(*a), GridPoint(*b)) for a, b in zip(pts, pts[1:]))


def test_edge_alternation_broken_chain():
    # Flat four-edge out-and-back: both directions of each slot in its column.
    flat = EdgeSequence(_edges((0, 0), (1, 0), (2, 0), (1, 0), (0, 0)), 3, "closed")
    assert not check_edge_alternation(flat)


def _alternation_oracle(edges):
    """Edge alternation restated edge by edge: each horizontal edge files its
    row under its column with its direction; a column passes when no row
    points both ways and consecutive rows point opposite ways."""
    columns = {}
    for (x1, y1), (x2, y2) in edges:
        if y1 == y2:
            columns.setdefault(min(x1, x2), {}).setdefault(y1, set()).add(x2 - x1)
    for rows in columns.values():
        dirs = [rows[y] for y in sorted(rows)]
        if any(len(d) > 1 for d in dirs) or any(a == b for a, b in zip(dirs, dirs[1:])):
            return False
    return True


def _revisiting_closed_walk(rng):
    """Points of a seeded closed unit walk on a small grid, ending on its
    start: a random stroll, then a staircase home, so points and edges may
    repeat."""
    while True:
        n = rng.randint(2, 6)
        x, y = start = rng.randint(0, n), rng.randint(0, n)
        pts = [start]
        for _ in range(rng.randint(2, 14)):
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            if 0 <= x + dx <= n and 0 <= y + dy <= n:
                x, y = x + dx, y + dy
                pts.append((x, y))
        for axis in rng.sample((0, 1), 2):
            while (x, y)[axis] != start[axis]:
                step = 1 if (x, y)[axis] < start[axis] else -1
                x, y = (x + step, y) if axis == 0 else (x, y + step)
                pts.append((x, y))
        if len(pts) >= 5:
            return n, pts


def test_edge_alternation_matches_a_per_edge_oracle_on_revisiting_walks():
    rng = random.Random(29)
    verdicts, revisits, retraces = set(), 0, 0
    for _ in range(200):
        n, pts = _revisiting_closed_walk(rng)
        walk = EdgeSequence(_edges(*pts), n, "closed")
        want = _alternation_oracle(walk.edges)
        assert check_edge_alternation(walk) is want, pts
        verdicts.add(want)
        revisits += len(set(pts)) < len(pts) - 1
        retraces += len({frozenset(e) for e in walk.edges}) < len(walk.edges)
    assert verdicts == {True, False} and revisits >= 150 and retraces >= 100


@pytest.mark.parametrize("edges, kind, exc, message", [
    (_edges((0, 0), (1, 0), (0, 0)), "closed", InvalidInstance,
     "closed curve needs at least 4 edges"),
    (_edges((0, 0), (1, 0)) + _edges((1, 1), (0, 1), (0, 0)), "closed", InvalidInstance,
     r"edge 1 does not chain: \(1, 0\) != \(1, 1\)"),
    (_edges((0, 0), (1, 0), (1, 1)), "open", PreconditionViolation, "closed sequence"),
    ((), "closed", PreconditionViolation, "closed sequence"),
], ids=["two-edges", "unchained", "open", "empty"])
def test_edge_alternation_rejects_unchained_or_open_input(edges, kind, exc, message):
    # check_chain names the first break; open or empty input fails the precondition
    with pytest.raises(exc, match=message):
        check_edge_alternation(EdgeSequence(edges, 3, kind))


def sticking_segments(seq, m, cap=400):
    """All index-disjoint candidate segments sticking to x = m (bounded)."""
    pts = seq.points()
    t = len(pts)
    on_line = [i for i in range(t) if pts[i].x == m]
    segs = []
    for ai in range(len(on_line)):
        for bi in range(ai + 1, len(on_line)):
            a, b = on_line[ai], on_line[bi]
            if all(pts[c].x <= m for c in range(a + 1, b)):
                segs.append((a, b))
                if len(segs) >= cap:
                    return segs
            else:
                break  # a later b only adds more interior, still blocked
    return segs


def test_main_lemma_disjoint_sticking_pairs_never_alternate():
    for seed in range(25):
        curve = reindex_canonical(gen_random_curve(10, seed))
        pts = curve.points()
        xs = sorted({p.x for p in pts})
        for m in xs:
            segs = sticking_segments(curve, m)
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    a, b = segs[i]
                    c, d = segs[j]
                    if b > c:  # overlapping index ranges are out of scope
                        continue
                    s1 = {pts[a].y, pts[b].y}
                    s2 = {pts[c].y, pts[d].y}
                    if s1 & s2:
                        continue
                    assert not alternate(s1, s2), (seed, m, segs[i], segs[j])


def test_minimal_subsegments_alternate():
    for seed in range(25):
        curve = reindex_canonical(gen_random_curve(10, seed))
        pts = curve.points()
        for m in sorted({p.x for p in pts}):
            segs = minimal_segments(curve, m)
            starts = {pts[s.a].y for s in segs}
            ends = {pts[s.b].y for s in segs}
            assert alternate(starts, ends)


def test_occupied_columns_form_an_interval():
    for seed in range(40):
        curve = gen_random_curve(12, seed)
        xs = sorted({p.x for p in curve.point_set})
        assert xs == list(range(xs[0], xs[-1] + 1))


@pytest.mark.parametrize("reader", [reindex_canonical, lambda seq: minimal_segments(seq, 1)],
                         ids=["reindex_canonical", "minimal_segments"])
def test_segment_readers_reject_open_sequences(reader):
    with pytest.raises(PreconditionViolation) as exc:
        reader(EdgeSequence.from_points([(0, 0), (1, 0), (1, 1)], 2, "open"))
    assert exc.value.condition == "closed sequence"
