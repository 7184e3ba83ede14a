"""Odd edges, parity profiles, the column sweep, normalization, witnesses."""

import itertools
import random

import pytest

from gridjct import parity
from gridjct.errors import PreconditionViolation, TheoremViolation
from gridjct.grid import (
    OPEN,
    Edge,
    EdgeSequence,
    GridPoint,
    Instance,
    check_crossing,
    connects,
    intersects,
    is_curve,
    on_different_sides,
    side_pair,
)
from gridjct.generate import gen_crossing_instance, gen_random_curve
from gridjct.parity import (
    approaches_from_left,
    check_parity_lemma,
    column_transition_parities,
    find_intersection_set,
    is_odd_edge,
    normalize_instance,
    parity_profile,
)

from conftest import edge_set, rect_set


def brute_odd(blue, e):
    """Independent double-loop recount of the odd-edge predicate."""
    count = 0
    for b in blue.edges:
        if b.horizontal and e.horizontal and b.column == e.column and b.row < e.row:
            count += 1
    return count % 2 == 1


def brute_profile(blue, red):
    """Independent recount of the per-column odd-edge parities."""
    bits = []
    for k in range(blue.n):
        odd = 0
        for r in red.edges:
            if r.horizontal and r.column == k and brute_odd(blue, r):
                odd ^= 1
        bits.append(odd)
    return tuple(bits)


def random_edge_sets(rng, n):
    pool = [((x, y), (x + 1, y)) for x in range(n) for y in range(n + 1)]
    pool += [((x, y), (x, y + 1)) for x in range(n + 1) for y in range(n)]
    blue = edge_set(rng.sample(pool, rng.randint(0, len(pool) // 2)), n)
    red = edge_set(rng.sample(pool, rng.randint(0, len(pool) // 2)), n)
    return blue, red


def test_is_odd_edge_examples():
    blue = edge_set([((2, 1), (3, 1))], 6)
    assert is_odd_edge(blue, Edge.of((2, 3), (3, 3)))
    assert not is_odd_edge(blue, Edge.of((2, 0), (3, 0)))
    with pytest.raises(PreconditionViolation):
        is_odd_edge(blue, Edge.of((2, 0), (2, 1)))


def test_figure_configuration_exactly_one_odd():
    # Horizontal curve run through the midpoint row; the two red end edges
    # flank it one row below and one row above, in the same column.
    blue = edge_set([((x, 2), (x + 1, 2)) for x in range(5)], 6)
    r1 = Edge.of((1, 1), (2, 1))
    r2 = Edge.of((1, 3), (2, 3))
    assert is_odd_edge(blue, r1) != is_odd_edge(blue, r2)
    assert is_odd_edge(blue, r2)


def scan_odd(blue, r):
    """The odd-edge test as a scan of every blue edge, for one horizontal ``r``:
    the library's body before the column index."""
    k, yy = r.column, r.row
    count = sum(1 for b in blue.edges if b.horizontal and b.column == k and b.row < yy)
    return count % 2 == 1


def test_is_odd_edge_matches_the_scan():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 8)
        blue, _ = random_edge_sets(rng, n)
        for x in range(n):
            for y in range(n + 1):
                r = Edge.of((x, y), (x + 1, y))
                assert is_odd_edge(blue, r) == scan_odd(blue, r)
    for n in range(6, 13):  # a sequence-form blue, against the scan of its edge set
        blue = gen_crossing_instance(n, n).blue
        for x in range(n):
            for y in range(n + 1):
                r = Edge.of((x, y), (x + 1, y))
                assert is_odd_edge(blue, r) == scan_odd(blue.to_edge_set(), r)


def _seq_pairs():
    """Sequence-form (blue, red) pairs for n = 6..40: each crossing instance, and
    two random curves, the second read as red."""
    for n in range(6, 41):
        inst = gen_crossing_instance(n, n)
        yield inst.blue, inst.red
        yield gen_random_curve(n, n), gen_random_curve(n, n + 1)


def test_profile_is_the_same_in_both_forms():
    for blue, red in _seq_pairs():
        bits = parity_profile(blue, red).bits
        assert bits == parity_profile(blue.to_edge_set(), red.to_edge_set()).bits
        if blue.n <= 16:
            assert bits == brute_profile(blue.to_edge_set(), red.to_edge_set())


def test_profile_empty_red_and_margins():
    blue = rect_set(1, 1, 3, 3, 6)
    empty = edge_set([], 6)
    assert parity_profile(blue, empty).bits == (0,) * 6
    red = edge_set([((2, 4), (3, 4)), ((2, 5), (2, 4))], 6)
    bits = parity_profile(blue, red).bits
    assert bits[0] == 0 and bits[5] == 0  # nothing lives in the margin columns


def test_profile_against_double_loop_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        blue, red = random_edge_sets(rng, n)
        assert parity_profile(blue, red).bits == brute_profile(blue, red)


def test_profile_oracle_exhaustive_single_edge_family():
    # Exhaustive crafted family: every single-blue-edge, single-red-edge
    # combination on a small grid agrees with the double-loop recount.
    n = 4
    pool = [((x, y), (x + 1, y)) for x in range(n) for y in range(n + 1)]
    pool += [((x, y), (x, y + 1)) for x in range(n + 1) for y in range(n)]
    for b in pool:
        blue = edge_set([b], n)
        for r in pool:
            red = edge_set([r], n)
            assert parity_profile(blue, red).bits == brute_profile(blue, red)


def test_profile_domino_invariance():
    # Adding a pair of horizontal blue edges in one column flips exactly the
    # red edges whose height falls in the half-open window between them, so
    # the profile is invariant iff that window holds evenly many red edges.
    rng = random.Random(9)
    checked_same = checked_flip = 0
    while checked_same < 20 or checked_flip < 20:
        n = rng.randint(3, 8)
        blue, red = random_edge_sets(rng, n)
        k = rng.randrange(n)
        free = sorted(set(range(n + 1))
                      - {e.row for e in blue.edges if e.horizontal and e.column == k})
        red_rows = sorted(e.row for e in red.edges if e.horizontal and e.column == k)
        pairs = [(y1, y2) for i, y1 in enumerate(free) for y2 in free[i + 1:]]
        if not pairs:
            continue
        y1, y2 = rng.choice(pairs)
        window = sum(1 for y in red_rows if y1 < y <= y2)
        grown = edge_set(list(blue.edges) + [((k, y1), (k + 1, y1)), ((k, y2), (k + 1, y2))], n)
        before = parity_profile(blue, red).bits
        after = parity_profile(grown, red).bits
        assert all(before[j] == after[j] for j in range(n) if j != k)
        if window % 2 == 0:
            assert after[k] == before[k]
            checked_same += 1
        else:
            assert after[k] != before[k]
            checked_flip += 1


def brute_sweep(blue, red, k):
    """Independent reconstruction of the staircase lists and odd recount."""
    n = blue.n

    def h(col, yy):
        return Edge.of((col, yy), (col + 1, yy))

    def v(x, yy):
        return Edge.of((x, yy), (x, yy + 1))

    out = []
    for j in range(n + 2):
        if j == 0:
            items = [h(k, yy) for yy in range(n + 1)]
        elif j == n + 1:
            items = [h(k + 1, yy) for yy in range(n + 1)]
        else:
            items = [h(k + 1, yy) for yy in range(j)] + [v(k + 1, j - 1)] \
                + [h(k, yy) for yy in range(j, n + 1)]
        odd = 0
        for pos, e in enumerate(items):
            if e in red.edges:
                preceding_blue = sum(1 for f in items[:pos] if f in blue.edges)
                if preceding_blue % 2 == 1:
                    odd ^= 1
        out.append(odd)
    return out


def test_column_sweep_matches_profile_transitions():
    rng = random.Random(3)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 7)
        blue, red = random_edge_sets(rng, n)
        cases += [(blue, red, k) for k in sorted({rng.randrange(n - 1), 0, n - 2})]
    for n in range(6, 10):  # every boundary of normalized crossing instances
        for seed in range(3):
            inst = gen_crossing_instance(n, seed)
            blue, red, _ = normalize_instance(*_as_sets(inst), inst.sides)
            cases += [(blue, red, k) for k in range(blue.n - 1)]
    for blue, red in itertools.islice(_seq_pairs(), 6):  # sequence form
        cases += [(blue, red, k) for k in range(blue.n - 1)]
    for blue, red, k in cases:
        bits = parity_profile(blue, red).bits
        sweep = column_transition_parities(blue, red, k)
        assert len(sweep) == blue.n + 2
        assert sweep[0] == bits[k]
        assert sweep[-1] == bits[k + 1]
        assert sweep == brute_sweep(blue.to_edge_set(), red.to_edge_set(), k)


def _as_sets(inst):
    return inst.blue.to_edge_set(), inst.red.to_edge_set()


def test_normalize_postconditions():
    for seed in range(30):
        inst = gen_crossing_instance(8, seed)
        blue, red = _as_sets(inst)
        b2, r2, s2 = normalize_instance(blue, red, inst.sides)
        assert b2.n == r2.n == 2 * inst.n + 4
        assert is_curve(b2)
        assert connects(r2, s2.p1, s2.p2)
        assert on_different_sides(b2, s2.p1, s2.p2)
        assert approaches_from_left(r2, s2)
        assert intersects(b2, r2) == intersects(blue, red)
        assert 2 <= s2.mid.x <= b2.n - 2
        cols = {e.column for e in b2.edges | r2.edges if e.horizontal}
        xs = {p.x for p in b2.points | r2.points}
        assert all(2 <= x <= b2.n - 2 for x in xs)
        assert all(2 <= k <= b2.n - 3 for k in cols)


def test_normalize_already_from_left_degenerates():
    # Both ends already approach from the left: only the doubled-scale trims
    # and two-edge hooks remain of the C-shapes.
    blue = rect_set(2, 2, 6, 4, 8)
    walk = [(4, 1), (3, 1), (3, 2), (3, 3), (4, 3)]
    red = edge_set([(walk[i], walk[i + 1]) for i in range(len(walk) - 1)], 8)
    from gridjct.grid import side_pair
    sides = side_pair((4, 1), (4, 3))
    assert approaches_from_left(red, sides)
    b2, r2, s2 = normalize_instance(blue, red, sides)
    assert approaches_from_left(r2, s2)
    assert connects(r2, s2.p1, s2.p2)
    assert on_different_sides(b2, s2.p1, s2.p2)
    assert intersects(b2, r2) and intersects(blue, red)
    # trims replace one doubled half-edge per end with a two-edge hook
    assert len(r2) == 2 * len(red) + 2


def test_normalize_degenerate_short_path():
    # Path p1 -> mid -> p2 straight through the curve: both ends arrive via the
    # midpoint, the all-cases corner of the end fix.
    blue = rect_set(1, 2, 5, 4, 8)
    mid = GridPoint(3, 4)
    red = edge_set([((3, 3), (3, 4)), ((3, 4), (3, 5))], 8)
    from gridjct.grid import side_pair
    sides = side_pair((3, 3), (3, 5))
    assert on_different_sides(blue, sides.p1, sides.p2)
    b2, r2, s2 = normalize_instance(blue, red, sides)
    assert connects(r2, s2.p1, s2.p2)
    assert approaches_from_left(r2, s2)
    assert intersects(b2, r2)  # it already intersected at the midpoint


def _mk_instance(walk, n=8):
    red = edge_set([(walk[i], walk[i + 1]) for i in range(len(walk) - 1)], n)
    from gridjct.grid import side_pair
    return rect_set(2, 2, 6, 4, n), red, side_pair(walk[0], walk[-1])


def test_approaches_from_left_is_false_on_the_left_border_and_from_the_right():
    red = edge_set([((0, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (0, 3))], 8)
    assert not approaches_from_left(red, side_pair((0, 1), (0, 3)))
    _, red, sides = _mk_instance([(4, 1), (5, 1), (5, 2), (5, 3), (4, 3)])
    assert not approaches_from_left(red, sides)
    _, red, sides = _mk_instance([(4, 1), (3, 1), (3, 2), (3, 3), (3, 4), (4, 4), (4, 3)])
    assert not approaches_from_left(red, sides)  # p1 from the left, p2 from above


def test_normalize_arrival_from_right_both_ends():
    blue, red, sides = _mk_instance([(4, 1), (5, 1), (5, 2), (5, 3), (4, 3)])
    b2, r2, s2 = normalize_instance(blue, red, sides)
    assert approaches_from_left(r2, s2)
    assert connects(r2, s2.p1, s2.p2)
    assert intersects(b2, r2) == intersects(blue, red)


def test_normalize_arrival_via_midpoint_with_left_edge():
    # The red path reaches the lower side point downward through the midpoint
    # whose other red edge points left: the long rerouting case.
    blue, red, sides = _mk_instance([(4, 3), (3, 3), (3, 2), (4, 2), (4, 1)])
    assert sides.p1 == GridPoint(4, 3) and sides.p2 == GridPoint(4, 1)
    b2, r2, s2 = normalize_instance(blue, red, sides)
    assert approaches_from_left(r2, s2)
    assert connects(r2, s2.p1, s2.p2)
    assert on_different_sides(b2, s2.p1, s2.p2)
    assert intersects(b2, r2)  # it already touched the curve


def test_normalize_arrival_away_from_curve():
    blue, red, sides = _mk_instance(
        [(4, 1), (4, 0), (3, 0), (2, 0), (1, 0), (1, 1), (1, 2), (1, 3),
         (1, 4), (1, 5), (2, 5), (3, 5), (4, 5), (4, 4), (4, 3)])
    b2, r2, s2 = normalize_instance(blue, red, sides)
    assert approaches_from_left(r2, s2)
    assert connects(r2, s2.p1, s2.p2)
    assert intersects(b2, r2) == intersects(blue, red)


def test_parity_lemma_reports_break_somewhere():
    # Valid instances necessarily intersect, so the single-flip profile shape
    # cannot fully hold: part a fails, or part b fails at some column.
    for seed in range(40):
        inst = gen_crossing_instance(8, seed)
        blue, red = _as_sets(inst)
        b2, r2, s2 = normalize_instance(blue, red, inst.sides)
        report = check_parity_lemma(b2, r2, s2)
        assert not report.holds
        if report.part_a:
            assert report.part_b_violations


def test_parity_lemma_precondition_names():
    inst = gen_crossing_instance(8, 0)
    blue, red = _as_sets(inst)
    with pytest.raises(PreconditionViolation) as exc:
        check_parity_lemma(edge_set([((0, 0), (1, 0))], inst.n), red, inst.sides)
    assert "is_curve" in exc.value.condition


@pytest.mark.parametrize("instance, condition", [
    (lambda: _mk_instance([(4, 1), (5, 1), (5, 2), (5, 3), (4, 3)]),
     "red path approaches p1, p2 from the left"),
    # side points on column 1, approached from the left border
    (lambda: (rect_set(0, 2, 4, 5, 8),
              edge_set([((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (0, 3)), ((0, 3), (1, 3))], 8),
              side_pair((1, 1), (1, 3))),
     "2 <= m <= n-2"),
], ids=["approach-from-right", "mid-column-1"])
def test_parity_lemma_rejects_unnormalized_instances(instance, condition):
    with pytest.raises(PreconditionViolation) as exc:
        check_parity_lemma(*instance())
    assert exc.value.condition == condition


@pytest.mark.parametrize("k", [-1, 7])
def test_column_sweep_rejects_k_out_of_range(k):
    blue, red = _as_sets(gen_crossing_instance(8, 0))
    with pytest.raises(PreconditionViolation) as exc:
        column_transition_parities(blue, red, k)
    assert exc.value.condition == "0 <= k <= n-2"


def _broken_crossings(inst):
    """One sequence-form instance per crossing condition, each breaking only it."""
    n = inst.n
    opened = EdgeSequence(inst.blue.edges[:-1], n, OPEN)  # a simple path, not a curve
    short = EdgeSequence(inst.red.edges[:-1], n, OPEN)  # stops before p2
    outside = side_pair((0, 0), (0, 2))  # the curve keeps off column 0
    joined = EdgeSequence.from_points([(0, 0), (0, 1), (0, 2)], n, OPEN)
    return [("is_curve(B)", opened, inst.red, inst.sides),
            ("connects(R, p1, p2)", inst.blue, short, inst.sides),
            ("on_different_sides(B, p1, p2)", inst.blue, joined, outside)]


def test_crossing_check_names_the_same_condition_in_both_forms():
    inst = gen_crossing_instance(8, 0)
    for condition, blue, red, sides in _broken_crossings(inst):
        for form, b, r in (("seq", blue, red), ("set", blue.to_edge_set(), red.to_edge_set())):
            checks = [check_crossing, find_intersection_set,
                      lambda b, r, s: Instance(inst.n, form, b, r, s).validate()]
            if form == "set":
                checks += [normalize_instance, check_parity_lemma]
            for check in checks:
                with pytest.raises(PreconditionViolation) as exc:
                    check(b, r, sides)
                assert exc.value.condition == condition


def test_find_intersection_examples_and_scan():
    # Square around the midpoint, straight vertical path through it.
    blue = rect_set(2, 2, 4, 4, 6)
    red = edge_set([((3, 1), (3, 2)), ((3, 2), (3, 3))], 6)
    from gridjct.grid import side_pair
    sides = side_pair((3, 1), (3, 3))
    w = find_intersection_set(blue, red, sides)
    assert w.point in blue.points and w.point in red.points
    assert w.blue_degree >= 1 and w.red_degree >= 1


def test_find_intersection_random_confirmed_exhaustively():
    for seed in range(50):
        inst = gen_crossing_instance(10, seed)
        blue, red = _as_sets(inst)
        w = find_intersection_set(blue, red, inst.sides)
        shared = [GridPoint(x, y) for x in range(inst.n + 1) for y in range(inst.n + 1)
                  if blue.degree((x, y)) >= 1 and red.degree((x, y)) >= 1]
        assert w.point in shared and shared


def test_find_intersection_point_sharing_counts():
    # Red passes through a curve point without sharing any edge: the vertical
    # red edges cross the horizontal curve edges at the bottom-side midpoint.
    blue = rect_set(2, 2, 4, 4, 8)
    red = edge_set([((3, 1), (3, 2)), ((3, 2), (3, 3))], 8)
    from gridjct.grid import side_pair
    sides = side_pair((3, 1), (3, 3))
    w = find_intersection_set(blue, red, sides)
    assert w.point == GridPoint(3, 2)
    assert w.blue_degree == 2 and w.red_degree == 2
    assert not any(e in blue.edges for e in red.edges)


def _mirrored_end_routes(monkeypatch):
    """Normalization with its end routes mirrored left to right: each red end
    then arrives from the right."""
    real = parity.left_approach_route
    monkeypatch.setattr(parity, "left_approach_route", lambda end, s, from_left: [
        GridPoint(2 * end.x - p.x, p.y) for p in real(end, s, from_left)])
    normalize_instance(*_mk_instance([(4, 1), (5, 1), (5, 2), (5, 3), (4, 3)]))


def _unchecked_disjoint_pair(monkeypatch):
    """A curve and a path that share no point, past a crossing check that
    passes everything."""
    monkeypatch.setattr(parity, "check_crossing", lambda *a: None)
    red = edge_set([((7, 1), (7, 2)), ((7, 2), (7, 3))], 8)
    find_intersection_set(rect_set(2, 2, 4, 4, 8), red, side_pair((7, 1), (7, 3)))


# name -> (trigger, message of the TheoremViolation it raises)
BUG_GUARDS = {
    "normalization": (_mirrored_end_routes, "normalization produced an inconsistent instance"),
    "no-shared-point": (_unchecked_disjoint_pair, "no shared grid point found on a valid instance"),
}


@pytest.mark.parametrize("name", sorted(BUG_GUARDS))
def test_bug_guards_fire(monkeypatch, name):
    trigger, message = BUG_GUARDS[name]
    with pytest.raises(TheoremViolation, match=message) as exc:
        trigger(monkeypatch)
    assert type(exc.value) is TheoremViolation and str(exc.value).endswith("(bug)")
