"""Grid primitives: encoding, degrees, predicates, refinement."""

import hashlib
import random
import re

import pytest

from gridjct.alternation import minimal_segments, reindex_canonical
from gridjct.errors import InvalidInstance, PreconditionViolation
from gridjct.grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    Instance,
    check_path,
    column_marks,
    column_slice,
    connects,
    intersects,
    is_curve,
    marks_below,
    on_different_sides,
    pair_code,
    refine,
    rotate_90,
    side_pair,
    translate,
)
from gridjct.generate import gen_crossing_instance, gen_random_curve

from conftest import edge_set, rect_curve, rect_points, rect_set


def test_pair_code_examples():
    assert pair_code(0, 0) == 0
    assert pair_code(1, 0) == 2
    assert pair_code(0, 1) == 4


def test_pair_code_injective_exhaustive():
    codes = {pair_code(x, y) for x in range(65) for y in range(65)}
    assert len(codes) == 65 * 65


def test_edge_canonical_order():
    e1 = Edge.of((1, 0), (0, 0))
    e2 = Edge.of((0, 0), (1, 0))
    assert e1 == e2
    assert e1.a == GridPoint(0, 0)
    with pytest.raises(InvalidInstance):
        Edge.of((0, 0), (2, 0))
    with pytest.raises(InvalidInstance):
        Edge.of((0, 0), (1, 1))


def test_edge_column_and_row():
    h = Edge.of((2, 3), (3, 3))
    assert h.horizontal and h.column == 2 and h.row == 3
    v = Edge.of((2, 3), (2, 4))
    with pytest.raises(PreconditionViolation, match="^vertical edges have no column$"):
        _ = v.column
    with pytest.raises(PreconditionViolation, match="^vertical edges have no row$") as exc:
        _ = v.row
    assert exc.value.condition == "horizontal edge"


def test_degree_examples(unit_square):
    assert unit_square.degree((0, 0)) == 2
    assert edge_set([], 4).degree((1, 1)) == 0
    single = edge_set([((0, 0), (1, 0))], 4)
    assert single.degree((1, 0)) == 1


def test_degree_handshake_random():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 8)
        pool = []
        for x in range(n):
            for y in range(n + 1):
                pool.append(((x, y), (x + 1, y)))
        for x in range(n + 1):
            for y in range(n):
                pool.append(((x, y), (x, y + 1)))
        chosen = rng.sample(pool, rng.randint(0, len(pool) // 2))
        es = edge_set(chosen, n)
        total = sum(es.degree((x, y)) for x in range(n + 1) for y in range(n + 1))
        assert total == 2 * len(es)
        assert all(es.degree((x, y)) <= 4 for x in range(n + 1) for y in range(n + 1))


def test_is_curve_examples(unit_square):
    assert is_curve(unit_square)
    assert not is_curve(edge_set([((0, 0), (1, 0))], 4))
    two_squares = edge_set(list(unit_square) + list(rect_set(2, 2, 3, 3, 4)), 4)
    assert is_curve(two_squares)  # several disjoint loops still qualify
    assert not is_curve(edge_set([], 4))


def test_connects_examples(unit_square):
    single = edge_set([((0, 0), (1, 0))], 4)
    assert connects(single, (0, 0), (1, 0))
    assert not connects(unit_square, (0, 0), (1, 1))
    l_path = edge_set([((0, 0), (1, 0)), ((1, 0), (1, 1))], 4)
    with_loop = edge_set(list(l_path) + list(rect_set(2, 2, 3, 3, 4)), 4)
    assert connects(with_loop, (0, 0), (1, 1))  # disjoint loop allowed
    with pytest.raises(PreconditionViolation):
        connects(single, (0, 0), (0, 0))


def test_intersects_examples(unit_square):
    touching = rect_set(1, 1, 2, 2, 4)  # shares only the point (1,1)
    assert intersects(unit_square, touching)
    far = rect_set(2, 2, 3, 3, 4)
    assert not intersects(unit_square, far)
    assert intersects(unit_square, unit_square)
    with pytest.raises(PreconditionViolation):
        intersects(unit_square, rect_set(1, 1, 2, 2, 9))  # n mismatch


def test_on_different_sides():
    line = edge_set([((x, 2), (x + 1, 2)) for x in range(4)], 4)
    assert on_different_sides(line, (2, 1), (2, 3))
    assert not on_different_sides(line, (2, 1), (2, 2))  # gap of 1
    assert not on_different_sides(line, (0, 0), (0, 2))  # midpoint degree 0
    assert not on_different_sides(line, (0, 1), (0, 3))  # midpoint degree 1


def test_side_pair_geometry():
    sp = side_pair((3, 1), (3, 3))
    assert sp.mid == GridPoint(3, 2)
    with pytest.raises(InvalidInstance):
        side_pair((3, 1), (3, 4))
    with pytest.raises(InvalidInstance):
        side_pair((3, 1), (4, 3))


def _chain_break() -> EdgeSequence:
    """An open path whose second edge does not start where the first ends;
    the plain constructor checks nothing."""
    return EdgeSequence((DirectedEdge(GridPoint(0, 0), GridPoint(1, 0)),
                         DirectedEdge(GridPoint(2, 0), GridPoint(3, 0))), 4, OPEN)


def test_sequence_validation():
    sq = rect_curve(0, 0, 1, 1, 4)
    assert len(sq) == 4 and sq.kind == CLOSED
    with pytest.raises(InvalidInstance):
        EdgeSequence.from_points([(0, 0), (1, 0)], 4, CLOSED)  # t < 4
    with pytest.raises(InvalidInstance):
        _chain_break().validate()
    with pytest.raises(InvalidInstance):  # revisiting open path
        EdgeSequence.from_points([(0, 0), (1, 0), (1, 1), (1, 0)], 4, OPEN)
    err = None
    try:
        _chain_break().validate()
    except InvalidInstance as exc:
        err = exc
    assert err is not None and err.edge_index == 1


# name -> (kind, hand-built [x1, y1, x2, y2] edges on the n = 4 grid, message,
# edge_index).  Edge by edge the checker tests chaining, then bounds, then the
# unit step, so a chain break beats a later bounds fault; the closed-curve
# rules and simplicity come after the last edge.
_FIG8 = [[0, 0, 1, 0], [1, 0, 1, 1], [1, 1, 2, 1], [2, 1, 2, 2],
         [2, 2, 1, 2], [1, 2, 1, 1], [1, 1, 0, 1], [0, 1, 0, 0]]
CHECKER_FAULTS = {
    "empty": (OPEN, [], "empty edge sequence", None),
    "start-out-of-bounds": (OPEN, [[5, 0, 4, 0]], "point (5, 0) outside grid [0,4]^2", 0),
    "out-of-bounds": (OPEN, [[3, 4, 4, 4], [4, 4, 5, 4]], "point (5, 4) outside grid [0,4]^2", 1),
    "diagonal": (OPEN, [[0, 0, 1, 0], [1, 0, 2, 1]], "edge 1 endpoints not adjacent", 1),
    "chain-break": (OPEN, [[0, 0, 1, 0], [2, 0, 3, 0]], "edge 1 does not chain: (1, 0) != (2, 0)", 1),
    "break-beats-later-bounds": (OPEN, [[0, 0, 1, 0], [2, 0, 3, 0], [3, 0, 5, 0]],
                                 "edge 1 does not chain: (1, 0) != (2, 0)", 1),
    "no-return": (CLOSED, _FIG8[:4], "closed sequence does not return to its start", None),
    "closed-3-edges": (CLOSED, _FIG8[:3], "closed sequence does not return to its start", None),
    "closed-2-edges": (CLOSED, [[0, 0, 1, 0], [1, 0, 0, 0]], "closed curve needs at least 4 edges",
                       None),
    "open-revisit": (OPEN, [[0, 0, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0]],
                     "open path revisits a point", None),
    "open-ends-meet": (OPEN, _FIG8[:1] + [[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 0, 0]],
                       "open path revisits a point", None),
    "closed-revisit": (CLOSED, _FIG8, "closed curve revisits a point", None),
    "break-beats-earlier-revisit": (OPEN, [[0, 0, 1, 0], [1, 0, 0, 0], [2, 2, 2, 3]],
                                    "edge 2 does not chain: (0, 0) != (2, 2)", 2),
    "no-return-beats-revisit": (CLOSED, _FIG8[:7], "closed sequence does not return to its start",
                                None),
}


@pytest.mark.parametrize("name", sorted(CHECKER_FAULTS))
def test_validate_and_checked_path_raise_alike(name):
    kind, quads, message, index = CHECKER_FAULTS[name]
    seq = EdgeSequence(tuple(DirectedEdge(GridPoint(x1, y1), GridPoint(x2, y2))
                             for x1, y1, x2, y2 in quads), 4, kind)
    with pytest.raises(InvalidInstance) as validated:
        seq.validate()
    with pytest.raises(InvalidInstance) as streamed:
        check_path(quads, 4, closed=kind == CLOSED)
    for exc in (validated.value, streamed.value):
        assert type(exc) is InvalidInstance
        assert (str(exc), exc.edge_index) == (message, index)


def _random_walk(rng):
    """A seeded unit walk as [x1, y1, x2, y2] edges on a small grid: it may
    revisit, break its chain, take a diagonal or zero step, leave the grid
    or close on its start."""
    n = rng.randint(1, 6)
    x, y = rng.randint(-1, n + 1) if rng.random() < 0.1 else rng.randint(0, n), rng.randint(0, n)
    quads = []
    if rng.random() < 0.3:  # a rectangle, closed on its start
        pts = rect_points(0, 0, rng.randint(1, n), rng.randint(1, n)) if n > 1 else [(0, 0)]
        quads = [[*pts[i], *pts[(i + 1) % len(pts)]] for i in range(len(pts))]
    for _ in range(rng.randint(0 if quads else 1, 10)):
        if quads:
            x, y = quads[-1][2:]
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        r = rng.random()
        if r < 0.04:
            x, y = rng.randint(0, n), rng.randint(0, n)  # a chain break
        elif r < 0.08:
            dx, dy = rng.choice(((1, 1), (0, 0), (2, 0), (0, -2)))
        quads.append([x, y, x + dx, y + dy])
    if quads and rng.random() < 0.2:
        quads.append([*quads[-1][2:], *quads[0][:2]])  # a closing edge, unit or not
    return n, quads


def test_validate_and_check_chain_agree_with_checked_path_on_random_walks():
    # EdgeSequence.accept, the one bulk chain test, is a third checker of simple walks
    rng = random.Random(17)
    verdicts = set()
    for _ in range(4000):
        n, quads = _random_walk(rng)
        coords = [list(c) for c in zip(*quads)] or [[], [], [], []]
        for kind in (OPEN, CLOSED):
            for simple in (True, False):
                seq = EdgeSequence(tuple(DirectedEdge(GridPoint(x1, y1), GridPoint(x2, y2))
                                         for x1, y1, x2, y2 in quads), n, kind)
                check = seq.validate if simple else seq.check_chain

                def accept():
                    assert EdgeSequence.accept(*coords, n, kind) == seq

                got, accepted, want = [], [], []
                for fn, out in ((check, got), (accept if simple else check, accepted),
                                (lambda: check_path(quads, n, closed=kind == CLOSED, simple=simple),
                                 want)):
                    try:
                        fn()
                        out.append("ok")
                    except InvalidInstance as exc:
                        out.append((type(exc), str(exc), exc.edge_index))
                assert got == accepted == want, (n, kind, simple, quads)
                verdicts.add(want[0] if want[0] == "ok" else " ".join(re.findall("[a-z]+", want[0][1])))
    assert verdicts == {"ok", "point outside grid", "edge does not chain", "edge endpoints not adjacent",
                        "open path revisits a point", "closed curve revisits a point",
                        "closed sequence does not return to its start",
                        "closed curve needs at least edges"}


def test_check_path_skips_simplicity_on_request():
    check_path(_FIG8, 4, closed=True, simple=False)  # a revisit is its only fault
    with pytest.raises(InvalidInstance, match="closed curve revisits a point"):
        check_path(_FIG8, 4, closed=True)
    fig8 = EdgeSequence(tuple(DirectedEdge(GridPoint(x1, y1), GridPoint(x2, y2))
                              for x1, y1, x2, y2 in _FIG8), 4, CLOSED)
    assert fig8.check_chain() is fig8  # merge's revisiting chains pass


def test_sequence_edge_set_matches_edge_set_of():
    # the acceptance corpus of criterion 1: the direct build equals the
    # checked one through EdgeSet.of and Edge.of
    for seed in range(1000):
        inst = gen_crossing_instance(6 + seed % 27, seed)
        for seq in (inst.blue, inst.red):
            assert seq.to_edge_set() == EdgeSet.of((e.undirected() for e in seq.edges), seq.n)


def _count_chain_checks(monkeypatch):
    checked = []
    real = EdgeSequence.check_chain

    def counting(self, *args, **kwargs):
        checked.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(EdgeSequence, "check_chain", counting)
    return checked


def test_validate_checks_each_object_once(monkeypatch):
    curve = reindex_canonical(gen_random_curve(12, 3, margin=1))
    checked = _count_chain_checks(monkeypatch)
    for _ in range(3):
        assert curve.validate() is curve
    for m in range(13):
        minimal_segments(curve, m)
    assert len(checked) == 1 and checked[0] is curve
    assert curve.to_edge_set() is curve.to_edge_set()


def test_failed_validation_is_not_remembered():
    broken = _chain_break()
    for _ in range(2):
        with pytest.raises(InvalidInstance):
            broken.validate()


def test_reverse_and_rotate_are_checked_afresh(monkeypatch):
    curve = rect_curve(1, 1, 3, 3, 6)
    checked = _count_chain_checks(monkeypatch)
    curve.validate()
    reversed_curve, rotated = curve.reverse(), curve.rotate(2)
    reversed_curve.validate()
    rotated.validate()
    assert len(checked) == 2
    assert checked[0] is reversed_curve and checked[1] is rotated


def test_sequence_to_set_predicates():
    sq = rect_curve(1, 1, 3, 2, 6)
    assert is_curve(sq.to_edge_set())
    path = EdgeSequence.from_points([(0, 0), (1, 0), (1, 1), (2, 1)], 4, OPEN)
    assert connects(path.to_edge_set(), (0, 0), (2, 1))


def test_refine_identity_and_square():
    sq = rect_curve(0, 0, 1, 1, 4)
    assert refine(sq, 1) is sq
    tripled = refine(sq, 3)
    assert len(tripled) == 12
    assert tripled.n == 12
    tripled.validate()
    assert is_curve(tripled.to_edge_set())


def test_refine_preserves_predicates_random():
    rng = random.Random(7)
    for seed in range(20):
        inst = gen_crossing_instance(8, seed)
        bset = inst.blue.to_edge_set()
        rset = inst.red.to_edge_set()
        for f in (2, 3):
            assert is_curve(refine(bset, f))
            assert connects(refine(rset, f),
                            (f * inst.sides.p1.x, f * inst.sides.p1.y),
                            (f * inst.sides.p2.x, f * inst.sides.p2.y))
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        assert refine(refine(bset, a), b) == refine(bset, a * b)


def test_refine_preserves_non_intersection():
    a = rect_set(0, 0, 1, 1, 6)
    b = rect_set(3, 3, 5, 5, 6)
    assert not intersects(a, b)
    assert not intersects(refine(a, 3), refine(b, 3))


def test_rotate_90():
    sq = rect_set(0, 0, 1, 1, 4)
    rot = rotate_90(sq)
    assert is_curve(rot)
    # (x,y) -> (y, n-x): the square lands against the top edge
    assert GridPoint(0, 4) in rot.points
    seq = rect_curve(0, 0, 1, 1, 4)
    rotate_90(seq).validate()


def _moved_objects():
    """Both colors of seeded crossing instances, in both forms."""
    for n in range(6, 13):
        inst = gen_crossing_instance(n, n)
        yield from (inst.blue, inst.red, inst.blue.to_edge_set(), inst.red.to_edge_set())


def _layout(obj):
    """Every edge as stored, endpoint order included: set edges sorted."""
    if isinstance(obj, EdgeSet):
        return obj.n, sorted(obj.edges)
    return obj.n, obj.kind, obj.edges


def test_rotate_and_translate_outputs_pinned():
    h = hashlib.sha256()
    for obj in _moved_objects():
        h.update(repr((_layout(rotate_90(obj)), _layout(translate(obj, 3, 2, obj.n + 5)))).encode())
    assert h.hexdigest() == "f025306e19086dcbd94778d01977c83fbb4f2154064e8bc9b634a240bdb49261"


def test_rotate_90_keeps_set_edges_ordered_and_four_turns_are_the_identity():
    for obj in _moved_objects():
        turned = obj
        for _ in range(4):
            turned = rotate_90(turned)
            if isinstance(obj, EdgeSet):
                assert all(e.a < e.b for e in turned.edges)
        assert turned == obj


def test_reverse_roundtrip():
    sq = rect_curve(1, 1, 3, 3, 6)
    assert sq.reverse().reverse() == sq
    sq.reverse().validate()


@pytest.mark.parametrize("call, exc, message", [
    (lambda c: Instance(6, "seq", c.blue, None, c.sides).validate(),
     InvalidInstance, 'a crossing instance needs "blue", "red" and "sides"'),
    (lambda c: Instance(6, "set", c.blue, c.red, c.sides).validate(),
     InvalidInstance, "blue payload is not in set form"),
    (lambda c: Instance(7, "seq", c.blue, c.red, c.sides).validate(),
     InvalidInstance, "payload grid parameter mismatch"),
    (lambda c: EdgeSet.of([((0, 0), (1, 0))], 0),
     InvalidInstance, "point (1, 0) outside grid [0,0]^2"),
    (lambda c: EdgeSequence(c.blue.edges, 6, "loop").validate(),
     InvalidInstance, "unknown sequence kind 'loop'"),
    (lambda c: c.red.rotate(1), PreconditionViolation, "only closed sequences rotate"),
    (lambda c: refine(c.blue, 0), PreconditionViolation, "precondition violated: factor >= 1"),
], ids=["instance-incomplete", "instance-wrong-form", "instance-wrong-n", "set-out-of-bounds",
        "unknown-kind", "rotate-open", "refine-by-0"])
def test_grid_objects_reject_bad_input_by_name(call, exc, message):
    # c: a valid n = 6 crossing instance in sequence form
    with pytest.raises(exc) as info:
        call(gen_crossing_instance(6, 1))
    assert str(info.value) == message


def test_column_marks_agree_across_forms():
    # a checked sequence and its edge set index the same (column, row) pairs; the
    # sequence's steps give the direction, the set's are all 1
    for n, seed in [(6, 0), (12, 3), (25, 7), (40, 1)]:
        for seq in (gen_random_curve(n, seed), gen_crossing_instance(n, seed).red):
            seq_marks, set_marks = column_marks(seq), column_marks(seq.to_edge_set())
            assert [m[:2] for m in seq_marks] == [m[:2] for m in set_marks]
            assert {m[2] for m in set_marks} <= {1}
            for (x1, y1), (x2, y2) in seq.edges:
                if y1 == y2:
                    assert (min(x1, x2), y1, x2 - x1) in seq_marks
            if seq.kind == CLOSED:
                assert {m[2] for m in seq_marks} == {-1, 1}
            assert seq_marks == sorted(seq_marks)


def test_column_marks_list_each_directed_edge_once():
    # a revisiting chain, as the merge diagnostics feed it: (0,0)->(1,0) three times,
    # (1,0)->(0,0) three times, and a vertical excursion with no mark
    pts = [(0, 0), (1, 0), (0, 0), (1, 0), (1, 1), (1, 0), (0, 0), (1, 0), (0, 0)]
    walk = EdgeSequence(tuple(DirectedEdge(GridPoint(*a), GridPoint(*b))
                              for a, b in zip(pts, pts[1:])), 2, CLOSED)
    assert column_marks(walk) == [(0, 0, -1), (0, 0, 1)]
    assert column_marks(walk.to_edge_set()) == [(0, 0, 1)]
    assert column_marks(EdgeSequence.from_points([(0, 0), (0, 1), (0, 2)], 2, OPEN)) == []
    assert column_marks(EdgeSet(frozenset(), 2)) == []


def test_column_slice_and_marks_below():
    curve = rect_curve(0, 1, 2, 4, 5)  # columns 0 and 1 hold rows 1 and 4; 2..4 are empty
    marks = column_marks(curve)
    assert column_slice(marks, 0) == [(0, 1, 1), (0, 4, -1)]
    assert column_slice(marks, 1) == [(1, 1, 1), (1, 4, -1)]
    assert column_slice(marks, 2) == column_slice(marks, 7) == []
    assert [marks_below(marks, 1, row) for row in range(6)] == [0, 0, 1, 1, 1, 2]
    assert marks_below(marks, 2, 5) == marks_below([], 0, 3) == 0
