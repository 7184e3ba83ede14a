"""The four reductions: structure, witness transport, expansion arithmetic."""

import random

import pytest

from gridjct import reduce as reductions
from gridjct.cli import main
from gridjct.errors import InvalidInstance, PreconditionViolation, TheoremViolation
from gridjct.generate import gen_crossing_instance
from gridjct.grid import (
    OPEN,
    DirectedEdge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    Instance,
    connects,
    is_curve,
    on_different_sides,
)
from gridjct.jsonio import save_instance
from gridjct.reduce import (
    StConnInstance,
    _centering,
    _comb,
    _connector,
    _edge_quarter,
    _polyline,
    _reflect,
    _reflect_color_set,
    edge_at,
    jct_to_stconn_seq,
    jct_to_stconn_set,
    jct_witness_to_stconn,
    stconn_to_jct,
)


def staircase_instance(n, seed, form):
    """Random monotone corner-to-corner paths (they necessarily cross)."""
    rng = random.Random(seed)

    def monotone(start, dx, dy):
        pts = [start]
        x, y = start
        while (x, y) != (start[0] + dx * n, start[1] + dy * n):
            moves = []
            if abs(x - start[0]) < n:
                moves.append((dx, 0))
            if abs(y - start[1]) < n:
                moves.append((0, dy))
            mx, my = rng.choice(moves)
            x, y = x + mx, y + my
            pts.append((x, y))
        return EdgeSequence.from_points(pts, n, OPEN)

    blue = monotone((0, n), 1, -1)
    red = monotone((0, 0), 1, 1)
    if form == "set":
        return StConnInstance(n=n, blue=blue.to_edge_set(), red=red.to_edge_set()).validate()
    return StConnInstance(n=n, blue=blue, red=red).validate()


def shared_points(inst):
    if inst.form == "set":
        return inst.blue.points & inst.red.points
    return inst.blue.point_set & inst.red.point_set


def test_stconn_to_jct_set_structure_and_witnesses():
    for seed in range(25):
        n = random.Random(seed).randint(2, 7)
        src = staircase_instance(n, seed, "set")
        out = stconn_to_jct(src)
        assert out.n == n + 2
        assert is_curve(out.blue)
        assert connects(out.red, out.sides.p1, out.sides.p2)
        assert on_different_sides(out.blue, out.sides.p1, out.sides.p2)
        assert len(out.blue) == len(src.blue) + 2 * n + 6
        # every input witness survives at the shifted point, and every output
        # witness comes from an input one
        dx, dy = out.offset
        src_shift = {GridPoint(p.x + dx, p.y + dy) for p in shared_points(src)}
        out_shared = shared_points(out)
        assert src_shift and src_shift <= out_shared
        assert out_shared == src_shift  # the added machinery never touches


def test_stconn_to_jct_set_added_groups_explicit():
    # The four added blue groups and the red extensions, written out verbatim
    # (before the +1 y-shift): one step up from the blue start, the top row,
    # the right column, two bottom edges; red gets the bottom row plus the
    # right-hand connector column.
    from gridjct.grid import Edge
    n = 3
    src = staircase_instance(n, 0, "set")
    out = stconn_to_jct(src)

    def shift(a, b):
        return Edge.of((a[0], a[1] + 1), (b[0], b[1] + 1))

    blue_groups = [shift((0, n), (0, n + 1))]
    blue_groups += [shift((i, n + 1), (i + 1, n + 1)) for i in range(n + 2)]
    blue_groups += [shift((n + 2, j + 1), (n + 2, j)) for j in range(n + 1)]
    blue_groups += [shift((n + 1, 0), (n, 0)), shift((n + 2, 0), (n + 1, 0))]
    red_groups = [shift((0, -1), (0, 0))]
    red_groups += [shift((i + 1, -1), (i, -1)) for i in range(n + 1)]
    red_groups += [shift((n, n), (n + 1, n))]
    red_groups += [shift((n + 1, i + 1), (n + 1, i)) for i in range(1, n)]

    shifted_blue = {Edge.of((e.a.x, e.a.y + 1), (e.b.x, e.b.y + 1)) for e in src.blue}
    shifted_red = {Edge.of((e.a.x, e.a.y + 1), (e.b.x, e.b.y + 1)) for e in src.red}
    assert set(out.blue.edges) == shifted_blue | set(blue_groups)
    assert set(out.red.edges) == shifted_red | set(red_groups)


def test_stconn_to_jct_seq_matches_set_version():
    for seed in range(15):
        n = random.Random(1000 + seed).randint(2, 6)
        src = staircase_instance(n, seed, "seq")
        out = stconn_to_jct(src)
        out.blue.validate()
        out.red.validate()
        assert len(out.blue) == len(src.blue) + 2 * n + 6
        src_set = StConnInstance(n=n, blue=src.blue.to_edge_set(),
                                 red=src.red.to_edge_set()).validate()
        out_set = stconn_to_jct(src_set)
        assert out.blue.to_edge_set() == out_set.blue
        assert out.red.to_edge_set() == out_set.red


def _jct_set(inst):
    return Instance(inst.n, "set", inst.blue.to_edge_set(), inst.red.to_edge_set(),
                    inst.sides)


def test_reflection_is_an_involution():
    inst = gen_crossing_instance(8, 0, avoid_midpoint=True)
    big_n, dx, dy = _centering(_jct_set(inst))
    rng = random.Random(0)
    for q in "BLTR":
        for _ in range(50):
            p = GridPoint(rng.randint(0, 2 * big_n), rng.randint(0, 2 * big_n))
            assert _reflect(q, _reflect(q, p, big_n), big_n) == p


def test_jct_to_stconn_set_structure():
    for seed in range(25):
        inst = gen_crossing_instance(8, seed, avoid_midpoint=True)
        src = _jct_set(inst)
        out = jct_to_stconn_set(src)
        n2 = out.n
        assert connects(out.blue, GridPoint(0, n2), GridPoint(n2, 0))
        assert connects(out.red, GridPoint(0, 0), GridPoint(n2, n2))


def test_jct_to_stconn_set_witness_transport():
    for seed in range(25):
        inst = gen_crossing_instance(8, seed, avoid_midpoint=True)
        src = _jct_set(inst)
        out = jct_to_stconn_set(src)
        out_shared = shared_points(out)
        transported = set()
        for w in sorted(shared_points(src)):
            try:
                img = jct_witness_to_stconn(src, w)
            except InvalidInstance:
                continue  # tangent-tangent diagonal sharing: not transportable
            assert img in out_shared
            transported.add(img)
        assert transported  # generated instances always carry one


def test_jct_to_stconn_set_adds_no_new_contact():
    # Every shared output point is explained by a shared input point: either
    # a common-quarter image, or the overlapping connectors of a point both
    # colors cross.  The added machinery itself never creates contact.
    from gridjct.reduce import _edge_quarter, _strict_quarter
    from gridjct.grid import translate
    for seed in range(15):
        inst = gen_crossing_instance(7, seed, avoid_midpoint=True)
        src = _jct_set(inst)
        out = jct_to_stconn_set(src)
        big_n, dx, dy = _centering(src)
        blue_big = translate(src.blue, dx, dy, out.n)
        red_big = translate(src.red, dx, dy, out.n)
        expected = set()
        for w in sorted(blue_big.points & red_big.points):
            def quarters(es):
                return {_edge_quarter(e.a, e.b, big_n)
                        for e in es.edges if w in (e.a, e.b)}
            bq, rq = quarters(blue_big), quarters(red_big)
            for q in bq & rq:
                expected.add(_reflect(q, w, big_n))
            if len(bq) == 2 and len(rq) == 2 and _strict_quarter(w, big_n) is None:
                for e in _connector(w, *bq, big_n):
                    expected.update(e)
        assert (out.blue.points & out.red.points) == expected


@pytest.mark.parametrize("big_n", range(1, 7))
def test_connector_is_the_same_route_either_way(big_n):
    # One reflection of a B/T and L/R pair moves x and the other y, so they
    # commute: the connector runs from the first image of a diagonal point
    # to the second, and the other order gives the same route reversed.
    # This is why the set form's order and the sequence form's travel order
    # build the same edges.
    m = 2 * big_n
    diagonal = {GridPoint(t, t) for t in range(m + 1)} | {GridPoint(t, m - t)
                                                          for t in range(m + 1)}
    for w in sorted(diagonal - {GridPoint(big_n, big_n)}):
        for qa in "BT":
            for qb in "LR":
                route = _connector(w, qa, qb, big_n)
                assert _connector(w, qb, qa, big_n) == [e.reversed() for e in reversed(route)]
                points = [_reflect(qa, w, big_n)] + [e.dst for e in route]
                assert [e.src for e in route] == points[:-1]
                assert points[-1] == _reflect(qb, w, big_n)


@pytest.mark.parametrize("big_n", range(1, 13))
def test_off_center_diagonal_points_meet_two_quarters(big_n):
    # So two colors that each touch such a point from two quarters share one,
    # and jct_witness_to_stconn never needs a connector corner.
    m = 2 * big_n
    diagonal = {GridPoint(t, t) for t in range(m + 1)} | {GridPoint(t, m - t)
                                                          for t in range(m + 1)}
    for w in sorted(diagonal - {GridPoint(big_n, big_n)}):
        quarters = {_edge_quarter(w, GridPoint(w.x + dx, w.y + dy), big_n)
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= w.x + dx <= m and 0 <= w.y + dy <= m}
        assert len(quarters) == 2, (w, quarters)


def test_jct_to_stconn_set_rejects_red_through_midpoint():
    for seed in range(50):
        inst = gen_crossing_instance(8, seed)
        if inst.sides.mid in inst.red.point_set:
            with pytest.raises(InvalidInstance):
                jct_to_stconn_set(_jct_set(inst))
            return
    pytest.skip("no midpoint-touching instance in the seed range")


def test_jct_to_stconn_seq_rejects_red_through_midpoint():
    inst = gen_crossing_instance(8, 0)
    assert inst.sides.mid in inst.red.point_set
    with pytest.raises(InvalidInstance, match="touches the side-pair midpoint"):
        jct_to_stconn_seq(inst)


def test_witness_at_the_midpoint_is_not_transported():
    # blue meets the center from L and R, red from B and T: no quarter is shared
    inst = gen_crossing_instance(8, 0)
    with pytest.raises(InvalidInstance, match="share no quarter"):
        jct_witness_to_stconn(inst, inst.sides.mid)


def test_cli_reduce_seq_rejects_red_through_midpoint(tmp_path, capsys):
    inst = gen_crossing_instance(8, 0)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    save_instance(inst, src)
    argv = ["reduce", "--from", "jct", "--form", "seq", "--instance", str(src),
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "side-pair midpoint" in captured.err
    assert not out.exists()


_LEFT_BOTTOM = [(0, 3), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0), (3, 0)]
_BOTTOM_RIGHT = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3)]
_LEFT = [(0, 0), (0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("form", ["set", "seq"])
@pytest.mark.parametrize("blue,red,message", [
    (_LEFT, _BOTTOM_RIGHT, "blue path must join (0, 3) and (3, 0)"),
    (_LEFT_BOTTOM, _LEFT, "red path must join (0, 0) and (3, 3)"),
    (_LEFT, _LEFT, "blue path must join (0, 3) and (3, 0)"),  # blue is checked first
    (_BOTTOM_RIGHT, _LEFT_BOTTOM, "blue path must join (0, 3) and (3, 0)"),
])
def test_stconn_instance_names_the_corners_a_path_misses(form, blue, red, message):
    blue, red = (EdgeSequence.from_points(pts, 3, OPEN) for pts in (blue, red))
    if form == "set":
        blue, red = blue.to_edge_set(), red.to_edge_set()
    with pytest.raises(InvalidInstance) as exc:
        StConnInstance(n=3, blue=blue, red=red).validate()
    assert str(exc.value) == message


@pytest.mark.parametrize("reduction,wanted", [
    (jct_to_stconn_set, "set"), (jct_to_stconn_seq, "seq")])
def test_reductions_reject_the_other_form(reduction, wanted):
    # each reduction is handed a valid instance of the form it does not take
    given = "seq" if wanted == "set" else "set"
    inst = gen_crossing_instance(6, 1, avoid_midpoint=True)
    inst = _jct_set(inst) if given == "set" else inst
    with pytest.raises(PreconditionViolation, match=f"{wanted}-form instance"):
        reduction(inst)


def test_expansion_arithmetic_identities():
    for n in range(1, 33):
        assert 8 * n + 4 * n * (4 * n - 2) == 16 * n * n
        for ell in range(1, n):
            assert (2 * ell + 1) * 8 * n + 4 * n * (4 * n - 4 * ell - 2) == 16 * n * n


def test_jct_to_stconn_seq_blocks_and_edge_at():
    inst = gen_crossing_instance(6, 3, avoid_midpoint=True)
    handle = jct_to_stconn_seq(inst)
    bs = handle.block_size
    assert bs == 16 * handle.n_base ** 2
    out = handle.instance
    out.blue.validate()
    out.red.validate()
    n_out = handle.n_out
    assert out.n == n_out
    assert {out.red.start, out.red.end} == {GridPoint(0, 0), GridPoint(n_out, n_out)}
    assert {out.blue.start, out.blue.end} == {GridPoint(0, n_out), GridPoint(n_out, 0)}
    # every expansion block materializes to exactly 16N^2 edges
    for color in ("red", "blue"):
        pre = len(handle._prefix[color]) * handle.factor
        core = handle.core_length(color)
        suf = len(handle._suffix[color]) * handle.factor
        seq = out.red if color == "red" else out.blue
        assert len(seq) == pre + core + suf
        n_in = len(handle._blocks[color])
        core_edges = list(seq.edges[pre:pre + core])
        assert len(core_edges) == bs * n_in
        rng = random.Random(7)
        for _ in range(100):
            j = rng.randrange(core)
            assert handle.edge_at(j, color) == core_edges[j]
    # module-level accessor and block boundaries
    assert edge_at(handle, 0) == handle.edge_at(0, "red")
    red_pre = len(handle._prefix["red"]) * handle.factor
    assert edge_at(handle, bs - 1) == out.red.edges[red_pre + bs - 1]
    with pytest.raises(PreconditionViolation):
        edge_at(handle, handle.core_length("red"))


def test_edge_at_returns_named_tuples_and_checks_its_range():
    # a bare tuple compares equal to a named one, so check the types themselves
    handle = jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True))
    bs, rng = handle.block_size, random.Random(11)
    for color in ("red", "blue"):
        length = handle.core_length(color)
        js = {j for i in range(length // bs) for j in (i * bs, i * bs + bs - 1)}
        for j in sorted(js | {rng.randrange(length) for _ in range(200)}):
            e = handle.edge_at(j, color)
            assert type(e) is DirectedEdge, (color, j)
            assert type(e.src) is type(e.dst) is GridPoint, (color, j)
        for j in (-1, length):
            with pytest.raises(PreconditionViolation, match=f"index {j} out of range"):
                handle.edge_at(j, color)
    for j in (0, bs - 1, bs, handle.core_length("red") - 1):
        assert edge_at(handle, j) == handle.edge_at(j)
        assert type(edge_at(handle, j)) is DirectedEdge


def test_expansion_blocks_stay_in_their_quarter():
    # The padding excursions of each block live in the quarter-cell to the
    # right of the first half of travel: within 4N-2 of the base line and
    # never beyond the edge's own refined span.
    inst = gen_crossing_instance(6, 5, avoid_midpoint=True)
    handle = jct_to_stconn_seq(inst)
    n, f, bs = handle.n_base, handle.factor, handle.block_size
    for color in ("red", "blue"):
        for i, k in enumerate(handle._blocks[color]):
            x, y, *d, h = handle._core[color][k]
            perp = (d[1], -d[0])
            sx, sy = x * f, y * f
            for r in range(8 * n + 4 * n * h):
                e = handle.edge_at(i * bs + r, color)
                for p in (e.src, e.dst):
                    fwd = (p.x - sx) * d[0] + (p.y - sy) * d[1]
                    side = (p.x - sx) * perp[0] + (p.y - sy) * perp[1]
                    assert 0 <= fwd <= 8 * n
                    assert 0 <= side <= h


@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_block_lemma_combs_keep_to_their_quarter_cells(big_n):
    # The lemma behind StConnSeqReduction.checked_pieces, exhaustively: for
    # every directed unit edge of the 2N grid and every admissible depth
    # h = 4N - 4l - 2, the comb's points off its scaled edge lie strictly
    # inside the coarse cell to the right of the edge, in the quarter at its
    # start corner, and off every scaled coarse line; the combs of distinct
    # directed edges share no such point.
    f, m, q = 8 * big_n, 2 * big_n, 4 * big_n
    depths = [4 * big_n - 4 * ell - 2 for ell in range(big_n)]
    owner = {}
    for x in range(m + 1):
        for y in range(m + 1):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if not (0 <= x + dx <= m and 0 <= y + dy <= m):
                    continue
                sx, sy, ex, ey = f * x, f * y, f * (x + dx), f * (y + dy)
                # the cell to the right of the edge: its corners are the
                # edge's ends moved by (dy, -dx)
                cx = min(x, x + dx, x + dy)
                cy = min(y, y + dy, y - dx)
                for h in depths:
                    for *_, a, b in _comb(big_n, (dx, dy), h):
                        px, py = sx + a, sy + b
                        if min(sx, ex) <= px <= max(sx, ex) and min(sy, ey) <= py <= max(sy, ey):
                            continue  # on the scaled edge
                        assert f * cx < px < f * (cx + 1) and f * cy < py < f * (cy + 1)
                        assert abs(px - sx) <= q and abs(py - sy) <= q
                        assert px % f and py % f
                        assert owner.setdefault((px, py), (x, y, dx, dy)) == (x, y, dx, dy)
    # the 4m(m+1) directed edges' combs of depth 4N-2 cover 4N(4N-2) points each
    assert len(owner) == 4 * m * (m + 1) * q * (q - 2)


def test_jct_to_stconn_seq_witnesses_random():
    for seed in range(10):
        inst = gen_crossing_instance(6, seed, avoid_midpoint=True)
        handle = jct_to_stconn_seq(inst)
        out = handle.instance
        shared_out = out.blue.point_set & out.red.point_set
        moved = None
        for w in sorted(inst.blue.point_set & inst.red.point_set):
            try:
                img = jct_witness_to_stconn(inst, w)
                moved = GridPoint(img.x * handle.factor, img.y * handle.factor)
            except InvalidInstance:
                continue
            assert moved in shared_out
        assert moved is not None


def test_jct_to_stconn_seq_curve_orientation_irrelevant():
    # Both traversal directions of the input curve must produce valid
    # reductions (the builder reverses internally so blue starts westward).
    inst = gen_crossing_instance(6, 9, avoid_midpoint=True)
    flipped = Instance(inst.n, "seq", inst.blue.reverse(), inst.red, inst.sides).validate()
    for src in (inst, flipped):
        handle = jct_to_stconn_seq(src)
        out = handle.instance
        out.validate()
        assert handle._core["blue"][0][:2] == (0, handle.n_base)


def test_seq_reduction_shares_geometry_with_set_reduction():
    # Before refinement and padding, the seq construction's images plus
    # connectors plus extensions are exactly the set construction's output.
    from gridjct.grid import Edge
    for seed in (3, 11, 17):
        inst = gen_crossing_instance(6, seed, avoid_midpoint=True)
        handle = jct_to_stconn_seq(inst)
        out_set = jct_to_stconn_set(_jct_set(inst))
        for color in ("blue", "red"):
            coarse = {Edge.of((x, y), (x + dx, y + dy))
                      for x, y, dx, dy, _ in handle._core[color]}
            for e in handle._prefix[color] + handle._suffix[color]:
                coarse.add(e.undirected())
            assert coarse == set(getattr(out_set, color).edges)


@pytest.mark.parametrize("n, red_form, message", [
    (3, "set", "blue and red must share a form"),
    (4, "seq", "payload grid parameter mismatch"),
], ids=["mixed-forms", "wrong-n"])
def test_stconn_instance_rejects_mismatched_payloads(n, red_form, message):
    blue, red = (EdgeSequence.from_points(pts, 3, OPEN) for pts in (_LEFT_BOTTOM, _BOTTOM_RIGHT))
    if red_form == "set":
        red = red.to_edge_set()
    with pytest.raises(InvalidInstance) as exc:
        StConnInstance(n=n, blue=blue, red=red).validate()
    assert str(exc.value) == message


def test_witness_off_both_colors_is_not_transported():
    inst = gen_crossing_instance(8, 0)
    with pytest.raises(PreconditionViolation) as exc:
        jct_witness_to_stconn(inst, (0, 4))
    assert str(exc.value) == "(0, 4) is not shared" and exc.value.condition == "shared point"


def _drop_last_edge(monkeypatch, name):
    real = getattr(reductions, name)
    monkeypatch.setattr(reductions, name, lambda *args: real(*args)[:-1])


def _third_quarter_at_a_diagonal_point(monkeypatch):
    quarters = iter("BLT")
    monkeypatch.setattr(reductions, "_edge_quarter", lambda a, b, big_n: next(quarters))
    w = GridPoint(5, 5)  # on a diagonal of the N = 4 frame, off its center
    _reflect_color_set(EdgeSet.of([(w, (6, 5)), (w, (5, 6)), ((4, 5), w)], 8), 4)


def _short_connector(monkeypatch):
    _drop_last_edge(monkeypatch, "_connector")
    jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True))


def _short_comb(monkeypatch):
    _drop_last_edge(monkeypatch, "_comb")
    jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True)).checked_pieces("red")


def _shifted_blue_core(monkeypatch):
    real, cores = reductions._seq_core, []

    def seq_core(edges, big_n):  # red's core is built first, then blue's
        cores.append(real(edges, big_n))
        return [(x + 1, *rest) for x, *rest in cores[-1]] if len(cores) == 2 else cores[-1]

    monkeypatch.setattr(reductions, "_seq_core", seq_core)
    jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True))


# name -> (trigger, message of the TheoremViolation it raises)
BUG_GUARDS = {
    "polyline": (lambda mp: _polyline((0, 0), (1, 1)), "run endpoints not axis aligned"),
    "quarter-name": (lambda mp: _reflect("X", GridPoint(1, 1), 4), "unknown quarter"),
    "two-quarters": (lambda mp: _edge_quarter(GridPoint(4, 2), GridPoint(4, 6), 4),
                     "spans two open quarters"),
    "two-diagonals": (lambda mp: _edge_quarter(GridPoint(5, 5), GridPoint(6, 6), 4),
                      "both endpoints on diagonals"),
    "three-quarters": (_third_quarter_at_a_diagonal_point, "more than two quarters"),
    "connector": (_short_connector, r"not of the form 2l\+1"),
    "comb": (_short_comb, r"does not run from \(0, 0\)"),
    "blue-core": (_shifted_blue_core, "blue core does not start"),
}


@pytest.mark.parametrize("name", sorted(BUG_GUARDS))
def test_bug_guards_fire(monkeypatch, name):
    trigger, message = BUG_GUARDS[name]
    with pytest.raises(TheoremViolation, match=message):
        trigger(monkeypatch)
