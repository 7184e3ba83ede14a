"""The streamed sequence reduction: pinned output bytes, the closed-form
edge walk against the ``edge_at`` oracle, and the one-pass output check."""

import hashlib
import json
import os
import random
import stat

import pytest

from gridjct import reduce as reduce_module
from gridjct.cli import main
from gridjct.errors import GridJctError, InvalidInstance, TheoremViolation
from gridjct.generate import gen_crossing_instance
from gridjct.grid import (CLOSED, OPEN, DirectedEdge, EdgeSequence, EdgeSet, GridPoint,
                          corner_ends, refine)
from gridjct.jsonio import Instance, edge_sequence_to_json, save_instance
from gridjct.reduce import checked_path, jct_to_stconn_seq

from test_jordan import retraced_arc
from test_reduce import staircase_instance

# SHA-256 of `reduce --from jct --form seq` output for seeded avoid_midpoint
# inputs: (n, seed) -> (the --out file, stdout).
PINNED_REDUCE = {
    (6, 1): ("320f5739afe8906fd6344e5a3cfda29a15313ad16ed2385429974315ab8900d0",
             "ddecfdce641ff30aefe26b9db7531b7c4bc459c515487ab8ee5706a40f45548d"),
    (6, 3): ("4ee1c169c474b8d83df721e7edb22806807e198aba8bc59a66913fa149d8ebb3",
             "c7e6de24b0737feb8afd8aa9c47fbee0056d413a032b436ff67a99b90b66a3b8"),
    (8, 0): ("d1b1f1d6c8243d2516fdaa1a561418ae9ed3335c456112d2c7defc7fc836127e",
             "601a11ff5f96f3d25a214b027791f1da3e5630f130e8fc22901cfdccdfacefda"),
    (8, 3): ("1d36955e6c71adc8b798a934804096350d31f15b94e09c4c0e6461975ce0e98d",
             "09d8f6561bcf388469525cda87cf5ab9ccb64c53162190e11a6cf1c1533847ee"),
    (10, 2): ("d084c0443b27150e06a444088ad5692298f233c081049ec87be19539706f130b",
              "1616ff0b703bdd92dd3e95b906d14d5348a3ec986d2c469480507f6375ba5d84"),
}


def _input_file(tmp_path, n, seed):
    inst = gen_crossing_instance(n, seed, avoid_midpoint=True)
    path = tmp_path / f"in-{n}-{seed}.json"
    save_instance(Instance(n=n, form="seq", blue=inst.blue, red=inst.red, sides=inst.sides),
                  path)
    return str(path)


def _checked_edges(handle, color):
    """The edges of ``handle.checked_pieces(color)``, each template edge moved
    by its piece's offset."""
    return [(a + ox, b + oy, c + ox, d + oy)
            for tpl, ox, oy in handle.checked_pieces(color) for a, b, c, d in tpl]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n,seed", sorted(PINNED_REDUCE))
def test_reduce_seq_output_pinned(tmp_path, capsys, n, seed):
    src = _input_file(tmp_path, n, seed)
    out = tmp_path / "out.json"
    argv = ["reduce", "--from", "jct", "--form", "seq", "--instance", src]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert (_sha(out.read_bytes()), _sha(stdout.encode())) == PINNED_REDUCE[(n, seed)]


# SHA-256 of the stdout of the reductions that are not streamed, and of
# `merge --json`, on seeded inputs.  stconn -> jct runs on
# staircase_instance(n, n, form), jct -> stconn (set form) on
# gen_crossing_instance(n, n, avoid_midpoint=True).
PINNED_STCONN = {
    ("seq", 2): "bb975f2b39d28017794e2f23fad7ac531873591488194b89e386249c38685781",
    ("seq", 3): "88f5efb5b23070e08ae82c586b85485d66ea6de2c985d8cacc5f3461ed9ea5d0",
    ("seq", 4): "99c3f2418af9e545568ede1a183855fa4e113038398bb5fb5d931535470367f6",
    ("seq", 5): "a4b53986eaef9a52d51460e6a62f01f515ba0ca5d5217a4724e8cccee3e9e65d",
    ("seq", 6): "2b541c482c19effc35c6bfe9cb81f2cb849dee7cd7d5715f18058619dfb841e2",
    ("seq", 7): "315af842f6d957b9c1936b96b2b6cf921eb3a166a1849209f3f1fa401238d1ae",
    ("seq", 8): "b604c55c0bf8bb3a68152023b7b7a9b1a64231aac50bacffc2c3d21e8edcc38f",
    ("set", 2): "26e2002d1bb917dc5e4e9b67072d7056486b61cd162b1cef486fc8a1669e6279",
    ("set", 3): "960f4d5995f54c55eb62971b5d0c52e73ab937f6946ea576ac063305c90ca9b9",
    ("set", 4): "a180e4233d601d876f981e692e090b2398988e1af274e1565d2e770e78ffb3c2",
    ("set", 5): "3ca54820ca5d6c5fff9a6de1a44cf65d6587bf54bbab20860ef689bfa34dc64f",
    ("set", 6): "c4d474d0d1f692733543264ae6c9594a4980bcc6cb4ecc9eb4024f6dafc34cb6",
    ("set", 7): "42d367ea799a223e4297630e42e909a3a833978a86f540a81d96c32644e93241",
    ("set", 8): "bef84f3b5f31c682d8debd9bfe425cd5fc2be1b16996de39500848ef79a1c2de",
}
PINNED_JCT_SET = {
    6: "98c89eca6c10be5661abe64dc68933ad93f9c421c93a22192072f36b5edec559",
    7: "8b7e7d0d2390d97f02d1ead4f43d08d229d384e3a2a0e47bf75f676285a01e45",
    8: "ec359cd73f8cdf95045208def189a679df32b42761f6184823feb698e407a393",
    9: "f9f12f00c15f16cd07ed95a1cfb00c97a6a0cde59c99dcf0c6431d3e8ba37d49",
    10: "cbb21ebc41b9ae2f6a92b0dc4a48c661bff5f36a6b39a2cdff99d16c9ff32f34",
}
# merge fixtures: the out-and-back blue chain of test_jordan with the red path
# around its left end (no doubling), the red paths of
# test_merge_doubles_when_splice_point_occupied and
# test_merge_normalizes_non_left_approach, and one that leaves p1 leftward but
# enters p2 from the right (all three doubled).
MERGE_REDS = {
    "left-approach": [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)],
    "splice-occupied": [(3, 1), (4, 1), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2),
                        (0, 3), (1, 3), (2, 3), (3, 3)],
    "both-ends-rerouted": [(3, 1), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2), (0, 3),
                           (0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (4, 3), (3, 3)],
    "tail-rerouted": [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4),
                      (3, 4), (4, 4), (4, 3), (3, 3)],
}
PINNED_MERGE = {
    "both-ends-rerouted": "d69fd142045231b27d3f87e12020c2b9ecc30b4822fd53460805cce40a63bbb6",
    "left-approach": "6c2231e6efc6461b15b79361743c7d2f2138d36a4010e16c578fcf6fee8d2110",
    "splice-occupied": "d8b6499470b71caaeb2a3fbac0bb6c71835d4026787537450696ca9939040313",
    "tail-rerouted": "ea1c7472cba4764c3483a432ba85a6d6d96466a502aea76de62a44701d206ae3",
}


def _stdout_sha(capsys, argv):
    assert main(argv) == 0
    return _sha(capsys.readouterr().out.encode())


def _pinned_argv(tmp_path, source, form, n):
    """The ``reduce`` command line of one case of PINNED_STCONN or
    PINNED_JCT_SET, its input written under ``tmp_path``."""
    path = tmp_path / "in.json"
    if source == "stconn":
        src = staircase_instance(n, n, form)
        save_instance(Instance(n=n, form=form, blue=src.blue, red=src.red), path)
    else:
        inst = gen_crossing_instance(n, n, avoid_midpoint=True)
        save_instance(Instance(n=n, form="set", blue=inst.blue.to_edge_set(),
                               red=inst.red.to_edge_set(), sides=inst.sides), path)
    return ["reduce", "--from", source, "--form", form, "--instance", str(path)]


@pytest.mark.parametrize("form,n", sorted(PINNED_STCONN))
def test_reduce_stconn_output_pinned(tmp_path, capsys, form, n):
    argv = _pinned_argv(tmp_path, "stconn", form, n)
    assert _stdout_sha(capsys, argv) == PINNED_STCONN[(form, n)]


@pytest.mark.parametrize("n", sorted(PINNED_JCT_SET))
def test_reduce_jct_set_output_pinned(tmp_path, capsys, n):
    argv = _pinned_argv(tmp_path, "jct", "set", n)
    assert _stdout_sha(capsys, argv) == PINNED_JCT_SET[n]


# SHA-256 of the --out file of the same reductions: (source, form, n) -> digest.
PINNED_OUT = {
    ("stconn", "seq", 2): "270a7dc2af83a2b5999e6808c557a78ddad10c50c755b3dcc4320d814aabcd63",
    ("stconn", "seq", 3): "69cc6942fb203d8052cf376b8b7baf4ca5b65a3db04184d17068b64e77bd799b",
    ("stconn", "seq", 4): "e05f3a4f7384bc7c051f40950bcc3f006476313f5484bb0dbeefe0fc122facee",
    ("stconn", "seq", 5): "fef01083e20b2ee702599c90368e591d561fb18a01ae2df0c4f3b1cc1a283ffa",
    ("stconn", "seq", 6): "15f33fa5ac922e2f981de0b31f1f608b521c79cd5cb4f87a5765806a2bd11ba7",
    ("stconn", "seq", 7): "0b40043b35b55d49a35ca7588320548355f0974d827ca42313680618f1729896",
    ("stconn", "seq", 8): "a60f43883613fce1ab95903862d0e714dbddc1ba63b815dd10dbd375ffd5ba41",
    ("stconn", "set", 2): "26c48adc6159a1c0c878bbc73eb28c15161eb695d17925fbedb00c6fb0711d53",
    ("stconn", "set", 3): "2fdb9aeca66c2e276a2328ecd668d3d06d04fa2c891c53145363d38459fe6975",
    ("stconn", "set", 4): "45fbb7f7df69f35fd94c6a350f6af6cd9946e2deceabbf31f863afab0c16a080",
    ("stconn", "set", 5): "8257eadfefda298dfcf252871c4395e0facab3af684af529b39cd2f251f9242d",
    ("stconn", "set", 6): "d31acb12ae1141bd7d1617ff29b86f9fecf3a92f8f1fb39bb92a8a6c230cc3e1",
    ("stconn", "set", 7): "0044322e36c7721928a2dca6d643ca6dfd0990e58d01ebadefe7bf48e0ad0f43",
    ("stconn", "set", 8): "8a681ec9ceefb7c3bdd842ff82cb2b602fb2b6de4d9df9ef73be5ad4db623a1d",
    ("jct", "set", 6): "3b548a118d9568f4dfeef3cc0bdcdc8f1f23c8565e1f67c3cd4451fe1d0a35f6",
    ("jct", "set", 7): "9be880bf8ca40eb12378b2cd33bbbb82d9beb9d3147600d65c5c2a7e7839e000",
    ("jct", "set", 8): "25debdc62ea3ab81d37087b7dfc0d7cd6dd291d3246013edf8f82c537e87ec3f",
    ("jct", "set", 9): "018b717e56123deb3e2a00408e531ba2b3db8486cdad467abf157698cd085ca1",
    ("jct", "set", 10): "f431c5b6a12ac40c5f0f2cc5e73d3166e6a82583cda8d6675c10c147f8139f9a",
}


@pytest.mark.parametrize("source,form,n", sorted(PINNED_OUT))
def test_reduce_out_file_pinned(tmp_path, capsys, source, form, n):
    """The file is indented by 2, stdout is compact: the same document."""
    argv = _pinned_argv(tmp_path, source, form, n)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    wrote = capsys.readouterr()
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == doc
    assert wrote.out == f"wrote n={doc['n']} instance to {out}\n" and wrote.err == ""
    assert _sha(out.read_bytes()) == PINNED_OUT[(source, form, n)]


def _with_square_loop(es, avoid, rng):
    """``es`` plus the boundary of one unit cell, drawn by ``rng`` among the
    cells whose corners miss ``es`` and the points in ``avoid``."""
    n, taken = es.n, es.points | set(avoid)
    cells = [(x, y) for x in range(n) for y in range(n)
             if not taken & {(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)}]
    x, y = rng.choice(cells)
    square = [((x, y), (x + 1, y)), ((x + 1, y), (x + 1, y + 1)),
              ((x, y + 1), (x + 1, y + 1)), ((x, y), (x, y + 1))]
    return EdgeSet(es.edges | EdgeSet.of(square, n).edges, n)


# SHA-256 of `reduce --from jct --form set` stdout when each color carries one
# more unit-square loop, which only the set form allows: a second blue loop
# off the side points and an extra red loop off the midpoint, on
# gen_crossing_instance(n, n, avoid_midpoint=True).  At n = 7 and 12..15 an
# extra loop touches a diagonal of the reflection.
PINNED_JCT_SET_LOOPS = {
    6: "6e5d1156fd60d2d39970be047482e59fcff33a17b8935adf339083a082f72cf4",
    7: "b58bff72412e68ed9ca302ace6dd7d959d724bddfd82d064823ec37cd2529ec5",
    12: "9433fd27b8febc754b8c1d8b3f38ef2caf13e05f68b207969dc81a4b22c04a8b",
    13: "d8cffd8c8a2035828db06fc33488dc936f5df3146282f3c12b32a91057276ab5",
    14: "0dc6137a839f04b132a4d4758260fde648422655cc25a7cd61ada30970332515",
    15: "980152b79cd2d1fd1fc18a11b09a9587df78ff388a72918d2fc2590d16efff2f",
}


@pytest.mark.parametrize("n", sorted(PINNED_JCT_SET_LOOPS))
def test_reduce_jct_set_with_extra_loops_pinned(tmp_path, capsys, n):
    inst = gen_crossing_instance(n, n, avoid_midpoint=True)
    rng = random.Random(n)
    sides = inst.sides
    blue = _with_square_loop(inst.blue.to_edge_set(), (sides.p1, sides.p2), rng)
    red = _with_square_loop(inst.red.to_edge_set(), (sides.mid,), rng)
    path = tmp_path / "in.json"
    save_instance(Instance(n=n, form="set", blue=blue, red=red, sides=sides), path)
    argv = ["reduce", "--from", "jct", "--form", "set", "--instance", str(path)]
    assert _stdout_sha(capsys, argv) == PINNED_JCT_SET_LOOPS[n]


@pytest.mark.parametrize("name", sorted(PINNED_MERGE))
def test_merge_output_pinned(tmp_path, capsys, name):
    blue, red = tmp_path / "blue.json", tmp_path / "red.json"
    blue.write_text(json.dumps(edge_sequence_to_json(retraced_arc(range(5, 0, -1), 2, 8))))
    red.write_text(json.dumps(edge_sequence_to_json(
        EdgeSequence.from_points(MERGE_REDS[name], 8, OPEN))))
    argv = ["merge", "--blue", str(blue), "--red", str(red), "--json"]
    assert _stdout_sha(capsys, argv) == PINNED_MERGE[name]


def test_reduce_out_is_the_same_from_either_side_point(tmp_path, capsys):
    # the reduction runs red from the lower side point, reversing it if needed
    inst = gen_crossing_instance(6, 1, avoid_midpoint=True)
    assert inst.red.start == inst.sides.p1 and inst.sides.p1.y < inst.sides.p2.y
    written = []
    for red in (inst.red, inst.red.reverse()):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        save_instance(Instance(n=6, form="seq", blue=inst.blue, red=red, sides=inst.sides), src)
        assert main(["reduce", "--from", "jct", "--form", "seq", "--instance", str(src),
                     "--out", str(out)]) == 0
        written.append(out.read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]
    assert _sha(written[1]) == PINNED_REDUCE[(6, 1)][0]


# --- the closed-form walk against the edge_at oracle -----------------------

def _quad(e):
    return (e.src.x, e.src.y, e.dst.x, e.dst.y)


@pytest.mark.parametrize("n,seed", [(4, 0), (5, 2), (6, 3), (6, 7)])
def test_iter_edges_matches_edge_at_and_refined_ends(n, seed):
    handle = jct_to_stconn_seq(gen_crossing_instance(n, seed, avoid_midpoint=True))
    for color in ("red", "blue"):
        walked = list(handle.iter_edges(color))
        pre = refine(EdgeSequence(tuple(handle._prefix[color]), 2 * handle.n_base, OPEN),
                     handle.factor)
        suf = refine(EdgeSequence(tuple(handle._suffix[color]), 2 * handle.n_base, OPEN),
                     handle.factor)
        core = handle.core_length(color)
        assert len(walked) == len(pre) + core + len(suf)
        assert walked[:len(pre)] == [_quad(e) for e in pre.edges]
        assert walked[len(pre):len(pre) + core] == [_quad(handle.edge_at(j, color))
                                                    for j in range(core)]
        assert walked[len(pre) + core:] == [_quad(e) for e in suf.edges]
        assert [_quad(e) for e in handle.materialize(color).edges] == walked
        assert _checked_edges(handle, color) == walked


# --- each of the five stream checks, broken in turn ------------------------

def _first_connector_step(handle):
    """The index in the red core of its first connector step (``h`` None)."""
    return next(k for k, step in enumerate(handle._core["red"]) if step[4] is None)


def _break_bounds(handle):
    # one more suffix run, out past the right edge of the grid
    n_mid = 2 * handle.n_base
    handle._suffix["red"].append(DirectedEdge(GridPoint(n_mid, n_mid),
                                              GridPoint(n_mid + 1, n_mid)))


def _break_adjacency(handle):
    core, k = handle._core["red"], _first_connector_step(handle)
    x, y, dx, dy, h = core[k]
    core[k] = (x, y, 2 * dx, 2 * dy, h)


def _break_chaining(handle):
    core, k = handle._core["red"], _first_connector_step(handle)
    x, y, dx, dy, h = core[k]
    core[k] = (x, y + 1, dx, dy, h)


def _break_simplicity(handle):
    # out and back along the first prefix run
    first = handle._prefix["red"][0]
    handle._prefix["red"][1:1] = [first.reversed(), first]


def _break_ends(handle):
    handle._suffix["red"].pop()


MUTATIONS = {"bounds": _break_bounds, "adjacency": _break_adjacency,
             "chaining": _break_chaining, "simplicity": _break_simplicity,
             "ends": _break_ends}
MESSAGES = {"bounds": "outside grid", "adjacency": "not adjacent",
            "chaining": "does not chain", "simplicity": "revisits a point",
            "ends": "red path must join"}


def _mutated_handle(name):
    handle = jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True))
    MUTATIONS[name](handle)
    return handle


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_stream_check_raises_what_validate_raises(name):
    with pytest.raises(GridJctError) as streamed:
        _checked_edges(_mutated_handle(name), "red")
    assert MESSAGES[name] in str(streamed.value)
    with pytest.raises(GridJctError) as validated:
        _mutated_handle(name).instance
    assert type(streamed.value) is type(validated.value) is InvalidInstance


def test_stream_check_rejects_an_empty_path():
    with pytest.raises(InvalidInstance, match="empty"):
        list(checked_path([], 4, (GridPoint(0, 0), GridPoint(4, 4)), "red"))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_cli_reduce_fails_whole_on_a_broken_stream(tmp_path, capsys, monkeypatch, name):
    src = _input_file(tmp_path, 6, 3)
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    before = sorted(tmp_path.iterdir())
    original = reduce_module.jct_to_stconn_seq

    def broken(inst):
        handle = original(inst)
        MUTATIONS[name](handle)
        return handle

    monkeypatch.setattr(reduce_module, "jct_to_stconn_seq", broken)
    argv = ["reduce", "--from", "jct", "--form", "seq", "--instance", src]
    for extra in (["--out", str(out)], []):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert MESSAGES[name] in captured.err
    assert out.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == before


# --- the block-level checks, broken in turn -------------------------------

@pytest.mark.parametrize("n", range(4, 13))
def test_block_checks_match_the_per_edge_oracle(n):
    handle = jct_to_stconn_seq(gen_crossing_instance(n, n, avoid_midpoint=True))
    m = handle.n_out
    for color in ("blue", "red"):
        oracle = list(checked_path(handle.iter_edges(color), m, corner_ends(m)[color], color))
        assert _checked_edges(handle, color) == oracle


_COMB = reduce_module._comb


def _patch_comb(monkeypatch, broken):
    monkeypatch.setattr(reduce_module, "_comb", lambda n, d, h: broken(_COMB(n, d, h), d))


def _break_template_edge(handle, monkeypatch):
    def reversed_middle_edge(tpl, d):
        k = len(tpl) // 2
        x1, y1, x2, y2 = tpl[k]
        return tpl[:k] + [(x2, y2, x1, y1)] + tpl[k + 1:]
    _patch_comb(monkeypatch, reversed_middle_edge)


def _break_quarter(handle, monkeypatch):
    def to_the_left(tpl, d):  # mirrored across the edge's line
        if d[0]:
            return [(x1, -y1, x2, -y2) for x1, y1, x2, y2 in tpl]
        return [(-x1, y1, -x2, y2) for x1, y1, x2, y2 in tpl]
    _patch_comb(monkeypatch, to_the_left)


def _break_join(handle, monkeypatch):
    # the second block's image step starts one row up
    core, k = handle._core["red"], handle._blocks["red"][1]
    x, y, dx, dy, h = core[k]
    core[k] = (x, y + 1, dx, dy, h)


def _break_overlap(handle, monkeypatch):
    # out along the image step of a block without a connector, back, and out
    # along it again
    core, blocks = handle._core["red"], handle._blocks["red"]
    k = next(k for k, end in zip(blocks, blocks[1:] + [len(core)]) if end == k + 1)
    x, y, dx, dy, h = step = core[k]
    core[k + 1:k + 1] = [(x + dx, y + dy, -dx, -dy, h), step]


def _break_comb_bounds(handle, monkeypatch):
    # the prefix edges as image steps of depth 4N-2: the coarse path is the
    # same, but the first comb hangs below the bottom row
    prefix = handle._prefix["red"]
    handle._core["red"][:0] = [(*e.src, *e.direction, 4 * handle.n_base - 2) for e in prefix]
    prefix.clear()


# name -> (mutation, error class, message, CLI exit code)
BLOCK_MUTATIONS = {
    "template-edge": (_break_template_edge, TheoremViolation, "does not chain", 2),
    "quarter": (_break_quarter, TheoremViolation, "leaves its quarter cell", 2),
    "comb-bounds": (_break_comb_bounds, InvalidInstance, "outside grid", 1),
    "join": (_break_join, InvalidInstance, "does not chain", 1),
    "overlap": (_break_overlap, InvalidInstance, "revisits a point", 1),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MUTATIONS))
def test_block_check_raises_its_class(monkeypatch, name):
    mutate, cls, message, _ = BLOCK_MUTATIONS[name]
    handle = jct_to_stconn_seq(gen_crossing_instance(6, 3, avoid_midpoint=True))
    mutate(handle, monkeypatch)
    with pytest.raises(GridJctError, match=message) as caught:
        handle.checked_pieces("red")
    assert type(caught.value) is cls
    with pytest.raises(cls, match=message):
        _checked_edges(handle, "red")


@pytest.mark.parametrize("name", sorted(BLOCK_MUTATIONS))
def test_cli_reduce_writes_nothing_on_a_failed_block_check(tmp_path, capsys, monkeypatch, name):
    mutate, _, message, code = BLOCK_MUTATIONS[name]
    src = _input_file(tmp_path, 6, 3)
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    before = sorted(tmp_path.iterdir())
    original = reduce_module.jct_to_stconn_seq

    def broken(inst):
        handle = original(inst)
        mutate(handle, monkeypatch)
        return handle

    monkeypatch.setattr(reduce_module, "jct_to_stconn_seq", broken)
    argv = ["reduce", "--from", "jct", "--form", "seq", "--instance", src]
    for extra in (["--out", str(out)], []):
        assert main(argv + extra) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
    assert out.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == before


# --- what --out writes through --------------------------------------------

def _reduce_argv(tmp_path):
    return ["reduce", "--from", "jct", "--form", "seq",
            "--instance", _input_file(tmp_path, 6, 1)]


def test_reduce_out_through_a_symlink_writes_the_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(_reduce_argv(tmp_path) + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert _sha(target.read_bytes()) == PINNED_REDUCE[(6, 1)][0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in-6-1.json", "link.json",
                                                          "target.json"]


def test_reduce_out_to_devnull(tmp_path):
    argv = _reduce_argv(tmp_path)
    assert main(argv + ["--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not any(name.startswith("null.") for name in os.listdir(os.path.dirname(os.devnull)))


def test_reduce_out_keeps_an_existing_files_mode(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("old\n")
    out.chmod(0o600)
    assert main(_reduce_argv(tmp_path) + ["--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o600
    assert _sha(out.read_bytes()) == PINNED_REDUCE[(6, 1)][0]


def test_reduce_out_to_a_hard_linked_file_updates_both_names(tmp_path, monkeypatch):
    out, other = tmp_path / "out.json", tmp_path / "other.json"
    out.write_text("kept\n")
    other.hardlink_to(out)
    original = reduce_module.jct_to_stconn_seq

    def broken(inst):
        handle = original(inst)
        _break_ends(handle)
        return handle

    argv = _reduce_argv(tmp_path) + ["--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr(reduce_module, "jct_to_stconn_seq", broken)
        assert main(argv) == 1
    assert out.read_text() == other.read_text() == "kept\n"
    assert main(argv) == 0
    assert out.samefile(other)
    assert _sha(other.read_bytes()) == PINNED_REDUCE[(6, 1)][0]


# --- every writer goes through the one sink ---------------------------------

def _set_input(tmp_path):
    inst = gen_crossing_instance(6, 1, avoid_midpoint=True)
    path = tmp_path / "in-set.json"
    save_instance(Instance(n=6, form="set", blue=inst.blue.to_edge_set(),
                           red=inst.red.to_edge_set(), sides=inst.sides), path)
    return str(path)


def _connect_input(tmp_path):
    inst = gen_crossing_instance(6, 1)
    x, y = 3 * inst.sides.mid.x, 3 * inst.sides.mid.y
    path = tmp_path / "in-connect.json"
    path.write_text(json.dumps({"n": 6, "form": "seq", "blue": edge_sequence_to_json(inst.blue),
                                "sides": [[x, y - 1], [x, y + 1]]}))
    return str(path)


def _merge_inputs(tmp_path):
    # an out-and-back blue chain and a red path around its left end
    fwd = [(x, 2) for x in range(5, 0, -1)]
    pts = [GridPoint(*p) for p in fwd + fwd[-2:0:-1]]
    blue = EdgeSequence(tuple(map(DirectedEdge, pts, pts[1:] + pts[:1])), 8, CLOSED)
    red = EdgeSequence.from_points(
        [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)], 8, OPEN)
    paths = tmp_path / "in-blue.json", tmp_path / "in-red.json"
    for path, seq in zip(paths, (blue, red)):
        path.write_text(json.dumps(edge_sequence_to_json(seq)))
    return ["--blue", str(paths[0]), "--red", str(paths[1])]


# writer -> (argv without its output option, given the input directory; the option)
WRITERS = {
    "reduce-seq": (lambda d: ["reduce", "--from", "jct", "--form", "seq",
                              "--instance", _input_file(d, 6, 1)], "--out"),
    "reduce-set": (lambda d: ["reduce", "--from", "jct", "--form", "set",
                              "--instance", _set_input(d)], "--out"),
    "merge-out": (lambda d: ["merge", *_merge_inputs(d)], "--out"),
    "merge-svg": (lambda d: ["merge", *_merge_inputs(d)], "--svg"),
    "connect-svg": (lambda d: ["connect", "--instance", _connect_input(d), "--point", "1,1"],
                    "--svg"),
    "render-svg": (lambda d: ["render", "--instance", _input_file(d, 6, 1)], "--svg"),
    "gen-out": (lambda d: ["gen", "--family", "stconn", "--n", "3"], "--out"),
}


def _write(tmp_path, capsys, name, target):
    argv, option = WRITERS[name]
    rc = main(argv(tmp_path) + [option, str(target)])
    capsys.readouterr()
    return rc


@pytest.fixture
def out_dir(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


def _plain_bytes(tmp_path, capsys, name):
    """What the writer puts in a new regular file."""
    plain = tmp_path / "plain"
    assert _write(tmp_path, capsys, name, plain) == 0
    data = plain.read_bytes()
    plain.unlink()
    assert data
    return data


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_through_a_symlink_writes_the_target(tmp_path, out_dir, capsys, name):
    expected = _plain_bytes(tmp_path, capsys, name)
    target, link = out_dir / "target", out_dir / "link"
    target.write_text("old\n")
    link.symlink_to(target)
    assert _write(tmp_path, capsys, name, link) == 0
    assert link.is_symlink()
    assert target.read_bytes() == expected
    assert sorted(p.name for p in out_dir.iterdir()) == ["link", "target"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_to_devnull(tmp_path, capsys, name):
    assert _write(tmp_path, capsys, name, os.devnull) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not any(entry.startswith("null.")
                   for entry in os.listdir(os.path.dirname(os.devnull)))


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_keeps_an_existing_files_mode(tmp_path, out_dir, capsys, name):
    expected = _plain_bytes(tmp_path, capsys, name)
    out = out_dir / "out"
    out.write_text("old\n")
    out.chmod(0o600)
    assert _write(tmp_path, capsys, name, out) == 0
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_bytes() == expected
    assert [p.name for p in out_dir.iterdir()] == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_to_a_hard_linked_file_updates_both_names(tmp_path, out_dir, capsys, name):
    expected = _plain_bytes(tmp_path, capsys, name)
    out, other = out_dir / "out", out_dir / "other"
    out.write_text("old\n")
    other.hardlink_to(out)
    assert _write(tmp_path, capsys, name, out) == 0
    assert out.samefile(other)
    assert other.read_bytes() == expected
    assert sorted(p.name for p in out_dir.iterdir()) == ["other", "out"]


# --- the output size cap ----------------------------------------------------

def test_out_edges_counts_the_stream_and_admits_n20():
    handle = jct_to_stconn_seq(gen_crossing_instance(6, 1, avoid_midpoint=True))
    assert handle.out_edges() == sum(1 for c in ("blue", "red") for _ in handle.iter_edges(c))
    big = jct_to_stconn_seq(gen_crossing_instance(20, 0, avoid_midpoint=True))
    assert big.out_edges() == 1_710_304 <= reduce_module.MAX_OUT_EDGES


def test_reduce_seq_rejects_output_over_the_cap(tmp_path, capsys):
    # the n = 64 input asks for 149.4M output edges; edge_at stays uncapped
    argv = ["reduce", "--from", "jct", "--form", "seq",
            "--instance", _input_file(tmp_path, 64, 0)]
    out = tmp_path / "out.json"
    for extra in (["--out", str(out)], []):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1, captured.err
        assert "149363424 edges" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["in-64-0.json"]
    assert main(argv + ["--edge-at", "0"]) == 0
