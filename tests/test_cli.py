"""CLI behavior: subcommands, exit codes, machine-readable output."""

import json
import os
import subprocess
import sys

import pytest

import gridjct
from gridjct import cnf, generate, jordan
from gridjct import reduce as reductions
from gridjct.cli import main
from gridjct.errors import TheoremViolation
from gridjct.generate import gen_crossing_instance
from gridjct.grid import CLOSED, OPEN, DirectedEdge, EdgeSequence, GridPoint, side_pair
from gridjct.jsonio import Instance, edge_sequence_from_json, edge_sequence_to_json, save_instance
from gridjct.parity import IntersectionWitness
from gridjct.render import render_svg

from conftest import rect_curve


@pytest.fixture
def instance_file(tmp_path):
    inst = gen_crossing_instance(10, 42)
    path = tmp_path / "inst.json"
    save_instance(Instance(n=inst.n, form="seq", blue=inst.blue, red=inst.red,
                           sides=inst.sides), path)
    return str(path)


def test_validate_ok(instance_file, capsys):
    assert main(["validate", "--instance", instance_file]) == 0
    assert "valid instance" in capsys.readouterr().out


def test_validate_json(instance_file, capsys):
    assert main(["validate", "--instance", instance_file, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["valid"] is True and blob["n"] == 10


def test_invalid_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "form": "seq", "blue": {"n": 4, "kind": "closed", '
                    '"seq": [[0,0,1,0],[2,0,3,0]]}}')
    assert main(["validate", "--instance", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["validate", "--instance", "/nonexistent/x.json"]) == 1


def test_parity_profile_and_witness(instance_file, capsys):
    assert main(["parity", "--instance", instance_file]) == 0
    prof = capsys.readouterr().out.strip()
    assert set(prof) <= {"0", "1"} and len(prof) == 10
    assert main(["parity", "--instance", instance_file, "--witness", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["blue_degree"] >= 1 and blob["red_degree"] >= 1


def test_alternation_and_regions(instance_file, capsys):
    assert main(["alternation", "--instance", instance_file]) == 0
    assert main(["regions", "--instance", instance_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["regions"] == 2


def test_theorem_violation_exits_2(monkeypatch, instance_file, capsys):
    import gridjct.cli as climod

    def boom(curve):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr(climod.jordan, "count_regions", boom)
    assert main(["regions", "--instance", instance_file]) == 2
    assert "theorem violation" in capsys.readouterr().err


def test_a_chain_the_walk_passes_but_the_bulk_test_rejects_is_a_theorem_violation(
        monkeypatch, tmp_path, capsys):
    # EdgeSequence.accept never hands back an unchecked sequence: with its walk blinded,
    # each way in that reaches it raises, and validate exits 2 with one stderr line
    monkeypatch.setattr("gridjct.grid.check_path", lambda *args, **kwargs: None)
    with pytest.raises(TheoremViolation, match="bulk test"):
        EdgeSequence.from_points([(0, 0), (1, 0), (3, 0)], 4, OPEN)
    revisit = {"n": 4, "kind": "open", "seq": [[0, 0, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0]]}
    with pytest.raises(TheoremViolation, match="bulk test"):
        edge_sequence_from_json(revisit)
    path = tmp_path / "revisit.json"
    path.write_text(json.dumps({"n": 4, "form": "seq", "blue": revisit}))
    assert main(["validate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("theorem violation: ") and len(err.splitlines()) == 1


def test_connect_subcommand(tmp_path, capsys):
    # the path is written from its codes and prints the same bytes with --svg, which
    # alone builds the sequence: one <line per path edge, none for a side point
    inst = gen_crossing_instance(8, 7)
    mid = inst.sides.mid
    sides = side_pair((3 * mid.x, 3 * mid.y - 1), (3 * mid.x, 3 * mid.y + 1))
    blob = {"n": inst.n, "form": "seq", "blue": edge_sequence_to_json(inst.blue),
            "sides": [list(sides.p1), list(sides.p2)]}
    path, svg = tmp_path / "curve.json", tmp_path / "conn.svg"
    path.write_text(json.dumps(blob))
    for x, y in ((1, 1), (24, 24), (14, 19), (20, 11), sides.p2):  # two outside, two inside
        argv = ["connect", "--instance", str(path), "--point", f"{x},{y}"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--svg", str(svg)]) == 0
        assert capsys.readouterr().out == plain
        out = json.loads(plain)
        assert out["kind"] == "open" and out["n"] == 3 * inst.n
        want = jordan.region_connect(inst.blue, (x, y), sides)
        assert out == edge_sequence_to_json(want)
        assert svg.read_text().count("<line") == len(out["seq"]) == len(want)
        assert svg.read_text() == render_svg(Instance(n=want.n, form="seq", red=want or None))
    assert len(want) == 0



@pytest.mark.parametrize("spoil", [lambda c: c[:1] + c[2:], lambda c: c + c[-2:-1]],
                         ids=["jump", "revisit"])
def test_connect_checks_its_codes(monkeypatch, tmp_path, capsys, spoil):
    # codes that are not a simple unit-step path are a bug: exit 2, one stderr line, no stdout
    real = jordan.connect_codes
    monkeypatch.setattr(jordan, "connect_codes",
                        lambda *a: (lambda codes, s: (spoil(codes), s))(*real(*a)))
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"n": 5, "form": "seq", "sides": [[6, 2], [6, 4]],
                                "blue": edge_sequence_to_json(rect_curve(1, 1, 3, 3, 5))}))
    assert main(["connect", "--instance", str(path), "--point", "6,6"]) == 2
    assert capsys.readouterr() == (
        "", "theorem violation: connect path is not a simple open path (bug)\n")

def test_merge_subcommand(tmp_path, capsys):
    n = 8
    fwd = [(x, 2) for x in range(5, 0, -1)]
    pts = fwd + fwd[-2:0:-1]
    edges = [DirectedEdge(GridPoint(*pts[i]), GridPoint(*pts[(i + 1) % len(pts)]))
             for i in range(len(pts))]
    blue = EdgeSequence(tuple(edges), n, CLOSED)
    red = EdgeSequence.from_points(
        [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)], n, OPEN)
    bluef, redf = tmp_path / "b.json", tmp_path / "r.json"
    bluef.write_text(json.dumps({"n": n, "kind": "closed",
                                 "seq": [[e.src.x, e.src.y, e.dst.x, e.dst.y] for e in blue.edges]}))
    redf.write_text(json.dumps(edge_sequence_to_json(red)))
    assert main(["merge", "--blue", str(bluef), "--red", str(redf), "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["alternates"] is False  # the construction's point


def test_reduce_subcommand(tmp_path, instance_file, capsys):
    out = tmp_path / "reduced.json"
    assert main(["reduce", "--from", "jct", "--form", "set", "--instance",
                 _as_set_instance(instance_file, tmp_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["form"] == "set" and blob["n"] > 10


def _as_set_instance(instance_file, tmp_path):
    from gridjct.jsonio import load_instance
    inst = load_instance(instance_file)
    # reuse a seed whose red path avoids the midpoint
    src = gen_crossing_instance(10, 43, avoid_midpoint=True)
    path = tmp_path / "set_inst.json"
    save_instance(Instance(n=src.n, form="set", blue=src.blue.to_edge_set(),
                           red=src.red.to_edge_set(), sides=src.sides), path)
    return str(path)


def _seq_instance_file(tmp_path):
    src = gen_crossing_instance(6, 3, avoid_midpoint=True)
    path = tmp_path / "seq_inst.json"
    save_instance(Instance(n=src.n, form="seq", blue=src.blue, red=src.red,
                           sides=src.sides), path)
    return str(path)


def test_reduce_edge_at(tmp_path, capsys):
    assert main(["reduce", "--from", "jct", "--form", "seq", "--instance",
                 _seq_instance_file(tmp_path), "--edge-at", "0", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["edge"]) == 4 and blob["block_size"] > 0


def test_reduce_bug_guard_exits_2(monkeypatch, tmp_path, capsys):
    # a red core that starts off the lower image point can only be a bug
    monkeypatch.setattr(reductions, "_seq_core", lambda edges, big_n: [(0, 0, 1, 0, None)])
    assert main(["reduce", "--from", "jct", "--form", "seq", "--instance",
                 _seq_instance_file(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "theorem violation: red core does not start at the lower image point (bug)"]


@pytest.mark.parametrize("source,form,with_out", [
    ("jct", "seq", True),  # --edge-at answers on stdout, never to a file
    ("stconn", "seq", False),
    ("stconn", "set", False),
    ("jct", "set", False),
], ids=["jct-seq-with-out", "stconn-seq", "stconn-set", "jct-set"])
def test_reduce_edge_at_rejected_outside_jct_seq(tmp_path, capsys, source, form, with_out):
    # rejected before the instance is read: the file named here does not exist
    argv = ["reduce", "--from", source, "--form", form, "--instance",
            str(tmp_path / "missing.json"), "--edge-at", "0"]
    if with_out:
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--edge-at" in captured.err and "missing.json" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_gen_subcommand(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    assert main(["gen", "--family", "stconn", "--n", "2", "--out", str(out),
                 "--check", "dpll"]) == 0
    text = out.read_text()
    assert "p cnf 24 " in text
    err = capsys.readouterr().err
    assert "UNSAT" in err
    # weakened stseq(1) stays UNSAT (one edge cannot touch both corners);
    # n=2 is the smallest satisfiable weakening
    assert main(["gen", "--family", "stseq", "--n", "2", "--weaken",
                 "no-intersection", "--check", "dpll"]) == 0
    captured = capsys.readouterr()
    assert "c check [dpll]: SAT" in captured.err and "model decodes" in captured.err


@pytest.mark.parametrize("family,n", [("stconn", 3), ("stseq", 2)])
@pytest.mark.parametrize("check", [[], ["--check", "dpll"]], ids=["plain", "dpll"])
def test_gen_out_file_equals_stdout(tmp_path, capsys, family, n, check):
    argv = ["gen", "--family", family, "--n", str(n), *check]
    out = tmp_path / "f.cnf"
    assert main(argv + ["--out", str(out)]) == 0
    wrote = capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert wrote.out == "" and out.read_bytes() == printed.out.encode()
    assert wrote.err == printed.err


def test_render_subcommand(tmp_path, instance_file):
    svg = tmp_path / "out.svg"
    assert main(["render", "--instance", instance_file, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_fuzz_subcommand(capsys):
    assert main(["fuzz", "--seed", "3", "--count", "4", "--n", "8", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["checked"] == 4


def _python(*args, **kw):
    """Run a new interpreter that imports the same gridjct as this process,
    installed or not; ``kw`` goes to :func:`subprocess.run`."""
    src = os.path.dirname(os.path.dirname(gridjct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kw)


def test_module_entry_point(instance_file):
    proc = _python("-m", "gridjct", "validate", "--instance", instance_file)
    assert proc.returncode == 0
    assert "valid instance" in proc.stdout


# A 2x2 square with the side pair flanking its bottom-middle point and the
# red path running through that point: a valid seq-form crossing instance.
_SQUARE = [[1, 1, 2, 1], [2, 1, 3, 1], [3, 1, 3, 2], [3, 2, 3, 3],
           [3, 3, 2, 3], [2, 3, 1, 3], [1, 3, 1, 2], [1, 2, 1, 1]]
_GOOD = {"n": 4, "form": "seq",
         "blue": {"n": 4, "kind": "closed", "seq": _SQUARE},
         "red": {"n": 4, "kind": "open", "seq": [[2, 0, 2, 1], [2, 1, 2, 2]]},
         "sides": [[2, 0], [2, 2]]}
_GOOD_SET = {"n": 4, "form": "set",
             "blue": {"n": 4, "set": _SQUARE},
             "red": {"n": 4, "set": [[2, 0, 2, 1], [2, 1, 2, 2]]},
             "sides": [[2, 0], [2, 2]]}


def _doc(base=_GOOD, **changes):
    doc = json.loads(json.dumps(base))
    doc.update(changes)
    return json.dumps(doc)


def _exits_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err


MALFORMED = {
    "offset-int": _doc(offset=5),
    "sides-ints": _doc(sides=[5, 6]),
    "sides-string-coordinate": _doc(sides=[[1, "a"], [1, 3]]),
    "sides-not-two-apart": _doc(sides=[[2, 0], [2, 3]]),
    "set-not-a-list": _doc(_GOOD_SET, blue={"n": 4, "set": 5}),
    "seq-null": _doc(blue={"n": 4, "kind": "closed", "seq": None}),
    "boolean-coordinate": _doc(blue={"n": 4, "kind": "closed",
                                     "seq": [[True, 1, 2, 1]] + _SQUARE[1:]}),
    # without payloads, only the instance-level "n" can be wrong
    "boolean-n": json.dumps({"n": True, "form": "seq"}),
    "string-n": json.dumps({"n": "4", "form": "seq"}),
    "negative-n": json.dumps({"n": -3, "form": "seq"}),
    "set-form-not-a-curve": _doc(_GOOD_SET, blue={"n": 4, "set": [[1, 1, 2, 1]]}),
    "seq-red-misses-side-pair": _doc(red={"n": 4, "kind": "open",
                                          "seq": [[2, 0, 2, 1], [2, 1, 3, 1]]}),
    "not-json": '{"n": 4, "form": ',
    "integer-too-long": '{"n": ' + "9" * 5000 + "}",
}


def test_render_rejects_grid_over_cap(tmp_path, capsys):
    path, svg = tmp_path / "big.json", tmp_path / "out.svg"
    path.write_text(json.dumps({"n": 513, "form": "seq"}))
    _exits_1_with_one_line(capsys, ["render", "--instance", str(path), "--svg", str(svg)])
    assert not svg.exists()
    # connect draws on the x3 grid: n = 171 gives 513
    path.write_text(json.dumps({"n": 171, "form": "seq", "sides": [[6, 2], [6, 4]],
                                "blue": {"n": 171, "kind": "closed", "seq": _SQUARE}}))
    _exits_1_with_one_line(capsys, ["connect", "--instance", str(path), "--point", "0,0",
                                    "--svg", str(svg)])
    assert not svg.exists()


def test_gen_stconn_rejects_clauses_over_cap(tmp_path, capsys):
    # stconn(2000) would have about 120M clauses; none is built
    out = tmp_path / "f.cnf"
    _exits_1_with_one_line(capsys, ["gen", "--family", "stconn", "--n", "2000", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("mode, n", [("dpll", 4), ("exhaustive", 2)])
def test_gen_check_over_decision_budget_exits_1(monkeypatch, tmp_path, capsys, mode, n):
    # the check runs before anything is written: empty stdout, and no file
    monkeypatch.setattr(cnf, "MAX_DECISIONS", 3)
    out = tmp_path / "f.cnf"
    argv = ["gen", "--family", "stconn", "--n", str(n), "--check", mode]
    _exits_1_with_one_line(capsys, argv)
    _exits_1_with_one_line(capsys, argv + ["--out", str(out)])
    assert not out.exists()


def test_gen_stseq_rejects_n_over_cap(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    _exits_1_with_one_line(capsys, ["gen", "--family", "stseq", "--n", "6", "--out", str(out)])
    assert not out.exists()
    _exits_1_with_one_line(capsys, ["gen", "--family", "stseq", "--n", "6"])


def test_fuzz_rejects_n_over_cap(capsys):
    # the generators would try to grow billions of cells; none is grown
    _exits_1_with_one_line(capsys, ["fuzz", "--n", "100000", "--count", "1"])


# The CI smoke's small payloads.  Each subcommand must cost what its edges
# cost, or reject the declared n at once, with every "n" set to 10^9.  parity
# runs with --witness, as in CI: its profile prints one digit per column.
_RED_AROUND = [[2, 0, 3, 0], [3, 0, 4, 0], [4, 0, 4, 1], [4, 1, 4, 2], [4, 2, 3, 2], [3, 2, 2, 2]]
_ST = ([[0, 1, 1, 1], [1, 1, 1, 0]], [[0, 0, 1, 0], [1, 0, 1, 1]])
_SMOKE_PAYLOADS = {
    "sq": _GOOD,
    "conn": {"n": 4, "form": "seq", "blue": _GOOD["blue"], "sides": [[6, 2], [6, 4]]},
    "sqa": {**_GOOD, "red": {"n": 4, "kind": "open", "seq": _RED_AROUND}},
    "sqa-set": {**_GOOD_SET, "red": {"n": 4, "set": _RED_AROUND}},
    "st-seq": {"n": 1, "form": "seq", "blue": {"n": 1, "kind": "open", "seq": _ST[0]},
               "red": {"n": 1, "kind": "open", "seq": _ST[1]}},
    "st-set": {"n": 1, "form": "set", "blue": {"n": 1, "set": _ST[0]},
               "red": {"n": 1, "set": _ST[1]}},
    "arc": {"n": 8, "kind": "closed", "seq": [[5, 2, 4, 2], [4, 2, 3, 2], [3, 2, 2, 2], [2, 2, 1, 2],
                                               [1, 2, 2, 2], [2, 2, 3, 2], [3, 2, 4, 2], [4, 2, 5, 2]]},
    "above": {"n": 8, "kind": "open", "seq": [[3, 1, 2, 1], [2, 1, 1, 1], [1, 1, 0, 1], [0, 1, 0, 2],
                                               [0, 2, 0, 3], [0, 3, 0, 4], [0, 4, 1, 4], [1, 4, 2, 4],
                                               [2, 4, 3, 4], [3, 4, 3, 3]]},
}
_AT_1E9 = {
    "validate": ["validate", "--instance", "sq.json"],
    "parity-witness": ["parity", "--witness", "--instance", "sq.json"],
    "alternation": ["alternation", "--instance", "sq.json"],
    "regions": ["regions", "--instance", "sq.json"],
    "connect": ["connect", "--instance", "conn.json", "--point", "1,1"],
    "render": ["render", "--instance", "sq.json", "--svg", "sq.svg"],
    "merge": ["merge", "--blue", "arc.json", "--red", "above.json", "--out", "merged.json"],
    "reduce-jct-seq-out": ["reduce", "--from", "jct", "--form", "seq", "--instance", "sqa.json",
                           "--out", "o.json"],
    "reduce-jct-seq-edge-at": ["reduce", "--from", "jct", "--form", "seq", "--instance", "sqa.json",
                               "--edge-at", "0"],
    "reduce-jct-set-out": ["reduce", "--from", "jct", "--form", "set", "--instance", "sqa-set.json",
                           "--out", "o.json"],
    "reduce-jct-set-stdout": ["reduce", "--from", "jct", "--form", "set", "--instance",
                              "sqa-set.json"],
    "reduce-stconn-seq": ["reduce", "--from", "stconn", "--form", "seq", "--instance", "st-seq.json"],
    "reduce-stconn-set": ["reduce", "--from", "stconn", "--form", "set", "--instance", "st-set.json"],
    "gen-stconn": ["gen", "--family", "stconn", "--n", "1000000000"],
    "gen-stseq": ["gen", "--family", "stseq", "--n", "1000000000"],
    "fuzz": ["fuzz", "--n", "1000000000", "--count", "1"],
}
# the commands whose work follows the payload run at n = 10**9; the others reject it by a cap
_OK_AT_1E9 = {"validate", "parity-witness", "alternation", "regions", "connect", "merge"}


def _with_n(doc, n):
    """``doc`` with every "n" key, nested ones too, set to ``n``."""
    if not isinstance(doc, dict):
        return doc
    return {k: n if k == "n" else _with_n(v, n) for k, v in doc.items()}


@pytest.mark.parametrize("name", ["reduce-jct-seq-out", "reduce-jct-seq-edge-at",
                                  "reduce-jct-set-out", "reduce-jct-set-stdout"])
def test_reduce_from_jct_rejects_grid_over_cap(tmp_path, capsys, monkeypatch, name):
    # connectors and end runs grow with the declared n: n = 513 is rejected before any is built
    monkeypatch.chdir(tmp_path)
    for doc_name in ("sqa", "sqa-set"):
        doc = _with_n(_SMOKE_PAYLOADS[doc_name], 513)
        (tmp_path / f"{doc_name}.json").write_text(json.dumps(doc))
    assert main(_AT_1E9[name]) == 1
    assert capsys.readouterr() == ("", "error: reduce needs n <= 512, got n=513\n")
    assert not (tmp_path / "o.json").exists()


# main in a child whose address space is capped at 1 GiB; -S skips site's start-up imports
_UNDER_1_GIB = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
                "(1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
                "from gridjct.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("name", sorted(_AT_1E9))
def test_declared_n_of_1e9_costs_no_more_than_the_payload(tmp_path, name):
    for doc_name, doc in _SMOKE_PAYLOADS.items():
        (tmp_path / f"{doc_name}.json").write_text(json.dumps(_with_n(doc, 10 ** 9)))
    proc = _python("-S", "-c", _UNDER_1_GIB, *_AT_1E9[name], cwd=tmp_path, timeout=20)
    assert proc.returncode == (0 if name in _OK_AT_1E9 else 1), proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) <= 1, proc.stderr
    if name == "regions":  # the flood covers the curve's box, not the grid
        assert proc.stdout == "2\n"


@pytest.mark.parametrize("name", sorted(MALFORMED) + ["not-utf8"])
def test_malformed_instance_exits_1_with_one_line(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    if name == "not-utf8":
        path.write_bytes(b'{"n": 4, "form": "\xff\xfe"}')
    else:
        path.write_text(MALFORMED[name])
    _exits_1_with_one_line(capsys, ["validate", "--instance", str(path)])


def test_parity_without_red_exits_1(tmp_path, capsys):
    path = tmp_path / "no-red.json"
    path.write_text(json.dumps({k: v for k, v in _GOOD.items() if k != "red"}))
    for argv in (["parity"], ["parity", "--witness"]):
        assert main(argv + ["--instance", str(path)]) == 1
        assert capsys.readouterr() == ("", 'error: instance is missing "red"\n')


def test_validate_accepts_complete_and_partial_instances(tmp_path, capsys):
    for base in (_GOOD, _GOOD_SET):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(base))
        assert main(["validate", "--instance", str(path)]) == 0
    # a connect file: no red path, side pair on the x3 grid
    path.write_text(json.dumps({"n": 4, "form": "seq", "blue": _GOOD["blue"],
                                "sides": [[6, 2], [6, 4]]}))
    assert main(["validate", "--instance", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("point", ["a,b", "1,2,3", "1"])
def test_connect_rejects_bad_point(tmp_path, capsys, point):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"n": 4, "form": "seq", "blue": _GOOD["blue"],
                                "sides": [[6, 2], [6, 4]]}))
    _exits_1_with_one_line(capsys, ["connect", "--instance", str(path), "--point", point])


def test_merge_rejects_empty_red(tmp_path, capsys):
    bluef, redf = tmp_path / "b.json", tmp_path / "r.json"
    bluef.write_text(json.dumps(_GOOD["blue"]))
    redf.write_text(json.dumps({"n": 4, "kind": "open", "seq": []}))
    _exits_1_with_one_line(capsys, ["merge", "--blue", str(bluef), "--red", str(redf)])


def test_merge_rejects_non_json(tmp_path, capsys):
    bluef, redf = tmp_path / "b.json", tmp_path / "r.json"
    bluef.write_text(json.dumps(_GOOD["blue"]))
    redf.write_text("not json")
    _exits_1_with_one_line(capsys, ["merge", "--blue", str(bluef), "--red", str(redf)])


def test_merge_rejects_points_outside_grid(tmp_path, capsys):
    # merge skips the simplicity checks on its inputs, not the grid bounds:
    # this retraced arc reaches x = 5 on the n = 3 grid
    n = 3
    fwd = [(x, 2) for x in range(5, 0, -1)]
    pts = fwd + fwd[-2:0:-1]
    bluef, redf = tmp_path / "b.json", tmp_path / "r.json"
    bluef.write_text(json.dumps({"n": n, "kind": "closed", "seq": [
        [*pts[i], *pts[(i + 1) % len(pts)]] for i in range(len(pts))]}))
    red = EdgeSequence.from_points(
        [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)], n, OPEN)
    redf.write_text(json.dumps(edge_sequence_to_json(red)))
    _exits_1_with_one_line(capsys, ["merge", "--blue", str(bluef), "--red", str(redf)])


# One fault each on the CI smoke's merge pair and stconn instances: argv, the
# files it reads, exit code and stderr.  merge_paths checks the kinds before
# the chains, and reads the side pair off red's ends after them.
_ARC, _ABOVE = _SMOKE_PAYLOADS["arc"], _SMOKE_PAYLOADS["above"]
_PRECONDITION = "error: precondition violated: closed chain and open path\n"


def _merge(blue=_ARC, red=_ABOVE):
    return (["merge", "--blue", "blue.json", "--red", "red.json"],
            {"blue.json": blue, "red.json": red})


def _stconn(form, doc):
    return (["reduce", "--from", "stconn", "--form", form, "--instance", "st.json"],
            {"st.json": _SMOKE_PAYLOADS[doc]})


REROUTED = {
    "merge-red-kind-closed": (*_merge(red={**_ABOVE, "kind": "closed"}), 1, _PRECONDITION),
    "merge-red-ends-misaligned": (
        *_merge(red={**_ABOVE, "seq": _ABOVE["seq"][:-1]}), 1,
        "error: side pair must be vertically aligned two apart: (3, 1) (3, 4)\n"),
    "merge-red-empty": (*_merge(red={**_ABOVE, "seq": []}), 1, "error: empty edge sequence\n"),
    "merge-red-chain-broken": (
        *_merge(red={**_ABOVE, "seq": _ABOVE["seq"][:4] + _ABOVE["seq"][5:]}), 1,
        "error: edge 4 does not chain: (0, 2) != (0, 3)\n"),
    "merge-n-differs": (*_merge(red={**_ABOVE, "n": 9}), 1,
                        "error: grid parameters differ: 8 != 9\n"),
    "merge-blue-open": (*_merge(blue={**_ARC, "kind": "open"}), 1, _PRECONDITION),
    "merge-red-shares-a-point": (
        *_merge(red={"n": 8, "kind": "open", "seq": [[3, 1, 3, 2], [3, 2, 3, 3]]}), 1,
        "error: blue and red share a grid point; merge undefined\n"),
    "merge-red-reversed": (
        *_merge(red={**_ABOVE, "seq": [[c, d, a, b] for a, b, c, d in _ABOVE["seq"][::-1]]}),
        0, ""),
    "reduce-stconn-seq": (*_stconn("seq", "st-seq"), 0, ""),
    "reduce-stconn-set": (*_stconn("set", "st-set"), 0, ""),
    "reduce-stconn-form-mismatch": (*_stconn("set", "st-seq"), 1,
                                    "error: instance form 'seq' does not match --form set\n"),
}


@pytest.mark.parametrize("name", sorted(REROUTED))
def test_rerouted_rejections_keep_their_lines(tmp_path, capsys, monkeypatch, name):
    argv, files, code, err = REROUTED[name]
    monkeypatch.chdir(tmp_path)
    for path, doc in files.items():
        (tmp_path / path).write_text(json.dumps(doc))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code:
        assert captured.out == ""
    elif argv[0] == "merge":  # red merges from its lower end, as given or reversed
        (tmp_path / "red.json").write_text(json.dumps(_ABOVE))
        assert main(argv) == 0
        assert capsys.readouterr().out == captured.out
    else:
        assert json.loads(captured.out)["form"] == argv[4]


def test_merge_walks_the_merged_chain_once(tmp_path, capsys, monkeypatch):
    # merge_paths chain-checks its result; check_edge_alternation finds that check kept
    walk, walks = gridjct.grid.check_path, []

    def counted(edges, n, *args, **kw):
        edges = list(edges)
        walks.append((len(edges), kw.get("closed", False), kw.get("simple", True)))
        return walk(edges, n, *args, **kw)

    argv, files = _merge()
    monkeypatch.chdir(tmp_path)
    for path, doc in files.items():
        (tmp_path / path).write_text(json.dumps(doc))
    monkeypatch.setattr(gridjct.grid, "check_path", counted)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["alternates"] is False
    # the loader's walk of the revisiting blue payload, blue's chain check, the
    # end-fixed red's, and the merged chain's, once
    assert walks == [(8, True, True), (8, True, False), (24, False, False), (42, True, False)]


@pytest.mark.parametrize("argv, stand_in", [
    (["parity", "--instance", "sqa.json"], "gridjct.parity.parity_profile"),
    (["reduce", "--from", "jct", "--form", "seq", "--instance", "sqa.json", "--out", "out.json"],
     "gridjct.cli.write_seq_instance"),  # called inside the sink's block
], ids=["parity-profile", "reduce-inside-sink"])
def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch, argv, stand_in):
    def exhausted(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(stand_in, exhausted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sqa.json").write_text(json.dumps(_SMOKE_PAYLOADS["sqa"]))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["connect", "--instance", "curve.json", "--point", "-1,-1"],  # read as an option
    ["frobnicate"],  # unknown subcommand
    ["validate"],  # missing required --instance
    ["gen", "--family", "stconn", "--n", "2", "--json"],  # gen writes DIMACS only
], ids=["negative-point", "unknown-subcommand", "missing-flag", "gen-json"])
def test_usage_error_exits_1_with_one_line(capsys, argv):
    _exits_1_with_one_line(capsys, argv)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_fuzz_checks_regions_at_every_size(monkeypatch, capsys):
    monkeypatch.setattr(jordan, "count_regions", lambda curve: 3)
    assert main(["fuzz", "--n", "40", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["theorem violation: seed 0: wrong region count"]


# argv, (name cli looks up, stand-in), stdout, the violation stderr names
SELF_CHECKS = {
    "alternation": (["alternation"], ("gridjct.cli.check_edge_alternation", lambda curve: False),
                    "ALTERNATION VIOLATED\n", "a valid closed curve failed edge alternation"),
    "regions": (["regions"], ("gridjct.jordan.count_regions", lambda curve: 3),
                "3\n", "curve produced 3 regions instead of 2"),
    "fuzz-witness": (["fuzz", "--count", "1"],
                     ("gridjct.jordan.find_intersection_seq",
                      lambda blue, red, sides: IntersectionWitness(GridPoint(-1, -1), 0, 0)),
                     "", "seed 0: witness not actually shared"),
    "fuzz-alternation": (["fuzz", "--count", "1"],
                         ("gridjct.cli.check_edge_alternation", lambda curve: False),
                         "", "seed 0: curve failed edge alternation"),
}


@pytest.mark.parametrize("name", sorted(SELF_CHECKS))
def test_every_self_check_exits_2(monkeypatch, instance_file, capsys, name):
    argv, (target, stand_in), out, violation = SELF_CHECKS[name]
    monkeypatch.setattr(target, stand_in)
    if argv[0] != "fuzz":
        argv = [*argv, "--instance", instance_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.splitlines() == [f"theorem violation: {violation}"]


def test_fuzz_rejects_negative_count(monkeypatch, capsys):
    def no_instance(n, seed):
        raise AssertionError("no instance may be built")

    monkeypatch.setattr(generate, "gen_crossing_instance", no_instance)
    assert main(["fuzz", "--count", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --count must be >= 0, got -1\n"
    assert main(["fuzz", "--count", "0"]) == 0
    assert capsys.readouterr().out == "fuzz: 0 instances checked, no violations\n"


def test_fuzz_generation_exhausted_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(generate, "_side_candidates", lambda curve: [])
    _exits_1_with_one_line(capsys, ["fuzz", "--count", "1", "--n", "4"])


def test_parser_is_built_once_and_not_at_import():
    from gridjct.cli import build_parser
    assert build_parser() is build_parser()
    probe = _python("-c", "import gridjct.cli as c; print(c.build_parser.cache_info().currsize)")
    assert probe.stdout == "0\n", probe.stderr


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_GOOD))
    inst = ["--instance", str(path)]
    assert main(["parity", "--witness", *inst]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == [2, 1]
    assert main(["parity", *inst]) == 0  # the profile again, not the witness
    assert capsys.readouterr().out == "0000\n"

    assert main(["gen", "--family", "stconn", "--n", "2", "--check", "dpll"]) == 0
    assert capsys.readouterr().err == "c check [dpll]: UNSAT\n"
    assert main(["gen", "--family", "stconn", "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("c gridjct ")

    goods = [["regions", *inst], ["validate", "--json", *inst]]
    fresh = [_python("-m", "gridjct", *good).stdout for good in goods]
    for bad in (["regions", "--frobnicate", *inst], ["regions"]):
        _exits_1_with_one_line(capsys, bad)
        for good, want in zip(goods, fresh):
            assert main(good) == 0
            assert capsys.readouterr().out == want

    conn = tmp_path / "curve.json"
    conn.write_text(json.dumps({"n": 4, "form": "seq", "blue": _GOOD["blue"],
                                "sides": [[6, 2], [6, 4]]}))
    # "=" keeps the negative point a value: the point check rejects it, not argparse
    assert main(["connect", "--instance", str(conn), "--point=-1,-1"]) == 1
    assert capsys.readouterr().err == \
        "error: precondition violated: point inside the refined grid\n"
