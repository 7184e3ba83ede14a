"""JSON round-trips and error reporting with edge indexes."""

import io
import json
import random
from collections import Counter

import pytest

from gridjct import jsonio
from gridjct.errors import FormatError, InvalidInstance
from gridjct.jsonio import (
    Instance,
    edge_sequence_from_json,
    edge_sequence_to_json,
    edge_set_from_json,
    edge_set_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    write_seq_instance,
)
from gridjct.generate import gen_crossing_instance
from gridjct.grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    check_path,
    side_pair,
)

from conftest import rect_curve, rect_set


@pytest.mark.parametrize("sides", [[[2, 0], [2, 3]], [[2, 0], [3, 2]], [[2, 2], [2, 2]]])
def test_sides_not_two_apart_raise_format_error(sides):
    with pytest.raises(FormatError, match="vertically aligned two apart"):
        instance_from_json({"n": 4, "form": "seq", "sides": sides})


def test_edge_set_roundtrip():
    es = rect_set(1, 1, 3, 2, 6)
    assert edge_set_from_json(edge_set_to_json(es)) == es


def test_edge_sequence_roundtrip():
    seq = rect_curve(0, 0, 2, 2, 5)
    assert edge_sequence_from_json(edge_sequence_to_json(seq)) == seq


def test_bad_edge_reports_index():
    with pytest.raises(FormatError) as exc:
        edge_set_from_json({"n": 4, "set": [[0, 0, 1, 0], [0, 0, 2, 0]]})
    assert exc.value.edge_index == 1
    with pytest.raises(FormatError) as exc:
        edge_set_from_json({"n": 4, "set": [[0, 0, 1, 0], [1, 0, 0, 0]]})
    assert exc.value.edge_index == 1  # duplicate of the canonical edge
    with pytest.raises(FormatError) as exc:
        edge_set_from_json({"n": 2, "set": [[0, 0, 1, 0], [2, 2, 2, 3]]})
    assert exc.value.edge_index == 1  # out of bounds
    with pytest.raises(FormatError) as exc:
        edge_sequence_from_json({"n": 4, "kind": "closed",
                                 "seq": [[0, 0, 1, 0], [2, 0, 2, 1]]})
    assert exc.value.edge_index == 1  # chain break


def test_bad_kind_rejected():
    with pytest.raises(FormatError):
        edge_sequence_from_json({"n": 4, "seq": [[0, 0, 1, 0]], "kind": "loop"})


def test_instance_roundtrip(tmp_path):
    inst = gen_crossing_instance(8, 11)
    cont = Instance(n=inst.n, form="seq", blue=inst.blue, red=inst.red, sides=inst.sides)
    blob = instance_to_json(cont)
    assert instance_from_json(blob) == cont
    path = tmp_path / "inst.json"
    save_instance(cont, path)
    assert load_instance(path) == cont
    # the file is plain JSON
    json.loads(path.read_text())


def test_checked_sequences_keep_their_point_set_and_degrees():
    # curves and paths built by from_points and loaded back from JSON: the
    # point set and degrees they carry are those of their own edges
    for seed in range(40):
        inst = gen_crossing_instance(6 + seed % 27, seed)
        for built in (inst.blue, inst.red):
            for seq in (built, edge_sequence_from_json(edge_sequence_to_json(built))):
                assert seq.point_set == frozenset(seq.points())
                es = seq.to_edge_set()
                assert es.degree_map == Counter(p for e in es.edges for p in e)


def test_instance_n_mismatch():
    seq = rect_curve(0, 0, 2, 2, 5)
    blob = {"n": 9, "form": "seq", "blue": edge_sequence_to_json(seq)}
    with pytest.raises(FormatError):
        instance_from_json(blob)


@pytest.mark.parametrize("indent", [None, 2])
def test_write_seq_instance_matches_json_dumps(indent):
    blue = EdgeSequence.from_points([(0, 3), (0, 2), (1, 2), (1, 1)], 3, OPEN)
    red = EdgeSequence.from_points([(0, 0), (1, 0)], 3, OPEN)
    quads = [[(e.src.x, e.src.y, e.dst.x, e.dst.y) for e in p.edges] for p in (blue, red)]
    # pieces (template, ox, oy); blue's last two edges as a template moved by (1, 1)
    moved = tuple((x1 - 1, y1 - 1, x2 - 1, y2 - 1) for x1, y1, x2, y2 in quads[0][1:])
    pieces = [[(tuple(quads[0][:1]), 0, 0), (moved, 1, 1)], [(tuple(quads[1]), 0, 0)]]
    fh = io.StringIO()
    write_seq_instance(fh, 3, *pieces, indent=indent)
    doc = instance_to_json(Instance(n=3, form="seq", blue=blue, red=red))
    assert fh.getvalue() == json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    with pytest.raises(KeyError):
        write_seq_instance(io.StringIO(), 3, [(((0, 0, 0, 1),), 0, 3)], pieces[1], indent=indent)


def test_write_json_tables_only_the_numbers_written():
    # a document declaring n = 10^9 writes as json.dumps would, and a number
    # outside [0, n] still raises KeyError
    doc = edge_sequence_to_json(rect_curve(1, 1, 3, 2, 10**9))
    fh = io.StringIO()
    jsonio.write_json(fh, doc)
    assert fh.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for n in (1, 10**9):  # a table of all of [0, n], and one of the numbers written
        for bad in (-1, n + 1):
            with pytest.raises(KeyError):
                jsonio.write_json(io.StringIO(),
                                  {**doc, "n": n, "seq": [[0, 0, 0, 1], [0, 1, 0, bad]]})


def _save_cases():
    """name -> instance; together they cover both forms, empty and missing
    payloads, the side pair, an offset, and coordinates of 1 to 3 digits."""
    inst = gen_crossing_instance(12, 3)
    big = rect_curve(0, 7, 512, 96, 512)
    big_red = EdgeSequence.from_points([(250, y) for y in range(0, 100)], 512, OPEN)
    big_sides = side_pair((250, 0), (250, 2))
    return {
        "seq": Instance(n=12, form="seq", blue=inst.blue, red=inst.red, sides=inst.sides),
        "set": Instance(n=12, form="set", blue=inst.blue.to_edge_set(),
                        red=inst.red.to_edge_set(), sides=inst.sides),
        "set-empty-payload": Instance(n=4, form="set", blue=EdgeSet(frozenset(), 4),
                                      red=rect_set(1, 1, 2, 3, 4)),
        "seq-empty-payload": Instance(n=4, form="seq", blue=rect_curve(0, 0, 4, 1, 4),
                                      red=EdgeSequence((), 4, OPEN)),
        "seq-no-red": Instance(n=12, form="seq", blue=inst.blue, sides=inst.sides),
        "set-no-red": Instance(n=12, form="set", blue=inst.blue.to_edge_set()),
        "no-payloads": Instance(n=3, form="seq"),
        "offset": Instance(n=12, form="seq", blue=inst.blue, red=inst.red, sides=inst.sides,
                           offset=(3, 11)),
        "set-offset": Instance(n=12, form="set", red=inst.red.to_edge_set(), offset=(0, 5)),
        "n512-seq": Instance(n=512, form="seq", blue=big, red=big_red, sides=big_sides),
        "n512-set": Instance(n=512, form="set", blue=big.to_edge_set(),
                             red=big_red.to_edge_set(), sides=big_sides),
    }


@pytest.mark.parametrize("name", sorted(_save_cases()))
def test_save_instance_writes_the_indented_json_dumps_text(tmp_path, name):
    inst = _save_cases()[name]
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    want = json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes().decode() == want


@pytest.mark.parametrize("batch", [1, 3])
def test_writer_batches_join_into_the_json_dumps_text(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(jsonio, "_BATCH", batch)
    cases = _save_cases()
    for name in ("seq", "n512-set", "set-empty-payload"):
        path = tmp_path / f"{name}.json"
        save_instance(cases[name], path)
        want = json.dumps(instance_to_json(cases[name]), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes().decode() == want, name
    tpl = tuple((x, 0, x + 1, 0) for x in range(7))
    for indent in (None, 2):
        fh = io.StringIO()
        write_seq_instance(fh, 9, [(tpl, 0, 1), (tpl[:2], 7, 1)], [(tpl[:1], 2, 9)], indent=indent)
        blue = EdgeSequence.from_points([(x, 1) for x in range(10)], 9, OPEN)
        red = EdgeSequence.from_points([(2, 9), (3, 9)], 9, OPEN)
        doc = instance_to_json(Instance(n=9, form="seq", blue=blue, red=red))
        assert fh.getvalue() == json.dumps(doc, indent=indent, sort_keys=True) + "\n"


_SQUARE = [[1, 1, 2, 1], [2, 1, 3, 1], [3, 1, 3, 2], [3, 2, 3, 3],
           [3, 3, 2, 3], [2, 3, 1, 3], [1, 3, 1, 2], [1, 2, 1, 1]]
_SHAPE = "edge 1: expected [x1,y1,x2,y2] of ints"
_BOUNDS = "edge 1: endpoint outside grid [0,4]^2"

# name -> (entries on the n = 4 grid, set-form error, seq-form error); each
# error is (message, edge_index), or None when that form loads the entries.
LOADER_FAULTS = {
    "int-entry": ([_SQUARE[0], 5], (_SHAPE, 1), (_SHAPE, 1)),
    "string-entry": ([_SQUARE[0], "2131"], (_SHAPE, 1), (_SHAPE, 1)),
    "dict-entry": ([_SQUARE[0], {"x": 1}], (_SHAPE, 1), (_SHAPE, 1)),
    "three-ints": ([_SQUARE[0], [2, 1, 3]], (_SHAPE, 1), (_SHAPE, 1)),
    "five-ints": ([_SQUARE[0], [2, 1, 3, 1, 0]], (_SHAPE, 1), (_SHAPE, 1)),
    "true": ([_SQUARE[0], [2, 1, True, 1]], (_SHAPE, 1), (_SHAPE, 1)),
    "float": ([_SQUARE[0], [2, 1, 3.0, 1]], (_SHAPE, 1), (_SHAPE, 1)),
    "string": ([_SQUARE[0], [2, 1, "3", 1]], (_SHAPE, 1), (_SHAPE, 1)),
    "type-before-bounds": ([_SQUARE[0], [9, 1, 1.0, 1]], (_SHAPE, 1), (_SHAPE, 1)),
    "negative": ([_SQUARE[0], [2, 1, 2, -1]], (_BOUNDS, 1), (_BOUNDS, 1)),
    "above-n": ([_SQUARE[0], [2, 1, 5, 1]], (_BOUNDS, 1), (_BOUNDS, 1)),
    "bounds-before-adjacency": ([_SQUARE[0], [2, 1, 9, 9]], (_BOUNDS, 1), (_BOUNDS, 1)),
    # the set form names the endpoints in lexicographic order
    "diagonal": ([_SQUARE[0], [3, 2, 2, 1]],
                 ("edge 1: edge endpoints not adjacent: (2, 1)-(3, 2)", 1),
                 ("edge 1: edge endpoints not adjacent: (3, 2)-(2, 1)", 1)),
    "zero-length": ([_SQUARE[0], [2, 1, 2, 1]],
                    ("edge 1: edge endpoints not adjacent: (2, 1)-(2, 1)", 1),
                    ("edge 1: edge endpoints not adjacent: (2, 1)-(2, 1)", 1)),
    "duplicate": ([_SQUARE[0], [2, 1, 1, 1], [0, 0, 0, 0]],
                  ("edge 1: duplicate edge", 1),
                  ("edge 2: edge endpoints not adjacent: (0, 0)-(0, 0)", 2)),
    "first-fault-wins": ([_SQUARE[0], [2, 1, 3, 2], [2, 1, 9, 1], "x"],
                         ("edge 1: edge endpoints not adjacent: (2, 1)-(3, 2)", 1),
                         ("edge 1: edge endpoints not adjacent: (2, 1)-(3, 2)", 1)),
    # a chain break at 3 is found only after every entry has parsed
    "entry-beats-chain": (_SQUARE[:3] + [[0, 0, 1, 0]] + _SQUARE[3:] + [_SQUARE[0], [0, 4, 0, 5]],
                          ("edge 9: duplicate edge", 9),
                          ("edge 10: endpoint outside grid [0,4]^2", 10)),
    "chain-break": (_SQUARE[:3] + [[0, 0, 1, 0]] + _SQUARE[3:], None,
                    ("edge 3 does not chain: (3, 2) != (0, 0)", 3)),
}


@pytest.mark.parametrize("name", sorted(LOADER_FAULTS))
@pytest.mark.parametrize("form", ["set", "seq"])
def test_loader_error_contract(form, name):
    entries, set_error, seq_error = LOADER_FAULTS[name]
    if form == "set":
        load, obj, want = edge_set_from_json, {"n": 4, "set": entries}, set_error
    else:
        load, want = edge_sequence_from_json, seq_error
        obj = {"n": 4, "seq": entries, "kind": "closed"}
    if want is None:  # no fault in this form
        load(obj)
        return
    with pytest.raises(FormatError) as exc:
        load(obj)
    assert (str(exc.value), exc.value.edge_index) == want


def _per_entry_load(form, obj):
    """The loader's contract restated entry by entry: for each entry its
    shape and int type, then its bounds, then its adjacency, then (set form)
    whether it repeats an earlier edge; then (sequence form) the chain checks
    of ``check_path``.  Returns what the loader returns or raises what it
    raises."""
    n, entries = obj["n"], obj[form]
    if not isinstance(entries, (list, tuple)):
        raise FormatError(f'"{form}" must be a list of [x1,y1,x2,y2] entries')
    quads, seen = [], set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4
                and all(type(v) is int for v in entry)):
            raise FormatError(f"edge {i}: expected [x1,y1,x2,y2] of ints", edge_index=i)
        x1, y1, x2, y2 = entry
        if not all(0 <= v <= n for v in entry):
            raise FormatError(f"edge {i}: endpoint outside grid [0,{n}]^2", edge_index=i)
        if form == "set" and (x2, y2) < (x1, y1):
            x1, y1, x2, y2 = x2, y2, x1, y1
        if abs(x2 - x1) + abs(y2 - y1) != 1:
            raise FormatError(f"edge {i}: edge endpoints not adjacent: {(x1, y1)}-{(x2, y2)}",
                              edge_index=i)
        if form == "set" and (x1, y1, x2, y2) in seen:
            raise FormatError(f"edge {i}: duplicate edge", edge_index=i)
        seen.add((x1, y1, x2, y2))
        quads.append((x1, y1, x2, y2))
    pairs = [(GridPoint(x1, y1), GridPoint(x2, y2)) for x1, y1, x2, y2 in quads]
    if form == "set":
        return EdgeSet(frozenset(Edge(a, b) for a, b in pairs), n)
    try:
        check_path(quads, n, closed=obj["kind"] == CLOSED)
    except InvalidInstance as exc:
        raise FormatError(str(exc), edge_index=exc.edge_index) from None
    return EdgeSequence(tuple(DirectedEdge(a, b) for a, b in pairs), n, obj["kind"])


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class, message and index are compared
        return ("raised", type(exc), str(exc), getattr(exc, "edge_index", None))


def _assert_loads_as_per_entry(n, entries, kind):
    for form, load in (("set", edge_set_from_json), ("seq", edge_sequence_from_json)):
        obj = {"n": n, form: entries, "kind": kind} if form == "seq" else {"n": n, form: entries}
        assert _outcome(load, obj) == _outcome(_per_entry_load, form, obj), (form, entries)


def _mutated(rng, quads, n):
    """``quads`` (lists of [x1, y1, x2, y2]) after one seeded mutation."""
    out = [list(q) for q in quads]
    i = rng.randrange(len(out))
    k = rng.randrange(4)
    what = rng.randrange(14)
    if what == 0:
        out[i][k] = rng.choice([True, False, 1.0, float(out[i][k]), "3", str(out[i][k]), None])
    elif what == 1:
        out[i][k] = rng.choice([-1, n + 1, -5, 2 * n + 3])
    elif what == 2:
        out[i][k] = rng.randint(0, n)
    elif what == 3:
        out[i] = rng.choice([out[i][:3], out[i] + [0], out[i][:2], []])
    elif what == 4:
        out[i] = rng.choice([[out[i][:2], out[i][2:]], [[v] for v in out[i]], [out[i]]])
    elif what == 5:
        out[i] = rng.choice([5, "2131", {"x": 1}, None, tuple(out[i])])
    elif what == 6:
        del out[i]  # a chain break, or a closed curve that does not return
    elif what == 7:
        out.insert(i, list(out[i]))  # a revisit, or a duplicate set edge
    elif what == 8:
        out[i] = out[i][2:] + out[i][:2]  # reversed: a chain break
    elif what == 9:
        a, b = rng.sample(range(len(out)), 2) if len(out) > 1 else (0, 0)
        out[a], out[b] = out[b], out[a]
    elif what == 10:
        out = out[:rng.randrange(4)]  # fewer than 4 edges
    elif what == 11:
        out = rng.choice([[], [[0, 0, 1, 0], [1, 0, 0, 0]], [[0, 0, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0]]])
    elif what == 12:
        out[i] = [out[i][0], out[i][1], out[i][0] + rng.choice([-1, 0, 1, 2]),
                  out[i][1] + rng.choice([-1, 0, 1])]  # a diagonal, zero or long step
    else:
        j = rng.randrange(len(out))  # a revisit in the middle of the chain
        out[i:i + 1] = [[*out[i][:2], *out[j][:2]], [*out[j][:2], *out[i][2:]]]
    return out


@pytest.mark.parametrize("name", sorted(LOADER_FAULTS))
def test_loader_faults_match_the_per_entry_contract(name):
    _assert_loads_as_per_entry(4, LOADER_FAULTS[name][0], CLOSED)
    _assert_loads_as_per_entry(4, LOADER_FAULTS[name][0], OPEN)


def test_seeded_mutations_load_as_the_per_entry_contract():
    rng = random.Random(2024)
    for seed in range(400):
        n = rng.randint(4, 16)
        inst = gen_crossing_instance(n, seed)
        for payload in (inst.blue, inst.red):
            quads = edge_sequence_to_json(payload)["seq"]
            _assert_loads_as_per_entry(n, quads, payload.kind)
            entries = quads
            for _ in range(rng.randint(1, 3)):
                if entries and all(isinstance(q, list) and len(q) == 4
                                   and all(type(v) is int for v in q) for q in entries):
                    entries = _mutated(rng, entries, n)
            _assert_loads_as_per_entry(n, entries, payload.kind)
            _assert_loads_as_per_entry(n, edge_set_to_json(payload.to_edge_set())["set"],
                                       payload.kind)
    for entries in ([], {"x": 1}, 7, "seq", [[0, 0, 1, 0]], (), [(0, 0, 1, 0), (1, 0, 1, 1)]):
        _assert_loads_as_per_entry(4, entries, OPEN)
