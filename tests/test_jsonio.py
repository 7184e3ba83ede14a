"""JSON round-trips and error reporting with edge indexes."""

import io
import json

import pytest

from gridjct.errors import FormatError
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

from conftest import rect_curve, rect_set


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


def test_instance_n_mismatch():
    seq = rect_curve(0, 0, 2, 2, 5)
    blob = {"n": 9, "form": "seq", "blue": edge_sequence_to_json(seq)}
    with pytest.raises(FormatError):
        instance_from_json(blob)


@pytest.mark.parametrize("indent", [None, 2])
def test_write_seq_instance_matches_json_dumps(indent):
    from gridjct.grid import EdgeSequence
    blue = EdgeSequence.open_path([((0, 3), (0, 2)), ((0, 2), (1, 2)), ((1, 2), (1, 1))], 3)
    red = EdgeSequence.open_path([((0, 0), (1, 0))], 3)
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
