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
    fh = io.StringIO()
    write_seq_instance(fh, 3, *quads, indent=indent)
    doc = instance_to_json(Instance(n=3, form="seq", blue=blue, red=red))
    assert fh.getvalue() == json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    with pytest.raises(KeyError):
        write_seq_instance(io.StringIO(), 3, [(0, 3, 0, 4)], quads[1], indent=indent)
