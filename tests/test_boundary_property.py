"""Property: any JSON document parses to an Instance or a FormatError, and
``gridjct validate`` on it exits 0 or 1 with one line of output, never with
an escaped exception."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gridjct.cli import main  # noqa: E402
from gridjct.errors import FormatError  # noqa: E402
from gridjct.jsonio import Instance, instance_from_json  # noqa: E402

from test_cli import _GOOD, _GOOD_SET  # noqa: E402

VALID = [dict(_GOOD, offset=[0, 1]), dict(_GOOD_SET, offset=[0, 1])]

KEYS = ["n", "form", "blue", "red", "sides", "offset", "set", "seq", "kind"]
scalars = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
           | st.sampled_from(["set", "seq", "open", "closed", "4", ""]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                                     max_size=6)),
    max_leaves=12,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def mutated_documents(draw):
    """A valid document with one field, at any depth, replaced or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = draw(scalars | st.lists(scalars, max_size=5) | json_values)
    return doc


def _check(doc, path):
    try:
        assert isinstance(instance_from_json(doc), Instance)
    except FormatError:
        pass
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["validate", "--instance", str(path)])
    assert rc in (0, 1)
    printed, silent = (out, err) if rc == 0 else (err, out)
    assert len(printed.getvalue().splitlines()) == 1 and silent.getvalue() == ""


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "doc.json"


@SETTINGS
@given(doc=json_values)
def test_arbitrary_json_is_parsed_or_rejected(doc_path, doc):
    _check(doc, doc_path)


@SETTINGS
@given(doc=mutated_documents())
def test_mutated_instance_is_parsed_or_rejected(doc_path, doc):
    _check(doc, doc_path)
