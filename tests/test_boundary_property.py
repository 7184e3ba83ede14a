"""Properties at the input boundary, never an escaped exception.

Any JSON document parses to an Instance or a FormatError, and ``gridjct
validate`` on it exits 0 or 1 with one line of output.  Any argv -- drawn
subcommands, flags, present and missing paths, and ints -- exits 0 or 1,
and a failure prints one stderr line and nothing on stdout."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gridjct.cli import main  # noqa: E402
from gridjct.errors import FormatError  # noqa: E402
from gridjct.grid import OPEN, EdgeSequence  # noqa: E402
from gridjct.jsonio import Instance, edge_sequence_to_json, instance_from_json  # noqa: E402

from test_cli import _GOOD, _GOOD_SET  # noqa: E402
from test_jordan import retraced_arc  # noqa: E402

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


# --- argv ------------------------------------------------------------------

# Small ints, negatives and values over 10^6.  Work that grows with an int is
# kept small: --check and the stseq family only with --n <= 3 (dpll takes
# 7.8 s on stconn(5), and stseq(5) writes 0.7M clauses), fuzz only with
# --count <= 2.
ints = st.integers(-3, 6) | st.integers(max_value=-1) | st.integers(min_value=10**6 + 1)
small_ints = st.integers(-3, 3) | st.integers(max_value=-1) | st.integers(min_value=10**6 + 1)

_B1, _R1 = [[0, 1, 1, 1], [1, 1, 1, 0]], [[0, 0, 1, 0], [1, 0, 1, 1]]
_RED2 = [[2, 0, 3, 0], [3, 0, 4, 0], [4, 0, 4, 1], [4, 1, 4, 2], [4, 2, 3, 2], [3, 2, 2, 2]]
ARGV_FILES = {  # the files a drawn argv may name, besides a missing one and the directory
    "seq.json": _GOOD,
    "set.json": _GOOD_SET,
    "reducible.json": dict(_GOOD, red={"n": 4, "kind": "open", "seq": _RED2}),
    "reducible-set.json": dict(_GOOD_SET, red={"n": 4, "set": _RED2}),
    "stconn-seq.json": {"n": 1, "form": "seq", "blue": {"n": 1, "kind": "open", "seq": _B1},
                        "red": {"n": 1, "kind": "open", "seq": _R1}},
    "stconn-set.json": {"n": 1, "form": "set", "blue": {"n": 1, "set": _B1},
                        "red": {"n": 1, "set": _R1}},
    "connect.json": {"n": 4, "form": "seq", "blue": _GOOD["blue"], "sides": [[6, 2], [6, 4]]},
    "arc.json": edge_sequence_to_json(retraced_arc(range(5, 0, -1), 2, 8)),
    "path.json": edge_sequence_to_json(EdgeSequence.from_points(
        [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)], 8, OPEN)),
}
INPUTS = sorted(ARGV_FILES) + ["missing.json", ""]  # "" names the directory itself
_INSTANCES = ["seq.json", "set.json", "reducible.json", "reducible-set.json"]

# subcommand -> flag -> (the values that fit it: a list, OUT, INT or POINT,
# or None for a bare flag; whether argparse requires the flag)
OUT, INT, POINT = "out", "int", "point"
SUBCOMMANDS = {
    "validate": {"--instance": (_INSTANCES, True)},
    "parity": {"--instance": (_INSTANCES, True), "--witness": (None, False),
               "--profile": (None, False)},
    "alternation": {"--instance": (_INSTANCES, True)},
    "regions": {"--instance": (_INSTANCES, True)},
    "connect": {"--instance": (["connect.json"], True), "--point": (POINT, True),
                "--svg": (OUT, False)},
    "merge": {"--blue": (["arc.json"], True), "--red": (["path.json"], True),
              "--out": (OUT, False), "--svg": (OUT, False)},
    "reduce": {"--from": (["jct", "stconn"], True), "--form": (["set", "seq"], True),
               "--instance": (["reducible.json", "reducible-set.json", "stconn-seq.json",
                               "stconn-set.json"], True),
               "--out": (OUT, False), "--edge-at": (INT, False)},
    "gen": {"--check": (["exhaustive", "dpll"], False), "--family": (["stconn", "stseq"], True),
            "--n": (INT, True), "--out": (OUT, False), "--weaken": (["no-intersection"], False)},
    "render": {"--instance": (_INSTANCES, True), "--svg": (OUT, True)},
    "fuzz": {"--seed": (INT, False), "--n": (INT, False)},
}


def _one_in_ten(draw):
    return draw(st.integers(0, 9)) == 0


@st.composite
def argvs(draw):
    """An argv with ``<dir>`` standing for the directory of ARGV_FILES.  A
    required flag is left out, a fitting value swapped for one that does not
    fit, one time in ten; any other flag is given half the time."""
    command = "nope" if _one_in_ten(draw) else draw(st.sampled_from(sorted(SUBCOMMANDS)))
    spec = SUBCOMMANDS.get(command, {})
    values = {}
    for flag, (fits, required) in sorted(spec.items()):  # --check, --family before --n
        given = not _one_in_ten(draw) if required else draw(st.booleans())
        if not given or fits is None:
            continue
        if fits == OUT:
            values[flag] = "<dir>/" + draw(st.sampled_from(["out", "no-dir/out"]))
        elif fits == INT:
            capped = "--check" in values or values.get("--family") == "stseq"
            values[flag] = str(draw(small_ints if capped else ints))
        elif fits == POINT:
            x, y = draw(st.integers(0, 12)), draw(ints)
            values[flag] = draw(st.sampled_from([f"{x},{x}", f"{x},{y}", "1", "a,b"]))
        elif _one_in_ten(draw):
            values[flag] = draw(st.sampled_from(["x", *("<dir>/" + f for f in INPUTS)]))
        else:
            value = draw(st.sampled_from(fits))
            values[flag] = "<dir>/" + value if value in ARGV_FILES else value
    if command == "fuzz":
        values["--count"] = str(draw(st.integers(-3, 2)))
    bare = [flag for flag, (fits, _) in spec.items() if fits is None and draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(sorted(values) + bare)):
        argv += [flag, values[flag]] if flag in values else [flag]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + (draw(st.sampled_from([["--bogus"], ["x"]])) if _one_in_ten(draw) else [])


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    for name, doc in ARGV_FILES.items():
        (d / name).write_text(json.dumps(doc))
    return d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
def test_any_argv_exits_0_or_1(argv_dir, argv):
    argv = [a.replace("<dir>", str(argv_dir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1), (argv, err.getvalue())
    if rc == 1:
        assert len(err.getvalue().splitlines()) == 1 and out.getvalue() == "", argv
