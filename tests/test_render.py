"""SVG rendering: determinism, content, golden fixture, pinned digests."""

import hashlib
import pathlib

import pytest

from gridjct.generate import gen_crossing_instance
from gridjct.jordan import find_intersection_seq
from gridjct.jsonio import Instance
from gridjct.render import render_svg

GOLDEN = pathlib.Path(__file__).parent / "golden" / "redpath.svg"


def figure_instance():
    """Small instance echoing the curve-plus-dashed-path figure style."""
    inst = gen_crossing_instance(6, 2)
    return Instance(n=inst.n, form="seq", blue=inst.blue, red=inst.red,
                    sides=inst.sides), inst


def test_empty_payload_grid_only():
    svg = render_svg(Instance(n=3, form="set"))
    assert svg.count("<circle") == 16  # grid dots only
    assert "<line" not in svg


def test_instance_render_contents():
    cont, inst = figure_instance()
    w = find_intersection_seq(inst.blue, inst.red, inst.sides)
    svg = render_svg(cont, witnesses=[w.point])
    assert svg.count("stroke-dasharray") == len(inst.red)
    assert svg.count("<line") == len(inst.blue) + len(inst.red)
    assert ">p1<" in svg and ">p2<" in svg
    cx = 24 + w.point.x * 24  # one-cell margin, 24-unit cells
    assert f'cx="{cx}"' in svg  # witness marker at the witness point


def test_render_deterministic():
    cont, _ = figure_instance()
    assert render_svg(cont) == render_svg(cont)


def test_golden_fixture():
    cont, inst = figure_instance()
    w = find_intersection_seq(inst.blue, inst.red, inst.sides)
    svg = render_svg(cont, witnesses=[w.point])
    assert GOLDEN.exists(), f"golden fixture {GOLDEN} is missing"
    assert svg == GOLDEN.read_text()


def _render_case(name):
    cont, inst = figure_instance()
    w = find_intersection_seq(inst.blue, inst.red, inst.sides).point
    if name == "set-form":
        return render_svg(Instance(n=inst.n, form="set", blue=inst.blue.to_edge_set(),
                                   red=inst.red.to_edge_set(), sides=inst.sides))
    if name == "empty":
        return render_svg(Instance(n=3, form="set"))
    return render_svg(cont, witnesses=[w, (0, 6)])  # sides and two witnesses


RENDER_DIGESTS = {
    "set-form": "a3fb6f5066a4e2c15ba3ddfc654e324c5654e7743d305ecdfbf490132ecd5d2c",
    "empty": "55db948772b87b95e9a9500f306d70013f2e8179d5df56d319b2d7bc45ee966b",
    "sides-two-witnesses": "e35a428ba22ed24c50ff00b5d9252c58053fad121ba2b413ff55013c75467d69",
}


@pytest.mark.parametrize("name", sorted(RENDER_DIGESTS))
def test_render_digest_pinned(name):
    svg = _render_case(name)
    assert hashlib.sha256(svg.encode()).hexdigest() == RENDER_DIGESTS[name]
