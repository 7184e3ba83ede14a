"""Deterministic SVG rendering: grid dots, solid curve, dashed path, markers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .errors import PreconditionViolation
from .grid import EdgeSet, GridPoint, Instance

# Every grid dot is drawn, so time, memory and output grow as n^2.
MAX_N = 512


@dataclass(frozen=True)
class RenderSpec:
    cell: int = 24
    margin: int = 24
    dot_radius: float = 1.5
    grid_color: str = "#c8c8c8"
    curve_color: str = "#1f4fd8"
    curve_width: float = 3.0
    path_color: str = "#d03030"
    path_width: float = 3.0
    path_dash: str = "7,5"
    side_color: str = "#222222"
    witness_color: str = "#0a8a0a"
    witness_radius: float = 6.0


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def _edges_of(payload) -> Iterable[Tuple[GridPoint, GridPoint]]:
    if payload is None:
        return []
    if isinstance(payload, EdgeSet):
        return [(e.a, e.b) for e in payload.sorted_edges()]
    return [(e.src, e.dst) for e in payload.edges]


def render_svg(inst: Instance, spec: RenderSpec = None, witnesses=()) -> str:
    """SVG document for an instance; byte-identical for identical inputs.
    Grids larger than ``MAX_N`` are rejected; an edge endpoint outside
    [0, n]^2 raises ``KeyError``."""
    spec = spec or RenderSpec()
    n = inst.n
    if n > MAX_N:
        raise PreconditionViolation(f"n <= {MAX_N}", f"render needs n <= {MAX_N}, got n={n}")
    size = 2 * spec.margin + n * spec.cell

    def sx(x: int) -> float:
        return spec.margin + x * spec.cell

    def sy(y: int) -> float:
        return spec.margin + (n - y) * spec.cell

    # each grid coordinate's text and each element's constant tail, formatted once
    xs = {x: _fmt(sx(x)) for x in range(n + 1)}
    ys = {y: _fmt(sy(y)) for y in range(n + 1)}
    dot = f'" r="{_fmt(spec.dot_radius)}" fill="{spec.grid_color}"/>'
    curve = (f'" stroke="{spec.curve_color}" stroke-width="{_fmt(spec.curve_width)}" '
             f'stroke-linecap="round"/>')
    path = (f'" stroke="{spec.path_color}" stroke-width="{_fmt(spec.path_width)}" '
            f'stroke-dasharray="{spec.path_dash}" stroke-linecap="round"/>')
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for cy in ys.values():
        parts += [f'<circle cx="{cx}" cy="{cy}{dot}' for cx in xs.values()]
    for payload, tail in ((inst.blue, curve), (inst.red, path)):
        parts += [f'<line x1="{xs[a.x]}" y1="{ys[a.y]}" x2="{xs[b.x]}" y2="{ys[b.y]}{tail}'
                  for a, b in _edges_of(payload)]
    if inst.sides is not None:
        for label, p in (("p1", inst.sides.p1), ("p2", inst.sides.p2)):
            parts.append(f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="4" '
                         f'fill="{spec.side_color}"/>')
            parts.append(f'<text x="{_fmt(sx(p.x) + 6)}" y="{_fmt(sy(p.y) - 6)}" '
                         f'font-size="12" fill="{spec.side_color}">{label}</text>')
    for w in witnesses:
        p = GridPoint(*w)
        parts.append(f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" '
                     f'r="{_fmt(spec.witness_radius)}" fill="none" '
                     f'stroke="{spec.witness_color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(sx(p.x) + 8)}" y="{_fmt(sy(p.y) + 4)}" '
                     f'font-size="12" fill="{spec.witness_color}">x</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
