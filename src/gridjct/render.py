"""Deterministic SVG rendering: grid dots, solid curve, dashed path, markers."""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import PreconditionViolation
from .grid import EdgeSet, GridPoint, Instance

# Every grid dot is drawn, so time, memory and output grow as n^2.
MAX_N = 512


def _edges_of(payload) -> Iterable[Tuple[GridPoint, GridPoint]]:
    if payload is None:
        return []
    if isinstance(payload, EdgeSet):
        return [(e.a, e.b) for e in payload.sorted_edges()]
    return [(e.src, e.dst) for e in payload.edges]


def render_svg(inst: Instance, witnesses=()) -> str:
    """SVG document for an instance in one fixed style: 24-unit cells and a
    one-cell margin; byte-identical for identical inputs.  Grids larger than
    ``MAX_N`` are rejected; an edge endpoint outside [0, n]^2 raises
    ``KeyError``."""
    n = inst.n
    if n > MAX_N:
        raise PreconditionViolation(f"n <= {MAX_N}", f"render needs n <= {MAX_N}, got n={n}")
    size = 24 * (n + 2)

    def sx(x: int) -> int:
        return 24 * (x + 1)

    def sy(y: int) -> int:
        return 24 * (n - y + 1)

    # each grid coordinate's text and each element's constant tail, formatted once
    xs = {x: str(sx(x)) for x in range(n + 1)}
    ys = {y: str(sy(y)) for y in range(n + 1)}
    dot = '" r="1.5" fill="#c8c8c8"/>'
    curve = '" stroke="#1f4fd8" stroke-width="3" stroke-linecap="round"/>'
    path = '" stroke="#d03030" stroke-width="3" stroke-dasharray="7,5" stroke-linecap="round"/>'
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
            parts.append(f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="4" fill="#222222"/>')
            parts.append(f'<text x="{sx(p.x) + 6}" y="{sy(p.y) - 6}" '
                         f'font-size="12" fill="#222222">{label}</text>')
    for w in witnesses:
        p = GridPoint(*w)
        parts.append(f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="6" fill="none" '
                     f'stroke="#0a8a0a" stroke-width="2"/>')
        parts.append(f'<text x="{sx(p.x) + 8}" y="{sy(p.y) + 4}" '
                     f'font-size="12" fill="#0a8a0a">x</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
