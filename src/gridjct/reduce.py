"""Reductions between side-crossing instances and corner-to-corner
st-connectivity instances, in set and sequence forms.

The corner-to-corner direction closes the blue path into a curve around an
enlarged grid and drags the red path to a fresh side pair.  The opposite
direction reflects each edge out of its diagonal quarter of a grid centered
on the side-pair midpoint, and joins the two images of a diagonal point
touched from two quarters by an L-shaped connector (:func:`_connector`).
The set form is the union of images and connectors; the sequence form keeps
them in travel order as a coarse core of unit steps (:func:`_seq_core`),
refines the grid 8N-fold and pads each image step, with the connector after
it, to exactly 16N^2 output edges, so any output index is resolvable in
constant time.

Each direction is built once: the set form is the union of the pieces that
the sequence form splices in order (and, for the reflection, refines and
pads).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import InvalidInstance, PreconditionViolation, TheoremViolation
from .grid import (
    CLOSED,
    MAX_N,
    OPEN,
    DirectedEdge,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridObject,
    GridPoint,
    Instance,
    _form_of,
    _joins,
    _unit_steps,
    check_path,
    corner_ends,
    side_pair,
    translate,
)

# Output edges grow about as N^4, 16N^2 per input edge: an n = 20 input writes
# 1.71M and an n = 64 one 149M (about 10 GB of JSON), so a whole output over
# this many edges is rejected before any is written.  edge_at is not capped.
MAX_OUT_EDGES = 4_000_000


@dataclass(frozen=True)
class StConnInstance:
    """Blue joins the upper-left and lower-right corners, red the other two."""

    n: int
    blue: GridObject
    red: GridObject

    @property
    def form(self) -> str:
        return _form_of(self.blue)

    def validate(self) -> "StConnInstance":
        if _form_of(self.blue) != _form_of(self.red):
            raise InvalidInstance("blue and red must share a form")
        if self.blue.n != self.n or self.red.n != self.n:
            raise InvalidInstance("payload grid parameter mismatch")
        for color, (p1, p2) in corner_ends(self.n).items():
            if not _joins(getattr(self, color), p1, p2):
                raise InvalidInstance(f"{color} path must join {tuple(p1)} and {tuple(p2)}")
        return self


# ---------------------------------------------------------------------------
# st-connectivity -> side crossing: close blue around the top/right boundary,
# drag red around the bottom to a fresh side pair at (n+1, 0)/(n+1, 2).
# ---------------------------------------------------------------------------

def _polyline(*pts) -> List[DirectedEdge]:
    """Unit edges of the axis-parallel runs through the points in order."""
    out = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        dx, dy = bx - ax, by - ay
        if dx and dy:
            raise TheoremViolation("run endpoints not axis aligned")
        out += [DirectedEdge(GridPoint(x1, y1), GridPoint(x2, y2)) for x1, y1, x2, y2 in
                _unit_steps(ax, ay, (dx > 0) - (dx < 0), (dy > 0) - (dy < 0) or 1, abs(dx + dy))]
    return out


def _spliced(form: str, pieces, n: int, kind: str) -> GridObject:
    """One output color from its pieces in path order: the set form is their
    union, the sequence form splices them."""
    edges = [e for piece in pieces for e in piece]
    if form == "set":
        return EdgeSet(frozenset(Edge.of(*e) for e in edges), n)
    return EdgeSequence(tuple(edges), n, kind)


def stconn_to_jct(inst: StConnInstance) -> Instance:
    """Embed an st-connectivity instance as a side-crossing instance of the
    same form on the (n+2) grid; intersection status is preserved point for
    point.  Shift the input up by one, close blue from the lower-right corner
    round the right column and the top row, and run red from the fresh side
    point (n+1, 0) along the bottom into its path and on to (n+1, 2).  The
    set form is the union of these runs, the sequence form splices them."""
    form = inst.validate().form
    n, n_out = inst.n, inst.n + 2
    blue, red = inst.blue, inst.red
    if form == "seq":  # each path from its first corner
        ends = corner_ends(n)
        blue = blue if blue.start == ends["blue"][0] else blue.reverse()
        red = red if red.start == ends["red"][0] else red.reverse()
    closure = _polyline((n, 1), (n + 2, 1), (n + 2, n + 2), (0, n + 2), (0, n + 1))
    prefix = _polyline((n + 1, 0), (0, 0), (0, 1))
    suffix = _polyline((n, n + 1), (n + 1, n + 1), (n + 1, 2))
    return Instance(
        n=n_out, form=form,
        blue=_spliced(form, (translate(blue, 0, 1, n_out).edges, closure), n_out, CLOSED),
        red=_spliced(form, (prefix, translate(red, 0, 1, n_out).edges, suffix), n_out, OPEN),
        sides=side_pair((n + 1, 0), (n + 1, 2)), offset=(0, 1)).validate()


# ---------------------------------------------------------------------------
# Side crossing -> st-connectivity: reflect the four diagonal quarters of the
# midpoint-centered grid outward.
# ---------------------------------------------------------------------------

def _centering(inst: Instance) -> Tuple[int, int, int]:
    """Big-grid parameters: (N, dx, dy) with the midpoint landing at (N, N)
    of the 2N grid and the input grid inside [N/2, 3N/2]^2."""
    mid, n = inst.sides.mid, inst.n
    half = max(mid.x, mid.y, n - mid.x, n - mid.y)
    big_n = 2 * half
    return big_n, big_n - mid.x, big_n - mid.y


def _reflect(quarter: str, p: GridPoint, big_n: int) -> GridPoint:
    if quarter == "B":
        return GridPoint(p.x, big_n - p.y)
    if quarter == "L":
        return GridPoint(big_n - p.x, p.y)
    if quarter == "T":
        return GridPoint(p.x, 3 * big_n - p.y)
    if quarter == "R":
        return GridPoint(3 * big_n - p.x, p.y)
    raise TheoremViolation(f"unknown quarter {quarter!r}")


def _strict_quarter(p: GridPoint, big_n: int) -> Optional[str]:
    du, dv = p.x - big_n, p.y - big_n
    if dv < -abs(du):
        return "B"
    if dv > abs(du):
        return "T"
    if du < -abs(dv):
        return "L"
    if du > abs(dv):
        return "R"
    return None  # on a diagonal


def _edge_quarter(a: GridPoint, b: GridPoint, big_n: int) -> str:
    qa, qb = _strict_quarter(a, big_n), _strict_quarter(b, big_n)
    if qa and qb and qa != qb:
        raise TheoremViolation("edge spans two open quarters (bug)")
    q = qa or qb
    if q is None:
        raise TheoremViolation("edge with both endpoints on diagonals (impossible)")
    return q


def _connector(w: GridPoint, qa: str, qb: str, big_n: int) -> List[DirectedEdge]:
    """Unit edges of the L-route from the ``qa`` image of the diagonal point
    ``w`` to its ``qb`` image, empty when the two coincide.  One reflection
    moves x and the other y, so they commute: the corner is the same in
    either order, and ``(w, qb, qa)`` gives this route reversed."""
    im_b = _reflect(qb, w, big_n)
    return _polyline(_reflect(qa, w, big_n), _reflect(qa, im_b, big_n), im_b)


def _reflect_color_set(es: EdgeSet, big_n: int) -> set:
    """One pass reflects each edge out of its quarter and records the
    quarters each diagonal point is touched from; a point touched from two
    then gets the connector between its two images.  The center is skipped:
    blue turns there, and red never reaches it."""
    out, incident = set(), {}
    for e in es.edges:
        q = _edge_quarter(e.a, e.b, big_n)
        out.add(Edge.of(_reflect(q, e.a, big_n), _reflect(q, e.b, big_n)))
        for p in (e.a, e.b):
            if _strict_quarter(p, big_n) is None:
                incident.setdefault(p, set()).add(q)
    incident.pop(GridPoint(big_n, big_n), None)
    for w, qs in incident.items():
        if len(qs) > 2:
            raise TheoremViolation("diagonal point touched from more than two quarters")
        if len(qs) == 2:
            out.update(e.undirected() for e in _connector(w, *qs, big_n))
    return out


def _reflection_frame(inst: Instance, form: str) -> Tuple[int, GridObject, GridObject]:
    """The checks both forms of the reflection make, then ``(N, blue, red)``
    with both colors translated so the side-pair midpoint lands at (N, N) of
    the 2N grid.  Connectors and end runs grow with N <= 2n, so ``n`` is
    capped at ``MAX_N`` before any is built."""
    if inst.n > MAX_N:
        raise PreconditionViolation(f"n <= {MAX_N}", f"reduce needs n <= {MAX_N}, got n={inst.n}")
    inst.validate()
    if inst.form != form:
        raise PreconditionViolation(f"{form}-form instance")
    if inst.red.to_edge_set().degree(inst.sides.mid) > 0:
        raise InvalidInstance(
            "red path touches the side-pair midpoint; the reflection "
            "reduction is undefined for this degenerate (already touching) case")
    big_n, dx, dy = _centering(inst)
    return big_n, translate(inst.blue, dx, dy, 2 * big_n), translate(inst.red, dx, dy, 2 * big_n)


def _end_runs(big_n: int) -> Dict[str, Tuple[List[DirectedEdge], List[DirectedEdge]]]:
    """Per color, fresh (prefix, suffix) runs joining the reflected core to
    the color's corners of the 2N grid."""
    m = 2 * big_n
    return {"red": (_polyline((0, 0), (big_n, 0), (big_n, 1)),
                    _polyline((big_n, m - 1), (big_n, m), (m, m))),
            "blue": (_polyline((0, m), (0, big_n)), _polyline((m, big_n), (m, 0)))}


def jct_to_stconn_set(inst: Instance) -> StConnInstance:
    """Reflect a set-form side-crossing instance into a corner-to-corner
    instance on the 2N grid (N = centered grid parameter)."""
    big_n, blue, red = _reflection_frame(inst, "set")
    cores = {"blue": _reflect_color_set(blue, big_n), "red": _reflect_color_set(red, big_n)}
    n_out = 2 * big_n
    return StConnInstance(n=n_out, **{c: _spliced("set", (pre, cores[c], suf), n_out, OPEN)
                                      for c, (pre, suf) in _end_runs(big_n).items()}).validate()


def jct_witness_to_stconn(inst: Instance, w) -> GridPoint:
    """Map a shared input point to a shared output point of the reflection
    reduction; the refined sequence form scales it by the handle's factor."""
    w = GridPoint(*w)
    big_n, dx, dy = _centering(inst)
    wb = GridPoint(w.x + dx, w.y + dy)

    def quarters_at(obj: GridObject) -> set:
        """The quarters of the at most four edges of ``obj`` at ``w``."""
        edges = obj.to_edge_set().edges
        return {_edge_quarter(wb, GridPoint(wb.x + sx, wb.y + sy), big_n)
                for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if Edge.of(w, (w.x + sx, w.y + sy)) in edges}

    bq, rq = quarters_at(inst.blue), quarters_at(inst.red)
    if not bq or not rq:
        raise PreconditionViolation("shared point", f"{tuple(w)} is not shared")
    # off the center a diagonal point meets two quarters: colors touching it from both share one
    common = sorted(bq & rq)
    if not common:
        raise InvalidInstance(
            "witness not transportable: the colors share no quarter at this diagonal point")
    return _reflect(common[0], wb, big_n)


# --- sequence form with the 16N^2 expansion --------------------------------

Quad = Tuple[int, int, int, int]
Step = Tuple[int, int, int, int, Optional[int]]  # (x, y, dx, dy, h)


def _seq_core(edges, big_n: int) -> List[Step]:
    """A color's reflected core as coarse unit steps ``(x, y, dx, dy, h)``:
    each edge's image, with ``h`` the depth of the comb that pads its block
    to 16N^2 edges (4N-2 inward, 4N-4l-2 after a connector of 2l steps),
    then, with ``h`` None, the connector to the next edge's image when that
    edge lies in another quarter."""
    qs = [_edge_quarter(e.src, e.dst, big_n) for e in edges]
    core = []
    for e, q, q2 in zip(edges, qs, qs[1:] + qs[-1:]):  # the last edge has no successor
        a, b = _reflect(q, e.src, big_n), _reflect(q, e.dst, big_n)
        conn = _connector(e.dst, q, q2, big_n) if q2 != q else []
        detour = len(conn)
        if detour % 2 != 0 or (detour and not 1 <= detour // 2 < big_n):
            raise TheoremViolation(
                f"outward run of length {detour + 1} is not of the form 2l+1 "
                f"with 1 <= l < {big_n}")
        core.append((a.x, a.y, b.x - a.x, b.y - a.y, 4 * big_n - 2 * detour - 2))
        core += [(*c.src, *c.direction, None) for c in conn]
    return core


def _comb(n: int, d: Tuple[int, int], h: int) -> List[Quad]:
    """A block's walk along its image edge at the origin: 4N reps of one step
    along ``d`` and ``h`` steps out to the right or back, then the 4N
    straight steps to 8N*d."""
    (dx, dy), out, x, y = d, [], 0, 0
    px, py = dy, -dx  # right of the direction of travel
    for _ in range(4 * n):
        out.append((x, y, x + dx, y + dy))
        x, y = x + dx, y + dy
        out += _unit_steps(x, y, px, py, h)
        x, y = x + h * px, y + h * py
        px, py = -px, -py  # out on even reps, back on odd ones
    return out + _unit_steps(x, y, dx, dy, 4 * n)


def _check_template(tpl, n: int, dx: int, dy: int, h: Optional[int]):
    """Raise :class:`TheoremViolation` unless ``tpl`` runs from (0, 0) to
    8N*(dx, dy) as a simple unit-step path, and each of its points has
    depth 0 and along 0..8N, or (combs only) along 1..4N and depth
    1..h <= 4N-2; along is measured in direction (dx, dy), depth to its
    right.  One loop accepts; only a rejected template runs the point walk
    and :func:`check_path`, which name its first fault."""
    f, half, top = 8 * n, 4 * n, -1 if h is None or h > 4 * n - 2 else h
    name = f"template ({dx}, {dy}, h={h})"
    if not tpl or tpl[0][:2] != (0, 0) or tpl[-1][2:] != (f * dx, f * dy):
        raise TheoremViolation(f"{name} does not run from (0, 0) to {(f * dx, f * dy)} (bug)")
    x, y, codes = 0, 0, {0}  # a point in the box has depth < 8N: one code along * 8N + depth
    for x1, y1, x2, y2 in tpl:  # chained unit steps, each to a new point in the box
        along, depth = x2 * dx + y2 * dy, x2 * dy - y2 * dx
        if (x1 != x or y1 != y or abs(x2 - x) + abs(y2 - y) != 1 or not (
                depth == 0 and 0 <= along <= f or 1 <= along <= half and 1 <= depth <= top)):
            break
        codes.add(along * f + depth)
        x, y = x2, y2
    if len(codes) > len(tpl):  # every edge passed, each to a new point (a break leaves fewer)
        return
    for *_, x, y in tpl:  # every end point; the first start is (0, 0)
        along, depth = x * dx + y * dy, x * dy - y * dx
        if not (depth == 0 and 0 <= along <= f or 1 <= along <= half and 1 <= depth <= top):
            raise TheoremViolation(f"{name}: point {(x, y)} leaves its quarter cell (bug)")
    try:  # shifted by 8N, into [0, 16N]^2
        check_path(((a + f, b + f, c + f, e + f) for a, b, c, e in tpl), 2 * f)
    except InvalidInstance as exc:
        raise TheoremViolation(f"{name}, shifted by {f}: {exc} (bug)") from None


class StConnSeqReduction:
    """Handle over the refined sequence reduction.

    ``edge_at(j)`` resolves the j-th edge of the expanded core (the part
    between the image end points) from ``j // 16N^2`` alone; prefix and
    suffix boundary extensions are plain 8N-fold refinements with closed-form
    lengths.  ``iter_edges(color)`` walks a whole output path in order, and
    ``checked_pieces(color)`` gives it, checked, as translated templates: one
    per coarse step, built once per handle on first use.  ``core`` maps each
    color to its reflected core (:func:`_seq_core`); its (prefix, suffix)
    runs are :func:`_end_runs`.  A block is one image step of the core and
    the connector steps after it.
    """

    def __init__(self, big_n: int, core: Dict[str, List[Step]]):
        self.n_base = big_n
        self.factor = 8 * big_n
        self.block_size = 16 * big_n * big_n
        self.n_out = 2 * big_n * self.factor
        self._core = core
        self._blocks = {c: [k for k, step in enumerate(steps) if step[4] is not None]
                        for c, steps in core.items()}  # the image steps' indices
        ends = _end_runs(big_n)
        self._prefix = {c: pre for c, (pre, _) in ends.items()}
        self._suffix = {c: suf for c, (_, suf) in ends.items()}
        self._templates: Dict[Tuple[int, int, Optional[int]], Tuple[Quad, ...]] = {}
        self._checked = set()  # template keys that passed _check_template

    def core_length(self, color: str = "red") -> int:
        return self.block_size * len(self._blocks[color])

    def out_edges(self) -> int:
        """Blue plus red output edges in closed form: 16N^2 per block, 8N per
        prefix or suffix edge."""
        return sum(self.core_length(c) + self.factor * (len(self._prefix[c]) + len(self._suffix[c]))
                   for c in self._blocks)

    def edge_at(self, j: int, color: str = "red") -> DirectedEdge:
        """j-th edge of the color's expanded core, without materializing: edge
        ``r`` of block ``i`` (``i, r = divmod(j, 16N^2)``), whose image step is
        ``core[k]``, is on the comb of depth ``h``, then on the 8N-fold refined
        connector steps after it.  The edge is built in C by ``tuple.__new__``."""
        blocks = self._blocks[color]
        if not 0 <= j < self.block_size * len(blocks):
            raise PreconditionViolation("edge index within the expanded core",
                                        f"index {j} out of range")
        i, r = divmod(j, self.block_size)
        core, k = self._core[color], blocks[i]
        n, f = self.n_base, self.factor
        x, y, dx, dy, h = core[k]
        px, py = dy, -dx  # right of the direction of travel
        sx, sy = x * f, y * f
        per = 1 + h
        phase1 = 4 * n * per
        if r < phase1:
            rep, o = divmod(r, per)
            alt = h if rep % 2 else 0
            ax, ay = sx + rep * dx + alt * px, sy + rep * dy + alt * py
            if o:  # (dx, dy) becomes the step out (even reps) or back (odd ones)
                sgn = 1 if rep % 2 == 0 else -1
                ax += dx + sgn * (o - 1) * px
                ay += dy + sgn * (o - 1) * py
                dx, dy = sgn * px, sgn * py
        elif r < phase1 + 4 * n:
            o = 4 * n + r - phase1
            ax, ay = sx + o * dx, sy + o * dy
        else:
            m, o = divmod(r - phase1 - 4 * n, f)
            x, y, dx, dy, _ = core[k + 1 + m]
            ax, ay = x * f + o * dx, y * f + o * dy
        return tuple.__new__(DirectedEdge, (tuple.__new__(GridPoint, (ax, ay)),
                                            tuple.__new__(GridPoint, (ax + dx, ay + dy))))

    def _template(self, step: Tuple[int, int, Optional[int]]) -> Tuple[Quad, ...]:
        """The walk of a coarse step ``(dx, dy, h)`` at the origin, built once
        per handle: the comb of depth ``h`` of a block's image edge, or for
        ``h`` None the straight 8N-fold refinement of any other edge."""
        tpl = self._templates.get(step)
        if tpl is None:
            dx, dy, h = step
            tpl = self._templates[step] = tuple(
                _unit_steps(0, 0, dx, dy, self.factor) if h is None
                else _comb(self.n_base, (dx, dy), h))
        return tpl

    def _coarse(self, color: str) -> List[Step]:
        """The unrefined path as ``(x, y, dx, dy, h)`` unit steps: the prefix
        runs, the core, then the suffix runs.  ``h`` is None off the image
        edges."""
        pre, suf = ([(*e.src, *e.direction, None) for e in run]
                    for run in (self._prefix[color], self._suffix[color]))
        return pre + self._core[color] + suf

    def _pieces(self, coarse) -> List[Tuple[Tuple[Quad, ...], int, int]]:
        """Each coarse step as ``(template, ox, oy)``: its template and the
        scaled start it is translated to."""
        f = self.factor
        return [(self._template(step[2:]), step[0] * f, step[1] * f) for step in coarse]

    def iter_edges(self, color: str):
        """The color's whole output path in order, as ``(x1, y1, x2, y2)``
        ints, unchecked: the 8N-fold refined prefix, every block (its comb,
        then its refined connector steps), the refined suffix.  :meth:`edge_at`
        is the per-index specification of the same blocks."""
        for tpl, ox, oy in self._pieces(self._coarse(color)):
            for a, b, c, d in tpl:
                yield a + ox, b + oy, c + ox, d + oy

    def checked_pieces(self, color: str) -> List[Tuple[Tuple[Quad, ...], int, int]]:
        """The color's output path as the pieces :meth:`iter_edges` walks,
        once three checks pass; they cost O(1) per coarse step plus O(16N^2)
        per distinct template, not O(1) per output edge.

        1. The coarse path, through :func:`check_path` against the color's
           corners of the 2N grid: chaining, bounds, unit steps, simplicity.
        2. Each distinct template, once (:func:`_check_template`): a simple
           unit-step path from (0, 0) to 8N*d whose points off the edge lie
           at along 1..4N and depth 1..h <= 4N-2, depth to the right.
        3. Per block, O(1): the comb's far corner ``8N*src + 4N*d + h*perp``
           is in [0, n_out]^2.

        Lemma: then the refined path is simple, chained, in bounds and joins
        the color's corners of the output grid.  Its points on scaled coarse
        lines are the 8N-fold refinement of the simple coarse path.  The
        other points are comb points, strictly inside the coarse cell to the
        right of their image edge, in the quarter at the edge's start corner.
        For each (cell, corner) pair at most one directed edge starts at that
        corner with the cell on its right, and a simple coarse path uses each
        directed edge at most once.  Combs at different corners of one cell
        form a pinwheel: each spans along 1..4N and depth 1..4N-2 in its own
        frame, so it may reach the cell's midline across its edge but stops 2
        short of the midline parallel to it, and no two meet.  The far corner
        and the edge's scaled start are opposite corners of a box holding
        every off-line comb point, so both in bounds puts them all in bounds.

        Coarse and bounds failures raise :class:`InvalidInstance` with
        :func:`check_path`'s messages; a bad template is a bug and raises
        :class:`TheoremViolation`.  Every check runs before a piece is
        returned."""
        n, f, m = self.n_base, self.factor, self.n_out
        coarse = self._coarse(color)
        check_path(((x, y, x + dx, y + dy) for x, y, dx, dy, _ in coarse),
                   2 * n, corner_ends(2 * n)[color], color)
        for x, y, dx, dy, h in coarse:
            if h is not None:
                cx, cy = x * f + 4 * n * dx + h * dy, y * f + 4 * n * dy - h * dx
                if not (0 <= cx <= m and 0 <= cy <= m):
                    raise InvalidInstance(f"point {(cx, cy)} outside grid [0,{m}]^2")
        pieces = self._pieces(coarse)
        for key in {step[2:] for step in coarse} - self._checked:
            _check_template(self._template(key), n, *key)
            self._checked.add(key)
        return pieces

    def materialize(self, color: str) -> EdgeSequence:
        """The color's path as an :class:`EdgeSequence`; an edge that starts
        where the previous one ends shares its point object."""
        edges, q = [], None
        for x1, y1, x2, y2 in self.iter_edges(color):
            p = q if q == (x1, y1) else GridPoint(x1, y1)
            q = GridPoint(x2, y2)
            edges.append(DirectedEdge(p, q))
        return EdgeSequence(tuple(edges), self.n_out, OPEN)

    @cached_property
    def instance(self) -> StConnInstance:
        return StConnInstance(n=self.n_out, blue=self.materialize("blue"),
                              red=self.materialize("red")).validate()


def jct_to_stconn_seq(inst: Instance) -> StConnSeqReduction:
    """Reflect a sequence-form side-crossing instance and refine 8N-fold so
    every input edge expands to exactly 16N^2 output edges."""
    big_n, blue, red = _reflection_frame(inst, "seq")
    if red.start.y > red.end.y:
        red = red.reverse()  # from the lower side point
    center = GridPoint(big_n, big_n)
    blue = blue.rotate(next(i for i, e in enumerate(blue.edges) if e.src == center))
    if _edge_quarter(blue.edges[0].src, blue.edges[0].dst, big_n) != "L":
        blue = blue.reverse()  # reversal keeps the center first, now westward
    core = {"red": _seq_core(red.edges, big_n), "blue": _seq_core(blue.edges, big_n)}
    if core["red"][0][:2] != (big_n, 1):
        raise TheoremViolation("red core does not start at the lower image point (bug)")
    if core["blue"][0][:2] != (0, big_n):
        raise TheoremViolation("blue core does not start at the left corner image (bug)")
    return StConnSeqReduction(big_n, core)


edge_at = StConnSeqReduction.edge_at  # edge_at(handle, j): red is the default color
