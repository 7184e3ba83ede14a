"""Grid geometry primitives.

Lattice points ``(x, y)`` with ``0 <= x, y <= n``; unit edges between
adjacent points.  A *curve* is an edge set in which every point has degree
0 or 2 (possibly several disjoint loops); a set *connects* two points when
exactly those two have degree 1; two collections *intersect* when they share
a grid point.  An :class:`Instance` bundles a curve, a path and the side pair
the path joins, in either form.  Everything is immutable and pure.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, countOf, eq, floordiv, itemgetter, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InvalidInstance, PreconditionViolation, TheoremViolation

MAX_N = 512  # largest n to generate or render: polyomino cells and grid dots grow as n^2


class GridPoint(NamedTuple):
    x: int
    y: int


class Edge(NamedTuple):
    """Undirected unit edge, endpoints in lexicographic order (use Edge.of)."""

    a: GridPoint
    b: GridPoint

    @classmethod
    def of(cls, p, q) -> "Edge":
        pa, pb = GridPoint(*p), GridPoint(*q)
        if pb < pa:
            pa, pb = pb, pa
        if abs(pb.x - pa.x) + abs(pb.y - pa.y) != 1:
            raise InvalidInstance(f"edge endpoints not adjacent: {tuple(pa)}-{tuple(pb)}")
        return cls(pa, pb)

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def column(self) -> int:
        """Column k of a horizontal edge: endpoint x-coordinates are k, k+1."""
        if not self.horizontal:
            raise PreconditionViolation("horizontal edge", "vertical edges have no column")
        return min(self.a.x, self.b.x)

    @property
    def row(self) -> int:
        """Common y-coordinate of a horizontal edge."""
        if not self.horizontal:
            raise PreconditionViolation("horizontal edge", "vertical edges have no row")
        return self.a.y


class DirectedEdge(NamedTuple):
    src: GridPoint
    dst: GridPoint

    def undirected(self) -> Edge:
        return Edge.of(self.src, self.dst)

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(self.dst, self.src)

    @property
    def direction(self) -> tuple[int, int]:
        return (self.dst.x - self.src.x, self.dst.y - self.src.y)


class SidePair(NamedTuple):
    """Two vertically aligned points two apart, plus their midpoint."""

    p1: GridPoint
    p2: GridPoint
    mid: GridPoint


def side_pair(p1, p2) -> SidePair:
    pa, pb = GridPoint(*p1), GridPoint(*p2)
    if pa.x != pb.x or abs(pa.y - pb.y) != 2:
        raise InvalidInstance(f"side pair must be vertically aligned two apart: {tuple(pa)} {tuple(pb)}")
    mid = GridPoint(pa.x, (pa.y + pb.y) // 2)
    return SidePair(pa, pb, mid)


def corner_ends(n: int) -> dict:
    """The corners each color's path joins on the n grid: blue the upper-left
    and lower-right, red the lower-left and upper-right."""
    return {"blue": (GridPoint(0, n), GridPoint(n, 0)),
            "red": (GridPoint(0, 0), GridPoint(n, n))}


def make_all(cls, items):
    """``cls._make(item)`` for each item, built in C by the ``tuple.__new__`` it calls."""
    return map(tuple.__new__, repeat(cls), items)


def pair_code(x: int, y: int) -> int:
    """Injective encoding of a coordinate pair as a single number."""
    return (x + y) * (x + y + 1) + 2 * y


@dataclass(frozen=True)
class EdgeSet:
    """Unordered finite set of edges on the grid with parameter ``n``."""

    edges: frozenset
    n: int

    @classmethod
    def of(cls, edges: Iterable, n: int) -> "EdgeSet":
        out = set()
        for p, q in edges:  # an Edge, a DirectedEdge or a pair of points
            e = Edge.of(p, q)
            for pt in e:
                if not (0 <= pt.x <= n and 0 <= pt.y <= n):
                    raise InvalidInstance(f"point {tuple(pt)} outside grid [0,{n}]^2")
            out.add(e)
        return cls(frozenset(out), n)

    @cached_property
    def degree_map(self) -> dict:
        return Counter(chain.from_iterable(self.edges))

    @cached_property
    def points(self) -> frozenset:
        return frozenset(self.degree_map)

    def degree(self, p) -> int:
        return self.degree_map.get(GridPoint(*p), 0)

    def __contains__(self, e: Edge) -> bool:
        return e in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def sorted_edges(self) -> list:
        """Edges in canonical order: lexicographic on endpoint pair codes."""
        return sorted(self.edges, key=lambda e: (pair_code(*e.a), pair_code(*e.b)))

    def to_edge_set(self) -> "EdgeSet":
        return self


CLOSED = "closed"
OPEN = "open"
_FIRST, _SECOND = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class EdgeSequence:
    """Ordered chained directed edges: a closed curve or an open path.

    The plain constructor performs no validation (diagnostic work needs
    sequences that revisit points); use :meth:`from_points` or call
    :meth:`validate` when the spec invariants are required.  The
    object is frozen, so :meth:`validate` checks it once and
    :meth:`to_edge_set` builds its set once; a failed check raises again.
    """

    edges: tuple
    n: int
    kind: str

    @classmethod
    def from_points(cls, pts: Sequence, n: int, kind: str) -> "EdgeSequence":
        pts = list(pts)
        ends = pts[1:] + pts[:1] if kind == CLOSED else pts[1:]
        return cls.accept(*endpoint_coords(zip(pts, ends)), n, kind)

    @classmethod
    def from_codes(cls, codes: list, stride: int, n: int, kind: str) -> "EdgeSequence":
        """:meth:`from_points` over points coded ``x * stride + y``, with ``0 <= y < stride``."""
        pts = codes + codes[:1] if kind == CLOSED else codes
        xs, ys = [c // stride for c in pts], [c % stride for c in pts]
        return cls.accept(xs[:-1], ys[:-1], xs[1:], ys[1:], n, kind)

    @classmethod
    def accept(cls, x1: list, y1: list, x2: list, y2: list, n: int, kind: str) -> "EdgeSequence":
        """The checked sequence whose edges run from (x1, y1) to (x2, y2), each point built
        once and kept in its point set.  Tested in bulk: at least one edge, each starting where
        the last ends, in [0, n]^2, unit steps, a closed chain back at its start after 4 or
        more, no point twice.  A rejected chain is walked by :func:`check_path`, which raises
        its first fault; a walk that finds none raises :class:`TheoremViolation`."""
        if kind not in (CLOSED, OPEN):
            raise InvalidInstance(f"unknown sequence kind {kind!r}")
        closed = kind == CLOSED
        tx, ty = (x1, y1) if closed else (x1 + x2[-1:], y1 + y2[-1:])  # a closed start once
        if (x1 and x1[1:] == x2[:-1] and y1[1:] == y2[:-1]
                and 0 <= min(tx) and max(tx) <= n and 0 <= min(ty) and max(ty) <= n
                and set(map(add, map(abs, map(sub, x2, x1)), map(abs, map(sub, y2, y1)))) == {1}
                and (not closed or (len(x1) >= 4 and x2[-1] == x1[0] and y2[-1] == y1[0]))):
            pts = list(make_all(GridPoint, zip(tx, ty)))
            point_set = frozenset(pts)
            if len(point_set) == len(pts):
                ends = pts[1:] + pts[:1] if closed else pts[1:]
                seq = cls(tuple(make_all(DirectedEdge, zip(pts, ends))), n, kind)
                seq.__dict__.update(_checked=True, point_set=point_set)
                return seq
        check_path(zip(x1, y1, x2, y2), n, closed=closed)
        raise TheoremViolation("check_path passed a chain the bulk test rejects (bug)")

    def validate(self) -> "EdgeSequence":
        """Bounds, adjacency, chaining and simplicity, checked once per object
        (``_checked``); a failed check is not remembered, so it raises again."""
        if "_checked" not in self.__dict__:
            if self.kind not in (CLOSED, OPEN):
                raise InvalidInstance(f"unknown sequence kind {self.kind!r}")
            self.check_chain(simple=True)
            self.__dict__["_checked"] = True
        return self

    def check_chain(self, simple: bool = False) -> "EdgeSequence":
        """:func:`check_path` over the edges, which may revisit points unless ``simple``
        (:meth:`validate` adds it); a passed chain check is kept as ``_chained``."""
        if "_checked" not in self.__dict__ and (simple or "_chained" not in self.__dict__):
            check_path(((*e.src, *e.dst) for e in self.edges), self.n,
                       closed=self.kind == CLOSED, simple=simple)
            self.__dict__["_chained"] = True
        return self

    def points(self) -> list:
        """Visited points: t points for a closed curve, t+1 for an open path."""
        pts = list(map(_FIRST, self.edges))
        if self.kind == OPEN and self.edges:
            pts.append(self.edges[-1].dst)
        return pts

    @cached_property
    def point_set(self) -> frozenset:
        return frozenset(self.points())

    @property
    def start(self) -> GridPoint:
        return self.edges[0].src

    @property
    def end(self) -> GridPoint:
        return self.edges[-1].dst

    def reverse(self) -> "EdgeSequence":
        return EdgeSequence(tuple(e.reversed() for e in reversed(self.edges)), self.n, self.kind)

    def rotate(self, k: int) -> "EdgeSequence":
        """Cyclic rotation of a closed sequence so edge k comes first."""
        if self.kind != CLOSED:
            raise PreconditionViolation("closed sequence", "only closed sequences rotate")
        k %= len(self.edges)
        return EdgeSequence(self.edges[k:] + self.edges[:k], self.n, self.kind)

    def to_edge_set(self) -> EdgeSet:
        return self._edge_set

    @cached_property
    def _edge_set(self) -> EdgeSet:
        # each edge's bounds and unit step were checked where it was parsed or built
        es = EdgeSet(frozenset(make_all(Edge, map(sorted, self.edges))), self.n)
        if "_checked" in self.__dict__:  # simple: degree 2, and 1 at an open path's ends
            degrees = dict.fromkeys(self.point_set, 2)
            if self.kind == OPEN:
                degrees[self.start] = degrees[self.end] = 1
            es.__dict__.update(degree_map=degrees, points=self.point_set)
        return es

    def __len__(self) -> int:
        return len(self.edges)


def endpoint_coords(edges) -> tuple:
    """Lists x1, y1, x2, y2 of the edges' coordinates, each edge a pair of points."""
    ends = list(chain.from_iterable(edges))
    xs, ys = list(map(_FIRST, ends)), list(map(_SECOND, ends))
    return xs[0::2], ys[0::2], xs[1::2], ys[1::2]


def column_marks(obj: GridObject) -> list:
    """The one column index of either form: the sorted ``(column, row, step)`` marks
    of the horizontal edges, each directed edge once.  ``step`` is -1 for a
    left-pointing sequence edge and 1 for a right-pointing one, and always 1 for a
    set edge, whose ends are in lexicographic order.  Column k is the slice between
    ``(k,)`` and ``(k + 1,)``."""
    x1, y1, x2, y2 = endpoint_coords(obj.edges)
    columns = map(floordiv, map(add, x1, x2), repeat(2))  # the lower x, faster than min
    return sorted(set(compress(zip(columns, y1, map(sub, x2, x1)), map(eq, y1, y2))))


def column_slice(marks: list, k: int) -> list:
    """Column k's marks, lowest row first."""
    return marks[bisect_left(marks, (k,)):bisect_left(marks, (k + 1,))]


def marks_below(marks: list, k: int, row: int) -> int:
    """The number of column k's marks strictly below ``row``."""
    return bisect_left(marks, (k, row)) - bisect_left(marks, (k,))


def check_path(edges, n: int, ends=None, name: str = "", *, closed: bool = False,
               simple: bool = True) -> None:
    """The one sequence checker: check ``(x1, y1, x2, y2)`` edges in one
    pass.  Edge by edge: each one starting where the previous one ends, every
    point in [0, n]^2, unit steps.  Once the edges run out: a ``closed``
    sequence returning to its start after at least 4 edges, no point visited
    twice if ``simple``, and the path joining the two ``ends`` if given.  The
    first failure raises :class:`InvalidInstance`."""
    edges = iter(edges)
    first = next(edges, None)
    if first is None:
        raise InvalidInstance("empty edge sequence")
    x, y = start = first[0], first[1]
    if not (0 <= x <= n and 0 <= y <= n):
        raise InvalidInstance(f"point {start} outside grid [0,{n}]^2", edge_index=0)
    m = n + 1
    seen, revisit = {x * m + y}, None  # revisit: the first edge ending on a seen point
    for i, (x1, y1, x2, y2) in enumerate(chain((first,), edges)):
        if x1 != x or y1 != y:
            raise InvalidInstance(f"edge {i} does not chain: {(x, y)} != {(x1, y1)}",
                                  edge_index=i)
        if not (0 <= x2 <= n and 0 <= y2 <= n):
            raise InvalidInstance(f"point {(x2, y2)} outside grid [0,{n}]^2", edge_index=i)
        if abs(x2 - x1) + abs(y2 - y1) != 1:
            raise InvalidInstance(f"edge {i} endpoints not adjacent", edge_index=i)
        if simple:
            code = x2 * m + y2
            if code not in seen:
                seen.add(code)
            elif revisit is None:
                revisit = i
        x, y = x2, y2
    if closed:
        if (x, y) != start:
            raise InvalidInstance("closed sequence does not return to its start")
        if i < 3:
            raise InvalidInstance("closed curve needs at least 4 edges")
        if revisit == i:  # the last edge closes the curve
            revisit = None
    if revisit is not None:
        raise InvalidInstance(f"{'closed curve' if closed else 'open path'} revisits a point")
    if ends is not None and {start, (x, y)} != set(ends):
        p1, p2 = ends
        raise InvalidInstance(f"{name} path must join {tuple(p1)} and {tuple(p2)}")


GridObject = Union[EdgeSet, EdgeSequence]


def _check_same_n(a: GridObject, b: GridObject):
    if a.n != b.n:
        raise PreconditionViolation(
            "matching grid parameters", f"grid parameters differ: {a.n} != {b.n}"
        )


def is_curve(edge_set: EdgeSet) -> bool:
    """True iff the set is nonempty and every point has degree 0 or 2."""
    return bool(edge_set.edges) and set(edge_set.degree_map.values()) == {2}


def connects(edge_set: EdgeSet, p1, p2) -> bool:
    """True iff exactly ``p1`` and ``p2`` have degree 1 and the rest 0 or 2."""
    p1, p2 = GridPoint(*p1), GridPoint(*p2)
    if p1 == p2:
        raise PreconditionViolation("distinct endpoints")
    dm = edge_set.degree_map
    return (dm.get(p1, 0) == 1 and dm.get(p2, 0) == 1 and countOf(dm.values(), 1) == 2
            and set(dm.values()) <= {1, 2})


def intersects(e1: GridObject, e2: GridObject) -> bool:
    """True iff some grid point is touched by both collections."""
    _check_same_n(e1, e2)
    pts1 = e1.points if isinstance(e1, EdgeSet) else e1.point_set
    pts2 = e2.points if isinstance(e2, EdgeSet) else e2.point_set
    return not pts1.isdisjoint(pts2)


def on_different_sides(obj: GridObject, p1, p2) -> bool:
    """Vertically aligned points two apart, both off the collection, midpoint
    degree 2: on a closed sequence, checked simple, a point of it."""
    p1, p2 = GridPoint(*p1), GridPoint(*p2)
    if p1.x != p2.x or abs(p1.y - p2.y) != 2:
        return False
    mid = GridPoint(p1.x, (p1.y + p2.y) // 2)
    if isinstance(obj, EdgeSequence) and obj.kind == CLOSED:
        on = obj.validate().point_set
        return p1 not in on and p2 not in on and mid in on
    dm = obj.to_edge_set().degree_map
    return dm.get(p1, 0) == 0 and dm.get(p2, 0) == 0 and dm.get(mid, 0) == 2


def _form_of(obj: GridObject) -> str:
    return "set" if isinstance(obj, EdgeSet) else "seq"


def _joins(obj: GridObject, p1, p2) -> bool:
    """The set connects p1 and p2, or the sequence is a simple open path
    between them."""
    if isinstance(obj, EdgeSet):
        return connects(obj, p1, p2)
    obj.validate()
    return obj.kind == OPEN and {obj.start, obj.end} == {GridPoint(*p1), GridPoint(*p2)}


def check_crossing(blue: GridObject, red: GridObject, sides: SidePair) -> None:
    """The crossing precondition, the same in both forms: blue is a curve (a
    closed sequence in the sequence form), red joins the side pair, and the
    pair lies on different sides of blue.  A failure raises
    :class:`PreconditionViolation` naming the condition."""
    _check_same_n(blue, red)
    p1, p2 = sides.p1, sides.p2
    if isinstance(blue, EdgeSet):
        if not is_curve(blue):
            raise PreconditionViolation("is_curve(B)", "blue is not a curve")
    elif blue.validate().kind != CLOSED:
        raise PreconditionViolation("is_curve(B)", "blue must be a closed curve")
    if not _joins(red, p1, p2):
        raise PreconditionViolation("connects(R, p1, p2)",
                                    "red path endpoints are not the designated side pair")
    if not on_different_sides(blue, p1, p2):
        raise PreconditionViolation("on_different_sides(B, p1, p2)",
                                    "side points are not on different sides of the curve")


@dataclass(frozen=True)
class Instance:
    """Side-crossing instance: a blue curve and a red path between two points
    on different sides of it, both payloads in one form.

    Parsed files may leave payloads or the side pair out; :meth:`validate`
    checks a complete instance's forms and grid parameters, then
    :func:`check_crossing`.  ``offset`` records a coordinate shift
    applied by a reduction.
    """

    n: int
    form: str  # "set" | "seq"
    blue: Optional[GridObject] = None
    red: Optional[GridObject] = None
    sides: Optional[SidePair] = None
    offset: tuple = (0, 0)

    def validate(self) -> "Instance":
        if self.blue is None or self.red is None or self.sides is None:
            raise InvalidInstance('a crossing instance needs "blue", "red" and "sides"')
        for name, payload in (("blue", self.blue), ("red", self.red)):
            if _form_of(payload) != self.form:
                raise InvalidInstance(f"{name} payload is not in {self.form} form")
            if payload.n != self.n:
                raise InvalidInstance("payload grid parameter mismatch")
        check_crossing(self.blue, self.red, self.sides)
        return self


def refine(obj: GridObject, factor: int) -> GridObject:
    """Scale by ``factor``: each edge becomes ``factor`` collinear unit edges."""
    if factor < 1:
        raise PreconditionViolation("factor >= 1")
    if factor == 1:
        return obj
    steps = [s for a, b in obj.edges  # a set edge's ends, or a sequence edge's src and dst
             for s in _unit_steps(a.x * factor, a.y * factor, b.x - a.x, b.y - a.y, factor)]
    pairs = zip(make_all(GridPoint, map(itemgetter(0, 1), steps)),
                make_all(GridPoint, map(itemgetter(2, 3), steps)))
    if isinstance(obj, EdgeSet):
        return EdgeSet(frozenset(make_all(Edge, map(sorted, pairs))), obj.n * factor)
    return EdgeSequence(tuple(make_all(DirectedEdge, pairs)), obj.n * factor, obj.kind)


def _unit_steps(x: int, y: int, dx: int, dy: int, k: int) -> list:
    """The ``k`` unit edges ``(x1, y1, x2, y2)`` from (x, y) in direction (dx, dy)."""
    if dx:
        return [(a, y, a + dx, y) for a in range(x, x + k * dx, dx)]
    return [(x, b, x, b + dy) for b in range(y, y + k * dy, dy)]


def _mapped(obj: GridObject, f, n: int) -> GridObject:
    """``obj`` with every point moved by ``f`` onto the grid with parameter
    ``n``, unchecked: a set edge keeps its endpoints in lexicographic order."""
    if isinstance(obj, EdgeSet):
        pairs = ((f(e.a), f(e.b)) for e in obj.edges)
        return EdgeSet(frozenset(Edge(a, b) if a < b else Edge(b, a) for a, b in pairs), n)
    return EdgeSequence(tuple(DirectedEdge(f(e.src), f(e.dst)) for e in obj.edges), n, obj.kind)


def rotate_90(obj: GridObject) -> GridObject:
    """Rotate the whole instance: (x, y) -> (y, n - x), which keeps [0, n]^2."""
    n = obj.n
    return _mapped(obj, lambda p: GridPoint(p.y, n - p.x), n)


def translate(obj: GridObject, dx: int, dy: int, n: int) -> GridObject:
    """Shift all coordinates by (dx, dy) onto a grid with parameter ``n``; the
    callers' shifts keep every point on it."""
    return _mapped(obj, lambda p: GridPoint(p.x + dx, p.y + dy), n)
