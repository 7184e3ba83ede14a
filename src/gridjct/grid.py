"""Grid geometry primitives.

Lattice points ``(x, y)`` with ``0 <= x, y <= n``; unit edges between
adjacent points.  A *curve* is an edge set in which every point has degree
0 or 2 (possibly several disjoint loops); a set *connects* two points when
exactly those two have degree 1; two collections *intersect* when they share
a grid point.  An :class:`Instance` bundles a curve, a path and the side pair
the path joins, in either form.  Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InvalidInstance, PreconditionViolation


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
    def vertical(self) -> bool:
        return self.a.x == self.b.x

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

    @classmethod
    def of(cls, p, q) -> "DirectedEdge":
        pa, pb = GridPoint(*p), GridPoint(*q)
        if abs(pb.x - pa.x) + abs(pb.y - pa.y) != 1:
            raise InvalidInstance(f"edge endpoints not adjacent: {tuple(pa)}-{tuple(pb)}")
        return cls(pa, pb)

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


def pair_code(x: int, y: int) -> int:
    """Injective encoding of a coordinate pair as a single number."""
    return (x + y) * (x + y + 1) + 2 * y


def _check_point(p: GridPoint, n: int, index=None):
    if not (0 <= p.x <= n and 0 <= p.y <= n):
        raise InvalidInstance(f"point {tuple(p)} outside grid [0,{n}]^2", edge_index=index)


@dataclass(frozen=True)
class EdgeSet:
    """Unordered finite set of edges on the grid with parameter ``n``."""

    edges: frozenset
    n: int

    @classmethod
    def of(cls, edges: Iterable, n: int) -> "EdgeSet":
        out = set()
        for item in edges:
            if isinstance(item, Edge):
                e = Edge.of(item.a, item.b)
            elif isinstance(item, DirectedEdge):
                e = item.undirected()
            else:
                p, q = item
                e = Edge.of(p, q)
            _check_point(e.a, n)
            _check_point(e.b, n)
            out.add(e)
        return cls(frozenset(out), n)

    @cached_property
    def degree_map(self) -> dict:
        d: dict[GridPoint, int] = {}
        for e in self.edges:
            d[e.a] = d.get(e.a, 0) + 1
            d[e.b] = d.get(e.b, 0) + 1
        return d

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


@dataclass(frozen=True)
class EdgeSequence:
    """Ordered chained directed edges: a closed curve or an open path.

    The plain constructor performs no validation (diagnostic work needs
    sequences that revisit points); use :meth:`closed` / :meth:`open_path`
    or call :meth:`validate` when the spec invariants are required.  The
    object is frozen, so :meth:`validate` checks it once and
    :meth:`to_edge_set` builds its set once; a failed check raises again.
    """

    edges: tuple
    n: int
    kind: str

    @classmethod
    def closed(cls, edges, n: int) -> "EdgeSequence":
        return cls(tuple(_directed(e) for e in edges), n, CLOSED).validate()

    @classmethod
    def open_path(cls, edges, n: int) -> "EdgeSequence":
        return cls(tuple(_directed(e) for e in edges), n, OPEN).validate()

    @classmethod
    def from_points(cls, pts: Sequence, n: int, kind: str) -> "EdgeSequence":
        pts = [GridPoint(*p) for p in pts]
        edges = [DirectedEdge.of(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
        if kind == CLOSED:
            edges.append(DirectedEdge.of(pts[-1], pts[0]))
            return cls.closed(edges, n)
        return cls.open_path(edges, n)

    def validate(self) -> "EdgeSequence":
        """Bounds, adjacency, chaining and simplicity, checked once per object."""
        self._checked  # cached on success only, so a failed check raises again
        return self

    @cached_property
    def _checked(self) -> bool:
        if self.kind not in (CLOSED, OPEN):
            raise InvalidInstance(f"unknown sequence kind {self.kind!r}")
        for i, e in enumerate(self.edges):
            _check_point(e.src, self.n, index=i)
            _check_point(e.dst, self.n, index=i)
            if abs(e.dst.x - e.src.x) + abs(e.dst.y - e.src.y) != 1:
                raise InvalidInstance(f"edge {i} endpoints not adjacent", edge_index=i)
        self.check_chain()
        pts = self.points()  # an open path whose ends coincide revisits its start
        if len(set(pts)) != len(pts):
            what = "closed curve" if self.kind == CLOSED else "open path"
            raise InvalidInstance(f"{what} revisits a point")
        return True

    def check_chain(self) -> "EdgeSequence":
        """Nonempty, each edge starting where the previous one ends, and a
        closed sequence returning to its start after at least 4 edges.
        Points may repeat: :meth:`validate` adds simplicity."""
        if not self.edges:
            raise InvalidInstance("empty edge sequence")
        for i in range(len(self.edges) - 1):
            if self.edges[i].dst != self.edges[i + 1].src:
                raise InvalidInstance(
                    f"edge {i + 1} does not chain: {tuple(self.edges[i].dst)} != "
                    f"{tuple(self.edges[i + 1].src)}",
                    edge_index=i + 1,
                )
        if self.kind == CLOSED:
            if self.edges[-1].dst != self.edges[0].src:
                raise InvalidInstance("closed sequence does not return to its start")
            if len(self.edges) < 4:
                raise InvalidInstance("closed curve needs at least 4 edges")
        return self

    def points(self) -> list:
        """Visited points: t points for a closed curve, t+1 for an open path."""
        pts = [e.src for e in self.edges]
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
        return EdgeSet.of((e.undirected() for e in self.edges), self.n)

    def __len__(self) -> int:
        return len(self.edges)


def _directed(e) -> DirectedEdge:
    if isinstance(e, DirectedEdge):
        return e
    if isinstance(e, Edge):
        return DirectedEdge(e.a, e.b)
    p, q = e
    return DirectedEdge.of(p, q)


GridObject = Union[EdgeSet, EdgeSequence]


def _check_same_n(a: GridObject, b: GridObject):
    if a.n != b.n:
        raise PreconditionViolation(
            "matching grid parameters", f"grid parameters differ: {a.n} != {b.n}"
        )


def degree(edge_set: EdgeSet, p) -> int:
    """Number of edges incident to ``p``; at most 4."""
    return edge_set.degree(p)


def is_curve(edge_set: EdgeSet) -> bool:
    """True iff the set is nonempty and every point has degree 0 or 2."""
    if not edge_set.edges:
        return False
    return all(d == 2 for d in edge_set.degree_map.values())


def connects(edge_set: EdgeSet, p1, p2) -> bool:
    """True iff exactly ``p1`` and ``p2`` have degree 1 and the rest 0 or 2."""
    p1, p2 = GridPoint(*p1), GridPoint(*p2)
    if p1 == p2:
        raise PreconditionViolation("distinct endpoints")
    dm = edge_set.degree_map
    if dm.get(p1, 0) != 1 or dm.get(p2, 0) != 1:
        return False
    return all(d == 2 for p, d in dm.items() if p not in (p1, p2))


def intersects(e1: GridObject, e2: GridObject) -> bool:
    """True iff some grid point is touched by both collections."""
    _check_same_n(e1, e2)
    pts1 = e1.points if isinstance(e1, EdgeSet) else e1.point_set
    pts2 = e2.points if isinstance(e2, EdgeSet) else e2.point_set
    return not pts1.isdisjoint(pts2)


def on_different_sides(edge_set: EdgeSet, p1, p2) -> bool:
    """Vertically aligned points two apart, both off the set, midpoint degree 2."""
    p1, p2 = GridPoint(*p1), GridPoint(*p2)
    if p1.x != p2.x or abs(p1.y - p2.y) != 2:
        return False
    mid = GridPoint(p1.x, (p1.y + p2.y) // 2)
    dm = edge_set.degree_map
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
    if not on_different_sides(blue.to_edge_set(), p1, p2):
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
    n2 = obj.n * factor
    if isinstance(obj, EdgeSet):
        out = set()
        for e in obj.edges:
            out.update(_refined_pieces(e.a, e.b, factor))
        return EdgeSet(frozenset(Edge.of(p, q) for p, q in out), n2)
    pieces = []
    for e in obj.edges:
        pieces.extend(DirectedEdge(GridPoint(*p), GridPoint(*q))
                      for p, q in _refined_pieces(e.src, e.dst, factor))
    return EdgeSequence(tuple(pieces), n2, obj.kind)


def _refined_pieces(a: GridPoint, b: GridPoint, f: int):
    dx, dy = b.x - a.x, b.y - a.y
    x, y = a.x * f, a.y * f
    for _ in range(f):
        yield (x, y), (x + dx, y + dy)
        x, y = x + dx, y + dy


def rotate_90(obj: GridObject) -> GridObject:
    """Rotate the whole instance: (x, y) -> (y, n - x)."""
    n = obj.n

    def rot(p: GridPoint) -> GridPoint:
        return GridPoint(p.y, n - p.x)

    if isinstance(obj, EdgeSet):
        return EdgeSet.of(((rot(e.a), rot(e.b)) for e in obj.edges), n)
    return EdgeSequence(tuple(DirectedEdge(rot(e.src), rot(e.dst)) for e in obj.edges),
                        n, obj.kind)


def translate(obj: GridObject, dx: int, dy: int, n: int) -> GridObject:
    """Shift all coordinates by (dx, dy) onto a grid with parameter ``n``."""

    def mv(p: GridPoint) -> GridPoint:
        q = GridPoint(p.x + dx, p.y + dy)
        _check_point(q, n)
        return q

    if isinstance(obj, EdgeSet):
        return EdgeSet(frozenset(Edge(mv(e.a), mv(e.b)) for e in obj.edges), n)
    return EdgeSequence(tuple(DirectedEdge(mv(e.src), mv(e.dst)) for e in obj.edges),
                        n, obj.kind)
