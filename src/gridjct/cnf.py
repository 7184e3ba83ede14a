"""CNF families for the st-connectivity principle, plus a small validity checker.

``gen_stconn(n)`` encodes edge-set colorings: each corner has exactly one
edge of its color, every other node has per-color degree 0 or 2 and may not
touch both colors.  ``gen_stseq(n)`` encodes indexed edge sequences: one
variable per (edge, color, position), positions chain into a simple path
from corner to corner that touches its corners only at its ends and never
the other color's corners, and the two colors share no grid point.  Both are
negations of tautologies, hence unsatisfiable; dropping the cross-color
clauses makes them satisfiable with models that decode to genuine crossing
configurations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, product, repeat
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidInstance, PreconditionViolation, SolverBudgetExhausted
from .grid import (
    OPEN,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    corner_ends,
)

BLUE, RED = "blue", "red"
EXHAUSTIVE, DPLL = "exhaustive", "dpll"
_EXHAUSTIVE_CAP = 26
# stseq clauses grow about as n^8: stseq(5) has 715,442 and stseq(6) would
# have 2,120,622.  Flat, stseq(5) is 2,480,090 ints (9.5 MiB) and a fresh
# ``gen --out`` of it peaks at 31 MiB; stseq(6) would be 7,325,734 ints, a
# 55 MiB peak and 34 MB of DIMACS.  The cap bounds that output: larger n is
# rejected before any clause is built.
MAX_STSEQ_N = 5
# stconn clauses grow as about 30 n^2: stconn(182) has 994,072 and stconn(183)
# would have 1,005,024.  Larger n is rejected before any clause is built.
MAX_STCONN_N = 182
# Branch assignments one ``solve`` call may try.  Refuting stconn(5) takes
# 261,958 in dpll mode.
MAX_DECISIONS = 3_000_000


class VarRole(NamedTuple):
    color: str
    edge: Edge
    position: Optional[int]  # 1-based sequence slot; None for stconn

    def describe(self) -> str:
        e = f"({self.edge.a.x},{self.edge.a.y})-({self.edge.b.x},{self.edge.b.y})"
        if self.position is None:
            return f"{self.color} edge {e}"
        return f"{self.color} edge {e} at position {self.position}"


class Clauses:
    """The flat clause store, read as a sequence of literal tuples.  ``lits``
    holds each clause's literals and then a 0, in DIMACS order; ``spans``
    indexes it with ``(width, start, stop)`` for each maximal stretch
    ``lits[start:stop]`` of clauses of ``width`` literals.  The generators
    add whole blocks with ``_pairs`` and ``_rows``."""

    __slots__ = ("lits", "spans")

    def __init__(self, clauses=()):
        self.lits, self.spans = array("i"), []
        for width, group in groupby(clauses, len):
            self._put(width, chain.from_iterable(chain.from_iterable(zip(group, repeat((0,))))))

    def _put(self, width: int, block: Iterable[int]):
        """Append ``block``: clauses of ``width`` literals, each with its 0."""
        end = len(self.lits)
        start = self.spans.pop()[1] if self.spans and self.spans[-1][0] == width else end
        self.lits.extend(block)
        if start < len(self.lits):
            self.spans.append((width, start, len(self.lits)))

    def _pairs(self, xs: Sequence[int], ys: Sequence[int]):
        """The binary clauses (xs[t], ys[t]), in order."""
        block = _ZERO * (3 * len(xs))
        block[0::3], block[1::3] = array("i", xs), array("i", ys)
        self._put(2, block)

    def _rows(self, firsts: Sequence[int], rest: Sequence[int] = ()):
        """The clauses (x, *rest) for each x in firsts, in order."""
        block = (_ZERO + array("i", rest) + _ZERO) * len(firsts)
        block[0::len(rest) + 2] = array("i", firsts)
        self._put(len(rest) + 1, block)

    def columns(self):
        """The one reader of the layout: ``(width, cols)`` for each span, where
        ``cols[k]`` holds the k-th literal of each of its clauses and ``cols[width]`` their 0s."""
        for width, start, stop in self.spans:
            yield width, [self.lits[start + k:stop:width + 1] for k in range(width + 1)]

    def __len__(self) -> int:
        return sum((stop - start) // (width + 1) for width, start, stop in self.spans)

    def __iter__(self):
        for _, cols in self.columns():  # zipped with the 0s, so an empty clause reads ()
            yield from map(_BODY, zip(*cols))

    def __eq__(self, other) -> bool:
        return isinstance(other, Clauses) and (self.lits, self.spans) == (other.lits, other.spans)


_ZERO = array("i", [0])
_BODY = itemgetter(slice(-1))  # a clause's literals, without its 0


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: Clauses  # literal sequences are stored as Clauses(clauses)
    var_map: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """Every formula is checked once, when it is built: one pass collects
        the store's literals, a span at a time, and checks that a 0 ends each
        clause; only a rejected formula is walked clause by clause to name
        the first bad one."""
        n = self.num_vars
        if not isinstance(self.clauses, (Clauses, list, tuple)):  # read once: the walk re-reads it
            object.__setattr__(self, "clauses", tuple(self.clauses))
        try:
            if not isinstance(self.clauses, Clauses):
                object.__setattr__(self, "clauses", Clauses(self.clauses))
        except OverflowError:  # a literal past the store's range: walk the sequences given
            pass
        else:
            lits, spans, found = self.clauses.lits, self.clauses.spans, set()
            ended = len(lits) == (spans[-1][2] if spans else 0)  # no element past the last span
            for width, cols in self.clauses.columns():
                found.update(*cols[:width])
                ended = ended and width > 0 and cols[width].count(0) == len(cols[width])
            if ended and 0 not in found and -n <= min(found, default=0) <= max(found, default=0) <= n:
                return
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise InvalidInstance(f"empty clause at index {i}")
            for lit in clause:
                if lit == 0 or abs(lit) > n:
                    raise InvalidInstance(f"bad literal {lit} in clause {i}")
        raise InvalidInstance("the 0s of the clause store do not end its clauses")


def edge_slots(n: int) -> List[Edge]:
    """All edge slots of the n-grid, row-major: horizontals then verticals."""
    horiz = [Edge(GridPoint(x, y), GridPoint(x + 1, y))
             for y in range(n + 1) for x in range(n)]
    vert = [Edge(GridPoint(x, y), GridPoint(x, y + 1))
            for y in range(n) for x in range(n + 1)]
    return horiz + vert


def _slots_at(slots: Sequence[Edge]) -> Dict[GridPoint, List[int]]:
    at: Dict[GridPoint, List[int]] = {}
    for idx, e in enumerate(slots):
        at.setdefault(e.a, []).append(idx)
        at.setdefault(e.b, []).append(idx)
    return at


def gen_stconn(n: int, *, intersection_clauses: bool = True) -> CnfFormula:
    """Edge-set form of the corner-connectivity contradiction.  Grids larger
    than ``MAX_STCONN_N`` are rejected."""
    if n < 1:
        raise PreconditionViolation("n >= 1")
    if n > MAX_STCONN_N:
        raise PreconditionViolation(f"n <= {MAX_STCONN_N}",
                                    f"stconn needs n <= {MAX_STCONN_N}, got n={n}")
    slots = edge_slots(n)
    at = _slots_at(slots)
    corners = {p: color for color, ends in corner_ends(n).items() for p in ends}

    def var(idx: int, color: str) -> int:
        return 2 * idx + (1 if color == BLUE else 2)

    def clauses():
        for corner, own in corners.items():
            other = RED if own == BLUE else BLUE
            mine = [var(i, own) for i in at[corner]]
            yield mine  # at least one edge of the corner's color
            yield from combinations([-v for v in mine], 2)  # at most one
            yield from [(-var(i, other),) for i in at[corner]]  # none of the other color
        inner = [p for p in sorted(at) if p not in corners]
        for p in inner:  # per color, 0 or 2 of the (at most 4) edges at p
            for color in (BLUE, RED):
                vs = [var(i, color) for i in at[p]]
                yield from [tuple([-v] + [w for w in vs if w != v]) for v in vs]  # not 1
                yield from combinations([-v for v in vs], 3)  # not 3 or more
        if intersection_clauses:  # each pair once, where it first meets
            yield from dict.fromkeys((-var(i, BLUE), -var(j, RED))
                                     for p in inner for i, j in product(at[p], repeat=2))

    var_map = {var(idx, color): VarRole(color, e, None)
               for idx, e in enumerate(slots) for color in (BLUE, RED)}
    meta = {"family": "stconn", "n": n, "weakened": not intersection_clauses}
    return CnfFormula(2 * len(slots), Clauses(clauses()), var_map, meta)


def gen_stseq(n: int, *, intersection_clauses: bool = True) -> CnfFormula:
    """Indexed-sequence form: variables assert "edge e is the i-th edge".
    Grids larger than ``MAX_STSEQ_N`` are rejected."""
    if n < 1:
        raise PreconditionViolation("n >= 1")
    if n > MAX_STSEQ_N:
        raise PreconditionViolation(f"n <= {MAX_STSEQ_N}",
                                    f"stseq needs n <= {MAX_STSEQ_N}, got n={n}")
    slots = edge_slots(n)
    s = len(slots)
    at = _slots_at(slots)
    length = n * n
    ends = corner_ends(n)

    def var(idx: int, color: str, pos: int) -> int:
        return (pos - 1) * 2 * s + 2 * idx + (1 if color == BLUE else 2)

    def row(color: str, pos: int, sign: int = -1) -> tuple:  # sign * var(i, color, pos) by slot i
        return tuple(range(sign * var(0, color, pos), sign * var(s, color, pos), sign * 2))

    # cols[color][i][pos - 1] is -var(i, color, pos)
    cols = {color: [tuple(range(-var(i, color, 1), -var(i, color, length + 1), -2 * s))
                    for i in range(s)] for color in (BLUE, RED)}
    ends_of = [{e.a, e.b} for e in slots]
    # each getter picks one side of a list of slot pairs out of a row
    sharing = [itemgetter(*side) for side in zip(*[
        (i, j) for i in range(s) for j in range(s) if ends_of[i] & ends_of[j]])]
    equal_or_apart = [itemgetter(*side) for side in zip(*[
        (i, j) for i in range(s) for j in range(s) if i == j or not ends_of[i] & ends_of[j]])]
    distinct = [itemgetter(*side) for side in zip(*combinations(range(s), 2))]

    out = Clauses()
    for color in (BLUE, RED):
        start, goal = ends[color]
        neg = [()] + [row(color, pos) for pos in range(1, length + 1)]
        col = cols[color]
        off_goal = itemgetter(*[i for i in range(s) if goal not in ends_of[i]])
        at_goal = itemgetter(*[i for i in at[goal] for _ in range(s)])
        for pos in range(1, length + 1):  # at most one edge per position
            out._pairs(distinct[0](neg[pos]), distinct[1](neg[pos]))
        out._put(len(at[start]), [-neg[1][i] for i in at[start]] + [0])  # start corner
        for pos in range(2, length + 1):  # empties form a terminal suffix
            out._rows(neg[pos], row(color, pos - 1, 1))
        for pos in range(1, length):  # consecutive edges share exactly one point
            out._pairs(equal_or_apart[0](neg[pos]), equal_or_apart[1](neg[pos + 1]))
        for pos in range(1, length):  # stopping early requires the goal corner
            out._rows(off_goal(neg[pos]), row(color, pos + 1, 1))
        # the last position, if used, must reach the goal
        out._rows(off_goal(neg[length]))
        for pos in range(1, length):  # touching the goal corner ends the path
            out._pairs(at_goal(neg[pos]), neg[pos + 1] * len(at[goal]))
        for i in at[start]:  # the start corner is touched by the first edge only
            out._rows(col[i][1:])
        for corner in ends[RED if color == BLUE else BLUE]:  # off the other color's corners
            for i in at[corner]:
                out._rows(col[i])
        firsts = [array("i", sharing[0](r)) for r in neg[1:]]
        seconds = [array("i", sharing[1](r)) for r in neg[1:]]
        for pos in range(length):  # simple path: no revisited points
            for pos2 in range(pos + 2, length):
                out._pairs(firsts[pos], seconds[pos2])
    if intersection_clauses:  # product(blue column i, red column j) per pair
        blue = [array("i", chain.from_iterable(repeat(v, length) for v in c)) for c in cols[BLUE]]
        red = [array("i", c * length) for c in cols[RED]]
        for p in sorted(at):
            for i, j in product(at[p], repeat=2):
                out._pairs(blue[i], red[j])

    var_map = {var(idx, color, pos): VarRole(color, e, pos) for pos in range(1, length + 1)
               for idx, e in enumerate(slots) for color in (BLUE, RED)}
    meta = {"family": "stseq", "n": n, "weakened": not intersection_clauses}
    return CnfFormula(2 * s * length, out, var_map, meta)


# ---------------------------------------------------------------------------
# Satisfiability checking
# ---------------------------------------------------------------------------

class _ClauseState:
    """Assignment engine shared by both search modes.

    A binary clause (a, b) is two implications: ``imp[-a]`` holds b and
    ``imp[-b]`` holds a.  ``watches[lit]`` lists each other clause once per
    watched position, 0 or 1, that holds lit (a length-1 clause holds its
    literal twice).  A watch is false only if the other was made true before
    it or every unwatched position is false, which undoing keeps true.
    ``trail`` lists the literals made true, in order, so ``undo(mark)`` takes
    back everything assigned since ``len(trail)`` was ``mark``.  ``imp``,
    ``watches`` and ``truth`` are indexed by a literal: Python puts index ``-v``
    at ``2 * num_vars + 1 - v``, so v and -v have their own slots.
    """

    def __init__(self, f: CnfFormula):
        self.num_vars = f.num_vars
        self.imp: List[List[int]] = [[] for _ in range(2 * f.num_vars + 1)]
        self.watches: List[List[List[int]]] = [[] for _ in range(2 * f.num_vars + 1)]
        imp, watches = self.imp, self.watches
        for width, cols in f.clauses.columns():  # zipped from list copies of the literal columns
            lits = ([col.tolist() for col in cols[:width]] * 2)[:max(width, 2)]  # (x,) as (x, x)
            if width == 2:
                for a, b in zip(*lits):
                    imp[-a].append(b)
                    imp[-b].append(a)
            else:
                for clause in map(list, zip(*lits)):
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
        self.truth: List[Optional[bool]] = [None] * (2 * f.num_vars + 1)
        self.trail: List[int] = []
        self.decisions = 0

    def decide(self, lit: int, units: List[int]) -> bool:
        """``set_true`` for a branch, counted against ``MAX_DECISIONS``."""
        self.decisions += 1
        if self.decisions > MAX_DECISIONS:
            raise SolverBudgetExhausted(
                f"solver stopped after {MAX_DECISIONS} decisions without a verdict")
        return self.set_true(lit, units)

    def set_true(self, lit: int, units: List[int]) -> bool:
        """Make lit true and queue in ``units`` the free literals of ``imp[lit]``
        and the other watch of each clause whose watch on -lit cannot move.
        False on a falsified clause, at once if an implied literal is false."""
        truth = self.truth
        truth[lit] = True
        truth[-lit] = False
        self.trail.append(lit)
        for other in self.imp[lit]:
            x = truth[other]
            if x is None:
                units.append(other)
            elif not x:
                return False
        lit, watches, kept, ok = -lit, self.watches, [], True
        for clause in watches[lit]:
            other, j = clause[0], 1  # j: the position of lit
            if other == lit:
                other, j = clause[1], 0
            x = truth[other]
            if x:
                kept.append(clause)
                continue
            for new in clause[2:]:
                if truth[new] is not False:  # watch new in place of lit
                    clause[j], clause[clause.index(new, 2)] = new, lit
                    watches[new].append(clause)
                    break
            else:
                kept.append(clause)
                units.append(other)
                ok = ok and x is None
        watches[lit] = kept
        return ok

    def undo(self, mark: int):
        trail, truth = self.trail, self.truth
        for lit in trail[mark:]:
            truth[lit] = truth[-lit] = None
        del trail[mark:]

    def propagate(self, units: List[int]) -> bool:
        """Make true each free literal in ``units`` and every literal this
        implies; False on a conflict.  A queued literal made false needs no
        test: the ``set_true`` that made it false returned False."""
        truth = self.truth
        for lit in units:
            if truth[lit] is None and not self.set_true(lit, units):
                return False
        return True

    def model(self) -> Dict[int, bool]:
        return {v: bool(self.truth[v]) for v in range(1, self.num_vars + 1)}


def _solve_exhaustive(f: CnfFormula) -> Optional[Dict[int, bool]]:
    """Chronological backtracking over all assignments in index order, pruned
    only when a clause is already falsified."""
    state = _ClauseState(f)

    def recurse(v: int) -> Optional[Dict[int, bool]]:
        if v > state.num_vars:
            return state.model()
        mark = len(state.trail)
        for lit in (v, -v):
            if state.decide(lit, []) and (found := recurse(v + 1)) is not None:
                return found
            state.undo(mark)
        return None

    return recurse(1)


def _solve_dpll(f: CnfFormula) -> Optional[Dict[int, bool]]:
    """Unit propagation plus branching, lowest free variable first, true
    branch first, on an explicit stack of (variable, value, trail mark).

    Only the root reads every watched clause, for the length-1 ones.  At a
    fixpoint no clause is unit, so after a branch the only candidates watch a
    literal it falsified, and ``set_true`` queues their other watch when it
    cannot move; unit propagation is confluent, so this reaches the fixpoint
    and the conflicts a full rescan would, and gives the same search tree.
    """
    state = _ClauseState(f)
    truth = state.truth
    ok = state.propagate([c[0] for w in state.watches for c in w if len(c) == 2])  # (x, x)
    stack: List[Tuple[int, bool, int]] = []
    v = 1
    while True:
        if ok:
            while v <= state.num_vars and truth[v] is not None:
                v += 1
            if v > state.num_vars:
                return state.model()
            branch, mark = True, len(state.trail)
        else:
            while stack and not stack[-1][1]:
                stack.pop()
            if not stack:
                return None
            v, _, mark = stack.pop()
            state.undo(mark)
            branch = False
        stack.append((v, branch, mark))
        units: List[int] = []
        ok = state.decide(v if branch else -v, units) and state.propagate(units)
        v += 1


def solve(f: CnfFormula, mode: str = DPLL) -> Optional[Dict[int, bool]]:
    """A satisfying assignment or None.  Both modes assign every variable
    before they return a model, so it gives each one a value.  A search that
    needs more than ``MAX_DECISIONS`` branches raises ``SolverBudgetExhausted``."""
    if mode == EXHAUSTIVE:
        if f.num_vars > _EXHAUSTIVE_CAP:
            raise PreconditionViolation(
                f"num_vars <= {_EXHAUSTIVE_CAP} for exhaustive mode")
        return _solve_exhaustive(f)
    if mode == DPLL:
        return _solve_dpll(f)
    raise PreconditionViolation('mode in ("exhaustive", "dpll")')


def check_unsat(f: CnfFormula, mode: str = DPLL) -> bool:
    """True iff no satisfying assignment exists."""
    return solve(f, mode) is None


# ---------------------------------------------------------------------------
# Model decoding and DIMACS emission
# ---------------------------------------------------------------------------

def decode_model(f: CnfFormula, assignment: Dict[int, bool]):
    """Rebuild the blue/red grid objects a satisfying assignment describes.

    Returns ``(blue, red)`` as EdgeSets for the stconn family and as oriented
    EdgeSequences for stseq.  The assignment must satisfy ``f``; the first
    violated clause is reported otherwise.
    """
    get, ci = assignment.get, 0
    true = {lit for v in range(1, f.num_vars + 1) for lit in (v, -v) if get(v, False) == (lit > 0)}
    for width, cols in f.clauses.columns():  # each clause zipped from its span's columns
        if any(map(true.isdisjoint, zip(*cols[:width]))):
            at, clause = next(c for c in enumerate(zip(*cols[:width])) if true.isdisjoint(c[1]))
            raise InvalidInstance(f"assignment violates clause {ci + at}: {list(clause)}")
        ci += len(cols[width])
    family, n = f.meta.get("family"), f.meta.get("n")
    chosen = {BLUE: [], RED: []}  # each color's true roles, in variable order
    for v, role in f.var_map.items():
        if get(v, False):
            chosen[role.color].append(role)
    if family == "stconn":
        return tuple(EdgeSet.of([role.edge for role in chosen[c]], n) for c in (BLUE, RED))
    if family == "stseq":
        out = {}
        for color in (BLUE, RED):
            by_pos: Dict[int, Edge] = {}
            for role in chosen[color]:
                if role.position in by_pos:
                    raise InvalidInstance(f"two edges at position {role.position}")
                by_pos[role.position] = role.edge
            if not by_pos or sorted(by_pos) != list(range(1, len(by_pos) + 1)):
                raise InvalidInstance(f"{color} positions are not a prefix")
            pts = [corner_ends(n)[color][0]]
            for pos in range(1, len(by_pos) + 1):
                e = by_pos[pos]
                if pts[-1] not in (e.a, e.b):
                    raise InvalidInstance(f"{color} edge at position {pos} does not chain")
                pts.append(e.b if e.a == pts[-1] else e.a)
            out[color] = EdgeSequence.from_points(pts, n, OPEN)
        return out[BLUE], out[RED]
    raise InvalidInstance(f"cannot decode family {family!r}")


_BATCH = 1 << 16  # store elements (literals and 0s) joined into one string


def to_dimacs(f: CnfFormula, fh=None):
    """DIMACS CNF text with a commented variable map, returned whole, or
    written to the text file ``fh`` a batch at a time.  The clause lines are
    the flat store mapped through one table of literal texts, indexed like
    ``_ClauseState``'s lists, in which ``table[0]`` is ``"0\n"``: each
    element maps on its own, so a batch may end inside a clause."""
    head = " ".join(f"{k}={f.meta[k]}" for k in sorted(f.meta))
    names = [f"c var {v} {f.var_map[v].describe()}\n" for v in sorted(f.var_map)]
    table = ["0\n", *(f"{v} " for v in chain(range(1, f.num_vars + 1), range(-f.num_vars, 0)))]
    lits = f.clauses.lits
    batches = chain([f"c gridjct {head}".rstrip() + "\n", "".join(names),
                     f"p cnf {f.num_vars} {len(f.clauses)}\n"],
                    ("".join(map(table.__getitem__, lits[k:k + _BATCH]))
                     for k in range(0, len(lits), _BATCH)))
    if fh is None:
        return "".join(batches)
    fh.writelines(batches)
