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

from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
# stseq clauses grow about as n^8: stseq(5) has 715,442 and stseq(8) would
# have about 11.8 million.  Generation is fast, so the cap bounds memory,
# which grows with the clause count: larger n is rejected before any is built.
MAX_STSEQ_N = 5
# stconn clauses grow as about 30 n^2 (``stconn_clauses``); the cap admits
# n <= 182 and is checked before any clause is built.
MAX_STCONN_CLAUSES = 1_000_000
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


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple
    var_map: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """Every formula is checked once, when it is built: one pass over the
        literals accepts it, and only a rejected formula is walked clause by
        clause to name the first bad one."""
        lits = set(chain.from_iterable(self.clauses))
        if (all(self.clauses) and 0 not in lits
                and -self.num_vars <= min(lits, default=0)
                and max(lits, default=0) <= self.num_vars):
            return
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise InvalidInstance(f"empty clause at index {i}")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InvalidInstance(f"bad literal {lit} in clause {i}")


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


def _degree_zero_or_two(vs: List[int]) -> List[Tuple[int, ...]]:
    """CNF for "the number of true vars among vs is 0 or 2" (|vs| <= 4)."""
    clauses = [tuple([-v] + [w for w in vs if w != v]) for v in vs]  # no degree 1
    return clauses + list(combinations([-v for v in vs], 3))  # no degree 3 or more


def stconn_clauses(n: int, *, intersection_clauses: bool = True) -> int:
    """``len(gen_stconn(n, ...).clauses)`` in closed form, for n >= 1.

    Each corner (degree 2) has 4 clauses.  Per color, a non-corner point of
    degree k has k + C(k, 3): 4 on a side, 8 inside.  The cross-color pairs
    are every slot with itself plus each ordered pair of slots meeting at a
    non-corner point (k(k - 1) per point); at n = 1 every point is a corner.
    """
    sides, inner = 4 * (n - 1), (n - 1) ** 2
    count = 16 + 2 * (4 * sides + 8 * inner)
    if intersection_clauses and n > 1:
        count += 2 * n * (n + 1) + 6 * sides + 12 * inner
    return count


def gen_stconn(n: int, *, intersection_clauses: bool = True) -> CnfFormula:
    """Edge-set form of the corner-connectivity contradiction.  Grids with
    more than ``MAX_STCONN_CLAUSES`` clauses are rejected."""
    if n < 1:
        raise PreconditionViolation("n >= 1")
    size = stconn_clauses(n, intersection_clauses=intersection_clauses)
    if size > MAX_STCONN_CLAUSES:
        raise PreconditionViolation(
            f"clauses <= {MAX_STCONN_CLAUSES}",
            f"stconn({n}) would have {size} clauses, over the cap of {MAX_STCONN_CLAUSES}")
    slots = edge_slots(n)
    at = _slots_at(slots)
    corners = {p: color for color, ends in corner_ends(n).items() for p in ends}

    def var(idx: int, color: str) -> int:
        return 2 * idx + (1 if color == BLUE else 2)

    clauses: List[Tuple[int, ...]] = []
    for corner, own in corners.items():
        other = RED if own == BLUE else BLUE
        mine = [var(i, own) for i in at[corner]]
        clauses.append(tuple(mine))  # at least one edge of the corner's color
        clauses.extend(combinations([-v for v in mine], 2))  # at most one
        clauses.extend([(-var(i, other),) for i in at[corner]])  # none of the other color
    for p in sorted(at):
        if p in corners:
            continue
        for color in (BLUE, RED):
            clauses.extend(_degree_zero_or_two([var(i, color) for i in at[p]]))
    if intersection_clauses:
        seen = set()
        for p in sorted(at):
            if p in corners:
                continue
            for i, j in product(at[p], repeat=2):
                c = (-var(i, BLUE), -var(j, RED))
                if c not in seen:
                    seen.add(c)
                    clauses.append(c)

    var_map = {}
    for idx, e in enumerate(slots):
        var_map[var(idx, BLUE)] = VarRole(BLUE, e, None)
        var_map[var(idx, RED)] = VarRole(RED, e, None)
    meta = {"family": "stconn", "n": n, "weakened": not intersection_clauses}
    return CnfFormula(2 * len(slots), tuple(clauses), var_map, meta)


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

    # neg[color][pos][i] and cols[color][i][pos - 1] are -var(i, color, pos);
    # neg[color][0] is unused
    neg = {color: [()] + [tuple(range(-var(0, color, pos), -var(s, color, pos), -2))
                          for pos in range(1, length + 1)] for color in (BLUE, RED)}
    cols = {color: [tuple(range(-var(i, color, 1), -var(i, color, length + 1), -2 * s))
                    for i in range(s)] for color in (BLUE, RED)}
    ends_of = [{e.a, e.b} for e in slots]
    sharing = [(i, j) for i in range(s) for j in range(s) if ends_of[i] & ends_of[j]]
    equal_or_apart = [(i, j) for i in range(s) for j in range(s)
                      if i == j or not ends_of[i] & ends_of[j]]

    clauses: List[Tuple[int, ...]] = []
    for color in (BLUE, RED):
        start, goal = ends[color]
        row, col = neg[color], cols[color]
        off_goal = [i for i in range(s) if goal not in ends_of[i]]
        for pos in range(1, length + 1):  # at most one edge per position
            clauses.extend(combinations(row[pos], 2))
        clauses.append(tuple(-row[1][i] for i in at[start]))  # start corner
        for pos in range(2, length + 1):  # empties form a terminal suffix
            prev = tuple(-v for v in row[pos - 1])
            clauses.extend([(v,) + prev for v in row[pos]])
        for pos in range(1, length):  # consecutive edges share exactly one point
            a, b = row[pos], row[pos + 1]
            clauses.extend([(a[i], b[j]) for i, j in equal_or_apart])
        for pos in range(1, length):  # stopping early requires the goal corner
            nxt = tuple(-v for v in row[pos + 1])
            clauses.extend([(row[pos][i],) + nxt for i in off_goal])
        # the last position, if used, must reach the goal
        clauses.extend([(row[length][i],) for i in off_goal])
        for pos in range(1, length):  # touching the goal corner ends the path
            clauses.extend(product([row[pos][i] for i in at[goal]], row[pos + 1]))
        for i in at[start]:  # the start corner is touched by the first edge only
            clauses.extend([(v,) for v in col[i][1:]])
        for corner in ends[RED if color == BLUE else BLUE]:  # off the other color's corners
            for i in at[corner]:
                clauses.extend([(v,) for v in col[i]])
        for pos in range(1, length + 1):  # simple path: no revisited points
            for pos2 in range(pos + 2, length + 1):
                a, b = row[pos], row[pos2]
                clauses.extend([(a[i], b[j]) for i, j in sharing])
    if intersection_clauses:
        for p in sorted(at):
            for i, j in product(at[p], repeat=2):
                clauses.extend(product(cols[BLUE][i], cols[RED][j]))

    var_map = {}
    for pos in range(1, length + 1):
        for idx, e in enumerate(slots):
            var_map[var(idx, BLUE, pos)] = VarRole(BLUE, e, pos)
            var_map[var(idx, RED, pos)] = VarRole(RED, e, pos)
    meta = {"family": "stseq", "n": n, "weakened": not intersection_clauses}
    return CnfFormula(2 * s * length, tuple(clauses), var_map, meta)


# ---------------------------------------------------------------------------
# Satisfiability checking
# ---------------------------------------------------------------------------

class _ClauseState:
    """Assignment engine shared by both search modes.

    A binary clause (a, b) is two implications: ``imp[-a]`` holds b and
    ``imp[-b]`` holds a.  Every other clause is counted: ``n_live[ci]`` counts
    the literals of clause ci that are not false, 0 meaning falsified and 1
    satisfied or a unit; ``occ`` lists each literal's counted clauses.
    ``trail`` lists the literals made true, in order, so ``undo(mark)`` takes
    back everything assigned since ``len(trail)`` was ``mark``.  ``imp``,
    ``occ`` and ``truth`` are indexed by a literal: Python puts index ``-v``
    at ``2 * num_vars + 1 - v``, so v and -v have their own slots.
    """

    def __init__(self, f: CnfFormula):
        self.clauses = f.clauses
        self.num_vars = f.num_vars
        self.imp: List[List[int]] = [[] for _ in range(2 * f.num_vars + 1)]
        self.occ: List[List[int]] = [[] for _ in range(2 * f.num_vars + 1)]
        for ci, clause in enumerate(self.clauses):
            if len(clause) == 2:
                a, b = clause
                self.imp[-a].append(b)
                self.imp[-b].append(a)
            else:
                for lit in clause:
                    self.occ[lit].append(ci)
        self.n_live = [len(c) for c in self.clauses]
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
        """Make lit true and append to ``units`` the literals this implies:
        the free ones of ``imp[lit]`` and the live one of each counted clause
        left with one.  False on a falsified clause, that is, an implied
        literal already false or a counted clause with none live."""
        truth, n_live, clauses = self.truth, self.n_live, self.clauses
        truth[lit] = True
        truth[-lit] = False
        self.trail.append(lit)
        ok = True
        for other in self.imp[lit]:
            x = truth[other]
            if x is None:
                units.append(other)
            elif not x:
                ok = False
        for ci in self.occ[-lit]:
            left = n_live[ci] - 1
            n_live[ci] = left
            if left == 1:
                for other in clauses[ci]:
                    if truth[other] is not False:
                        units.append(other)
                        break
            elif not left:
                ok = False
        return ok

    def undo(self, mark: int):
        trail, truth, n_live, occ = self.trail, self.truth, self.n_live, self.occ
        while len(trail) > mark:
            lit = trail.pop()
            truth[lit] = truth[-lit] = None
            for ci in occ[-lit]:
                n_live[ci] += 1

    def propagate(self, units: List[int]) -> bool:
        """Make true each literal in ``units`` that is free, and every literal
        this implies on the way; False on a conflict.  A queued literal that
        is false needs no test: the ``set_true`` that made it false found its
        clause falsified and ended the loop."""
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
        for lit in (v, -v):
            mark = len(state.trail)
            if state.decide(lit, []):
                found = recurse(v + 1)
                if found is not None:
                    return found
            state.undo(mark)
        return None

    return recurse(1)


def _solve_dpll(f: CnfFormula) -> Optional[Dict[int, bool]]:
    """Unit propagation plus branching, lowest free variable first, true
    branch first, on an explicit stack of (variable, value, trail mark).

    Only the root reads every clause, for the length-1 ones.  At a fixpoint
    no clause is unit, so after a branch the only candidates are the clauses
    it falsified a literal of, whose literals ``set_true`` queues; unit
    propagation is confluent, so this reaches the fixpoint and the conflicts
    a full rescan would, and gives the same search tree.
    """
    state = _ClauseState(f)
    truth = state.truth
    ok = state.propagate([c[0] for c in f.clauses if len(c) == 1])
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
    """Satisfying assignment (complete, free vars false) or None.  A search
    that needs more than ``MAX_DECISIONS`` branches raises
    ``SolverBudgetExhausted``."""
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
    get = assignment.get
    true = {lit for v in range(1, f.num_vars + 1) for lit in (v, -v)
            if get(v, False) == (lit > 0)}
    violated = list(map(true.isdisjoint, f.clauses))
    if True in violated:
        ci = violated.index(True)
        raise InvalidInstance(f"assignment violates clause {ci}: {list(f.clauses[ci])}")
    family, n = f.meta.get("family"), f.meta.get("n")
    if family == "stconn":
        picked = {BLUE: [], RED: []}
        for v, role in f.var_map.items():
            if assignment.get(v, False):
                picked[role.color].append(role.edge)
        return (EdgeSet.of(picked[BLUE], n), EdgeSet.of(picked[RED], n))
    if family == "stseq":
        out = {}
        for color in (BLUE, RED):
            by_pos: Dict[int, Edge] = {}
            for v, role in f.var_map.items():
                if role.color == color and assignment.get(v, False):
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


_BATCH = 4096  # clauses joined into one string: the text held at once stays small


def to_dimacs(f: CnfFormula, fh=None):
    """DIMACS CNF text with a commented variable map, returned whole, or
    written to the text file ``fh`` a batch of clauses at a time.  Each
    clause is formatted with one ``%`` format picked by its length."""
    head = " ".join(f"{k}={f.meta[k]}" for k in sorted(f.meta))
    names = [f"c var {v} {f.var_map[v].describe()}\n" for v in sorted(f.var_map)]
    formats = ["%d " * k + "0\n" for k in range(max(map(len, f.clauses), default=0) + 1)]
    batches = chain([f"c gridjct {head}".rstrip() + "\n", "".join(names),
                     f"p cnf {f.num_vars} {len(f.clauses)}\n"],
                    ("".join([formats[len(c)] % c for c in f.clauses[k:k + _BATCH]])
                     for k in range(0, len(f.clauses), _BATCH)))
    if fh is None:
        return "".join(batches)
    fh.writelines(batches)
