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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import GridJctError, InvalidInstance, PreconditionViolation, SolverBudgetExhausted
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
# have about 11.8 million, so larger n is rejected before any is built.
MAX_STSEQ_N = 5
# stconn clauses grow as about 30 n^2 (``stconn_clauses``); the cap admits
# n <= 182 and is checked before any clause is built.
MAX_STCONN_CLAUSES = 1_000_000
# Branch assignments one ``solve`` call may try.  Refuting stconn(5) takes
# 261,958 in dpll mode.
MAX_DECISIONS = 3_000_000


class VarRole(NamedTuple):
    family: str  # "stconn" | "stseq"
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
        """Every formula is checked once, when it is built."""
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
    k = len(vs)
    for i in range(k):  # no degree 3 or more
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                clauses.append((-vs[i], -vs[j], -vs[l]))
    return clauses


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
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                clauses.append((-mine[i], -mine[j]))  # at most one
        for i in at[corner]:
            clauses.append((-var(i, other),))  # none of the other color
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
            for i in at[p]:
                for j in at[p]:
                    c = (-var(i, BLUE), -var(j, RED))
                    if c not in seen:
                        seen.add(c)
                        clauses.append(c)

    var_map = {}
    for idx, e in enumerate(slots):
        var_map[var(idx, BLUE)] = VarRole("stconn", BLUE, e, None)
        var_map[var(idx, RED)] = VarRole("stconn", RED, e, None)
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

    shares_point = [[bool({slots[i].a, slots[i].b} & {slots[j].a, slots[j].b})
                     for j in range(s)] for i in range(s)]

    clauses: List[Tuple[int, ...]] = []
    for color in (BLUE, RED):
        start, goal = ends[color]
        for pos in range(1, length + 1):  # at most one edge per position
            for i in range(s):
                for j in range(i + 1, s):
                    clauses.append((-var(i, color, pos), -var(j, color, pos)))
        clauses.append(tuple(var(i, color, 1) for i in at[start]))  # start corner
        for pos in range(2, length + 1):  # empties form a terminal suffix
            prev = tuple(var(i, color, pos - 1) for i in range(s))
            for i in range(s):
                clauses.append((-var(i, color, pos),) + prev)
        for pos in range(1, length):  # consecutive edges share exactly one point
            for i in range(s):
                for j in range(s):
                    if i == j or not shares_point[i][j]:
                        clauses.append((-var(i, color, pos), -var(j, color, pos + 1)))
        for pos in range(1, length):  # stopping early requires the goal corner
            nxt = tuple(var(k, color, pos + 1) for k in range(s))
            for i in range(s):
                if goal not in (slots[i].a, slots[i].b):
                    clauses.append((-var(i, color, pos),) + nxt)
        for i in range(s):  # the last position, if used, must reach the goal
            if goal not in (slots[i].a, slots[i].b):
                clauses.append((-var(i, color, length),))
        for pos in range(1, length):  # touching the goal corner ends the path
            for i in at[goal]:
                for k in range(s):
                    clauses.append((-var(i, color, pos), -var(k, color, pos + 1)))
        for i in at[start]:  # the start corner is touched by the first edge only
            for pos in range(2, length + 1):
                clauses.append((-var(i, color, pos),))
        for corner in ends[RED if color == BLUE else BLUE]:  # off the other color's corners
            for i in at[corner]:
                for pos in range(1, length + 1):
                    clauses.append((-var(i, color, pos),))
        for pos in range(1, length + 1):  # simple path: no revisited points
            for pos2 in range(pos + 2, length + 1):
                for i in range(s):
                    for j in range(s):
                        if shares_point[i][j]:
                            clauses.append((-var(i, color, pos), -var(j, color, pos2)))
    if intersection_clauses:
        for p in sorted(at):
            for i in at[p]:
                for j in at[p]:
                    for pos in range(1, length + 1):
                        for pos2 in range(1, length + 1):
                            clauses.append((-var(i, BLUE, pos), -var(j, RED, pos2)))

    var_map = {}
    for pos in range(1, length + 1):
        for idx, e in enumerate(slots):
            var_map[var(idx, BLUE, pos)] = VarRole("stseq", BLUE, e, pos)
            var_map[var(idx, RED, pos)] = VarRole("stseq", RED, e, pos)
    meta = {"family": "stseq", "n": n, "weakened": not intersection_clauses}
    return CnfFormula(2 * s * length, tuple(clauses), var_map, meta)


# ---------------------------------------------------------------------------
# Satisfiability checking
# ---------------------------------------------------------------------------

class _ClauseState:
    """Counter-based assignment engine shared by both search modes.

    ``n_live[ci]`` counts the literals of clause ci that are not false: 0
    means the clause is falsified, and 1 means it is either satisfied or a
    unit.  ``trail`` lists the literals made true, in order, so
    ``undo(mark)`` takes back everything assigned since ``len(trail)`` was
    ``mark``.  ``occ`` and ``truth`` are indexed by a literal: Python puts
    index ``-v`` at ``2 * num_vars + 1 - v``, so v and -v have their own slots.
    """

    def __init__(self, f: CnfFormula):
        self.clauses = f.clauses
        self.num_vars = f.num_vars
        self.occ: List[List[int]] = [[] for _ in range(2 * f.num_vars + 1)]
        for ci, clause in enumerate(self.clauses):
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
        """Make lit true; each clause this leaves with one live literal is
        appended to ``units``.  False on a falsified clause."""
        truth, n_live = self.truth, self.n_live
        truth[lit] = True
        truth[-lit] = False
        self.trail.append(lit)
        ok = True
        for ci in self.occ[-lit]:
            left = n_live[ci] - 1
            n_live[ci] = left
            if left == 1:
                units.append(ci)
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
        """Make true the open literal of each clause in ``units`` that is a
        unit, and of every clause that becomes one on the way; False on a
        conflict.  A queued clause keeps one live literal until a conflict
        ends the loop."""
        truth, clauses = self.truth, self.clauses
        i = 0
        while i < len(units):
            for lit in clauses[units[i]]:
                x = truth[lit]
                if x is None:
                    if not self.set_true(lit, units):
                        return False
                    break
                if x:
                    break
            else:
                raise GridJctError("a queued clause has no live literal (bug)")
            i += 1
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

    Only the root scans every clause for units.  At a fixpoint no clause is
    unit, so after a branch the only candidates are the clauses it falsified
    a literal of; unit propagation is confluent, so this reaches the fixpoint
    and the conflicts a full rescan would, and gives the same search tree.
    """
    state = _ClauseState(f)
    truth = state.truth
    ok = state.propagate([ci for ci, live in enumerate(state.n_live) if live == 1])
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
    for ci, clause in enumerate(f.clauses):
        if not any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause):
            raise InvalidInstance(
                f"assignment violates clause {ci}: {list(clause)}")
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


def to_dimacs(f: CnfFormula) -> str:
    """DIMACS CNF text with a commented variable map."""
    lines = []
    meta = f.meta
    head = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    lines.append(f"c gridjct {head}".rstrip())
    for v in sorted(f.var_map):
        lines.append(f"c var {v} {f.var_map[v].describe()}")
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
