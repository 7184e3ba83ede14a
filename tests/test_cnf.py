"""CNF families, the two solver modes, decoding, DIMACS output."""

import hashlib
import io
import json
import random

import pytest

from gridjct import cnf
from gridjct.cnf import (
    CnfFormula,
    check_unsat,
    decode_model,
    edge_slots,
    gen_stconn,
    gen_stseq,
    solve,
    to_dimacs,
)
from gridjct.errors import InvalidInstance, PreconditionViolation, SolverBudgetExhausted
from gridjct.grid import Edge, GridPoint, connects, intersects


def brute_unsat(f):
    """Plain truth-table oracle for tiny formulas."""
    for mask in range(1 << f.num_vars):
        if all(any(((mask >> (abs(l) - 1)) & 1) == (l > 0) for l in clause)
               for clause in f.clauses):
            return False
    return True


def test_variable_counts():
    assert gen_stconn(1).num_vars == 8   # 4 slots x 2 colors
    assert gen_stconn(2).num_vars == 24  # 12 slots x 2 colors
    assert gen_stseq(1).num_vars == 8    # 4 slots x 2 colors x 1 position
    assert gen_stseq(2).num_vars == 96   # 12 slots x 2 colors x 4 positions


def test_clause_counts_pinned():
    # regression pins after the first computation, cross-checked by category
    assert len(gen_stconn(1).clauses) == 16
    assert len(gen_stconn(2).clauses) == 112
    assert len(gen_stconn(3).clauses) == 264
    assert len(gen_stseq(1).clauses) == 42
    assert len(gen_stseq(2).clauses) == 2894
    assert len(gen_stseq(3).clauses) == 33654
    assert len(gen_stseq(4).clauses) == 188814


def test_stconn_clause_tally_independent():
    for n in (1, 2, 3):
        f = gen_stconn(n)
        slots = edge_slots(n)
        corners = {GridPoint(0, n), GridPoint(n, 0), GridPoint(0, 0), GridPoint(n, n)}
        incid = {}
        for e in slots:
            incid.setdefault(e.a, []).append(e)
            incid.setdefault(e.b, []).append(e)
        expected = 0
        for c in corners:
            k = len(incid[c])
            expected += 1 + k * (k - 1) // 2 + k  # >=1, <=1 pairs, other color units
        for p, es in incid.items():
            if p in corners:
                continue
            k = len(es)
            expected += 2 * (k + k * (k - 1) * (k - 2) // 6)  # per color: deg!=1, deg<=2
        both = set()
        for p, es in incid.items():
            if p in corners:
                continue
            for a in es:
                for b in es:
                    both.add((a, b))
        expected += len(both)
        assert len(f.clauses) == expected


def test_stseq_clause_tally_independent():
    for n in (1, 2, 3, 4):
        f = gen_stseq(n)
        slots = edge_slots(n)
        s, length = len(slots), n * n
        ends = {"blue": ((0, n), (n, 0)), "red": ((0, 0), (n, n))}
        touching = {}
        for e in slots:
            for p in (tuple(e.a), tuple(e.b)):
                touching[p] = touching.get(p, 0) + 1
        pts = [{tuple(e.a), tuple(e.b)} for e in slots]
        sharing = sum(1 for a in pts for b in pts if a & b)  # ordered, a == b included
        apart = s * s - sharing
        gaps = (length - 1) * (length - 2) // 2  # position pairs two or more apart
        expected = 0
        for color, (start, goal) in ends.items():
            missing_goal = s - touching[goal]
            expected += length * s * (s - 1) // 2  # at most one edge per position
            expected += 1  # the first edge touches the start corner
            expected += (length - 1) * s  # empty positions form a suffix
            expected += (length - 1) * (s + apart)  # consecutive edges share one point
            expected += (length - 1) * missing_goal + missing_goal  # ends at the goal
            expected += gaps * sharing  # simple path
            expected += (length - 1) * touching[goal] * s  # the goal ends the path
            expected += (length - 1) * touching[start]  # the start is touched once
            other = ends["red" if color == "blue" else "blue"]
            expected += length * sum(touching[c] for c in other)  # off the other corners
        expected += length * length * sum(k * k for k in touching.values())  # no shared point
        assert len(f.clauses) == expected


def _stseq_assignment(f, walks):
    """Assignment setting the variable of each walk's i-th edge at position i."""
    role_var = {(r.color, r.edge, r.position): v for v, r in f.var_map.items()}
    model = {v: False for v in range(1, f.num_vars + 1)}
    for color, pts in walks.items():
        for pos in range(1, len(pts)):
            model[role_var[(color, Edge.of(pts[pos - 1], pts[pos]), pos)]] = True
    return model


def test_stseq_corner_paths_only():
    # Each blue walk below is a simple chain that a corner-to-corner path must
    # not be: it runs on past its goal corner, crosses red's corner, or passes
    # through its own start corner.  The weakened formula rejects each one and
    # accepts a genuine corner path.
    f = gen_stseq(3, intersection_clauses=False)
    red = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2), (3, 3)]
    good = [(0, 3), (1, 3), (1, 2), (1, 1), (2, 1), (2, 0), (3, 0)]
    blue, _ = decode_model(f, _stseq_assignment(f, {"blue": good, "red": red}))
    assert [tuple(p) for p in blue.points()] == good
    for bad in ([(0, 3), (1, 3), (2, 3), (2, 2), (2, 1), (3, 1), (3, 0), (2, 0)],
                [(0, 3), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (3, 0)],
                [(1, 3), (0, 3), (0, 2), (1, 2), (1, 1), (1, 0), (2, 0), (3, 0)]):
        with pytest.raises(InvalidInstance) as exc:
            decode_model(f, _stseq_assignment(f, {"blue": bad, "red": red}))
        assert "violates clause" in str(exc.value)


def test_stconn_unsat_small():
    assert brute_unsat(gen_stconn(1))
    assert check_unsat(gen_stconn(1), "exhaustive")
    assert check_unsat(gen_stconn(2), "dpll")
    assert check_unsat(gen_stconn(3), "dpll")


def test_stseq_unsat_small():
    assert brute_unsat(gen_stseq(1))
    assert check_unsat(gen_stseq(1), "exhaustive")
    assert check_unsat(gen_stseq(2), "dpll")


def test_exhaustive_matches_dpll_on_suite():
    formulas = [
        gen_stconn(1), gen_stseq(1),
        gen_stconn(2),
        CnfFormula(2, ((1,), (-1,)), {}),
        CnfFormula(2, ((1, 2),), {}),
        CnfFormula(3, ((1, 2), (-1, 3), (-2, -3)), {}),
    ]
    for f in formulas:
        if f.num_vars <= 26:
            assert check_unsat(f, "exhaustive") == check_unsat(f, "dpll")


def test_check_unsat_examples():
    contradiction = CnfFormula(1, ((1,), (-1,)), {})
    assert check_unsat(contradiction, "exhaustive")
    assert check_unsat(contradiction, "dpll")
    sat = CnfFormula(2, ((1, 2),), {})
    assert not check_unsat(sat, "exhaustive")
    model = solve(sat, "dpll")
    assert model is not None and (model[1] or model[2])


def test_exhaustive_cap():
    f = CnfFormula(27, ((1,),), {})
    with pytest.raises(PreconditionViolation):
        solve(f, "exhaustive")


def test_unknown_solver_mode_rejected():
    with pytest.raises(PreconditionViolation) as exc:
        solve(gen_stconn(1), "cdcl")
    assert exc.value.condition == 'mode in ("exhaustive", "dpll")'


def test_weakened_stconn_sat_and_decodes():
    f = gen_stconn(2, intersection_clauses=False)
    model = solve(f, "dpll")
    assert model is not None
    blue, red = decode_model(f, model)
    assert connects(blue, (0, 2), (2, 0))
    assert connects(red, (0, 0), (2, 2))
    assert intersects(blue, red)  # they must cross: that is the principle


def test_weakened_stseq_sat_and_decodes():
    for n in (2, 3):
        f = gen_stseq(n, intersection_clauses=False)
        model = solve(f, "dpll")
        assert model is not None
        blue, red = decode_model(f, model)
        blue.validate()
        red.validate()
        assert (blue.start, blue.end) == (GridPoint(0, n), GridPoint(n, 0))
        assert (red.start, red.end) == (GridPoint(0, 0), GridPoint(n, n))
        assert connects(blue.to_edge_set(), (0, n), (n, 0))
        assert connects(red.to_edge_set(), (0, 0), (n, n))
        assert not {GridPoint(0, 0), GridPoint(n, n)} & blue.point_set
        assert not {GridPoint(0, n), GridPoint(n, 0)} & red.point_set
        assert intersects(blue, red)


def test_decode_rejects_bad_assignment():
    f = gen_stconn(2)
    all_false = {v: False for v in range(1, f.num_vars + 1)}
    with pytest.raises(InvalidInstance) as exc:
        decode_model(f, all_false)
    assert "violates clause" in str(exc.value)


@pytest.mark.parametrize("picks, message", [
    ([(0, 1), (1, 1)], "two edges at position 1"),
    ([(4, 2)], "blue positions are not a prefix"),
    ([(4, 1), (0, 2)], "blue edge at position 2 does not chain"),
], ids=["two-at-one-position", "not-a-prefix", "no-chain"])
def test_decode_rejects_stseq_models_that_are_no_path(picks, message):
    # no clauses, so only the decoding can object; blue starts at (0, 2)
    f = gen_stseq(2)
    f = CnfFormula(f.num_vars, (), f.var_map, f.meta)
    var = {(role.edge, role.position): v for v, role in f.var_map.items() if role.color == "blue"}
    slots = edge_slots(2)
    with pytest.raises(InvalidInstance) as exc:
        decode_model(f, {var[slots[i], pos]: True for i, pos in picks})
    assert str(exc.value) == message


def test_dimacs_output():
    f = gen_stconn(1)
    text = to_dimacs(f)
    lines = text.splitlines()
    assert lines[0].startswith("c gridjct family=stconn n=1")
    assert any(line.startswith("c var 1 blue edge") for line in lines)
    header = [line for line in lines if line.startswith("p cnf")]
    assert header == [f"p cnf {f.num_vars} {len(f.clauses)}"]
    body = [line for line in lines if not line.startswith(("c", "p"))]
    assert len(body) == len(f.clauses)
    assert all(line.endswith(" 0") for line in body)
    assert to_dimacs(f) == text  # deterministic
    assert to_dimacs(CnfFormula(1, (), {})) == "c gridjct\np cnf 1 0\n"


@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_dimacs_written_in_batches_is_the_whole_text(monkeypatch, batch):
    monkeypatch.setattr(cnf, "_BATCH", batch)
    for f in (gen_stconn(2), gen_stseq(2), CnfFormula(1, (), {})):
        fh = io.StringIO()
        assert to_dimacs(f, fh) is None
        assert fh.getvalue() == to_dimacs(f)
        monkeypatch.setattr(cnf, "_BATCH", 4096)
        assert fh.getvalue() == to_dimacs(f)
        monkeypatch.setattr(cnf, "_BATCH", batch)


def test_dimacs_text_pinned():
    # every clause of both families, in order, byte for byte; the digest was
    # taken from the per-literal generators and emitter
    h = hashlib.sha256()
    for gen in (gen_stconn, gen_stseq):
        for n in (1, 2, 3, 4):
            for weakened in (False, True):
                text = to_dimacs(gen(n, intersection_clauses=not weakened))
                digest = hashlib.sha256(text.encode()).hexdigest()
                h.update(f"{gen.__name__}({n}) weakened={weakened}: {digest}\n".encode())
    assert h.hexdigest() == \
        "e987655a84c6d7289a549e39a760e4a5d2832fbb468ae99f6bfb6357066f104f"


def test_solver_trivia():
    empty_clause_free = CnfFormula(1, ((1, -1),), {})
    assert not check_unsat(empty_clause_free, "dpll")
    rng = random.Random(0)
    # random 3-CNFs: the two modes always agree
    for _ in range(30):
        nv = rng.randint(3, 10)
        clauses = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(3))
                        for _ in range(rng.randint(2, 25)))
        f = CnfFormula(nv, clauses, {})
        assert check_unsat(f, "exhaustive") == check_unsat(f, "dpll") == brute_unsat(f)


def test_stseq_rejects_n_over_cap():
    from gridjct.cnf import MAX_STSEQ_N
    with pytest.raises(PreconditionViolation, match=f"n <= {MAX_STSEQ_N}"):
        gen_stseq(MAX_STSEQ_N + 1)
    with pytest.raises(PreconditionViolation):
        gen_stseq(MAX_STSEQ_N + 1, intersection_clauses=False)


def test_stconn_rejects_n_over_cap():
    cap = cnf.MAX_STCONN_N
    with pytest.raises(PreconditionViolation, match=f"^stconn needs n <= {cap}, got n=183$") as exc:
        gen_stconn(183)
    assert (cap, exc.value.condition) == (182, "n <= 182")
    with pytest.raises(PreconditionViolation, match="got n=183$"):
        gen_stconn(183, intersection_clauses=False)


BAD_FORMULAS = {  # a valid clause first, so the message must name the second
    ((1,), (1, 3)): "bad literal 3 in clause 1",
    ((1,), ()): "empty clause at index 1",
    ((1,), (0,)): "bad literal 0 in clause 1",
    ((1,), (-3, 1)): "bad literal -3 in clause 1",
}


@pytest.mark.parametrize("clauses", list(BAD_FORMULAS))
def test_bad_formula_rejected_when_built(clauses):
    for given in (clauses, iter(clauses)):  # a generator is read once, into the store
        with pytest.raises(InvalidInstance) as exc:
            CnfFormula(2, given, {})
        assert str(exc.value) == BAD_FORMULAS[clauses]


def _solver_transcript_digest():
    """SHA-256 over the dpll verdict or sorted model of each formula below."""
    cases = []
    for gen, ns in ((gen_stconn, (2, 3, 4)), (gen_stseq, (2, 3))):
        for n in ns:
            for weakened in (True, False):
                cases.append((f"{gen.__name__}({n}) weakened={weakened}",
                              gen(n, intersection_clauses=not weakened)))
    rng = random.Random(2026)
    for k in range(200):
        nv = rng.randint(3, 12)
        clauses = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(3))
                        for _ in range(rng.randint(2, 60)))
        cases.append((f"random {k}", CnfFormula(nv, clauses, {})))
    h = hashlib.sha256()
    for name, f in cases:
        model = solve(f, "dpll")
        line = "UNSAT" if model is None else json.dumps(sorted(model.items()))
        h.update(f"{name}: {line}\n".encode())
    return h.hexdigest()


def test_dpll_models_and_verdicts_pinned():
    # computed with the recursive DPLL that rescanned every clause at every
    # node: the incremental search must take the same branches
    assert _solver_transcript_digest() == \
        "ffe3c6b7486a476d4049cf7c0e3798db00ea37154b685f353865c780a10d58bb"


@pytest.mark.parametrize("family, n, weakened, decisions", [
    ("stconn", 4, False, 1332), ("stseq", 3, False, 110), ("stseq", 4, False, 8072),
    ("stconn", 4, True, 25), ("stseq", 3, True, 69)])
def test_dpll_decision_counts_pinned(monkeypatch, family, n, weakened, decisions):
    # the rescanning recursive DPLL made exactly these decisions (stseq(4)'s is
    # the live-literal counting engine's); a budget one short of the count
    # stops the search
    f = (gen_stconn if family == "stconn" else gen_stseq)(n, intersection_clauses=not weakened)
    monkeypatch.setattr(cnf, "MAX_DECISIONS", decisions)
    assert (solve(f, "dpll") is None) != weakened
    monkeypatch.setattr(cnf, "MAX_DECISIONS", decisions - 1)
    with pytest.raises(SolverBudgetExhausted):
        solve(f, "dpll")


def test_dpll_deep_search_is_iterative():
    # each variable is a decision, so the search runs 1,200 decisions deep,
    # past the interpreter's default recursion limit of 1,000
    f = CnfFormula(1200, tuple((v, v + 1) for v in range(1, 1200, 2)), {})
    model = solve(f, "dpll")
    assert model is not None
    assert all(model[a] or model[b] for a, b in f.clauses)


def test_decision_budget_raises_in_exhaustive_mode(monkeypatch):
    # stconn(2) takes 974 exhaustive decisions
    monkeypatch.setattr(cnf, "MAX_DECISIONS", 3)
    with pytest.raises(SolverBudgetExhausted, match="after 3 decisions"):
        solve(gen_stconn(2), "exhaustive")


def _mixed_cnf(rng, nv):
    """A random CNF over nv variables whose clauses have 1-4 literals, mostly
    two; about one clause in five repeats or negates its first literal."""
    clauses = []
    for _ in range(rng.randint(1, 3 * nv)):
        k = rng.choices((1, 2, 3, 4), weights=(1, 8, 3, 1))[0]
        clause = [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(k)]
        odd = rng.random()
        if k > 1 and odd < 0.1:
            clause[rng.randrange(1, k)] = clause[0]
        elif k > 1 and odd < 0.2:
            clause[rng.randrange(1, k)] = -clause[0]
        clauses.append(tuple(clause))
    return CnfFormula(nv, tuple(clauses), {})


ODD_CLAUSES = [  # repeated and complementary literals in every clause length
    ((3, 3),), ((3, 3), (-3,)), ((2, -2),), ((2, -2), (-2,), (2, 1)),
    ((1, -1, 2),), ((1, -1, 2), (-2,), (-1,)), ((3, 3, 4), (-4,), (-3, 1)),
    ((3, 3, 4), (-4,), (-3,)), ((1, 1), (-1, -1)), ((1, 2, 2, -1), (-2, -2)),
]


def _mixed_transcript():
    """(name, formula, line) per case: the dpll model or verdict and the
    exhaustive model or verdict, of the odd clause sets and 400 seeded CNFs."""
    cases = [(f"odd {k}", CnfFormula(4, clauses, {})) for k, clauses in enumerate(ODD_CLAUSES)]
    rng = random.Random(20)
    cases += [(f"mixed {k}", _mixed_cnf(rng, rng.randint(2, 10))) for k in range(400)]
    out = []
    for name, f in cases:
        lines = []
        for mode in ("dpll", "exhaustive"):
            model = solve(f, mode)
            lines.append("UNSAT" if model is None else json.dumps(sorted(model.items())))
        out.append((name, f, lines))
    return out


def test_mixed_length_cnfs_pinned():
    # clause lengths 1-4, mostly binary, with repeated and complementary
    # literals: each verdict matches the truth table, and the digest pins
    # every model
    transcript = _mixed_transcript()
    h = hashlib.sha256()
    for name, f, (dpll_line, exhaustive_line) in transcript:
        unsat = brute_unsat(f)
        assert (dpll_line == "UNSAT") == (exhaustive_line == "UNSAT") == unsat, name
        for line in (dpll_line, exhaustive_line):
            if line != "UNSAT":
                model = dict(json.loads(line))
                assert all(any(model[abs(l)] == (l > 0) for l in c) for c in f.clauses), name
        h.update(f"{name}: dpll {dpll_line} exhaustive {exhaustive_line}\n".encode())
    verdicts = [lines[0] == "UNSAT" for _, _, lines in transcript]
    assert sum(verdicts) == 105  # of 410: both verdicts are well represented
    assert h.hexdigest() == "c1a2db0604a3bfbb376ba1553b536971a0a2783d6793c9a3dc0eb12504082d53"


def _wide_cnf(rng, nv):
    """A random CNF over nv variables with clauses of 1, 2 or 5-9 literals; about
    one wide clause in three repeats its first literal and one in five holds a
    literal and its complement."""
    clauses = []
    for _ in range(rng.randint(2, 4 * nv)):
        k = rng.choices((1, 2, 5, 6, 7, 8, 9), weights=(2, 6, 2, 2, 2, 1, 1))[0]
        clause = [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(k)]
        if k > 2 and rng.random() < 0.3:
            clause[rng.randrange(1, k)] = clause[0]
        if k > 2 and rng.random() < 0.2:
            clause[rng.randrange(1, k)] = -clause[rng.randrange(k)]
        clauses.append(tuple(clause))
    return CnfFormula(nv, tuple(clauses), {})


def test_wide_clause_cnfs_match_the_truth_table():
    # clauses of 5-9 literals move their watches past position 2, which the
    # 1-4-literal CNFs above seldom do: both modes agree with the truth table
    # and every model satisfies every clause
    rng = random.Random(9)
    verdicts = []
    for k in range(300):
        f = _wide_cnf(rng, rng.randint(3, 9))
        unsat = brute_unsat(f)
        for mode in ("dpll", "exhaustive"):
            model = solve(f, mode)
            assert (model is None) == unsat, (k, mode)
            if model is not None:
                assert all(any(model[abs(l)] == (l > 0) for l in c) for c in f.clauses), (k, mode)
        verdicts.append(unsat)
    assert sum(verdicts) == 90  # of 300: both verdicts are well represented


def test_exhaustive_decision_count_pinned(monkeypatch):
    # the count test_decision_budget_raises_in_exhaustive_mode names
    monkeypatch.setattr(cnf, "MAX_DECISIONS", 974)
    assert solve(gen_stconn(2), "exhaustive") is None
    monkeypatch.setattr(cnf, "MAX_DECISIONS", 973)
    with pytest.raises(SolverBudgetExhausted, match="after 973 decisions"):
        solve(gen_stconn(2), "exhaustive")


def test_decode_names_the_first_violated_clause():
    f = CnfFormula(3, ((1,), (2, 3), (-1, -2), (-3,)), {})
    with pytest.raises(InvalidInstance) as exc:
        decode_model(f, {1: True, 2: True, 3: False})
    assert str(exc.value) == "assignment violates clause 2: [-1, -2]"
    # a weakened model meets the intact formula's cross-color clauses last
    for gen, message in ((gen_stconn, "assignment violates clause 76: [-3, -2]"),
                         (gen_stseq, "assignment violates clause 2312: [-55, -56]")):
        model = solve(gen(2, intersection_clauses=False))
        with pytest.raises(InvalidInstance) as exc:
            decode_model(gen(2), model)
        assert str(exc.value) == message


def test_decode_reads_ints_and_missing_variables_as_today():
    # a value satisfies a literal when it == the literal's sign, and a
    # missing variable reads False
    for gen in (gen_stconn, gen_stseq):
        f = gen(2, intersection_clauses=False)
        model = solve(f)
        want = decode_model(f, model)
        as_ints = {v: int(b) for v, b in model.items()}
        only_true = {v: 1 for v, b in model.items() if b}
        for assignment in (as_ints, only_true):
            assert decode_model(f, assignment) == want
        v = min(v for v, b in model.items() if b)
        for assignment in ({**as_ints, v: 0}, {w: 1 for w in only_true if w != v}):
            with pytest.raises(InvalidInstance, match="violates clause"):
                decode_model(f, assignment)
    f = CnfFormula(2, ((1,), (-2,)), {})
    for assignment in ({1: 1, 2: 0}, {1: 1}, {1: True}):
        with pytest.raises(InvalidInstance, match="cannot decode family None"):
            decode_model(f, assignment)
    # a value equal to neither sign, such as 2 or None, satisfies neither literal
    for assignment, ci in (({1: 0}, 0), ({}, 0), ({1: 1, 2: 1}, 1), ({1: True, 2: 1}, 1),
                           ({1: 2}, 0), ({1: 1, 2: None}, 1)):
        with pytest.raises(InvalidInstance, match=f"violates clause {ci}:"):
            decode_model(f, assignment)


def _parse_clauses(text):
    """The ``p cnf`` clause count and the clause lines of DIMACS text, as tuples."""
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("p cnf "))
    body = [line for line in lines if not line.startswith(("c", "p"))]
    return int(header.split()[3]), [tuple(map(int, line.split()[:-1])) for line in body]


@pytest.mark.parametrize("gen", [gen_stconn, gen_stseq])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("weakened", [False, True])
def test_clauses_view_reads_back_as_the_text(gen, n, weakened):
    # the tuples the view yields are the clause lines, its length is the
    # header's count, and the tuples rebuild the same flat store
    f = gen(n, intersection_clauses=not weakened)
    count, parsed = _parse_clauses(to_dimacs(f))
    view = list(f.clauses)
    assert view == parsed
    assert len(f.clauses) == count == len(parsed)
    rebuilt = CnfFormula(f.num_vars, tuple(f.clauses), f.var_map, f.meta)
    assert rebuilt == f
    assert rebuilt.clauses.spans == f.clauses.spans


@pytest.mark.parametrize("gen, ci, k", [
    (gen_stconn, 0, 0), (gen_stconn, 40, 1), (gen_stseq, 0, 1),
    (gen_stseq, 266, 7), (gen_stseq, 1533, 12), (gen_stseq, 2893, 0)])
def test_faults_injected_into_a_generated_store_are_named(gen, ci, k):
    # a 0 or an out-of-range literal written into a generator-built array is
    # rejected with the wording of the BAD_FORMULAS messages, as the same
    # fault is when the clauses are given as tuples
    for bad in (0, 3000, -3000):
        f = gen(2)
        as_tuples = list(f.clauses)
        assert k < len(as_tuples[ci])
        f.clauses.lits[sum(len(c) + 1 for c in as_tuples[:ci]) + k] = bad
        with pytest.raises(InvalidInstance) as exc:
            CnfFormula(f.num_vars, f.clauses, f.var_map, f.meta)
        assert str(exc.value) == f"bad literal {bad} in clause {ci}"
        as_tuples[ci] = as_tuples[ci][:k] + (bad,) + as_tuples[ci][k + 1:]
        with pytest.raises(InvalidInstance) as exc:
            CnfFormula(f.num_vars, tuple(as_tuples), f.var_map, f.meta)
        assert str(exc.value) == f"bad literal {bad} in clause {ci}"


def test_literal_past_the_store_range_is_named():
    for bad in (2 ** 40, -2 ** 40):
        for clauses in (((1,), (-1, bad)), iter([(1,), (-1, bad)]), iter([(1,), (bad,)])):
            with pytest.raises(InvalidInstance) as exc:
                CnfFormula(2, clauses, {})
            assert str(exc.value) == f"bad literal {bad} in clause 1"


def test_store_whose_zeros_do_not_end_its_clauses_is_rejected():
    for at in (2, -1):  # the first clause's 0 and the last one's
        f = gen_stseq(2)
        f.clauses.lits[at] = 1
        with pytest.raises(InvalidInstance, match="do not end its clauses"):
            CnfFormula(f.num_vars, f.clauses, f.var_map, f.meta)
    f = gen_stseq(2)
    f.clauses.lits.append(1)  # a literal past the last clause
    with pytest.raises(InvalidInstance, match="do not end its clauses"):
        CnfFormula(f.num_vars, f.clauses, f.var_map, f.meta)
