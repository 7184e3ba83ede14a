"""Seeded instance sources: determinism and structural guarantees."""

import hashlib
import random

import pytest

from gridjct import generate
from gridjct.alternation import check_edge_alternation
from gridjct.errors import GenerationExhausted, PreconditionViolation, TheoremViolation
from gridjct.generate import gen_crossing_instance, gen_random_curve
from gridjct.grid import connects, is_curve, on_different_sides


def test_curve_determinism():
    a = gen_random_curve(12, 99)
    b = gen_random_curve(12, 99)
    assert a == b
    assert a != gen_random_curve(12, 100)


def test_curves_structurally_valid():
    for seed in range(150):
        curve = gen_random_curve(10, seed)
        curve.validate()
        assert curve.kind == "closed"
        assert is_curve(curve.to_edge_set())
        assert check_edge_alternation(curve)


def test_curve_margin():
    for seed in range(30):
        curve = gen_random_curve(8, seed, margin=1)
        assert all(1 <= p.x <= 7 and 1 <= p.y <= 7 for p in curve.point_set)


def test_curve_small_n():
    gen_random_curve(2, 0).validate()
    with pytest.raises(PreconditionViolation):
        gen_random_curve(1, 0)
    with pytest.raises(PreconditionViolation, match="^precondition violated: margin leaves room "
                                                    "for at least one cell$"):
        gen_random_curve(4, 1, margin=2)


def test_generators_reject_n_over_cap_before_any_work(monkeypatch):
    assert generate.MAX_N == 512
    monkeypatch.setattr(generate, "_grow_polyomino", None)  # any growth would fail
    for make in (gen_random_curve, gen_crossing_instance):
        with pytest.raises(PreconditionViolation, match="generators need n <= 512, got n=513"):
            make(513, 0)


def test_crossing_instances_valid():
    for seed in range(60):
        inst = gen_crossing_instance(9, seed)
        inst.validate()
        bset, rset = inst.blue.to_edge_set(), inst.red.to_edge_set()
        assert is_curve(bset)
        assert connects(rset, inst.sides.p1, inst.sides.p2)
        assert on_different_sides(bset, inst.sides.p1, inst.sides.p2)


def test_crossing_instance_determinism():
    assert gen_crossing_instance(8, 5) == gen_crossing_instance(8, 5)


def test_crossing_instance_avoid_midpoint():
    for seed in range(30):
        inst = gen_crossing_instance(8, seed, avoid_midpoint=True)
        assert inst.sides.mid not in inst.red.point_set


def _generator_digest():
    """SHA-256 over a fixed seeded mix of curves and crossing instances."""
    h = hashlib.sha256()
    seed = 0
    for n in range(2, 41):
        for margin in (0, 1):
            if n - 2 * margin < 1:
                continue
            for min_cells in (1, 4, 30):
                seed += 1
                curve = gen_random_curve(n, seed, margin=margin, min_cells=min_cells)
                h.update(repr(curve.edges).encode())
    for n in range(4, 41):
        for avoid in (False, True):
            for _ in range(2):
                seed += 1
                inst = gen_crossing_instance(n, seed, avoid_midpoint=avoid)
                h.update(repr((inst.blue.edges, inst.red.edges, inst.sides)).encode())
    for n in (48, 64):  # the largest cell count, n/8 off the border
        margin = n // 8
        for _ in range(2):
            seed += 1
            curve = gen_random_curve(n, seed, margin=margin,
                                     min_cells=(n - 2 * margin) ** 2 // 3)
            h.update(repr(curve.edges).encode())
    return h.hexdigest()


def test_seeded_outputs_pinned():
    # every acceptance corpus is defined by seeds: a change to any generator
    # draw or growth rule changes this digest
    assert _generator_digest() == (
        "4a355b7b64d2fd6164565739ea6b2bdf5ce4984c14d72626e92a6c2e740cb5e8")


_RING8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _arc_oracle(cells, c):
    """The growth rule from its definition: the occupied 8 neighbors form one
    contiguous arc that holds an edge-neighbor."""
    occ = [(c[0] + dx, c[1] + dy) in cells for dx, dy in _RING8]
    if not (occ[0] or occ[2] or occ[4] or occ[6]):
        return False
    return sum(occ[i] != occ[(i + 1) % 8] for i in range(8)) == 2


def _rebuilt_candidates(cells, lo, hi):
    """Brute-force candidate list: scan the whole frontier of ``cells``."""
    frontier = set()
    for (i, j) in cells:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (i + di, j + dj)
            if lo <= c[0] <= hi and lo <= c[1] <= hi and c not in cells:
                frontier.add(c)
    return sorted(c for c in frontier if _arc_oracle(cells, c))


class _RecordingRandom(random.Random):
    """Records every ``randint`` result and every ``choice`` (offered, picked)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.ints, self.choices = [], []

    def randint(self, a, b):
        self.ints.append(super().randint(a, b))
        return self.ints[-1]

    def choice(self, seq):
        picked = super().choice(seq)
        self.choices.append((list(seq), picked))
        return picked


def _codes(cells, m):
    """Cells (x, y) as the generator codes them, ``x * m + y``."""
    return {x * m + y for x, y in cells}


def _mask(cells, c):
    """The neighbor mask the generator keeps for cell ``c``: bit i set when
    the cell at ``_RING8[i]`` from ``c`` is in ``cells``."""
    return sum(1 << i for i, (dx, dy) in enumerate(_RING8) if (c[0] + dx, c[1] + dy) in cells)


def test_can_add_matches_arc_rule_on_every_neighborhood():
    for mask in range(256):
        cells = {d for i, d in enumerate(_RING8) if mask >> i & 1}
        assert generate._ONE_ARC[_mask(cells, (0, 0))] == _arc_oracle(cells, (0, 0)), mask


def test_incremental_candidates_match_rebuild():
    for n in range(2, 11):
        for margin in (0, 1):
            lo, hi = margin, n - 1 - margin
            if hi < lo:
                continue
            for min_cells in (1, n * n):  # n * n: grow until nothing is addable
                for seed in range(15):
                    rng = _RecordingRandom(seed)
                    cells = {divmod(c, n + 2)
                             for c in generate._grow_polyomino(n, rng, margin, min_cells)}
                    target, x, y = rng.ints
                    grown = {(x, y)}
                    for offered, picked in rng.choices:
                        assert [divmod(c, n + 2) for c in offered] == _rebuilt_candidates(
                            grown, lo, hi)
                        grown.add(divmod(picked, n + 2))
                    assert grown == cells
                    assert len(cells) == target or _rebuilt_candidates(cells, lo, hi) == []


@pytest.mark.parametrize("cells, message", [
    ({(1, 1), (2, 2)}, "pinch point"),  # a corner-only touch
    ({(x, y) for x in (1, 2, 3) for y in (1, 2, 3)} - {(2, 2)}, "several loops"),  # a hole
])
def test_trace_boundary_raises_on_shapes_can_add_refuses(cells, message):
    # no cell of either shape can be the last one grown
    assert not any(generate._ONE_ARC[_mask(cells - {c}, c)] for c in cells)
    with pytest.raises(TheoremViolation, match=message):
        generate._trace_boundary(_codes(cells, 7), 5)  # on the n = 5 grid


def test_crossing_retry_cap_raises_generation_exhausted(monkeypatch):
    monkeypatch.setattr(generate, "_side_candidates", lambda curve: [])
    with pytest.raises(GenerationExhausted, match="no crossing instance in 1000 attempts"):
        gen_crossing_instance(6, 0)
