"""Mutation self-test of the checkers.

Every checker in ``checks`` is run once on a small genuine program output,
which it must accept, and once on a deliberately corrupted copy, which it
must reject.  A checker that passes everything is caught here before any of
its verdicts are trusted.
"""

from __future__ import annotations

import copy

import checks


def run(g, workdir) -> list:
    """Names of the checkers that accepted a corrupted output (or rejected a good one)."""
    broken = []

    def expect(name, good_ok, bad_ok):
        if not good_ok or bad_ok:
            broken.append(name)

    inst = g.generate.gen_crossing_instance(8, 5)
    blue = [[e.src.x, e.src.y, e.dst.x, e.dst.y] for e in inst.blue.edges]
    red = [[e.src.x, e.src.y, e.dst.x, e.dst.y] for e in inst.red.edges]
    sides = [list(inst.sides.p1), list(inst.sides.p2)]
    n = inst.n

    swapped = blue[1:2] + blue[:1] + blue[2:]
    expect("chain_points", checks.chain_points(blue, "closed", n)[1] is None,
           checks.chain_points(swapped, "closed", n)[1] is None)
    expect("side_pair_reason", checks.side_pair_reason(blue, sides) is None,
           checks.side_pair_reason(blue, [list(inst.sides.mid), sides[1]]) is None)
    shared = checks.shared_points(blue, red)
    expect("shared_points", bool(shared),
           tuple(inst.sides.p1) in shared)

    flipped = copy.deepcopy(blue)
    k = next(i for i, (x1, y1, x2, y2) in enumerate(flipped) if y1 == y2)
    x1, y1, x2, y2 = flipped[k]
    flipped[k] = [x2, y2, x1, y1]
    expect("alternation_reason", checks.alternation_reason(blue) is None,
           checks.alternation_reason(flipped) is None)

    bits = checks.parity_bits(blue, red, n)
    program_bits = str(g.parity.parity_profile(inst.blue.to_edge_set(), inst.red.to_edge_set()))
    corrupt_bits = ("1" if program_bits[0] == "0" else "0") + program_bits[1:]
    expect("parity_bits", bits == program_bits, bits == corrupt_bits)

    labels, count = checks.refined_components(blue, n)
    expect("refined_components", count == 2, checks.refined_components(blue[1:], n)[1] == 2)

    p3 = 3 * n
    mid = inst.sides.mid
    ends = [(3 * mid.x, 3 * mid.y - 1), (3 * mid.x, 3 * mid.y + 1)]
    start = (0, 0)
    path = g.jordan.region_connect(inst.blue, start, g.grid.side_pair(*ends))
    pq = [[e.src.x, e.src.y, e.dst.x, e.dst.y] for e in path.edges]
    expect("connect_reason", checks.connect_reason(pq, start, ends, labels, p3) is None,
           checks.connect_reason(pq[:-1], start, ends, labels, p3) is None)

    svg = g.render.render_svg(g.jsonio.Instance(n=n, form="seq", blue=inst.blue, red=inst.red,
                                                sides=inst.sides))
    cut = svg.index("<line")
    trimmed = svg[:cut] + svg[svg.index("\n", cut) + 1:]
    expect("svg_line_count", checks.svg_line_count(svg) == len(blue) + len(red),
           checks.svg_line_count(trimmed) == len(blue) + len(red))

    small = g.generate.gen_crossing_instance(6, 3, avoid_midpoint=True)
    path = str(workdir / "selftest-reduce.json")
    out = g.reduce.jct_to_stconn_seq(small).instance
    g.jsonio.save_instance(g.jsonio.Instance(n=out.n, form="seq", blue=out.blue, red=out.red), path)
    doc = checks.load_quads_json(path)
    *_, blue_len, red_len, _ = checks.reduction_lengths(
        6, [small.sides.p1, small.sides.p2], len(small.red.edges), len(small.blue.edges))
    b, r = doc["blue"]["seq"], doc["red"]["seq"]
    parsed_ok = list(b[:4]) == list(out.blue.edges[0].src + out.blue.edges[0].dst)
    bad_red = copy.copy(r)
    bad_red[len(r) // 2 + 2] += 1
    expect("load_quads_json", parsed_ok and len(b) == 4 * len(out.blue.edges), False)
    expect("corner_paths_reason",
           checks.corner_paths_reason(b, r, doc["n"], blue_len, red_len) is None,
           checks.corner_paths_reason(b, bad_red, doc["n"], blue_len, red_len) is None
           or checks.corner_paths_reason(b, r, doc["n"], blue_len + 1, red_len) is None)

    f = g.cnf.gen_stconn(2, intersection_clauses=False)
    text = g.cnf.to_dimacs(f)
    head = next(line for line in text.splitlines() if line.startswith("p "))
    wrong_head = text.replace(head, f"p cnf {f.num_vars} {len(f.clauses) + 1}")
    _, clauses, why = checks.parse_dimacs(text)
    expect("parse_dimacs", why is None and clauses == [tuple(c) for c in f.clauses],
           checks.parse_dimacs(wrong_head)[2] is None)

    model = g.cnf.solve(f)
    expect("model_reason", checks.model_reason(clauses, model) is None,
           checks.model_reason(clauses, {}) is None)

    dblue, _ = g.cnf.decode_model(f, model)
    dq = [[e.a.x, e.a.y, e.b.x, e.b.y] for e in dblue.edges]
    expect("corner_set_reason", checks.corner_set_reason(dq, (0, 2), (2, 0)) is None,
           checks.corner_set_reason(dq[1:], (0, 2), (2, 0)) is None)
    return broken
