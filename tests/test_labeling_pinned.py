"""Pinned stdout of ``gridjct regions`` and ``gridjct connect`` on seeded
curves shaped like the region-labeling benchmark's: n/8 units off the border
and grown to a third of the free square."""

import hashlib
import json
import random

from gridjct.cli import main
from gridjct.generate import gen_random_curve
from gridjct.grid import refine
from gridjct.jsonio import edge_sequence_to_json

CASES = ((48, 11), (56, 12), (64, 13))  # (n, curve seed)
POINTS_PER_CURVE = 8

# SHA-256 over every command's stdout, in order; computed on the commit
# before the labeling moved to int-coded points.
PINNED = "e3b6c7fd3cefdc1217c2faee062223516209d67048d4b503f73ac23b64cc62d8"


def labeling_case(n, seed):
    """A curve, a side pair on the refined grid and points to connect."""
    margin = n // 8
    curve = gen_random_curve(n, seed, margin=margin, min_cells=(n - 2 * margin) ** 2 // 3)
    on = curve.point_set
    mids = [p for p in sorted(on) if (p.x, p.y - 1) not in on and (p.x, p.y + 1) not in on]
    rng = random.Random(seed)
    x, y = mids[rng.randrange(len(mids))]
    sides = [[3 * x, 3 * y - 1], [3 * x, 3 * y + 1]]
    refined = refine(curve, 3).point_set
    points = [tuple(sides[0]), tuple(sides[1])]
    while len(points) < POINTS_PER_CURVE:
        p = (rng.randrange(3 * n + 1), rng.randrange(3 * n + 1))
        if p not in refined:
            points.append(p)
    doc = {"n": n, "form": "seq", "blue": edge_sequence_to_json(curve), "sides": sides}
    return doc, points


def test_regions_and_connect_output_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for n, seed in CASES:
        doc, points = labeling_case(n, seed)
        path = tmp_path / f"curve{n}.json"
        path.write_text(json.dumps(doc))
        argvs = [["regions", "--instance", str(path)]]
        argvs += [["connect", "--instance", str(path), "--point", f"{x},{y}"] for x, y in points]
        for argv in argvs:
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            digest.update(out.encode())
    assert digest.hexdigest() == PINNED
