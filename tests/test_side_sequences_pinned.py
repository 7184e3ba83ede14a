"""Pinned offset rings of ``side_sequences``: each ring's start point and
order, not only its point set, on seeded curves one unit off the border."""

import hashlib

from gridjct.generate import gen_random_curve
from gridjct.jordan import side_sequences

SIZES = range(3, 25)
SEEDS = range(20)

# SHA-256 over the q1 then q2 edges of every (n, seed) case, in order;
# computed on the commit before the ring builder walked coarse vertices.
PINNED = "7c8dbdfddd9a8fb44009ca07e688826ceece8e27d0e00e692c336356eac4dce4"


def test_side_sequences_rings_pinned():
    digest = hashlib.sha256()
    for n in SIZES:
        for seed in SEEDS:
            rings = side_sequences(gen_random_curve(n, seed, margin=1))
            for ring in (rings.q1, rings.q2):
                digest.update(";".join(f"{a.x},{a.y},{b.x},{b.y}" for a, b in ring.edges).encode())
                digest.update(b"|")
            digest.update(f"#{n},{seed}\n".encode())
    assert digest.hexdigest() == PINNED
