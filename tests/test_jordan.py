"""Merge construction, offset rings, region counting and connection."""

import json
import random

import pytest

from gridjct import jordan
from gridjct.alternation import check_edge_alternation
from gridjct.cli import main
from gridjct.errors import InvalidInstance, PreconditionViolation, TheoremViolation
from gridjct.generate import _bfs_path, gen_crossing_instance, gen_random_curve
from gridjct.grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    EdgeSequence,
    GridPoint,
    SidePair,
    refine,
    side_pair,
)
from gridjct.jordan import (
    count_regions,
    find_intersection_seq,
    merge_paths,
    region_connect,
    side_sequences,
)
from gridjct.jsonio import edge_sequence_to_json
from gridjct.parity import find_intersection_set

from conftest import flood_components, rect_curve


def retraced_arc(xs, y, n):
    """Out-and-back chain along a horizontal run: a deliberately broken
    closed chain whose point set is a bare arc."""
    fwd = [(x, y) for x in xs]
    pts = fwd + fwd[-2:0:-1]
    edges = [DirectedEdge(GridPoint(*pts[i]), GridPoint(*pts[(i + 1) % len(pts)]))
             for i in range(len(pts))]
    return EdgeSequence(tuple(edges), n, CLOSED)


def path_around_left(mid, n):
    """Simple path from below the arc to above it, around its left end."""
    x, y = mid
    pts = ([(x - k, y - 1) for k in range(x + 1)]
           + [(0, y)] + [(k, y + 1) for k in range(x + 1)])
    return EdgeSequence.from_points(pts, n, OPEN)


def test_merge_violates_alternation_by_construction():
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    red = path_around_left(GridPoint(3, 2), 8)
    merged = merge_paths(blue, red)
    for i, e in enumerate(merged.edges):  # chained and closed
        assert e.dst == merged.edges[(i + 1) % len(merged.edges)].src
    assert not check_edge_alternation(merged)
    # r1 and b1: same direction, adjacent heights, in column m-1
    assert DirectedEdge(GridPoint(3, 1), GridPoint(2, 1)) in merged.edges
    assert DirectedEdge(GridPoint(3, 2), GridPoint(2, 2)) in merged.edges


def test_merge_splices_an_eastward_arc_on_its_return_pass():
    # the chain starts eastward; its westward return pass runs
    # east -> mid -> west, so it is spliced as given
    blue = retraced_arc(range(1, 6), 2, 8)
    red = path_around_left(GridPoint(3, 2), 8)
    merged = merge_paths(blue, red)
    assert not check_edge_alternation(merged)


def test_merge_rejects_intersecting():
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    red = EdgeSequence.from_points([(3, 1), (3, 2), (3, 3)], 8, OPEN)
    with pytest.raises(InvalidInstance):
        merge_paths(blue, red)


def test_merge_doubles_when_splice_point_occupied():
    # Red wanders over (4, 1) = the splice point right of p1, forcing the
    # density doubling before the merge.
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    pts = [
        (3, 1), (4, 1), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2),
        (0, 3), (1, 3), (2, 3), (3, 3)]
    red = EdgeSequence.from_points(pts, 8, OPEN)
    merged = merge_paths(blue, red)
    assert merged.n == 16
    assert not check_edge_alternation(merged)


def test_merge_normalizes_non_left_approach():
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    # red leaves p1 eastward and enters p2 from the right: both ends re-routed
    pts = [(3, 1), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2), (0, 3),
           (0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (4, 3), (3, 3)]
    red = EdgeSequence.from_points(pts, 8, OPEN)
    merged = merge_paths(blue, red)
    assert merged.n == 16  # doubled
    assert not check_edge_alternation(merged)


def test_merge_rejects_rerouted_ends_off_the_grid():
    # side points on the left border: re-routing the red ends from the left
    # would step to x = -1, so the pair is rejected before the grid is doubled
    blue = EdgeSequence.from_points([(5, 5), (6, 5), (6, 6), (5, 6)], 8, CLOSED)
    red = EdgeSequence.from_points([(0, 1), (1, 1), (1, 2), (1, 3), (0, 3)], 8, OPEN)
    with pytest.raises(InvalidInstance, match=r"side pair \(0, 1\), \(0, 3\) is on the left border"):
        merge_paths(blue, red)


def test_cli_merge_rejects_a_left_border_side_pair(tmp_path, capsys):
    bluef, redf, out = tmp_path / "b.json", tmp_path / "r.json", tmp_path / "out.json"
    bluef.write_text(json.dumps(edge_sequence_to_json(
        EdgeSequence.from_points([(5, 5), (6, 5), (6, 6), (5, 6)], 8, CLOSED))))
    redf.write_text(json.dumps(edge_sequence_to_json(
        EdgeSequence.from_points([(0, 3), (1, 3), (1, 2), (1, 1), (0, 1)], 8, OPEN))))
    assert main(["merge", "--blue", str(bluef), "--red", str(redf), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "side pair (0, 1), (0, 3) is on the left border" in captured.err
    assert not out.exists()


# red leaves p1 westward and runs around the arc's left end, so it enters
# p2 = (3, 3) downward from above: not via the midpoint (3, 2) below it
FROM_ABOVE = [(3, 1), (2, 1), (1, 1), (0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4),
              (3, 4), (3, 3)]


@pytest.mark.parametrize("pts", [FROM_ABOVE, FROM_ABOVE[::-1]], ids=["from-p1", "from-p2"])
def test_merge_accepts_red_entering_the_upper_side_point_from_above(pts):
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    red = EdgeSequence.from_points(pts, 8, OPEN)
    merged = merge_paths(blue, red)
    assert merged.n == 16  # doubled to re-route the end from the left
    assert not check_edge_alternation(merged)


def _write_merge_inputs(tmp_path, blue, red):
    bluef, redf = tmp_path / "b.json", tmp_path / "r.json"
    bluef.write_text(json.dumps({"n": blue.n, "kind": "closed", "seq": [
        [e.src.x, e.src.y, e.dst.x, e.dst.y] for e in blue.edges]}))
    redf.write_text(json.dumps(edge_sequence_to_json(red)))
    return ["--blue", str(bluef), "--red", str(redf)]


@pytest.mark.parametrize("pts", [FROM_ABOVE, FROM_ABOVE[::-1]], ids=["from-p1", "from-p2"])
def test_cli_merge_accepts_red_entering_the_upper_side_point_from_above(tmp_path, capsys, pts):
    red = EdgeSequence.from_points(pts, 8, OPEN)
    argv = _write_merge_inputs(tmp_path, retraced_arc(range(5, 0, -1), 2, 8), red)
    assert main(["merge", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["alternates"] is False


STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def tree_walk_chain(rng, n, mid, arms, size):
    """Closed chain that walks around a random tree of ``size`` points and
    retraces every tree edge.  The tree holds mid, whose only tree
    neighbours are its ``arms`` (east and/or west); the points above and
    below mid stay off it.  The chain starts at a random point."""
    x, y = mid
    off = {(x, y - 1), (x, y + 1)}
    children = {mid: [(x + dx, y) for dx in arms]}
    grow = list(children[mid])
    children.update((p, []) for p in grow)
    while len(children) < size:
        p = rng.choice(grow)
        dx, dy = rng.choice(STEPS)
        q = (p[0] + dx, p[1] + dy)
        if 0 <= q[0] <= n and 0 <= q[1] <= n and q not in children and q not in off:
            children[p].append(q)
            children[q] = []
            grow.append(q)
    pts = []

    def walk(p):
        pts.append(p)
        for c in children[p]:
            walk(c)
            pts.append(p)

    walk(mid)
    pts.pop()  # back at mid: the chain closes
    k = rng.randrange(len(pts))
    return pts[k:] + pts[:k]


def _bfs_points(n, src, dst, rng, forbidden):
    """The generator's shortest path as a list of (x, y) points, or None."""
    xy = _bfs_path(n, src, dst, rng, forbidden)
    return None if xy is None else list(zip(*xy))


def loop_walk_chain(rng, n, mid, steps):
    """Closed chain from mid: a random walk of ``steps`` points, then a
    shortest way back; it may wind around points.  Neither walk touches the
    points above and below mid."""
    x, y = mid
    off = {(x, y - 1), (x, y + 1)}
    pts = [mid]
    while len(pts) < steps:
        dx, dy = rng.choice(STEPS)
        q = (pts[-1][0] + dx, pts[-1][1] + dy)
        if 0 <= q[0] <= n and 0 <= q[1] <= n and q not in off:
            pts.append(q)
    return (pts + _bfs_points(n, GridPoint(*pts[-1]), mid, rng, off)[1:])[:-1]


def _closed(pts, n):
    """The closed chain through ``pts``, unchecked: it may revisit points."""
    return EdgeSequence(tuple(DirectedEdge(GridPoint(*p), GridPoint(*q))
                              for p, q in zip(pts, pts[1:] + pts[:1])), n, CLOSED)


def _has_east_west_pass(pts, mid):
    east, west, t = (mid[0] + 1, mid[1]), (mid[0] - 1, mid[1]), len(pts)
    return any(pts[i - 1] == east and p == mid and pts[(i + 1) % t] == west
               for i, p in enumerate(pts))


def _seeded_pairs(make_chain, seeds, n=8):
    """(blue points, red path, mid) for each seed whose red path exists."""
    for seed in seeds:
        rng = random.Random(seed)
        mid = GridPoint(rng.randrange(1, n), rng.randrange(1, n))
        pts = make_chain(rng, n, mid)
        red = _bfs_points(n, GridPoint(mid.x, mid.y - 1), GridPoint(mid.x, mid.y + 1), rng,
                          set(pts))
        if red is not None:
            yield pts, red, mid


def test_merge_breaks_alternation_on_random_tree_walk_chains():
    # every pair merges, including the reds that enter the upper side point
    # from above, which an old midpoint test rejected
    merged = from_above = 0
    for pts, red, mid in _seeded_pairs(
            lambda rng, n, mid: tree_walk_chain(rng, n, mid, (1, -1), rng.randrange(3, 25)),
            range(400)):
        from_above += red[-2] == (mid[0], mid[1] + 2)
        out = merge_paths(_closed(pts, 8), EdgeSequence.from_points(red, 8, OPEN))
        assert not check_edge_alternation(out)
        merged += 1
    assert merged >= 200 and from_above >= 20


CHAINS = {
    "tree-east-west": lambda rng, n, mid: tree_walk_chain(rng, n, mid, (1, -1), rng.randrange(3, 25)),
    "tree-east": lambda rng, n, mid: tree_walk_chain(rng, n, mid, (1,), rng.randrange(3, 25)),
    "tree-west": lambda rng, n, mid: tree_walk_chain(rng, n, mid, (-1,), rng.randrange(3, 25)),
    "loop": lambda rng, n, mid: loop_walk_chain(rng, n, mid, rng.randrange(5, 40)),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_pass_exists_in_either_orientation_or_in_neither(name):
    # red joins the side points off the chain, so the chain winds the same
    # around both and passes the midpoint westward as often as eastward:
    # merge never needs the reversed chain
    found = [0, 0]
    for pts, red, mid in _seeded_pairs(CHAINS[name], range(200)):
        has = _has_east_west_pass(pts, mid)
        assert has == _has_east_west_pass(pts[::-1], mid)
        found[has] += 1
        args = (_closed(pts, 8), EdgeSequence.from_points(red, 8, OPEN))
        if has:
            assert not check_edge_alternation(merge_paths(*args))
        else:
            with pytest.raises(InvalidInstance, match="no horizontal pass through the midpoint"):
                merge_paths(*args)
    assert sum(found) >= 50


@pytest.mark.parametrize("blue,message", [
    # the curve misses the midpoint: the splice search rejects the pair
    (EdgeSequence.from_points([(5, 5), (6, 5), (6, 6), (5, 6)], 8, CLOSED),
     "curve has no horizontal pass through the midpoint"),
    # the curve holds the midpoint: the disjointness check rejects the pair
    (retraced_arc(range(5, 0, -1), 2, 8), "share a grid point"),
], ids=["curve-misses-mid", "curve-holds-mid"])
@pytest.mark.parametrize("reverse", [False, True], ids=["up", "down"])
def test_merge_rejects_red_through_the_midpoint_once(blue, message, reverse):
    red = EdgeSequence.from_points([(3, 1), (3, 2), (3, 3)], 8, OPEN)
    with pytest.raises(InvalidInstance, match=message):
        merge_paths(blue, red.reverse() if reverse else red)


def test_cli_merge_rejects_red_through_a_midpoint_the_curve_misses(tmp_path, capsys):
    blue = EdgeSequence.from_points([(5, 5), (6, 5), (6, 6), (5, 6)], 8, CLOSED)
    red = EdgeSequence.from_points([(3, 1), (3, 2), (3, 3)], 8, OPEN)
    assert main(["merge", *_write_merge_inputs(tmp_path, blue, red)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "curve has no horizontal pass through the midpoint" in captured.err


def test_merge_preconditions():
    blue = retraced_arc(range(5, 0, -1), 2, 8)
    red = path_around_left(GridPoint(3, 2), 8)
    with pytest.raises(PreconditionViolation, match="closed chain and open path"):
        merge_paths(EdgeSequence(blue.edges, 8, OPEN), red)
    with pytest.raises(PreconditionViolation, match="closed chain and open path"):
        merge_paths(blue, EdgeSequence(red.edges, 8, CLOSED))


def test_find_intersection_seq_examples():
    blue = rect_curve(2, 2, 5, 4, 8)
    red = EdgeSequence.from_points([(3, 1), (3, 2), (3, 3)], 8, OPEN)
    w = find_intersection_seq(blue, red, side_pair((3, 1), (3, 3)))
    assert w.point == GridPoint(3, 2)


def test_find_intersection_seq_corner_touch_witness():
    # Red grazes the reflex corner of a notched block tangentially (corners
    # never separate, so the real crossing happens elsewhere); the corner is
    # the lowest-coded shared point and therefore the witness.
    from gridjct.generate import _trace_boundary

    cells = {(x, y) for x in (1, 2, 3) for y in (1, 2, 3)} - {(1, 1)}
    curve = _trace_boundary({x * 8 + y for x, y in cells}, 6).validate()  # cells coded on n = 6
    red = EdgeSequence.from_points(
        [(3, 3), (2, 3), (2, 2), (3, 2), (4, 2), (5, 2), (5, 3), (5, 4),
         (5, 5), (4, 5), (3, 5)], 6, OPEN)
    sides = side_pair((3, 3), (3, 5))
    shared = curve.point_set & red.point_set
    assert GridPoint(2, 2) in shared  # the reflex corner of the notch
    kinds = {e.src.x == e.dst.x for e in curve.edges
             if GridPoint(2, 2) in (e.src, e.dst)}
    assert kinds == {True, False}  # one horizontal, one vertical curve edge
    w = find_intersection_seq(curve, red, sides)
    assert w.point == GridPoint(2, 2)


def test_find_intersection_seq_agrees_with_set_form():
    for seed in range(40):
        inst = gen_crossing_instance(10, seed)
        w_seq = find_intersection_seq(inst.blue, inst.red, inst.sides)
        w_set = find_intersection_set(inst.blue.to_edge_set(), inst.red.to_edge_set(),
                                      inst.sides)
        assert w_seq.point == w_set.point
        assert w_seq.blue_degree == w_set.blue_degree
        assert find_intersection_set(inst.blue, inst.red, inst.sides) == w_seq


def test_side_sequences_rectangle_rings():
    rings = side_sequences(rect_curve(1, 1, 2, 2, 4))
    inner = {(x, y) for x in (4, 5) for y in (4, 5)}
    outer_sides = {(x, 2) for x in range(3, 7)} | {(x, 7) for x in range(3, 7)} \
        | {(2, y) for y in range(3, 7)} | {(7, y) for y in range(3, 7)}
    corners = {(2, 2), (7, 2), (7, 7), (2, 7)}
    got = {frozenset(tuple(p) for p in rings.q1.point_set),
           frozenset(tuple(p) for p in rings.q2.point_set)}
    assert frozenset(inner) in got
    assert frozenset(outer_sides | corners) in got


def test_side_sequences_validity_random():
    for seed in range(30):
        curve = gen_random_curve(10, seed, margin=1)
        p3 = refine(curve, 3)
        rings = side_sequences(curve)
        for ring in (rings.q1, rings.q2):
            ring.validate()
            assert ring.kind == CLOSED
            assert ring.point_set.isdisjoint(p3.point_set)
            for p in ring.point_set:
                d = min(abs(p.x - q.x) + abs(p.y - q.y) for q in p3.point_set)
                assert d in (1, 2)  # distance 2 only at outward corner fill-ins
        assert rings.q1.point_set.isdisjoint(rings.q2.point_set)
        # every free neighbor of a curve point lies on one of the rings
        ring_pts = rings.q1.point_set | rings.q2.point_set
        for c in p3.point_set:
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                q = GridPoint(c.x + d[0], c.y + d[1])
                if 0 <= q.x <= p3.n and 0 <= q.y <= p3.n and q not in p3.point_set:
                    assert q in ring_pts


def test_side_rings_cost_follows_the_curve_not_the_grid():
    # a unit square's rings and a path to them at n = 10^9 are those at n = 4
    # (a ring check that walked every grid column would take minutes here)
    small, huge = rect_curve(1, 1, 2, 2, 4), rect_curve(1, 1, 2, 2, 10**9)
    rings, big_rings = side_sequences(small), side_sequences(huge)
    for ring, big_ring in ((rings.q1, big_rings.q1), (rings.q2, big_rings.q2)):
        assert big_ring.edges == ring.edges and big_ring.n == 3 * 10**9
    sides = side_pair((4, 2), (4, 4))  # across the refined bottom side
    for p in ((5, 5), (8, 9)):
        assert region_connect(huge, p, sides).edges == region_connect(small, p, sides).edges


def test_side_sequences_rejects_border_curve():
    with pytest.raises(PreconditionViolation):
        side_sequences(rect_curve(0, 0, 2, 2, 4))


def test_count_regions_rectangle_and_random():
    assert count_regions(rect_curve(1, 1, 3, 3, 5)) == 2
    for seed in range(40):
        assert count_regions(gen_random_curve(8, seed, margin=1)) == 2
    # the flood covers only the curve's bounding box grown by a ring and a frame
    # unit: the whole-grid oracle agrees wherever the curve sits, also at margin 1,
    # where the frame lies on the grid line next to the border, and a small curve
    # on a huge grid is cheap (test_cli runs n = 10**9 under a memory cap)
    curves = [rect_curve(1, 1, 7, 7, 8), pocket_curve()]
    for seed in range(30):
        n = 8 + seed % 9
        curves.append(gen_random_curve(n, seed, margin=1 + seed % (n // 3)))
        curves.append(gen_random_curve(n, seed, margin=1))
    # the frame lies two refined rows past the curve: a curve on the coarse row
    # y = 1 (refined row 3) puts it on refined row 1 and leaves the ring row 2 as
    # the only passage under it, and one that also reaches y = n - 1 splits the
    # outside unless both ring rows stay free
    edge = [rect_curve(1, 1, 2, 2, 3)]  # a unit square one unit in from every border
    edge += [gen_random_curve(n, seed, margin=1) for n in range(4, 25) for seed in range(3)]
    rows = [{p.y for p in c.point_set} for c in edge]
    assert sum(1 in ys for ys in rows) > len(edge) // 2
    assert rows[0] == {1, 2} and sum(ys >= {1, c.n - 1} for ys, c in zip(rows, edge)) >= 2
    for curve in curves + edge:
        _, ncomp = flood_components(refine(curve, 3).point_set, 3 * curve.n)
        assert count_regions(curve) == ncomp == 2
    assert count_regions(rect_curve(500, 500, 501, 501, 1000)) == 2


def pocket_curve(n=7):
    """Boundary of a C-shaped polyomino whose pocket holds two free points
    and whose mouth is a single cell wide."""
    from gridjct.generate import _trace_boundary

    cells = {(x, 1) for x in range(1, 6)}
    cells |= {(1, y) for y in range(2, 5)} | {(5, y) for y in range(2, 5)}
    cells |= {(2, 4), (4, 4)}
    curve = _trace_boundary({x * (n + 2) + y for x, y in cells}, n)  # cells coded on the grid
    assert curve is not None
    return curve.validate()


def test_pocket_two_regions_after_refinement():
    curve = pocket_curve()
    assert count_regions(curve) == 2
    # the scaled pocket point reaches the scaled outside point once refined
    p3 = refine(curve, 3)
    comp, _ = flood_components(p3.point_set, p3.n)
    assert comp[GridPoint(9, 9)] == comp[GridPoint(9, 18)]


def test_unrefined_pocket_is_disconnected_negative_control():
    # Without refinement the two pocket points are sealed off from the
    # outside point just beyond the one-cell mouth: the very trap the x3
    # refinement exists to avoid.
    curve = pocket_curve()
    comp, _ = flood_components(curve.point_set, curve.n)
    pocket, outside = GridPoint(3, 3), GridPoint(3, 6)
    assert comp[pocket] == comp[GridPoint(4, 3)]
    assert comp[pocket] != comp[outside]


def test_region_connect_trivial_and_inside():
    curve = rect_curve(1, 1, 3, 3, 5)
    p3 = refine(curve, 3)
    sides = side_pair((6, 2), (6, 4))  # straddles the refined bottom side
    assert region_connect(curve, (6, 2), sides).edges == ()
    path = region_connect(curve, (6, 6), sides)  # deep inside
    path.validate()
    assert path.start == GridPoint(6, 6)
    assert path.end == GridPoint(6, 4)  # the inner side point
    assert path.point_set.isdisjoint(p3.point_set)


def test_region_connect_matches_flood_fill():
    rng = random.Random(4)
    for seed in range(25):
        curve = gen_random_curve(8, seed, margin=1)
        p3 = refine(curve, 3)
        comp, _ = flood_components(p3.point_set, p3.n)
        cset = curve.to_edge_set()
        mids = [p for p in sorted(curve.point_set)
                if cset.degree((p.x, p.y - 1)) == 0 and cset.degree((p.x, p.y + 1)) == 0]
        if not mids:
            continue
        mid = mids[rng.randrange(len(mids))]
        sides = side_pair((3 * mid.x, 3 * mid.y - 1), (3 * mid.x, 3 * mid.y + 1))
        free = [p for p in sorted(comp) if p not in (sides.p1, sides.p2)]
        for p in rng.sample(free, min(6, len(free))):
            path = region_connect(curve, p, sides)
            if not path.edges:
                continue
            path.validate()
            assert path.start == p
            assert path.end in (sides.p1, sides.p2)
            assert comp[path.end] == comp[p]  # lands in p's component
            assert path.point_set.isdisjoint(p3.point_set)


def test_region_connect_threads_the_refined_pocket():
    # A point deep in the pocket connects to whichever side point shares its
    # region once the grid is refined; the flood-fill oracle arbitrates.
    curve = pocket_curve()
    p3 = refine(curve, 3)
    comp, _ = flood_components(p3.point_set, p3.n)
    sides = side_pair((9, 5), (9, 7))  # straddles the refined pocket floor
    pocket_pt = GridPoint(9, 9)
    path = region_connect(curve, pocket_pt, sides)
    path.validate()
    assert path.start == pocket_pt and path.end in (sides.p1, sides.p2)
    assert comp[path.end] == comp[pocket_pt]
    assert path.point_set.isdisjoint(p3.point_set)


def test_region_connect_breaks_an_arc_tie_forward():
    # (6, 8) is half the inner ring away from the side point (6, 4) either
    # way; a tie follows the ring's own (counterclockwise) direction
    path = region_connect(rect_curve(1, 1, 3, 3, 5), (6, 7), side_pair((6, 2), (6, 4)))
    assert [tuple(p) for p in path.points()] == [
        (6, 7), (6, 8), (5, 8), (4, 8), (4, 7), (4, 6), (4, 5), (4, 4), (5, 4), (6, 4)]


def test_region_connect_rejects_point_on_curve():
    curve = rect_curve(1, 1, 3, 3, 5)
    sides = side_pair((6, 2), (6, 4))
    with pytest.raises(PreconditionViolation):
        region_connect(curve, (3, 3), sides)


def test_count_regions_counts_every_component(monkeypatch):
    # two disjoint refined loops leave three components; the oracle agrees
    loops = [refine(rect_curve(1, 1, 2, 2, 6), 3), refine(rect_curve(3, 3, 5, 4, 6), 3)]
    s = 3 * 6 + 2
    codes = [p.x * s + p.y for loop in loops for p in loop.points()]
    monkeypatch.setattr(jordan, "_refined_codes", lambda curve: (codes, s))
    _, ncomp = flood_components(loops[0].point_set | loops[1].point_set, 18)
    assert count_regions(rect_curve(1, 1, 2, 2, 6)) == ncomp == 3


# one ring point step gone wrong per entry: (what the check says, bad ring)
BAD_RINGS = {
    "short": ("fewer than 4 points", lambda ring, codes, s: ring[:3]),
    "off-grid": ("leaves the grid", lambda ring, codes, s: [c - 100 * s for c in ring]),
    # the first point of the ring's first column moved to y = -1, which wraps to the
    # spare row y = s - 1 of the column before; the last point of its last column
    # moved up to that row
    "below-grid": ("leaves the grid", lambda ring, codes, s: [
        c - c % s - 1 if c == min(ring) else c for c in ring]),
    "above-grid": ("leaves the grid", lambda ring, codes, s: [
        c - c % s + s - 1 if c == max(ring) else c for c in ring]),
    "non-unit": ("non-unit step", lambda ring, codes, s: ring[:3] + ring[4:]),
    "repeat": ("revisits a point", lambda ring, codes, s: ring + ring),
    "on-curve": ("touches the curve", lambda ring, codes, s: codes),
    # the right-hand ring for both sides: the patched lookup passes side -1 through
    "overlap": ("offset rings overlap", lambda ring, codes, s: jordan._ring_points(codes, s, -1)),
}


@pytest.mark.parametrize("name", sorted(BAD_RINGS))
def test_ring_self_checks_fire(monkeypatch, tmp_path, capsys, name):
    what, spoil = BAD_RINGS[name]
    real = jordan._ring_points

    def bad(codes, s, side):
        ring = real(codes, s, side)
        return spoil(ring, codes, s) if side > 0 else ring

    monkeypatch.setattr(jordan, "_ring_points", bad)
    curve = rect_curve(1, 1, 3, 3, 5)
    with pytest.raises(TheoremViolation, match=what):
        region_connect(curve, (6, 6), side_pair((6, 2), (6, 4)))
    with pytest.raises(TheoremViolation, match=what):
        side_sequences(curve)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"n": 5, "form": "seq", "blue": edge_sequence_to_json(curve),
                                "sides": [[6, 2], [6, 4]]}))
    assert main(["connect", "--instance", str(path), "--point", "6,6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err


def test_region_connect_checks_the_side_points_homes(monkeypatch):
    # both rings the same: one side point is on neither
    real = jordan._side_rings
    monkeypatch.setattr(jordan, "_side_rings",
                        lambda *a: tuple((pair[0],) * 2 for pair in real(*a)))
    with pytest.raises(TheoremViolation, match="not on either ring"):
        region_connect(rect_curve(1, 1, 3, 3, 5), (6, 6), side_pair((6, 2), (6, 4)))


@pytest.mark.parametrize("point,sides,condition", [
    ((16, 6), ((6, 2), (6, 4)), "point inside the refined grid"),
    ((6, 6), ((6, 0), (6, 2)), "on_different_sides"),  # midpoint off the curve
    ((6, 6), ((6, 3), (6, 5)), "on_different_sides"),  # side point on the curve
    ((6, 6), ((7, 2), (6, 4)), "on_different_sides"),  # not vertically aligned
    # (0, 94) would code as the curve point (5, 9) without the grid bounds test
    ((6, 6), ((0, 93), (0, 95)), "on_different_sides"),
])
def test_region_connect_preconditions(point, sides, condition):
    with pytest.raises(PreconditionViolation, match=condition):
        region_connect(rect_curve(1, 1, 3, 3, 5), point,
                       SidePair(GridPoint(*sides[0]), GridPoint(*sides[1]), GridPoint(0, 0)))


def test_region_connect_rejects_an_open_curve():
    path = EdgeSequence.from_points([(1, 1), (2, 1), (2, 2)], 5, OPEN)
    with pytest.raises(PreconditionViolation, match="closed curve"):
        region_connect(path, (6, 6), side_pair((6, 2), (6, 4)))


def _mirrored_end_routes(monkeypatch):
    """The end fix's routes mirrored left to right: still chained, but each
    doubled red end now arrives from the right."""
    real = jordan.left_approach_route
    monkeypatch.setattr(jordan, "left_approach_route", lambda end, s, from_left: [
        GridPoint(2 * end.x - p.x, p.y) for p in real(end, s, from_left)])
    # red leaves p1 downward and enters p2 from the right: both ends are re-routed
    red = EdgeSequence.from_points([(3, 1), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2), (0, 3),
                                    (0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (4, 3), (3, 3)], 8, OPEN)
    merge_paths(retraced_arc(range(5, 0, -1), 2, 8), red)


def _patched_rings(monkeypatch, spoil, point):
    """region_connect from ``point`` to the x3 square 3..9 with side points
    (6, 2) outside and (6, 4) inside, its rings spoiled by
    ``spoil(q1, q2, outer_side_point_code)``, each with its point set."""
    real = jordan._side_rings

    def spoiled(codes, s, on):
        rings = spoil(*real(codes, s, on)[0], 6 * s + 2)
        return rings, tuple(map(set, rings))

    monkeypatch.setattr(jordan, "_side_rings", spoiled)
    region_connect(rect_curve(1, 1, 3, 3, 5), point, side_pair((6, 2), (6, 4)))


# name -> (trigger, message of the TheoremViolation it raises)
BUG_GUARDS = {
    "end-fix": (_mirrored_end_routes, "end fix failed to establish left approach"),
    # one ring holding both: both side points' homes are ring 0
    "same-ring": (lambda mp: _patched_rings(mp, lambda q1, q2, c: (q1 + q2, q2), (6, 6)),
                  "side points landed on the same ring"),
    # the outer ring cut down to its side point: from (6, 12) the nearest ring
    # point is (6, 8) on the inner ring, across the curve's top side y = 9
    "hop-crosses-curve": (lambda mp: _patched_rings(
        mp, lambda q1, q2, c: ([c], q2) if c in q1 else (q1, [c]), (6, 12)),
                          "shortest hop crossed the curve"),
}


@pytest.mark.parametrize("name", sorted(BUG_GUARDS))
def test_bug_guards_fire(monkeypatch, name):
    trigger, message = BUG_GUARDS[name]
    with pytest.raises(TheoremViolation, match=message) as exc:
        trigger(monkeypatch)
    assert type(exc.value) is TheoremViolation and str(exc.value).endswith("(bug)")
