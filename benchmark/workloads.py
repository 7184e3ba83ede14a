"""The four seeded workloads.

Each workload builds its inputs in ``setup()`` (timed, repeated by the
runner), derives what its checkers need in ``prepare()`` (untimed), and then
runs identical ``run_round(r)`` rounds.  Program calls go through module
attributes looked up at call time, so the tracer's wrappers see them.  A
round returns the seconds spent inside program calls; checks run outside
those sections.

Every workload measures two paths through the program: its main path
(``items_per_s``) and a second path that shares layers with it
(``aux_per_s``), each as work completed per second of program time.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import checks

clock = time.perf_counter


_CAL_KEYS = [(i % 61, i // 61) for i in range(4096)]
_CAL_SET = frozenset(_CAL_KEYS[::3])
_CAL_COUNT = dict.fromkeys(_CAL_KEYS, 0)


def _calibration_kernel():
    """Fixed pure-Python work shaped like gridjct's: tuple building, set and
    dict probes.  It allocates nothing that survives, so the program's heap
    does not change its speed."""
    for _ in range(2):
        for x, y in _CAL_KEYS:
            p = (x + 1, y)
            if p in _CAL_SET:
                _CAL_COUNT[p] += 1
            elif (x, y + 1) in _CAL_COUNT:
                _CAL_COUNT[(x, y)] += 1


class Calibration:
    """Host-speed probe interleaved with the timed work.

    The host's speed drifts by 10 to 30 % over seconds to minutes, for
    every process alike, and pinning to a core does not help.
    ``maybe_sample()``, called between operations, times the fixed kernel
    (garbage collector off) at most every ``interval_s``.  ``normalize()``
    scales a measured time by ``REFERENCE_S`` over the run's mean kernel
    time with the top and bottom tenth dropped, which gives the time at the
    reference speed.  The speed alternates between modes within a run; the
    trimmed mean follows the mix of modes, where the median jumps between
    them and per-operation pairing adds the kernel's own noise.  A change to
    gridjct does not move the kernel, so it moves the normalized times
    exactly as it moves the raw ones.
    """

    REFERENCE_S = 0.0038  # mean kernel time on the 2-core Xeon reference host

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.samples = []
        self._next = 0.0

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        _calibration_kernel()
        self.samples.append(clock() - t0)
        if enabled:
            gc.enable()
        self._next = clock() + self.interval_s

    def maybe_sample(self):
        if clock() >= self._next:
            self.sample()

    def kernel_s(self) -> float:
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut])

    def normalize(self, seconds: float) -> float:
        return seconds * self.REFERENCE_S / self.kernel_s()


def add(path, items, seconds):
    """Count work on a path: ``path`` is ``[items, seconds]``."""
    path[0] += items
    path[1] += seconds


class Workload:
    def __init__(self, g, seed: int, workdir, cal: "Calibration"):
        self.g = g  # namespace of gridjct modules
        self.seed = seed
        self.dir = workdir
        self.cal = cal
        self.aux_cal = cal  # seq-reduction samples its query phase on its own
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.faults = {}
        self.reset_rates()

    def setup(self):
        """Build the inputs; timed, and repeated by the runner."""

    def prepare(self):
        """Derive what the checkers need from the inputs; not timed."""

    def reset_rates(self):
        self.main = [0, 0.0]  # items, seconds
        self.aux = [0, 0.0]

    def problem(self, what: str):
        """A wrong output on an operation that did not fail."""
        if len(self.problems) < 20:
            self.problems.append(what)

    def cli(self, argv):
        """Run ``gridjct.cli.main`` in-process: (exit code, stdout, stderr, escaped exception)."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.g.cli.main(argv)
            except Exception as e:  # an escaped exception is the fault being counted
                rc, exc = None, e
        return rc, out.getvalue(), err.getvalue(), exc

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def metrics(self) -> dict:
        """Work per second on the two paths, at the reference speed."""
        return {"items_per_s": (self.main[0] / self.cal.normalize(self.main[1]), "items/s"),
                "aux_per_s": (self.aux[0] / self.aux_cal.normalize(self.aux[1]), "items/s")}


def _quads(seq) -> list:
    return [[e.src.x, e.src.y, e.dst.x, e.dst.y] for e in seq.edges]


# --------------------------------------------------------------------------
# crossing-sweep: generate -> jsonio round trip -> witnesses, profile, alternation
# --------------------------------------------------------------------------

SWEEP_SIZES = range(6, 41)  # acceptance range 6..32 and beyond it


class CrossingSweep(Workload):
    """One round is one instance at each n of ``SWEEP_SIZES``, in a seeded
    order with seeded instance seeds; round r draws from ``(seed, r)`` so a
    longer run sees more distinct instances."""

    def setup(self):
        self.schedule = {}

    def _round_plan(self, r):
        if r not in self.schedule:
            rng = random.Random(self.seed * 1_000_003 + r)
            sizes = list(SWEEP_SIZES)
            rng.shuffle(sizes)
            self.schedule[r] = [(n, rng.getrandbits(32)) for n in sizes]
        return self.schedule[r]

    def run_round(self, r) -> float:
        g = self.g
        path = self.path("sweep.json")
        busy = 0.0
        for n, s in self._round_plan(r):
            self.cal.maybe_sample()
            self.attempted += 1
            t0 = clock()
            try:
                inst = g.generate.gen_crossing_instance(n, s)
                g.jsonio.save_instance(g.jsonio.Instance(n=n, form="seq", blue=inst.blue,
                                                         red=inst.red, sides=inst.sides), path)
                t1 = clock()
                back = g.jsonio.load_instance(path)
                blue_set, red_set = back.blue.to_edge_set(), back.red.to_edge_set()
                w_set = g.parity.find_intersection_set(blue_set, red_set, back.sides)
                w_seq = g.jordan.find_intersection_seq(back.blue, back.red, back.sides)
                profile = str(g.parity.parity_profile(blue_set, red_set))
                alternates = g.alternation.check_edge_alternation(back.blue)
            except Exception as exc:
                self.failed += 1
                self.problem(f"n={n} seed={s}: {type(exc).__name__}: {exc}")
                continue
            t2 = clock()
            busy += t2 - t0
            add(self.main, 1, t2 - t0)
            add(self.aux, 1, t2 - t1)
            self._check(n, s, path, inst, back, (w_set, w_seq), profile, alternates)
        return busy

    def _check(self, n, s, path, inst, back, witnesses, profile, alternates):
        tag = f"n={n} seed={s}"
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        blue, red, sides = raw["blue"]["seq"], raw["red"]["seq"], raw["sides"]
        if blue != _quads(inst.blue) or red != _quads(inst.red):
            return self.problem(f"{tag}: saved file differs from the generated instance")
        if back.blue.edges != inst.blue.edges or back.red.edges != inst.red.edges \
                or tuple(back.sides) != tuple(inst.sides):
            return self.problem(f"{tag}: jsonio round trip changed the instance")
        _, why = checks.chain_points(blue, "closed", n)
        red_pts, why_red = checks.chain_points(red, "open", n)
        why = why or why_red or checks.side_pair_reason(blue, sides)
        if why:
            return self.problem(f"{tag}: generated instance invalid: {why}")
        if {red_pts[0], red_pts[-1]} != {tuple(p) for p in sides}:
            return self.problem(f"{tag}: red path does not join the side pair")
        shared = checks.shared_points(blue, red)
        deg_b, deg_r = checks.degrees(blue), checks.degrees(red)
        for w in witnesses:
            p = tuple(w.point)
            if p not in shared or (w.blue_degree, w.red_degree) != (deg_b[p], deg_r[p]):
                return self.problem(f"{tag}: witness {p} is not a shared point with its degrees")
        if profile != checks.parity_bits(blue, red, n):
            self.problem(f"{tag}: parity profile differs from the recomputed one")
        if alternates is not True or checks.alternation_reason(blue):
            self.problem(f"{tag}: alternation verdict wrong")


# --------------------------------------------------------------------------
# region-labeling: cli.main over instance files, plus a malformed slice
# --------------------------------------------------------------------------

LABELING_SIZES = (48, 52, 56, 60, 64)
MALFORMED_REPEATS = 4  # the slice's ops are short; repeating them steadies aux_per_s

# Side pair on a 2x2 square: the midpoint (2, 1) is on the curve.
_SQUARE = [[1, 1, 2, 1], [2, 1, 3, 1], [3, 1, 3, 2], [3, 2, 3, 3],
           [3, 3, 2, 3], [2, 3, 1, 3], [1, 3, 1, 2], [1, 2, 1, 1]]
_GOOD = {"n": 4, "form": "seq",
         "blue": {"n": 4, "kind": "closed", "seq": _SQUARE},
         "red": {"n": 4, "kind": "open", "seq": [[2, 0, 2, 1], [2, 1, 2, 2]]},
         "sides": [[2, 0], [2, 2]]}


def _variant(**changes):
    doc = json.loads(json.dumps(_GOOD))
    for key, value in changes.items():
        doc[key] = value
    return json.dumps(doc)


# name -> file text; every one must end in exit code 1 and a one-line message.
MALFORMED = {
    # faults present in the program today
    "offset-int": _variant(offset=5),
    "sides-ints": _variant(sides=[5, 6]),
    "sides-string-coordinate": _variant(sides=[[1, "a"], [1, 3]]),
    "boolean-coordinate": _variant(blue={"n": 4, "kind": "closed",
                                         "seq": [[True, 1, 2, 1]] + _SQUARE[1:]}),
    "set-form-not-a-curve": json.dumps({"n": 4, "form": "set",
                                        "blue": {"n": 4, "set": [[1, 1, 2, 1]]},
                                        "red": {"n": 4, "set": [[2, 0, 2, 1], [2, 1, 2, 2]]},
                                        "sides": [[2, 0], [2, 2]]}),
    # rejected correctly today
    "not-json": '{"n": 4, "form": ',
    "missing-form": json.dumps({"n": 4}),
    "non-adjacent-edge": _variant(blue={"n": 4, "kind": "closed",
                                        "seq": [[1, 1, 3, 1]] + _SQUARE[2:]}),
    "outside-grid": _variant(red={"n": 4, "kind": "open",
                                  "seq": [[2, 0, 2, 1], [2, 1, 2, 2], [2, 2, 2, 3],
                                          [2, 3, 2, 4], [2, 4, 2, 5]]}),
    "curve-revisits-point": _variant(blue={"n": 4, "kind": "closed",
                                           "seq": _SQUARE + [[1, 1, 2, 1], [2, 1, 1, 1]]}),
}


class RegionLabeling(Workload):
    """Set-up generates one curve per size in ``LABELING_SIZES``, kept n/8
    off the border and grown to the generator's largest cell count (a third
    of the free square), so the seed changes a curve's shape but hardly its
    length.  The benchmark picks a side pair on it and joins the pair
    through the midpoint, then writes the instance twice: as is, and with
    the side pair moved to the x3 grid for ``connect``.  A round runs every
    subcommand on every curve (``connect`` from one point in each region and
    one anywhere), then ``validate`` on every malformed file."""

    def setup(self):
        g = self.g
        rng = random.Random(self.seed)
        self.curves = []
        for k, n in enumerate(LABELING_SIZES):
            margin = n // 8
            curve = g.generate.gen_random_curve(n, rng.getrandbits(32), margin=margin,
                                                min_cells=(n - 2 * margin) ** 2 // 3)
            deg = checks.degrees(_quads(curve))
            mids = sorted(p for p in deg if (p[0], p[1] - 1) not in deg
                          and (p[0], p[1] + 1) not in deg)
            x, y = mids[rng.randrange(len(mids))]
            red = g.grid.EdgeSequence.from_points([(x, y - 1), (x, y), (x, y + 1)], n, "open")
            path = self.path(f"curve{k}.json")
            g.jsonio.save_instance(g.jsonio.Instance(
                n=n, form="seq", blue=curve, red=red,
                sides=g.grid.side_pair((x, y - 1), (x, y + 1))), path)
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            conn = {"n": n, "form": "seq", "blue": raw["blue"],
                    "sides": [[3 * x, 3 * y - 1], [3 * x, 3 * y + 1]]}
            conn_path = self.path(f"connect{k}.json")
            with open(conn_path, "w", encoding="utf-8") as fh:
                json.dump(conn, fh)
            self.curves.append({"n": n, "path": path, "conn": conn_path, "raw": raw,
                                "conn_sides": conn["sides"], "svg": self.path(f"curve{k}.svg")})
        self.malformed = []
        for name, text in MALFORMED.items():
            path = self.path(f"malformed-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.malformed.append((name, path))

    def prepare(self):
        rng = random.Random(self.seed + 1)
        for c in self.curves:
            n, raw = c["n"], c["raw"]
            blue, red = raw["blue"]["seq"], raw["red"]["seq"]
            _, why = checks.chain_points(blue, "closed", n)
            why = why or checks.chain_points(red, "open", n)[1] \
                or checks.side_pair_reason(blue, raw["sides"]) or checks.alternation_reason(blue)
            if why:
                self.problem(f"curve n={n}: generated instance invalid: {why}")
            labels, count = checks.refined_components(blue, n)
            side = 3 * n + 1
            ends = [tuple(p) for p in c["conn_sides"]]
            homes = [labels[x * side + y] for x, y in ends]
            points = []
            for want in homes + [None]:  # one point in each region, one anywhere
                while True:
                    code = rng.randrange(side * side)
                    p = divmod(code, side)
                    if labels[code] > 0 and p not in ends and want in (None, labels[code]):
                        break
                points.append(p)
            c.update(labels=labels, regions=count, points=points,
                     shared=checks.shared_points(blue, red),
                     deg=(checks.degrees(blue), checks.degrees(red)),
                     lines=len(blue) + len(red))
            c["argvs"] = ([["validate", "--instance", c["path"]],
                           ["parity", "--witness", "--instance", c["path"]],
                           ["alternation", "--instance", c["path"]],
                           ["regions", "--instance", c["path"]]]
                          + [["connect", "--instance", c["conn"], "--point", f"{x},{y}"]
                             for x, y in points]
                          + [["render", "--instance", c["path"], "--svg", c["svg"]]])

    def run_round(self, r) -> float:
        busy = 0.0
        for c in self.curves:
            self.cal.maybe_sample()
            t0 = clock()
            results = [self.cli(argv) for argv in c["argvs"]]
            dt = clock() - t0
            busy += dt
            self.attempted += len(results)
            bad = [argv[0] for argv, res in zip(c["argvs"], results) if res[0] != 0]
            if bad:
                self.failed += len(bad)
                self.problem(f"curve n={c['n']}: {bad} did not exit 0")
                continue
            add(self.main, 1, dt)
            self._check(c, [res[1] for res in results])
        self.cal.maybe_sample()
        for name, path in self.malformed * MALFORMED_REPEATS:
            self.attempted += 1
            t0 = clock()
            rc, out, err, exc = self.cli(["validate", "--instance", path])
            dt = clock() - t0
            busy += dt
            add(self.aux, 1, dt)
            if exc is not None:
                self.faults[name] = f"{type(exc).__name__} escapes cli.main"
            elif rc != 1:
                self.faults[name] = f"accepted with exit code {rc}"
            elif out or len(err.strip().splitlines()) != 1:
                self.faults[name] = "exit code 1 without a one-line message"
            else:
                continue
            self.failed += 1
        return busy

    def _check(self, c, outs):
        n, tag = c["n"], f"curve n={c['n']}"
        validate, parity, alternation, regions = outs[:4]
        connects, render = outs[4:-1], outs[-1]
        if validate != f"valid instance: n={n} form=seq\n":
            self.problem(f"{tag}: validate printed {validate!r}")
        w = json.loads(parity)
        p = tuple(w["point"])
        if p not in c["shared"] or (w["blue_degree"], w["red_degree"]) != \
                (c["deg"][0].get(p), c["deg"][1].get(p)):
            self.problem(f"{tag}: parity witness {p} is not a shared point with its degrees")
        if alternation != "alternates\n":
            self.problem(f"{tag}: alternation printed {alternation!r}")
        if regions.strip() != "2" or c["regions"] != 2:
            self.problem(f"{tag}: regions printed {regions.strip()}, flood fill finds {c['regions']}")
        for point, out in zip(c["points"], connects):
            path = json.loads(out)
            why = ("wrong grid" if path["n"] != 3 * n or path["kind"] != "open" else
                   checks.connect_reason(path["seq"], point, c["conn_sides"], c["labels"], 3 * n))
            if why:
                self.problem(f"{tag}: connect from {point}: {why}")
        if render != f"wrote {c['svg']}\n":
            self.problem(f"{tag}: render printed {render!r}")
        with open(c["svg"], encoding="utf-8") as fh:
            lines = checks.svg_line_count(fh.read())
        if lines != c["lines"]:
            self.problem(f"{tag}: SVG has {lines} <line> elements, expected {c['lines']}")


# --------------------------------------------------------------------------
# seq-reduction: reduce --from jct --form seq --out, then random edge_at
# --------------------------------------------------------------------------

REDUCTION_SIZES = (6, 10, 14)
# (blue, red) output edges the chosen input should come closest to: typical
# sizes for avoid_midpoint instances at each n, so a run's work does not
# swing with the seed (at n = 14 it varies tenfold).  At n = 14 the blue
# target sits below the median (313,632) because near 314k points CPython's
# set table for the simplicity check doubles, and peak RSS would jump between
# seeds.
REDUCTION_TARGETS = {6: (14_400, 8_160), 10: (94_208, 20_736), 14: (285_696, 46_464)}
REDUCTION_CANDIDATES = 256
QUERIES_PER_HANDLE = 40_000
QUERY_BATCH = 1_000
QUERY_CHECK_EVERY = 16


class SeqReduction(Workload):
    def setup(self):
        g = self.g
        self.items = []
        for n in REDUCTION_SIZES:
            rng = random.Random(self.seed * 101 + n)
            best = None
            for _ in range(REDUCTION_CANDIDATES):
                inst = g.generate.gen_crossing_instance(n, rng.getrandbits(32),
                                                        avoid_midpoint=True)
                sides = [tuple(inst.sides.p1), tuple(inst.sides.p2)]
                *_, blue_len, red_len, _ = checks.reduction_lengths(
                    n, sides, len(inst.red.edges), len(inst.blue.edges))
                blue_t, red_t = REDUCTION_TARGETS[n]
                gap = abs(blue_len - blue_t) / blue_t + abs(red_len - red_t) / red_t
                if best is None or gap < best[0]:
                    best = (gap, inst)
            inst = best[1]
            path = self.path(f"reduce-in-{n}.json")
            g.jsonio.save_instance(g.jsonio.Instance(n=n, form="seq", blue=inst.blue,
                                                     red=inst.red, sides=inst.sides), path)
            self.items.append({"n": n, "in": path, "out": self.path(f"reduce-out-{n}.json"),
                               "handle": g.reduce.jct_to_stconn_seq(inst)})

    def prepare(self):
        for it in self.items:
            with open(it["in"], encoding="utf-8") as fh:
                raw = json.load(fh)
            big, n_out, blue_len, red_len, red_prefix = checks.reduction_lengths(
                it["n"], raw["sides"], len(raw["red"]["seq"]), len(raw["blue"]["seq"]))
            it.update(n_out=n_out, blue_len=blue_len, red_len=red_len, red_prefix=red_prefix,
                      core=len(raw["red"]["seq"]) * 16 * big * big)
        # The query phase is short and comes after the memory-heavy writes;
        # host speed is sampled densely within it.
        self.aux_cal = Calibration(interval_s=0.02)

    def run_round(self, r) -> float:
        busy = 0.0
        for it in self.items:
            self.cal.sample()
            self.attempted += 1
            t0 = clock()
            rc, _, err, exc = self.cli(["reduce", "--from", "jct", "--form", "seq",
                                        "--instance", it["in"], "--out", it["out"]])
            dt = clock() - t0
            if rc != 0 or exc is not None:
                self.failed += 1
                self.problem(f"reduce n={it['n']}: exit {rc}: {exc or err.strip()}")
                continue
            busy += dt
            add(self.main, it["blue_len"] + it["red_len"], dt)
            self._check_output(it)
        rng = random.Random(self.seed * 7919 + r)
        edge_at = self.g.reduce.edge_at
        for it in self.items:
            handle, red = it["handle"], it.get("red")
            for _ in range(QUERIES_PER_HANDLE // QUERY_BATCH):
                self.aux_cal.maybe_sample()
                js = [rng.randrange(it["core"]) for _ in range(QUERY_BATCH)]
                self.attempted += QUERY_BATCH
                t0 = clock()
                got = [edge_at(handle, j) for j in js]
                dt = clock() - t0
                busy += dt
                add(self.aux, QUERY_BATCH, dt)
                if red is None:
                    continue
                for j, e in zip(js[::QUERY_CHECK_EVERY], got[::QUERY_CHECK_EVERY]):
                    at = 4 * (it["red_prefix"] + j)
                    if (e.src.x, e.src.y, e.dst.x, e.dst.y) != tuple(red[at:at + 4]):
                        self.problem(f"edge_at n={it['n']} j={j}: differs from the written core")
        return busy

    def _check_output(self, it):
        """Verify the first output in full; later rounds must write the same
        bytes.  A full check of the n = 14 file takes longer than the reduce,
        so checking it once leaves room for more timed rounds."""
        digest = hashlib.sha256()
        with open(it["out"], "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        if "digest" in it:
            if digest.digest() != it["digest"]:
                self.problem(f"reduce n={it['n']}: output differs from the verified first output")
            return
        it["digest"] = digest.digest()
        doc = checks.load_quads_json(it["out"])
        blue, red = doc["blue"], doc["red"]
        if (doc["n"], doc["form"], blue["n"], red["n"], blue["kind"], red["kind"]) != \
                (it["n_out"], "seq", it["n_out"], it["n_out"], "open", "open"):
            return self.problem(f"reduce n={it['n']}: wrong output header")
        why = checks.corner_paths_reason(blue["seq"], red["seq"], it["n_out"],
                                         it["blue_len"], it["red_len"])
        if why:
            return self.problem(f"reduce n={it['n']}: {why}")
        it["red"] = red["seq"]


# --------------------------------------------------------------------------
# cnf-refute: generate, emit DIMACS, refute or solve and decode
# --------------------------------------------------------------------------

CNF_MEMBERS = ([(fam, n, "intact") for fam, n in
                (("stconn", 2), ("stconn", 3), ("stconn", 4), ("stseq", 2), ("stseq", 3))]
               + [(fam, n, "weakened") for fam, n in
                  (("stconn", 2), ("stconn", 3), ("stconn", 4), ("stseq", 2), ("stseq", 3))]
               + [("stseq", 4, "emit")])


class CnfRefute(Workload):
    """One round processes every member of ``CNF_MEMBERS`` once, in a seeded
    order: intact members are refuted, weakened ones solved and decoded,
    stseq(4) is only generated and emitted."""

    def setup(self):
        self.orders = []

    def _order(self, r):
        while len(self.orders) <= r:
            order = list(CNF_MEMBERS)
            random.Random(self.seed * 31 + len(self.orders)).shuffle(order)
            self.orders.append(order)
        return self.orders[r]

    def run_round(self, r) -> float:
        busy = 0.0
        for fam, n, kind in self._order(r):
            self.cal.maybe_sample()
            busy += self._member(fam, n, kind)
        return busy

    def _member(self, fam, n, kind) -> float:
        """One member, in its own frame so nothing of the previous member is
        alive while the next is built."""
        cnf = self.g.cnf
        self.attempted += 1
        t0 = clock()
        gen = cnf.gen_stconn if fam == "stconn" else cnf.gen_stseq
        f = gen(n, intersection_clauses=kind != "weakened")
        text = cnf.to_dimacs(f)
        t1 = clock()
        verdict = model = decoded = None
        if kind == "intact":
            verdict = cnf.check_unsat(f)
        elif kind == "weakened":
            model = cnf.solve(f)
            decoded = cnf.decode_model(f, model) if model is not None else None
        t2 = clock()
        add(self.main, len(f.clauses), t1 - t0)
        if kind != "emit":
            add(self.aux, 1, t2 - t1)
        self._check(fam, n, kind, text, verdict, model, decoded)
        return t2 - t0

    def _check(self, fam, n, kind, text, verdict, model, decoded):
        tag = f"{fam}({n}) {kind}"
        _, clauses, why = checks.parse_dimacs(text)
        if why:
            return self.problem(f"{tag}: DIMACS {why}")
        if kind == "intact" and verdict is not True:
            return self.problem(f"{tag}: not refuted")
        if kind != "weakened":
            return None
        if model is None:
            return self.problem(f"{tag}: no model found")
        why = checks.model_reason(clauses, model)
        if why:
            return self.problem(f"{tag}: {why}")
        blue, red = decoded
        if fam == "stconn":
            bq = [[e.a.x, e.a.y, e.b.x, e.b.y] for e in blue.edges]
            rq = [[e.a.x, e.a.y, e.b.x, e.b.y] for e in red.edges]
            why = checks.corner_set_reason(bq, (0, n), (n, 0)) \
                or checks.corner_set_reason(rq, (0, 0), (n, n))
        else:
            bq, rq = _quads(blue), _quads(red)
            bp, why = checks.chain_points(bq, "open", n)
            rp, why_red = checks.chain_points(rq, "open", n)
            why = why or why_red
            if not why:
                for color, pts, corners in (("blue", bp, {(0, n), (n, 0)}),
                                            ("red", rp, {(0, 0), (n, n)})):
                    if {pts[0], pts[-1]} != corners:
                        # The decoded path is not a corner path: this member's
                        # operation failed, and the fault is named in the report.
                        self.failed += 1
                        self.faults[f"{fam}({n})-weakened"] = (
                            f"decoded {color} path runs {pts[0]}..{pts[-1]}, "
                            f"not between its corners {sorted(corners)}")
                        return None
        if why:
            return self.problem(f"{tag}: decoded model: {why}")
        if not checks.shared_points(bq, rq):
            self.problem(f"{tag}: decoded corner paths do not intersect")


WORKLOADS = {
    "crossing-sweep": CrossingSweep,
    "region-labeling": RegionLabeling,
    "seq-reduction": SeqReduction,
    "cnf-refute": CnfRefute,
}
