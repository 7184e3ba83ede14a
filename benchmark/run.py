"""gridjct benchmark: one seeded workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gridjct is imported from ``src/``
next to this directory.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the rounds untraced for half the
time, then the same rounds traced, and reports per-layer spans per round and
the tracing overhead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MODULES = ("alternation", "cli", "cnf", "generate", "grid", "jordan", "jsonio", "parity",
           "reduce", "render")


def import_gridjct():
    """A fresh import of the gridjct modules from this checkout.

    Earlier imports are dropped from ``sys.modules`` first, so every call
    runs the modules' top-level code again (the standard library stays
    loaded).  Returns the modules as one namespace.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gridjct" or m.startswith("gridjct.")]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module(f"gridjct.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import gridjct from {src}: {exc}")
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: gridjct resolved outside {src}")
    return argparse.Namespace(**mods)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_rounds(wl, seconds: float, rounds: int = 0):
    """Whole rounds 1, 2, ... until ``seconds`` have passed (or exactly
    ``rounds`` of them); returns (rounds run, seconds inside program calls).
    Round 0 is the warm-up."""
    deadline = time.perf_counter() + seconds
    done, busy = 0, 0.0
    while (done < rounds) if rounds else (done == 0 or time.perf_counter() < deadline):
        done += 1
        busy += wl.run_round(done)
    return done, busy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_gridjct()  # fail early, before creating anything, when src/ is missing
    from spans import Tracer
    import selftest
    from workloads import WORKLOADS, Calibration

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_run"))
    try:
        cal = Calibration()
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            cal.sample()
            t0 = time.perf_counter()
            g = import_gridjct()
            wl = WORKLOADS[args.workload](g, args.seed, workdir, cal)
            wl.setup()
            setups.append(time.perf_counter() - t0)
        cal.sample()
        wl.prepare()
        broken = selftest.run(g, workdir)
        for name in broken:
            wl.problem(f"checker {name} accepted a corrupted output")
        # Warm-up: the first round grows the heap from the OS and fills
        # caches; its rates are dropped.  Peak RSS is read after it, so the
        # metric is one round's high-water mark, not the fragmentation that
        # repeating identical rounds adds.
        wl.run_round(0)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.reset_rates()

        if args.trace:
            # Each half gets its own host-speed samples, so the overhead is
            # not the host drifting between the halves.
            wl.cal = wl.aux_cal = Calibration()
            rounds, untraced_s = run_rounds(wl, args.seconds / 2)
            untraced_s = wl.cal.normalize(untraced_s)
            wl.cal = wl.aux_cal = Calibration()
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_s = run_rounds(wl, 0, rounds)
            finally:
                tracer.uninstall()
            metrics = tracer.report(rounds, wl.cal.normalize(traced_s), untraced_s,
                                    wl.cal.normalize(1.0))
        else:
            run_rounds(wl, args.seconds)
            metrics = {"setup_s": (cal.normalize(statistics.median(setups)), "s"),
                       "peak_rss_mib": (peak_rss, "MiB")}
            metrics.update(wl.metrics())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"reference: src_lines={src_lines()} python={sys.version.split()[0]} "
          f"calibration_ms={1000 * cal.kernel_s():.3f}")
    for name, reason in sorted(wl.faults.items()):
        print(f"failed operation: {args.workload}/{name}: {reason}")
    for what in wl.problems:
        print(f"wrong output: {what}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
