"""Span tracing from outside the program.

``Tracer.install()`` replaces the traced gridjct functions with wrappers
wherever they are looked up: the defining module, every gridjct module that
bound the same function object at import time (``cli`` imports
``check_edge_alternation``, ``load_instance`` and others by name), and the
class for methods.  Each call records one span -- name, start, end, parent --
in flat in-memory arrays; ``uninstall()`` puts the originals back.  The
report is computed at the end: busy time per name counts only the outermost
span of that name, and self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# (module, attribute path) of every traced function; the span is
# "<module>.<attribute path>".
SPANS = (
    ("generate", "gen_crossing_instance"),
    ("generate", "gen_random_curve"),
    ("grid", "EdgeSequence.validate"),
    ("grid", "refine"),
    ("grid", "EdgeSequence.to_edge_set"),
    ("jordan", "count_regions"),
    ("jordan", "region_connect"),
    ("jordan", "side_sequences"),
    ("jordan", "find_intersection_seq"),
    ("parity", "find_intersection_set"),
    ("parity", "parity_profile"),
    ("alternation", "check_edge_alternation"),
    ("jsonio", "load_instance"),
    ("jsonio", "save_instance"),
    ("jsonio", "instance_to_json"),
    ("reduce", "jct_to_stconn_seq"),
    ("reduce", "StConnSeqReduction.materialize"),
    ("reduce", "StConnInstance.validate"),
    ("reduce", "edge_at"),
    ("cnf", "gen_stconn"),
    ("cnf", "gen_stseq"),
    ("cnf", "to_dimacs"),
    ("cnf", "solve"),
    ("cnf", "decode_model"),
    ("render", "render_svg"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in SPANS)

# Work counters and their units, each measured at the return of one traced
# function.
COUNTS = {"jsonio.bytes_out": "bytes", "reduce.edges_out": "edges",
          "cnf.clauses_out": "clauses", "render.bytes_out": "bytes"}


def _count_for(name, args, result):
    if name == "jsonio.save_instance":
        return "jsonio.bytes_out", os.path.getsize(args[1])
    if name == "reduce.StConnSeqReduction.materialize":
        return "reduce.edges_out", len(result)
    if name == "cnf.to_dimacs":
        return "cnf.clauses_out", len(args[0].clauses)
    if name == "render.render_svg":
        return "render.bytes_out", len(result.encode())
    return None


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._active = [0] * len(SPAN_NAMES)
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outer.append(self._active[nid] == 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._active[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._active[nid] -= 1
                self._stack.pop()
            counted = _count_for(name, args, result)
            if counted:
                self.counts[counted[0]] += counted[1]
            return result

        return wrapper

    def install(self):
        modules = {k: v for k, v in sys.modules.items()
                   if k == "gridjct" or k.startswith("gridjct.")}
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            owner = modules[f"gridjct.{mod_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            if path:  # a method: patch the class only
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def report(self, rounds: int, traced_s: float, untraced_s: float, scale: float) -> dict:
        """Per-layer metrics per round, plus the tracing overhead in percent.

        ``scale`` converts measured seconds to seconds at the reference host
        speed; ``traced_s`` and ``untraced_s`` are already converted."""
        k = len(SPAN_NAMES)
        busy, self_s, calls = [0.0] * k, [0.0] * k, [0] * k
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if self.outer[i]:
                busy[nid] += dur
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            out[f"{span}.s"] = (busy[nid] * scale / rounds, "s")
            out[f"{span}.self_s"] = (self_s[nid] * scale / rounds, "s")
            out[f"{span}.calls"] = (calls[nid] / rounds, "count")
        for name, unit in COUNTS.items():
            out[name] = (self.counts[name] / rounds, unit)
        inst = calls[self.name_ids["generate.gen_crossing_instance"]]
        curves = calls[self.name_ids["generate.gen_random_curve"]]
        out["generate.curve_attempts_per_instance"] = (curves / inst if inst else 0.0, "ratio")
        out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        return out
