"""Command-line entry point.

Subcommands: validate, parity, alternation, regions, connect, merge, reduce,
gen, render, fuzz.  Exit codes: 0 success, 1 invalid instance or usage, 2
theorem violation (always a bug report, never a property of a valid input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cnf, generate, jordan, parity, reduce as reductions
from .alternation import check_edge_alternation
from .errors import GridJctError, InvalidInstance, PreconditionViolation, TheoremViolation
from .grid import EdgeSequence, GridPoint, Instance
from .jsonio import (
    edge_sequence_from_json,
    edge_sequence_to_json,
    instance_to_json,
    load_instance,
    read_json,
    sink,
    write_json,
    write_seq_instance,
)
from .render import render_svg


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _need(inst: Instance, *fields):
    for f in fields:
        if getattr(inst, f) is None:
            raise InvalidInstance(f'instance is missing "{f}"')


def _load_seq(args, *fields) -> Instance:
    """The ``--instance`` file, with ``fields`` present and blue in sequence
    form."""
    inst = load_instance(args.instance)
    _need(inst, *fields)
    if not isinstance(inst.blue, EdgeSequence):
        raise InvalidInstance(f"{args.command} needs a sequence-form instance")
    return inst


def _write_svg(path, inst: Instance):
    with sink(path) as fh:
        fh.write(render_svg(inst))


def cmd_validate(args) -> int:
    # loading checks each payload; a complete crossing instance is checked whole
    inst = load_instance(args.instance)
    if None not in (inst.blue, inst.red, inst.sides):
        inst.validate()
    _emit(args, {"valid": True, "n": inst.n, "form": inst.form},
          f"valid instance: n={inst.n} form={inst.form}")
    return 0


def cmd_parity(args) -> int:
    inst = load_instance(args.instance)
    _need(inst, "blue", "red")
    blue, red = inst.blue.to_edge_set(), inst.red.to_edge_set()
    if args.witness:
        _need(inst, "sides")
        w = parity.find_intersection_set(blue, red, inst.sides)
        payload = {"point": [w.point.x, w.point.y],
                   "blue_degree": w.blue_degree, "red_degree": w.red_degree}
        _emit(args, payload, json.dumps(payload, sort_keys=True))
    else:
        prof = parity.parity_profile(blue, red)
        _emit(args, {"profile": str(prof)}, str(prof))
    return 0


def cmd_alternation(args) -> int:
    ok = check_edge_alternation(_load_seq(args, "blue").blue)
    _emit(args, {"alternates": ok}, "alternates" if ok else "ALTERNATION VIOLATED")
    if not ok:
        raise TheoremViolation("a valid closed curve failed edge alternation")
    return 0


def cmd_regions(args) -> int:
    count = jordan.count_regions(_load_seq(args, "blue").blue)
    _emit(args, {"regions": count}, str(count))
    if count != 2:
        raise TheoremViolation(f"curve produced {count} regions instead of 2")
    return 0


def cmd_connect(args) -> int:
    inst = _load_seq(args, "blue", "sides")
    try:
        x, y = (int(v) for v in args.point.split(","))
    except ValueError:
        raise InvalidInstance(
            f"--point must be X,Y with integer coordinates: {args.point!r}") from None
    path = jordan.region_connect(inst.blue, GridPoint(x, y), inst.sides)
    if args.svg:
        _write_svg(args.svg, Instance(n=path.n, form="seq", red=path if path.edges else None))
    with sink(None) as fh:  # the --json text and the plain text are the same
        write_json(fh, edge_sequence_to_json(path), None)
    return 0


def cmd_merge(args) -> int:
    # chain-level validation happens inside merge_paths; revisiting chains are
    # legitimate diagnostic inputs here
    blue = edge_sequence_from_json(read_json(args.blue), validate=False)
    red = edge_sequence_from_json(read_json(args.red), validate=False)
    merged = jordan.merge_paths(blue, red)
    ok = check_edge_alternation(merged)
    if args.svg:
        _write_svg(args.svg, Instance(n=merged.n, form="seq", blue=merged))
    payload = {"merged": edge_sequence_to_json(merged), "alternates": ok}
    if args.out:
        with sink(args.out) as fh:
            write_json(fh, payload["merged"])
        _emit(args, {"alternates": ok, "out": args.out},
              f"merged {len(merged)} edges -> {args.out}; alternates: {ok}")
    else:
        _emit(args, payload, json.dumps(payload, sort_keys=True))
    return 0


def cmd_reduce(args) -> int:
    if args.edge_at is not None and (args.source, args.form) != ("jct", "seq"):
        raise GridJctError("reduce --edge-at needs --from jct --form seq")
    inst = load_instance(args.instance)
    if inst.form != args.form:
        raise InvalidInstance(f"instance form {inst.form!r} does not match --form {args.form}")
    _need(inst, "blue", "red")
    pieces = None  # the 16N^2 reduction's checked pieces, written without an Instance
    if args.source == "stconn":
        result = reductions.stconn_to_jct(
            reductions.StConnInstance(n=inst.n, blue=inst.blue, red=inst.red))
    else:
        _need(inst, "sides")
        if args.form == "set":
            out = reductions.jct_to_stconn_set(inst)
            result = Instance(n=out.n, form=args.form, blue=out.blue, red=out.red)
        else:
            handle = reductions.jct_to_stconn_seq(inst)
            if args.edge_at is not None:
                e = reductions.edge_at(handle, args.edge_at)
                payload = {"edge": [e.src.x, e.src.y, e.dst.x, e.dst.y],
                           "block_size": handle.block_size}
                _emit(args, payload, json.dumps(payload, sort_keys=True))
                return 0
            size, cap = handle.out_edges(), reductions.MAX_OUT_EDGES
            if size > cap:
                raise PreconditionViolation(
                    f"output edges <= {cap}",
                    f"reduce would write {size} edges, over the cap of {cap}")
            pieces = [handle.checked_pieces(c) for c in ("blue", "red")]  # every check, before a byte
    n = handle.n_out if pieces else result.n
    indent = 2 if args.out else None
    with sink(args.out) as fh:
        if pieces:
            write_seq_instance(fh, n, *pieces, indent=indent)
        else:
            write_json(fh, instance_to_json(result), indent)
    if args.out:
        _emit(args, {"n": n, "out": args.out}, f"wrote n={n} instance to {args.out}")
    return 0


def cmd_gen(args) -> int:
    maker = cnf.gen_stconn if args.family == "stconn" else cnf.gen_stseq
    formula = maker(args.n, intersection_clauses=args.weaken != "no-intersection")
    notes = []
    if args.check:  # before any output, so a check over its budget writes nothing
        model = cnf.solve(formula, args.check)
        notes.append(f"c check [{args.check}]: {'UNSAT' if model is None else 'SAT'}")
        if model is not None:
            blue, red = cnf.decode_model(formula, model)
            notes.append(f"c model decodes: blue={len(blue)} edges, red={len(red)} edges")
    with sink(args.out) as fh:
        cnf.to_dimacs(formula, fh)
    for line in notes:
        print(line, file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    _write_svg(args.svg, load_instance(args.instance))
    _emit(args, {"svg": args.svg}, f"wrote {args.svg}")
    return 0


def cmd_fuzz(args) -> int:
    if args.count < 0:
        raise PreconditionViolation("count >= 0", f"--count must be >= 0, got {args.count}")
    checked = 0
    for k in range(args.count):
        seed = args.seed + k
        inst = generate.gen_crossing_instance(args.n, seed)
        w = jordan.find_intersection_seq(inst.blue, inst.red, inst.sides)
        shared = inst.blue.point_set & inst.red.point_set
        if w.point not in shared:
            raise TheoremViolation(f"seed {seed}: witness not actually shared")
        if not check_edge_alternation(inst.blue):
            raise TheoremViolation(f"seed {seed}: curve failed edge alternation")
        if jordan.count_regions(inst.blue) != 2:
            raise TheoremViolation(f"seed {seed}: wrong region count")
        checked += 1
    _emit(args, {"checked": checked, "seed": args.seed, "n": args.n},
          f"fuzz: {checked} instances checked, no violations")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input: one ``error:`` line and exit 1 (argparse
    would print the usage too and exit 2, the code for theorem violations)."""

    def error(self, message):
        raise GridJctError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; ``parse_args``
    keeps no state from one call to the next."""
    p = _Parser(prog="gridjct",
                description="Grid-curve crossing toolkit: parity and alternation checks, "
                            "region labeling, st-connectivity reductions, CNF generators.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, machine_readable=True, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        if machine_readable:
            sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("validate", cmd_validate, help="validate an instance file")
    sp.add_argument("--instance", required=True)

    sp = add("parity", cmd_parity, help="column parity profile or intersection witness")
    sp.add_argument("--instance", required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--profile", action="store_true", default=True)
    group.add_argument("--witness", action="store_true")

    sp = add("alternation", cmd_alternation, help="check per-column edge alternation")
    sp.add_argument("--instance", required=True)

    sp = add("regions", cmd_regions, help="count regions of the refined grid")
    sp.add_argument("--instance", required=True)

    sp = add("connect", cmd_connect, help="connect a refined point to a side point")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--point", required=True, metavar="X,Y")
    sp.add_argument("--svg")

    sp = add("merge", cmd_merge, help="splice a curve and a path into one closed chain")
    sp.add_argument("--blue", required=True)
    sp.add_argument("--red", required=True)
    sp.add_argument("--out")
    sp.add_argument("--svg")

    sp = add("reduce", cmd_reduce, help="run a reduction in either direction")
    sp.add_argument("--from", dest="source", choices=("jct", "stconn"), required=True)
    sp.add_argument("--form", choices=("set", "seq"), required=True)
    sp.add_argument("--instance", required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--out")
    group.add_argument("--edge-at", type=int, default=None)

    sp = add("gen", cmd_gen, machine_readable=False, help="emit a DIMACS CNF family member")
    sp.add_argument("--family", choices=("stconn", "stseq"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.add_argument("--check", choices=(cnf.EXHAUSTIVE, cnf.DPLL))
    sp.add_argument("--weaken", choices=("no-intersection",))

    sp = add("render", cmd_render, help="render an instance to SVG")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--svg", required=True)

    sp = add("fuzz", cmd_fuzz, help="run seeded property sweeps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--n", type=int, default=12)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except (GridJctError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
