"""JSON instance formats.

Edge set:      {"n": int, "set": [[x1,y1,x2,y2], ...]}
Edge sequence: {"n": int, "seq": [[x1,y1,x2,y2], ...], "kind": "closed"|"open"}
Instance:      {"n": int, "form": "set"|"seq", "blue": {...}, "red": {...},
                "sides": [[x,y],[x,y]], "offset": [dx,dy]}

Validation errors carry the index of the offending edge entry.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from contextlib import contextmanager
from itertools import chain, repeat

from .errors import FormatError, InvalidInstance
from .grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    Instance,
    columns,
    side_pair,
)


def _parse_n(n) -> int:
    if type(n) is not int or n < 1:
        raise FormatError(f"bad grid parameter: {n!r}")
    return n


def _edge_ints(entries) -> list:
    """The ints of ``entries`` in order if every entry has the shape and int types
    the entry walk takes, else []."""
    if (isinstance(entries, (list, tuple)) and all(map(isinstance, entries, repeat((list, tuple))))
            and set(map(len, entries)) <= {4}):
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) <= {int}:
            return flat
    return []


def _parse_edges(entries, n, make) -> list:
    """``make(p, q)`` for each ``[x1,y1,x2,y2]`` entry, walked one by one, checking
    shape and int type, bounds, adjacency, then (``Edge``) repeats; the first faulty
    entry raises.  ``Edge`` gets its endpoints in lexicographic order, as
    :meth:`Edge.of` would give them."""
    if not isinstance(entries, (list, tuple)):
        key = "set" if make is Edge else "seq"
        raise FormatError(f'"{key}" must be a list of [x1,y1,x2,y2] entries')
    edges, seen = [], set()
    for i, entry in enumerate(entries):
        # "type(v) is int" because JSON true/false parse to bool, a subclass of int
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4
                and type(entry[0]) is type(entry[1]) is type(entry[2]) is type(entry[3]) is int):
            raise FormatError(f"edge {i}: expected [x1,y1,x2,y2] of ints", edge_index=i)
        x1, y1, x2, y2 = entry
        if not (0 <= x1 <= n and 0 <= y1 <= n and 0 <= x2 <= n and 0 <= y2 <= n):
            raise FormatError(f"edge {i}: endpoint outside grid [0,{n}]^2", edge_index=i)
        if make is Edge and (x2, y2) < (x1, y1):
            x1, y1, x2, y2 = x2, y2, x1, y1
        if abs(x2 - x1) + abs(y2 - y1) != 1:
            raise FormatError(f"edge {i}: edge endpoints not adjacent: {(x1, y1)}-{(x2, y2)}",
                              edge_index=i)
        edges.append(make(GridPoint(x1, y1), GridPoint(x2, y2)))
        if make is Edge and edges[-1] in seen:
            raise FormatError(f"edge {i}: duplicate edge", edge_index=i)
        seen.add(edges[-1])
    return edges


def edge_set_from_json(obj) -> EdgeSet:
    if not isinstance(obj, dict) or "n" not in obj or "set" not in obj:
        raise FormatError('edge set payload needs keys "n" and "set"')
    n, entries = _parse_n(obj["n"]), obj["set"]
    return EdgeSet(frozenset(_parse_edges(entries, n, Edge)), n)


def edge_set_to_json(es: EdgeSet) -> dict:
    return {"n": es.n, "set": [[*a, *b] for a, b in es.sorted_edges()]}


def edge_sequence_from_json(obj, *, validate: bool = True) -> EdgeSequence:
    """Parse a sequence payload.  Coordinates are always checked against the
    grid; ``validate=False`` skips the chain and simplicity invariants (the
    merge diagnostics feed deliberately revisiting chains).  The payload goes
    through :meth:`EdgeSequence.accept`; on a fault its entries are walked one by
    one, so a faulty entry is named before ``accept``'s chain fault."""
    if not isinstance(obj, dict) or "n" not in obj or "seq" not in obj or "kind" not in obj:
        raise FormatError('edge sequence payload needs keys "n", "seq" and "kind"')
    n, kind, entries = _parse_n(obj["n"]), obj["kind"], obj["seq"]
    if kind not in (CLOSED, OPEN):
        raise FormatError(f'kind must be "closed" or "open", got {kind!r}')
    flat = _edge_ints(entries)  # [] when some entry is not four ints: the entry walk raises
    try:
        return EdgeSequence.accept(*(flat[i::4] for i in range(4)), n, kind)
    except InvalidInstance as exc:  # a copy: keeping exc would tie this frame into a cycle
        fault = FormatError(str(exc), edge_index=exc.edge_index)
    seq = EdgeSequence(tuple(_parse_edges(entries, n, DirectedEdge)), n, kind)  # entry faults first
    if validate:
        raise fault
    return seq


def edge_sequence_to_json(seq: EdgeSequence) -> dict:
    return {"n": seq.n, "seq": list(map(list, zip(*columns(seq)))), "kind": seq.kind}


def _parse_int_pair(raw, what) -> tuple:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(type(v) is int for v in raw):
        raise FormatError(f"{what} must be [int, int]")
    return tuple(raw)


def instance_from_json(obj) -> Instance:
    """Parse an instance document.  Payloads are checked on their own; a
    complete crossing instance is checked by :meth:`Instance.validate`."""
    if not isinstance(obj, dict) or "n" not in obj or "form" not in obj:
        raise FormatError('instance needs keys "n" and "form"')
    n, form = _parse_n(obj["n"]), obj["form"]
    if form not in ("set", "seq"):
        raise FormatError(f'form must be "set" or "seq", got {form!r}')
    loader = edge_set_from_json if form == "set" else edge_sequence_from_json

    def load_payload(key):
        if key not in obj or obj[key] is None:
            return None
        payload = loader(obj[key])
        if payload.n != n:
            raise FormatError(f'"{key}" grid parameter {payload.n} != instance n {n}')
        return payload

    blue = load_payload("blue")
    red = load_payload("red")
    sides = None
    if obj.get("sides") is not None:
        raw = obj["sides"]
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise FormatError('"sides" must be [[x,y],[x,y]]')
        pts = [_parse_int_pair(p, '"sides" point') for p in raw]
        try:
            sides = side_pair(*pts)
        except InvalidInstance as exc:
            raise FormatError(str(exc)) from None
    offset = _parse_int_pair(obj.get("offset", (0, 0)), '"offset"')
    return Instance(n=n, form=form, blue=blue, red=red, sides=sides, offset=offset)


def instance_to_json(inst: Instance) -> dict:
    dump = edge_set_to_json if inst.form == "set" else edge_sequence_to_json
    out = {"n": inst.n, "form": inst.form}
    if inst.blue is not None:
        out["blue"] = dump(inst.blue)
    if inst.red is not None:
        out["red"] = dump(inst.red)
    if inst.sides is not None:
        out["sides"] = [[inst.sides.p1.x, inst.sides.p1.y], [inst.sides.p2.x, inst.sides.p2.y]]
    if tuple(inst.offset) != (0, 0):
        out["offset"] = list(inst.offset)
    return out


def read_json(path):
    """Parse a JSON file; bytes that are not UTF-8 or not JSON raise FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError: bad JSON, bytes that are not UTF-8, or an integer too
            # long to convert; RecursionError: very deep nesting
            raise FormatError(f"invalid JSON: {exc}") from None


def load_instance(path) -> Instance:
    return instance_from_json(read_json(path))


def save_instance(inst: Instance, path):
    """``inst`` as sorted JSON indented by 2, and a newline, through :func:`sink`."""
    with sink(path) as fh:
        write_json(fh, instance_to_json(inst))


_BATCH = 512  # entries joined into one string: the text held at once stays small
SPARE_MAX = 1 << 20  # bytes a sink's spare holds in memory before it moves to a temporary file


def _holed(doc: dict, lists: list) -> dict:
    """``doc`` with each nonempty edge list made a hole ``["\\0"]``, and
    appended to ``lists`` as one piece."""
    if "form" in doc:
        return {**doc, **{k: _holed(doc[k], lists) for k in ("blue", "red") if k in doc}}
    key = "seq" if "seq" in doc else "set"
    if doc[key]:
        lists.append([(doc[key], 0, 0)])
        doc = {**doc, key: ["\0"]}
    return doc


def write_json(fh, doc: dict, indent=2, lists=None):
    """Write ``json.dumps(doc, indent=indent, sort_keys=True)`` and a newline,
    ``indent`` None or 2, for a set, sequence or instance document as the
    ``*_to_json`` functions give it; or, given ``lists``, for one whose edge
    lists are holes ``["\\0"]``, filled in key order by ``lists``: each a
    nonempty list of pieces ``(template, ox, oy)``, the edges ``(a + ox,
    b + oy, c + ox, d + oy)`` for each ``(a, b, c, d)`` of the template.
    Every number is in [0, doc["n"]] (one outside raises ``KeyError``); its
    text is looked up in one table, of [0, n] or, if smaller, of the numbers
    written, and ``_BATCH`` entries at most are joined and written at a time."""
    keys = range(doc["n"] + 1)  # a pieces path joins opposite corners in at least 2n edges
    if lists is None:
        lists = []
        doc = _holed(doc, lists)
        edges = [entries for ((entries, _, _),) in lists]
        if len(keys) > 4 * sum(map(len, edges)):  # fewer numbers written than in [0, n]
            keys = filter(keys.__contains__, set(chain.from_iterable(chain.from_iterable(edges))))
    texts = json.dumps(doc, indent=indent, sort_keys=True).split('"\\u0000"')
    pad = texts[0][texts[0].rfind("[") + 1:]  # a newline and the entries' indent, or ""
    inner = pad + "  " if indent else ""
    item, between = ("," + inner, f"{pad}],{pad}[{inner}") if indent else (", ", "], [")
    num = {i: str(i) for i in keys}
    fh.write(texts[0])
    for pieces, after in zip(lists, texts[1:]):
        lead = "[" + inner
        for tpl, ox, oy in pieces:
            for k in range(0, len(tpl), _BATCH):
                fh.write(lead + between.join([
                    f"{num[x1 + ox]}{item}{num[y1 + oy]}{item}{num[x2 + ox]}{item}{num[y2 + oy]}"
                    for x1, y1, x2, y2 in tpl[k:k + _BATCH]]))
                lead = between
        fh.write(pad + "]" + after)
    fh.write("\n")


def write_seq_instance(fh, n: int, blue, red, *, indent=None):
    """Write a sequence-form instance whose two open paths are given as
    pieces, as :func:`write_json` writes ``instance_to_json(inst)``."""
    payload = {"n": n, "kind": OPEN, "seq": ["\0"]}
    write_json(fh, {"n": n, "form": "seq", "blue": payload, "red": payload}, indent, (blue, red))


class _Spare(tempfile.SpooledTemporaryFile):  # a sink's bytes, see SPARE_MAX
    readable = writable = seekable = lambda self: True  # io.TextIOWrapper asks; 3.10 lacks them


@contextmanager
def sink(path):
    """The one output sink: a spare text file for writing, held in memory up to
    ``SPARE_MAX`` bytes, whose bytes are copied through ``open(path, "wb")`` (its
    text to standard output if ``path`` is None) only once the block completes.  A
    failed run leaves ``path`` as it was; symlinks, devices, hard links and modes
    behave as ``open`` treats them.  A process killed mid-copy leaves a partial file."""
    with io.TextIOWrapper(_Spare(SPARE_MAX), encoding="utf-8") as spare:
        yield spare
        spare.seek(0)  # flushes the text layer into the binary buffer
        if path is None:
            shutil.copyfileobj(spare, sys.stdout)
            return
        with open(path, "wb") as fh:
            shutil.copyfileobj(spare.buffer, fh)
