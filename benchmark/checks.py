"""Independent output checkers.

Nothing here imports gridjct.  Every checker reads plain data -- edge lists as
``[x1, y1, x2, y2]`` quads (or flat int arrays of them), DIMACS text, SVG
text -- and recomputes what the theorems guarantee.  Each checker returns
``None`` when the output is right and a one-line reason when it is not, so a
caller can report the first problem without a traceback.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from array import array
from collections import deque

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# --- edge lists -------------------------------------------------------------

def chain_points(quads, kind: str, n: int):
    """Visited points of a chained simple path or closed curve.

    Returns ``(points, None)`` on success and ``(None, reason)`` otherwise:
    every edge is a unit step inside ``[0, n]^2``, consecutive edges chain,
    and no point is visited twice (a closed curve returns to its start).
    """
    if not quads:
        return None, "empty edge list"
    pts = []
    prev_end = None
    for i, q in enumerate(quads):
        if len(q) != 4 or any(type(v) is not int for v in q):
            return None, f"edge {i} is not four ints"
        x1, y1, x2, y2 = q
        if abs(x1 - x2) + abs(y1 - y2) != 1:
            return None, f"edge {i} is not a unit step"
        if not (0 <= min(x1, y1, x2, y2) and max(x1, y1, x2, y2) <= n):
            return None, f"edge {i} leaves the grid"
        if prev_end is not None and prev_end != (x1, y1):
            return None, f"edge {i} does not chain"
        pts.append((x1, y1))
        prev_end = (x2, y2)
    if kind == "closed":
        if prev_end != pts[0]:
            return None, "closed curve does not return to its start"
        if len(quads) < 4:
            return None, "closed curve shorter than 4 edges"
    else:
        pts.append(prev_end)
    if len(set(pts)) != len(pts):
        return None, "a point is visited twice"
    return pts, None


def degrees(quads) -> dict:
    deg: dict = {}
    for x1, y1, x2, y2 in quads:
        deg[(x1, y1)] = deg.get((x1, y1), 0) + 1
        deg[(x2, y2)] = deg.get((x2, y2), 0) + 1
    return deg


def shared_points(a_quads, b_quads) -> set:
    """Exhaustive scan: every endpoint of ``a`` that is also an endpoint of ``b``."""
    a_pts = set()
    for x1, y1, x2, y2 in a_quads:
        a_pts.add((x1, y1))
        a_pts.add((x2, y2))
    out = set()
    for x1, y1, x2, y2 in b_quads:
        for p in ((x1, y1), (x2, y2)):
            if p in a_pts:
                out.add(p)
    return out


def side_pair_reason(blue_quads, sides):
    """The two side points flank a curve point vertically and are off the curve."""
    (ax, ay), (bx, by) = sides
    if ax != bx or abs(ay - by) != 2:
        return "side points are not vertically aligned two apart"
    deg = degrees(blue_quads)
    mid = (ax, (ay + by) // 2)
    if deg.get((ax, ay), 0) or deg.get((bx, by), 0) or deg.get(mid, 0) != 2:
        return "side points are not on different sides of the curve"
    return None


def alternation_reason(curve_quads):
    """Per column, left- and right-pointing horizontal edges interleave by height."""
    cols: dict = {}
    for x1, y1, x2, y2 in curve_quads:
        if y1 == y2:
            cols.setdefault(min(x1, x2), []).append((y1, x2 < x1))
    for col, marks in cols.items():
        marks.sort()
        if len({y for y, _ in marks}) != len(marks):
            return f"column {col} holds two horizontal edges at one height"
        if any(marks[i][1] == marks[i + 1][1] for i in range(len(marks) - 1)):
            return f"column {col} does not alternate"
    return None


def parity_bits(blue_quads, red_quads, n: int) -> str:
    """Column k's bit: parity of the red horizontal edges in column k that have
    an odd number of blue horizontal edges strictly below them."""
    below: dict = {}
    for x1, y1, x2, y2 in blue_quads:
        if y1 == y2:
            below.setdefault(min(x1, x2), []).append(y1)
    bits = [0] * n
    for x1, y1, x2, y2 in red_quads:
        if y1 == y2:
            k = min(x1, x2)
            bits[k] ^= sum(1 for y in below.get(k, ()) if y < y1) & 1
    return "".join(map(str, bits))


def refined_components(curve_quads, n: int):
    """Flood fill of the x3-refined grid off the x3-refined curve.

    Returns ``(labels, count)``: ``labels`` maps every free refined point
    (as ``x * (3n + 1) + y``) to its component number, -1 on the curve.
    """
    m = 3 * n
    side = m + 1
    labels = array("i", [0]) * (side * side)
    for x1, y1, x2, y2 in curve_quads:
        for t in range(4):  # the refined edge visits 4 points, ends included
            x = 3 * x1 + t * (x2 - x1)
            y = 3 * y1 + t * (y2 - y1)
            labels[x * side + y] = -1
    count = 0
    for start in range(side * side):
        if labels[start]:
            continue
        count += 1
        labels[start] = count
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            cx, cy = divmod(cur, side)
            for dx, dy in _STEPS:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx <= m and 0 <= ny <= m:
                    code = nx * side + ny
                    if not labels[code]:
                        labels[code] = count
                        queue.append(code)
    return labels, count


def connect_reason(path_quads, start, ends, labels, n3: int):
    """A connect path: a simple open chain from ``start`` to one of ``ends``,
    off the refined curve, ending in the start point's component."""
    pts, why = chain_points(path_quads, "open", n3)
    if why:
        return why
    side = n3 + 1
    if pts[0] != tuple(start):
        return "path does not start at the requested point"
    if pts[-1] not in {tuple(e) for e in ends}:
        return "path does not end at a side point"
    home = labels[start[0] * side + start[1]]
    for x, y in pts:
        lab = labels[x * side + y]
        if lab == -1:
            return f"path touches the refined curve at {(x, y)}"
        if lab != home:
            return "path leaves the start point's component"
    return None


# --- reduction outputs ------------------------------------------------------

_NUM = re.compile(rb"-?\d+")
_SEQ = re.compile(rb'"seq":\[')
_WINDOW = 1 << 20


def load_quads_json(path):
    """Parse an instance file into plain dicts, with every ``"seq"`` list of
    quads held as a flat ``array('i')`` instead of Python lists.

    Reads the file in chunks and keeps only its whitespace-free bytes, so a
    reduction output of half a million edges costs a few tens of MB here
    rather than the hundreds a ``json.load`` would take.
    """
    data = bytearray()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_WINDOW), b""):
            data += chunk.translate(None, b" \t\r\n")
    skeleton = bytearray()
    arrays = []
    pos = 0
    for m in _SEQ.finditer(data):
        start = m.end()  # just past the opening bracket
        close = data.index(b"]]", start) + 1 if data[start:start + 1] == b"[" else start
        ints = array("i")
        lo = start
        while lo < close:
            hi = data.find(b"]", min(lo + _WINDOW, close))
            hi = close if hi < 0 or hi > close else hi + 1
            ints.extend(map(int, _NUM.findall(data, lo, hi)))
            lo = hi
        skeleton += data[pos:m.start()]
        skeleton += b'"seq":"@%d"' % len(arrays)
        arrays.append(ints)
        pos = close + 1
    skeleton += data[pos:]
    del data
    obj = json.loads(skeleton)

    def attach(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "seq" and isinstance(v, str) and v.startswith("@"):
                    node[k] = arrays[int(v[1:])]
                else:
                    attach(v)
        return node

    return attach(obj)


def corner_paths_reason(blue, red, n: int, blue_len: int, red_len: int):
    """st-connectivity outputs: blue is a simple path joining (0, n) and (n, 0),
    red one joining (0, 0) and (n, n), each of the given length, and the two
    share a grid point.  ``blue`` and ``red`` are flat int arrays of quads."""
    side = n + 1
    seen = bytearray((side * side + 7) // 8)
    shared = False
    for name, flat, length, corners, is_blue in (
            ("blue", blue, blue_len, {(0, n), (n, 0)}, True),
            ("red", red, red_len, {(0, 0), (n, n)}, False)):
        if len(flat) != 4 * length:
            return f"{name} has {len(flat) // 4} edges, closed form says {length}"
        if not length:
            return f"{name} is empty"
        if {(flat[0], flat[1]), (flat[-2], flat[-1])} != corners:
            return f"{name} does not join {sorted(corners)}"
        own = seen if is_blue else bytearray(len(seen))
        px, py = flat[0], flat[1]
        for i in range(0, len(flat), 4):
            x1, y1, x2, y2 = flat[i], flat[i + 1], flat[i + 2], flat[i + 3]
            if (x1, y1) != (px, py):
                return f"{name} edge {i // 4} does not chain"
            if abs(x1 - x2) + abs(y1 - y2) != 1 or not (0 <= x2 <= n and 0 <= y2 <= n):
                return f"{name} edge {i // 4} is not a unit step inside the grid"
            if i == 0:
                code = x1 * side + y1
                own[code >> 3] |= 1 << (code & 7)
            code = x2 * side + y2
            bit = 1 << (code & 7)
            if own[code >> 3] & bit:
                return f"{name} revisits {(x2, y2)}"
            own[code >> 3] |= bit
            px, py = x2, y2
        if not is_blue:  # red against blue's points
            for i in range(0, len(flat), 2):
                code = flat[i] * side + flat[i + 1]
                if seen[code >> 3] & (1 << (code & 7)):
                    shared = True
                    break
    if not shared:
        return "blue and red share no point"
    return None


def reduction_lengths(n: int, sides, red_edges: int, blue_edges: int):
    """Closed-form output size of the refined sequence reduction.

    With the side-pair midpoint ``m`` and ``N = 2 max(m.x, m.y, n - m.x,
    n - m.y)``, the output grid is ``16 N^2``, and each color is its boundary
    prefix times ``8N``, one ``16 N^2`` block per input edge, and its suffix
    times ``8N``.  Red's prefix and suffix have ``N + 1`` edges each, blue's
    ``N`` each.  Returns ``(N, n_out, blue_len, red_len, red_prefix_len)``.
    """
    (ax, ay), (bx, by) = sides
    mx, my = ax, (ay + by) // 2
    big = 2 * max(mx, my, n - mx, n - my)
    f, block = 8 * big, 16 * big * big
    red_prefix = (big + 1) * f
    red_len = red_prefix + red_edges * block + (big + 1) * f
    blue_len = big * f + blue_edges * block + big * f
    return big, 2 * big * f, blue_len, red_len, red_prefix


# --- CNF --------------------------------------------------------------------

def parse_dimacs(text: str):
    """Returns ``(num_vars, clauses, None)`` or ``(None, None, reason)``.

    The ``p cnf V C`` header must match the clause lines: exactly C clauses,
    each ending in 0, with literals in ``[-V, V]`` and none zero.
    """
    header = None
    clauses = []
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                return None, None, f"bad header {line!r}"
            header = (int(parts[2]), int(parts[3]))
            continue
        if header is None:
            return None, None, "clause before the header"
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0 or 0 in lits[:-1] or len(lits) < 2:
            return None, None, f"malformed clause line {line!r}"
        if any(abs(v) > header[0] for v in lits):
            return None, None, f"literal out of range in {line!r}"
        clauses.append(tuple(lits[:-1]))
    if header is None:
        return None, None, "no header"
    if header[1] != len(clauses):
        return None, None, f"header declares {header[1]} clauses, found {len(clauses)}"
    return header[0], clauses, None


def model_reason(clauses, model: dict):
    """Clause-by-clause check; variables missing from ``model`` count as false."""
    for i, clause in enumerate(clauses):
        if not any(model.get(abs(v), False) == (v > 0) for v in clause):
            return f"model falsifies clause {i}"
    return None


def corner_set_reason(quads, a, b):
    """An edge set joining corners ``a`` and ``b``: they have degree 1, every
    other point degree 0 or 2, and the component of ``a`` reaches ``b``."""
    deg = degrees(quads)
    if deg.get(a) != 1 or deg.get(b) != 1:
        return f"corners {a}, {b} do not have degree 1"
    if any(d != 2 for p, d in deg.items() if p not in (a, b)):
        return "a non-corner point has degree other than 0 or 2"
    adj: dict = {}
    for x1, y1, x2, y2 in quads:
        adj.setdefault((x1, y1), []).append((x2, y2))
        adj.setdefault((x2, y2), []).append((x1, y1))
    seen, stack = {a}, [a]
    while stack:
        for q in adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return None if b in seen else f"{a} does not reach {b}"


# --- SVG --------------------------------------------------------------------

def svg_line_count(text: str):
    """Number of ``<line>`` elements in a well-formed SVG document."""
    root = ET.fromstring(text)
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise ValueError("root element is not svg")
    return sum(1 for el in root.iter("{http://www.w3.org/2000/svg}line"))
