"""Output checks, run outside the timed region.

Each check takes what one CLI call produced and returns ``None`` when the
output is right, or a one-line reason when it is not.  The expected values
(matching counts, face counts, the zigzag Fibonacci law) come from the
benchmark's own generator, never from the library.
"""

from __future__ import annotations

import json
import re

from inputs import fibonacci

_DOT_NODE = re.compile(r'^  M(\d+) \[label="M\d+\\n([01]+)"\];$')
_DOT_EDGE = re.compile(r'^  M(\d+) -- M(\d+) \[face="s(\d+)"\];$')


def check_case(case) -> str:
    """The generator's own count must follow F(h + 2) on zigzag chains."""
    if case.zigzag_h is not None and case.n_matchings != fibonacci(case.zigzag_h + 2):
        return f"{case.name}: N={case.n_matchings} is not F({case.zigzag_h + 2})"
    return None


def check_verify(rc: int, out: bytes, must_verify: bool) -> str:
    """Exit 0 with ``"ok": true``, or exit 2 with a ``failed_clause``.

    Inputs drawn as peripherally 2-colorable must verify."""
    if rc not in (0, 2):
        return f"exit code {rc}"
    report = json.loads(out)
    if rc == 0 and report.get("ok") is not True:
        return "exit 0 without ok: true"
    if rc == 2 and (report.get("ok") is not False or "failed_clause" not in report):
        return "exit 2 without a failed_clause"
    if must_verify and rc != 0:
        return f"a peripherally 2-colorable input failed {report.get('failed_clause')}"
    return None


def _is_downward_closed(labels) -> bool:
    present = set(labels)
    return all(
        lab[:i] + "0" + lab[i + 1 :] in present
        for lab in present
        for i, c in enumerate(lab)
        if c == "1"
    )


def check_label(rc: int, out: bytes, dot: bytes, scheme: str, case) -> str:
    """Labels against the generator's N and ring count, and the DOT graph."""
    if rc != 0:
        return f"exit code {rc}"
    obj = json.loads(out)
    labels = obj["labels"]
    n = case.n_matchings
    if obj["scheme"] != scheme:
        return f"scheme {obj['scheme']!r}"
    if sorted(labels) != sorted(str(i) for i in range(n)):
        return f"{len(labels)} labels for N={n}"
    values = list(labels.values())
    if len(set(values)) != n:
        return "labels are not distinct"
    if any(len(v) != len(case.cells) or set(v) - {"0", "1"} for v in values):
        return "a label is not a bit string with one bit per ring"
    if scheme == "daisy" and not _is_downward_closed(values):
        return "daisy label set is not downward-closed"
    if scheme == "fdl":
        zeros = values.count("0" * len(case.cells))
        ones = values.count("1" * len(case.cells))
        if (zeros, ones) != (1, 1):
            return f"fdl has {zeros} all-zeros and {ones} all-ones labels"

    lines = dot.decode().splitlines()
    if lines[0] != "graph resonance {" or lines[-1] != "}":
        return "DOT header or footer"
    nodes = {}
    adjacency = {str(i): set() for i in range(n)}
    for line in lines[1:-1]:
        node = _DOT_NODE.match(line)
        edge = _DOT_EDGE.match(line)
        if node:
            nodes[node[1]] = node[2]
        elif edge:
            u, v, pos = edge[1], edge[2], int(edge[3])
            a, b = labels[u], labels[v]
            flips = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            if flips != [pos - 1]:
                return f"edge M{u} -- M{v} on s{pos} flips bits {flips}"
            adjacency[u].add(v)
            adjacency[v].add(u)
        else:
            return f"unparsed DOT line {line!r}"
    if nodes != labels:
        return "DOT node labels differ from the JSON labels"
    seen, stack = {"0"}, ["0"]
    while stack:
        for w in adjacency[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != n:
        return "resonance graph is not connected"
    return None
