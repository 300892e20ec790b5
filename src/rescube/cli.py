"""Command-line surface: check, resonance, rfd, label, verify, import-benzenoid.

Inputs are JSON graph files or benzenoid cell lists; outputs are JSON with
sorted keys (plus DOT on request) so identical inputs give byte-identical
files.  Exit codes: 0 ok, 1 usage or I/O error, 2 a checked property is
false, 3 the perfect-matching enumeration cap tripped.  Only resonance,
label and verify enumerate perfect matchings, so only they take --cap; the
environment variable RESCUBE_CAP sets the cap when --cap is absent.  check
and rfd decide elementarity from one matching and never exit 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import coding
from .benzenoid import benzenoid_from_text
from .cube_kit import is_downward_closed, is_isometric_labelling
from .decomposition import auto_rfd, rfd_from_face_order, theorem_report
from .errors import CapExceeded, NoPerfectMatching, RescubeError
from .matchings import enumerate_matchings
from .plane_graph import (
    DEFAULT_MATCHING_CAP,
    elementary_analysis,
    graph_from_json,
    graph_to_json,
    is_peripherally_two_colorable,
)
from .resonance import build_resonance, resonance_to_dot, resonance_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSE = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _matching_cap(args) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get("RESCUBE_CAP")
        cap = int(env) if env else DEFAULT_MATCHING_CAP
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return cap


def _read_graph(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"rescube: cannot read {args.input}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    kind = args.format
    if kind == "auto":
        kind = "json" if text.lstrip().startswith("{") else "benzenoid"
    try:
        if kind == "json":
            return graph_from_json(text)
        return benzenoid_from_text(text)
    except (RescubeError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"rescube: bad input: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, path):
    """Write to the file ``path``; no path or '-' means standard output."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve_rfd(g, order_text):
    if order_text in (None, "auto"):
        return auto_rfd(g)
    order = [int(tok) for tok in order_text.split(",")]
    return rfd_from_face_order(g, order)


def _verdict_obj(verdict):
    obj = {"ok": verdict.ok}
    if not verdict.ok:
        obj["failed_clause"] = verdict.failed_clause
        obj["witness"] = repr(verdict.witness)
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    g = _read_graph(args)
    try:
        analysis = elementary_analysis(g)
        elem = {
            "is_elementary": analysis.is_elementary,
            "is_weakly_elementary": analysis.is_weakly_elementary,
            "elementary_components": len(analysis.elementary_components),
            "forbidden_edges": [list(e) for e in sorted(analysis.forbidden_edges)],
        }
    except NoPerfectMatching as exc:
        elem = {"is_elementary": False, "error": str(exc)}
    verdict = is_peripherally_two_colorable(g)
    obj = {
        "edges": len(g.edges),
        "elementary": elem,
        "finite_faces": len(g.finite_faces),
        "peripherally_two_colorable": _verdict_obj(verdict),
        "vertices": len(g.vertices),
    }
    _emit(_dump(obj), args.output)
    ok = verdict.ok and elem.get("is_elementary", False)
    return EXIT_OK if ok else EXIT_FALSE


def cmd_resonance(args) -> int:
    g = _read_graph(args)
    family = enumerate_matchings(g, cap=_matching_cap(args))
    r = build_resonance(g, family)
    _emit(resonance_to_json(r), args.output)
    if args.dot:
        _emit(resonance_to_dot(r), args.dot)
    return EXIT_OK


def cmd_rfd(args) -> int:
    g = _read_graph(args)
    rfd = _resolve_rfd(g, args.rfd)
    obj = {
        "attachment": {str(k): v for k, v in (rfd.attachment or {}).items()},
        "attachment_complete": rfd.attachment is not None,
        "faces": list(rfd.faces),
        "notes": list(rfd.notes),
        "subgraph_sizes": [len(e) for e in rfd.subgraph_edges],
    }
    _emit(_dump(obj), args.output)
    return EXIT_OK


def cmd_label(args) -> int:
    g = _read_graph(args)
    cap = _matching_cap(args)
    fn = coding.daisy_labelling if args.scheme == "daisy" else coding.fdl_labelling

    elementary = elementary_analysis(g).is_elementary
    if not elementary and args.rfd not in (None, "auto"):
        raise ValueError("--rfd applies to elementary graphs; this one is not")
    # weakly elementary graphs label componentwise, concatenated, each
    # component by its own automatic decomposition
    parts = (g,) if elementary else coding.elementary_parts(g)
    for part in parts:
        verdict = is_peripherally_two_colorable(part)
        if not verdict.ok:
            _emit(_dump({"error": "not peripherally 2-colorable",
                         "verdict": _verdict_obj(verdict)}), args.output)
            return EXIT_FALSE
    family = enumerate_matchings(g, cap=cap)
    if elementary:
        rfd = _resolve_rfd(g, args.rfd)
        labelling = fn(g, family, rfd)
    else:
        labelling = coding.composed_labels(g, family, parts, args.scheme)
    labels, width = labelling.labels, labelling.length
    face_names = {fid: f"s{pos}" for pos, fid in enumerate(labelling.face_order, start=1)}
    r = build_resonance(g, family) if args.emit_dot or args.verify else None

    text = {mid: coding.bit_string(label, width) for mid, label in labels.items()}
    obj = {"scheme": args.scheme, "labels": {str(k): v for k, v in sorted(text.items())}}
    if args.verify:
        metric = r.metric()
        obj["verification"] = {
            "isometric": is_isometric_labelling(metric, labels),
            "downward_closed": (
                is_downward_closed(set(labels.values()))
                if args.scheme == "daisy"
                else None
            ),
        }
        if elementary and not g.is_cycle_graph():
            obj["verification"]["theorem_report"] = theorem_report(
                g, rfd, cap, resonance=r
            )
    _emit(_dump(obj), args.output)
    if args.emit_dot:
        _emit(resonance_to_dot(r, labels=text, face_names=face_names), args.emit_dot)
    if args.verify:
        ver = obj["verification"]
        ok = ver["isometric"] and ver.get("downward_closed") in (True, None)
        report = ver.get("theorem_report")
        if report is not None:
            ok = ok and report["ok"]
        return EXIT_OK if ok else EXIT_FALSE
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args)
    rfd = None
    if args.rfd not in (None, "auto"):
        rfd = _resolve_rfd(g, args.rfd)
    report = theorem_report(g, rfd, _matching_cap(args))
    _emit(_dump(report), args.output)
    return EXIT_OK if report["ok"] else EXIT_FALSE


def cmd_import_benzenoid(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"rescube: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        g = benzenoid_from_text(text)
    except (ValueError, RescubeError) as exc:
        print(f"rescube: bad benzenoid file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(graph_to_json(g), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  It names no command
    function; :func:`main` looks ``cmd_<command>`` up when it dispatches."""
    parser = _Parser(prog="rescube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("-o", "--output", default=None,
                       help="output file (default and '-': standard output)")

    def common(p, rfd_flag=False, cap_flag=False):
        p.add_argument("input")
        output(p)
        p.add_argument("--format", choices=("auto", "json", "benzenoid"), default="auto")
        if rfd_flag:
            p.add_argument("--rfd", default="auto",
                           help="'auto' or a comma-separated finite face order "
                                "(an order applies to elementary graphs only)")
        if cap_flag:
            p.add_argument("--cap", type=int, default=None,
                           help="bound on the perfect-matching enumeration: more "
                                "matchings exit 3 (default $RESCUBE_CAP, else "
                                f"{DEFAULT_MATCHING_CAP})")

    p = sub.add_parser("check", help="peripherally-2-colorable and elementary verdicts")
    common(p)

    p = sub.add_parser("resonance", help="build the resonance graph (JSON, optional DOT)")
    common(p, cap_flag=True)
    p.add_argument("--dot", default=None,
                   help="also write the graph as DOT to this file ('-': standard output)")

    p = sub.add_parser("rfd", help="reducible face decomposition and attachment map")
    common(p, rfd_flag=True)

    p = sub.add_parser("label", help="binary coding of the perfect matchings")
    common(p, rfd_flag=True, cap_flag=True)
    p.add_argument("--scheme", choices=("daisy", "fdl"), required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--emit-dot", default=None,
                   help="also write the labelled resonance graph as DOT to this "
                        "file ('-': standard output)")

    p = sub.add_parser("verify", help="full decomposition-theorem report")
    common(p, rfd_flag=True, cap_flag=True)

    p = sub.add_parser("import-benzenoid", help="convert a benzenoid cell list to graph JSON")
    p.add_argument("input")
    output(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CapExceeded as exc:
        print(f"rescube: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RescubeError as exc:
        print(f"rescube: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"rescube: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
