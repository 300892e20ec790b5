"""Stage benchmark for rescube: end-to-end CLI cost per workload, checked outputs,
and a separately traced per-layer breakdown.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep

The load is a closed loop with one client: one process, one thread, one
operation at a time.  An operation is one in-process call of
``rescube.cli.main`` on a generated benzenoid cell file, writing into a
temporary directory inside the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
``--sweep`` is ungated: it times ``theorem_report`` on zigzag chains and
prints per-module shares.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("verify-corpus", "verify-large", "label-large")
SETUP_REPEATS = 5
WARMUP_RINGS = 3  # phenanthrene: the smallest peripherally 2-colorable non-cycle
SWEEP_RINGS = (9, 10, 12)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads (see README.md for the reasons)."""

    corpus_cells: int = 7
    large_h: int = 9
    large_random: int = 39
    large_band: tuple = (85, 100)
    large_tests: int = 180
    label_h: int = 14
    label_random_h: int = 13
    label_random: int = 8
    label_band: tuple = (660, 740)
    label_tests: int = 70


@dataclass(frozen=True)
class Op:
    case: inputs.Case
    command: str  # "verify", or the label scheme "daisy" / "fdl"
    path: str
    must_verify: bool = False


def load_library():
    """Import rescube from the checkout's ``src``; never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rescube" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rescube sources under {src}")
    sys.path.insert(0, str(src))
    import rescube
    import rescube.cli

    if Path(rescube.__file__).resolve().parent != src / "rescube":
        sys.exit(f"perfbench: rescube imported from {rescube.__file__}, not {src}")
    return rescube


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build_ops(lib, workload, seed, sizes, workdir):
    """Generate the workload's inputs from the seed and write their cell files."""
    rng = random.Random(f"{workload}:{seed}")

    def is_p2c(cells):
        return lib.is_peripherally_two_colorable(lib.build_benzenoid(cells)).ok

    def zigzag(h):
        cells = inputs.zigzag_cells(h)
        return inputs.Case(f"zigzag{h}", cells, inputs.count_perfect_matchings(cells), h)

    def sampled(h, want, band, tests, anchor):
        kept, stats = inputs.sample_p2c_systems(
            rng, h, want, band, tests, is_p2c, lib.benzenoid.canonical_polyhex,
            exclude=[anchor.cells],
        )
        cases = [inputs.Case(f"random{h}-{i}", c, n) for i, (c, n) in enumerate(kept)]
        return cases, stats

    stats = None
    if workload == "verify-corpus":
        cases = []
        for i, shape in enumerate(lib.catacondensed_polyhexes(sizes.corpus_cells)):
            cells = inputs.place(shape, rng)
            cases.append(inputs.Case(f"corpus{i}", cells, inputs.count_perfect_matchings(cells)))
        plan = [(c, "verify", False) for c in cases]
    elif workload == "verify-large":
        anchor = zigzag(sizes.large_h)
        rest, stats = sampled(
            sizes.large_h, sizes.large_random, sizes.large_band, sizes.large_tests, anchor
        )
        plan = [(c, "verify", True) for c in [anchor] + rest]
    elif workload == "label-large":
        anchor = zigzag(sizes.label_h)
        rest, stats = sampled(
            sizes.label_random_h, sizes.label_random, sizes.label_band, sizes.label_tests, anchor
        )
        plan = [(c, scheme, True) for c in [anchor] + rest for scheme in ("daisy", "fdl")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The timed loop stops mid-pass; in shuffled order every part of a pass
    # holds cheap and costly inputs alike, so where it stops biases no median.
    rng.shuffle(plan)

    ops = []
    for case, command, p2c in plan:
        path = workdir / f"{case.name}.txt"
        path.write_text(case.cell_text(), encoding="utf-8")
        ops.append(Op(case, command, str(path), p2c))
    return ops, stats


def warmup_ops(workload, workdir):
    cells = inputs.zigzag_cells(WARMUP_RINGS)
    case = inputs.Case("warmup", cells, inputs.count_perfect_matchings(cells), WARMUP_RINGS)
    path = workdir / "warmup.txt"
    path.write_text(case.cell_text(), encoding="utf-8")
    commands = ("daisy", "fdl") if workload == "label-large" else ("verify",)
    return [Op(case, command, str(path)) for command in commands]


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


class Runner:
    """Runs operations, times them, and checks every output it produces."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.out = workdir / "out.json"
        self.dot = workdir / "out.dot"
        self.first_digest = {}
        self.attempted = 0
        self.failures = []

    def argv(self, op):
        if op.command == "verify":
            return ["verify", op.path, "-o", str(self.out)]
        return ["label", op.path, "--scheme", op.command,
                "--emit-dot", str(self.dot), "-o", str(self.out)]

    def run(self, op):
        """One timed operation; returns (seconds, output bytes)."""
        for stale in (self.out, self.dot):
            stale.unlink(missing_ok=True)
        argv = self.argv(op)
        gc.collect()  # every operation starts from the same collector state
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            took = time.perf_counter() - start
            self.fail(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return took, 0
        took = time.perf_counter() - start
        out = self.out.read_bytes() if self.out.exists() else b""
        dot = self.dot.read_bytes() if self.dot.exists() else b""
        key = (op.path, op.command)
        digest = hashlib.sha256(out + b"\0" + dot).hexdigest()
        if key not in self.first_digest:
            self.first_digest[key] = digest
            reason = self.check(op, rc, out, dot)
            if reason:
                self.fail(op, reason)
        elif digest != self.first_digest[key]:
            self.fail(op, "output bytes differ from the first pass")
        return took, len(out) + len(dot)

    @staticmethod
    def check(op, rc, out, dot):
        problem = checks.check_case(op.case)
        if problem:
            return problem
        try:
            if op.command == "verify":
                return checks.check_verify(rc, out, op.must_verify)
            return checks.check_label(rc, out, dot, op.command, op.case)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            return f"unreadable output: {exc!r}"

    def fail(self, op, reason):
        self.failures.append(f"{op.case.name} {op.command}: {reason}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def setup(lib, workload, seed, sizes, workdir, runner):
    """Generate inputs and warm up, SETUP_REPEATS times; returns the last
    inputs, the sampling record and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, stats = build_ops(lib, workload, seed, sizes, workdir)
        for op in warmup_ops(workload, workdir):
            runner.run(op)
        times.append(time.perf_counter() - start)
    return ops, stats, times


def timed_loop(runner, ops, seconds):
    """Cycle through the operations until ``seconds`` have passed, and at
    least once through all of them."""
    samples = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        took, _ = runner.run(op)
        samples.append((op, took))
        i += 1
    return samples


def end_to_end(runner, ops, seconds, setup_times):
    samples = timed_loop(runner, ops, seconds)
    times = [t for _, t in samples]
    deciles = statistics.quantiles(times, n=10)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (deciles[8], "s"),
        "matchings_per_s": (sum(op.case.n_matchings for op, _ in samples) / sum(times), "1/s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    above_p90 = sum(t > deciles[8] for t in times)
    notes = [f"samples={len(times)} above_p90={above_p90}"]
    return metrics, notes


def per_layer(runner, ops, seconds):
    """Alternate untraced and traced passes; per-layer numbers come from
    the traced passes, the overhead from comparing the two."""
    plain = traced = 0.0
    out_bytes = n_total = ops_traced = 0
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not ops_traced or time.perf_counter() < deadline:
        plain += sum(runner.run(op)[0] for op in ops)
        with tracer:
            for op in ops:
                took, size = runner.run(op)
                traced += took
                out_bytes += size
                n_total += op.case.n_matchings
                ops_traced += 1

    def share(busy):
        return (busy / traced, "ratio")

    def per_op(count):
        return (count / ops_traced, "count/op")

    counts, calls, incl = tracer.counts, tracer.calls, tracer.inclusive_s
    metrics = {f"{layer}.self_share": share(tracer.self_s[layer]) for layer in LAYERS}
    for key in (
        "cube_kit.is_median",
        "cube_kit.theta_classes",
        "cube_kit.is_daisy_cube",
        "decomposition.auto_rfd",
        "decomposition.verify_reducible_split",
        "decomposition.split_by_face",
        "plane_graph.edge_subgraph",
        "plane_graph.is_peripherally_two_colorable",
        "coding.daisy_labelling",
        "coding.fdl_labelling",
        "matchings.extremal_matchings",
    ):
        metrics[f"{key}_share"] = share(incl[key])
    for key in (
        "cube_kit.theta_classes",
        "plane_graph.build_plane_graph",
        "plane_graph.edge_subgraph",
        "resonance.build_resonance",
    ):
        metrics[f"{key}.calls"] = per_op(calls[key])
    pairs = counts["resonance_pairs"]
    metrics.update({
        "cube_kit.dist_tables": per_op(counts["dist_tables"]),
        "matchings.enumerated_per_n": (counts["matchings_enumerated"] / n_total, "ratio"),
        "resonance.pairs_tested": per_op(pairs),
        "resonance.edge_yield": (counts["resonance_edges"] / pairs if pairs else 0.0, "ratio"),
        "cli.output_bytes": (out_bytes / ops_traced, "bytes/op"),
        "plane_graph.all_cycles.cycles": per_op(counts["cycles"]),
        "matchings.subset_cache_hit_ratio": (
            counts["subset_hits"] / counts["subset_calls"] if counts["subset_calls"] else 0.0,
            "ratio",
        ),
        "trace.overhead_ratio": (traced / plain - 1.0, "ratio"),
        "trace.op_s_mean": (traced / ops_traced, "s"),
    })
    top = max(LAYERS, key=tracer.self_s.__getitem__)
    notes = [f"traced_ops={ops_traced} top_layer={top}"]
    return metrics, notes


def run_workload(lib, workload, seed, seconds, trace, sizes=Sizes()):
    """One benchmark run; returns the result object and human-readable notes."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(lib.cli, workdir)
        ops, stats, setup_times = setup(lib, workload, seed, sizes, workdir, runner)
        if trace:
            metrics, notes = per_layer(runner, ops, seconds)
        else:
            metrics, notes = end_to_end(runner, ops, seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"inputs={len(ops)} N={[op.case.n_matchings for op in ops]}")
    if stats is not None:
        notes.append(f"sampling {stats}")
    notes.append(f"fail_ratio={len(runner.failures) / runner.attempted!r}")
    notes.extend(f"FAILED {reason}" for reason in runner.failures[:20])
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, notes


def sweep(lib):
    """Regenerate the baseline table: theorem_report seconds on zigzag chains,
    untraced, with per-module shares from a second, traced call."""
    from rescube import decomposition

    rows = []
    print("| h | N | theorem_report s | traced s | top module shares |")
    print("|---|---|---|---|---|")
    for h in SWEEP_RINGS:
        cells = inputs.zigzag_cells(h)
        g = lib.build_benzenoid(cells)
        start = time.perf_counter()
        ok = decomposition.theorem_report(g)["ok"]
        plain = time.perf_counter() - start
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            decomposition.theorem_report(g)
            traced = time.perf_counter() - start
        shares = {layer: tracer.self_s[layer] / traced for layer in LAYERS}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        n = inputs.count_perfect_matchings(cells)
        print(f"| {h} | {n} | {plain:.2f} | {traced:.2f} | "
              + ", ".join(f"{k} {v:.0%}" for k, v in top) + " |")
        rows.append({"h": h, "N": n, "ok": ok, "theorem_report_s": plain, "shares": shares})
    print(json.dumps({"sweep": rows}))
    return 0 if all(r["ok"] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="ungated baseline table of theorem_report on zigzag chains")
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    lib = load_library()
    if args.sweep:
        return sweep(lib)
    result, notes = run_workload(lib, args.workload, args.seed, args.seconds, args.trace)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
