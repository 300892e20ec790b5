"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

TINY = run.Sizes(
    corpus_cells=4,
    large_h=5,
    large_random=2,
    large_band=(1, 10**6),
    large_tests=10,
    label_h=5,
    label_random_h=5,
    label_random=2,
    label_band=(1, 10**6),
    label_tests=10,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LIB = run.load_library()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_and_no_failures(workload, trace):
    result, notes = run.run_workload(LIB, workload, 7, 0.2, trace, TINY)
    assert result["failed"] == 0, notes
    assert result["correct"] is True
    assert f"fail_ratio={0.0!r}" in notes
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    first, _ = run.build_ops(LIB, "label-large", 3, TINY, tmp_path)
    again, _ = run.build_ops(LIB, "label-large", 3, TINY, tmp_path)
    assert [op.case for op in first] == [op.case for op in again]


def test_tracer_restores_every_binding(tmp_path):
    cells = tmp_path / "phenanthrene.txt"
    cells.write_text("0 0\n1 0\n1 1\n")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rescube"]
    before = [dict(vars(m)) for m in modules]
    classes = [LIB.PlaneGraph, LIB.MetricGraph, LIB.MatchingFamily]
    before_cls = [dict(vars(c)) for c in classes]
    with Tracer() as tracer:
        assert LIB.cli.main is not before[modules.index(LIB.cli)]["main"]
        assert LIB.cli.main(["verify", str(cells), "-o", str(tmp_path / "out.json")]) == 0
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == before_cls
    assert tracer.self_s["cube_kit"] > 0 and tracer.calls["cube_kit.theta_classes"] == 2
    assert set(tracer.self_s) == set(LAYERS)


def test_checks_reject_a_wrong_label(tmp_path):
    ops, _ = run.build_ops(LIB, "label-large", 1, TINY, tmp_path)
    op = next(o for o in ops if o.command == "daisy")
    runner = run.Runner(LIB.cli, tmp_path)
    runner.run(op)
    assert runner.failures == []
    out, dot = runner.out.read_bytes(), runner.dot.read_bytes()
    obj = json.loads(out)
    first = obj["labels"]["0"]
    obj["labels"]["0"] = ("1" if first[0] == "0" else "0") + first[1:]
    bad = json.dumps(obj).encode()
    assert checks.check_label(0, bad, dot, "daisy", op.case) is not None
    assert checks.check_label(0, out, dot, "fdl", op.case) is not None
    assert checks.check_verify(1, b"{}", False) == "exit code 1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
