"""The benchmark's own tests: smoke-size runs of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# end-to-end figures that the launcher prints for a single workload only
APPLIES_TO = {"shots_per_s": "distill-shots", "er_bound_bits": "er-bound"}


def launch(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_launcher():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = launch(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(build(workload, 3, "smoke"))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines[:-1] if " = " in line}
    expected = set(run.END_TO_END) | {"failed_frac"}
    expected |= {name for name, w in APPLIES_TO.items() if w == workload}
    assert printed == expected
    if trace:
        assert (HERE / "out" / f"spans-{workload}.jsonl").stat().st_size > 0


def test_tracer_restores_every_binding():
    import numpy as np

    import belldistill
    import belldistill.cli
    from spans import Tracer

    before = (belldistill.to_dense, belldistill.cli.to_dense, np.linalg.eigh,
              belldistill.DensityOperator.__post_init__, np.random.default_rng)
    tracer = Tracer()
    tracer.install()
    assert belldistill.cli.to_dense is belldistill.to_dense is not before[0]
    tracer.remove()
    after = (belldistill.to_dense, belldistill.cli.to_dense, np.linalg.eigh,
             belldistill.DensityOperator.__post_init__, np.random.default_rng)
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = launch("er-bound", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
