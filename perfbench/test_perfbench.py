"""Self-test of the benchmark: coarse runs of every workload in both modes.

Each run stops after a few levels (``--coarse``), so the whole module takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import workload  # noqa: E402


def _run(cwd, name, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--coarse"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_coarse_run_prints_every_metric(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "poisson_cost", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def _rows():
    # two levels of a plausible multigoal levels.csv, as strings
    goals = workload.WORKLOADS["plaplace_multigoal"].references
    row = {"level": "0", "dofs_total": "1700", "eta_h2": "0.5", "goal_combined": "0.3",
           "i_eff": "0.9", "i_eff_p": "0.8", "i_eff_a": "1.0", "newton_its_low": "4"}
    row.update({k: "0.1" for k in ("rho_u", "rho_q", "rho_z", "rho_v", "rho_p")})
    row["rho_y"] = "0.5"
    row.update({f"goal_{g}_reldev": "0.1" for g in goals})
    return [dict(row, dofs_total="1000"), dict(row, level="1", newton_its_low="1")]


def test_checks_pass_on_consistent_rows():
    checks = workload.check_levels("plaplace_multigoal", _rows(), coarse=True)
    assert all(ok for _, ok, _ in checks), checks


@pytest.mark.parametrize("column, value, check", [
    ("rho_y", "0.5000001", "half_sum_identity"),
    ("i_eff_a", "1.0000001", "i_eff_mean_identity"),
    ("goal_combined", "0.05", "combined_dominates_each_goal"),
    ("newton_its_low", "4", "low_newton_at_most_3_from_level_1"),
    ("dofs_total", "900", "stops_on_dof_target"),
])
def test_checks_catch_a_broken_level(column, value, check):
    rows = _rows()
    rows[-1][column] = value
    failed = [n for n, ok, _ in workload.check_levels("plaplace_multigoal", rows, coarse=True)
              if not ok]
    assert failed == [check]
