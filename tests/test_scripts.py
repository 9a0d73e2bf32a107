"""The experiment scripts, run as a user runs them, at tiny shapes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvnet

ROOT = Path(__file__).resolve().parents[1]


def test_desk_scale_output_layout(tmp_path):
    src = str(Path(cvnet.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "desk"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_scale.py"), "--out", str(out),
         "--train", "20", "--val", "10", "--test", "10", "--hidden", "4",
         "--epochs", "2", "--trials", "2", "--batch-size", "10"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    search = ["best_model.cvnn", "search.csv", "trial_000.csv", "trial_001.csv"]
    assert sorted(p.name for p in out.iterdir()) == [
        "complex", "data.cvds", "filters_complex.csv", "real"
    ]
    for field in ("complex", "real"):
        assert sorted(p.name for p in (out / field).iterdir()) == search
        rows = (out / field / "search.csv").read_text().strip().splitlines()
        assert len(rows) == 3
    assert "results in" in proc.stdout


def test_bench_ab_report_schema(tmp_path):
    # One quick pair and one traced run per side on one workload; only the
    # report's shape is checked.
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout to export the parent from")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), "--out", str(out),
         "--workloads", "full-real", "--pairs", "1", "--seconds", "0", "--quick", "--trace"],
        capture_output=True, text=True, timeout=600,
    )
    assert out.exists(), proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"parent", "change", "pairs", "seconds", "quick", "workloads",
                           "flagged"}
    assert all(len(report[side]["sha"]) == 40 for side in ("parent", "change"))
    entry = report["workloads"]["full-real"]
    assert set(entry) == {"seeds", "env", "same_source", "per_layer", "failed_runs", "metrics",
                          "runs"}
    assert isinstance(entry["same_source"], bool)
    assert entry["failed_runs"] == {"parent": 0, "change": 0}, proc.stderr
    assert all(entry["env"][side]["workload"] == "full-real" for side in ("parent", "change"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in entry["metrics"].values():
        assert {"unit", "better", "bound", "parent", "change", "rel_change", "wins", "pairs",
                "worse_beyond_bound"} <= set(m)
        assert m["pairs"] == 1 and 0 <= m["wins"] <= 1
        for side in ("parent", "change"):
            assert set(m[side]) == {"values", "median", "iqr"} and len(m[side]["values"]) == 1
    assert entry["per_layer"]["ok"] == {"parent": True, "change": True}, proc.stderr
    layer = entry["per_layer"]["metrics"]
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for m in layer.values():
        assert set(m) == {"unit", "better", "parent", "change", "rel_change"}
        assert all(isinstance(m[side], (int, float)) for side in ("parent", "change"))
    assert isinstance(report["flagged"], list)
