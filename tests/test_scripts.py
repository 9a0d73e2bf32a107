"""The experiment scripts, run as a user runs them, at tiny shapes."""

import os
import subprocess
import sys
from pathlib import Path

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
