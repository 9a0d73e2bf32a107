"""The experiment scripts, run as a user runs them, at tiny shapes."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cvnet
from cvnet import complex_ops

ROOT = Path(__file__).resolve().parents[1]


SCRIPT = ROOT / "scripts" / "run_protocol.py"


def _env():
    src = str(Path(cvnet.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_protocol(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          env=_env(), capture_output=True, text=True, timeout=300)


TINY = ["--train", 20, "--val", 10, "--test", 10, "--epochs", 2, "--trials", 2,
        "--batch-size", 10]


@pytest.mark.parametrize("protocol, kinds, hidden, filter_rows", [
    ("desk", ["sawtooth"], 4, {"0", "1", "2"}),
    ("full", ["sawtooth", "inharmonic-analytic"], 4, {"0", "1", "2"}),
    ("desk", ["sawtooth"], 2, {"0", "1"}),  # fewer hidden units than the three filters
], ids=["desk", "full", "hidden-2"])
def test_protocol_output_layout(tmp_path, protocol, kinds, hidden, filter_rows):
    out = tmp_path / protocol
    extra = ["--kinds", *kinds] if protocol == "full" else []
    proc = _run_protocol("--protocol", protocol, "--out", out, *TINY, "--hidden", hidden, *extra)
    assert proc.returncode == 0, proc.stderr
    search = ["best_model.cvnn", "search.csv", "trial_000.csv", "trial_001.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(kinds)
    for kind in kinds:
        assert sorted(p.name for p in (out / kind).iterdir()) == [
            "complex", "data.cvds", "filters_complex.csv", "filters_real.csv", "real"
        ]
        for field in ("complex", "real"):
            assert sorted(p.name for p in (out / kind / field).iterdir()) == search
            rows = (out / kind / field / "search.csv").read_text().strip().splitlines()
            assert len(rows) == 3
            filters = (out / kind / f"filters_{field}.csv").read_text().strip().splitlines()
            assert {row.split(",")[0] for row in filters[1:]} == filter_rows
            assert f"[{kind}/{field}] search took" in proc.stdout
    assert proc.stdout.count("baseline=") == proc.stdout.count("test_mse=") == 2 * len(kinds)


@pytest.mark.skipif(complex_ops._blas_set_num_threads() is None,
                    reason="numpy's BLAS exports no OpenBLAS set_num_threads entry point, "
                           "so cvnet leaves its thread count to the library")
@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "caller-set"])
def test_protocol_pins_blas_to_one_thread_unless_the_caller_set_it(preset):
    # The script sets nothing itself: the rule comes with cvnet's import.
    # Each process prints the thread count OpenBLAS runs, read through the
    # getter named like cvnet's setter; the second never imports cvnet.
    env = {k: v for k, v in _env().items() if k not in complex_ops.BLAS_THREAD_VARS}
    if preset:
        env.update(dict.fromkeys(complex_ops.BLAS_THREAD_VARS, preset))
    getter = complex_ops._blas_set_num_threads().__name__.replace("set_num", "get_num")
    count = ("import ctypes, numpy; print(getattr(ctypes.CDLL("
             f"numpy._core._multiarray_umath.__file__), {getter!r})())")
    counts = []
    for prelude in (f"import runpy; runpy.run_path({str(SCRIPT)!r}); ", ""):
        proc = subprocess.run([sys.executable, "-c", prelude + count], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    with_script, library_default = counts
    assert with_script == (library_default if preset else 1)


def _cvnet(*args, env):
    code = "import sys; from cvnet.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one core: OpenBLAS caps a thread variable at the core count, "
                           "so no setting runs two threads")
@pytest.mark.skipif(complex_ops._blas_set_num_threads() is None,
                    reason="numpy's BLAS exports no OpenBLAS set_num_threads entry point, "
                           "so cvnet leaves its thread count to the library")
def test_blas_runs_one_thread_unless_the_caller_set_a_thread_variable(tmp_path):
    # The shape of ROADMAP's "The BLAS thread count changes output bits",
    # where one BLAS thread gives other bytes than two.
    env = {k: v for k, v in _env().items() if k not in complex_ops.BLAS_THREAD_VARS}
    data = tmp_path / "data.cvds"
    proc = _cvnet("gen", "--kind", "sawtooth", "--train", 1000, "--val", 200, "--test", 0,
                  "--seed", 2024, "--out", data, env=env)
    assert proc.returncode == 0, proc.stderr

    def search(jobs, **blas):
        out = tmp_path / f"jobs{jobs}_{blas.get('OPENBLAS_NUM_THREADS', 'unset')}"
        proc = _cvnet("search", "--data", data, "--field", "complex", "--hidden", 128,
                      "--batch-size", 500, "--trials", 2, "--epochs", 2, "--seed", 6,
                      "--jobs", jobs, "--out", out, env=dict(env, **blas))
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    one_thread = search(1, OPENBLAS_NUM_THREADS="1")
    assert len(one_thread) == 4
    assert search(1) == one_thread
    assert search(2) == one_thread
    assert search(1, OPENBLAS_NUM_THREADS="2") != one_thread  # the caller's value wins


def test_protocol_table_holds_the_paper_and_desk_protocols():
    protocols = runpy.run_path(str(SCRIPT))["PROTOCOLS"]
    assert protocols["full"] == dict(
        seed=1, kinds=["sawtooth", "sawtooth-analytic", "inharmonic", "inharmonic-analytic"],
        train=10000, val=1000, test=1000, hidden=256, epochs=1000, batch_size=1000, trials=100)
    assert protocols["desk"] == dict(
        seed=42, kinds=["sawtooth"], train=500, val=200, test=200, hidden=32, epochs=200,
        batch_size=250, trials=10)


@pytest.mark.parametrize("args", [
    ["--protocol", "desk", "--jobs", "0"],
    ["--protocol", "desk", "--trials", "0"],
    ["--protocol", "paper"],
    ["--jobs", "2"],
    ["--protocol", "desk", "--out", "/dev/null/out"],
    ["--protocol", "desk", "--seed", str(2**64 - 1)],
    ["--protocol", "desk", "--test", "0"],
    ["--protocol", "desk", "--val", "0"],
    ["--protocol", "desk", "--train", "0"],
], ids=["jobs-0", "trials-0", "unknown-protocol", "no-protocol", "out-not-a-directory",
        "search-seed-past-u64", "test-0", "val-0", "train-0"])
def test_protocol_usage_error_is_one_line(tmp_path, args):
    proc = _run_protocol("--out", tmp_path / "out", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("run_protocol.py: error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_bench_ab_without_pairs_is_a_usage_error(tmp_path, pairs):
    # An empty report would read as a pass, so no pairs is refused up front.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), "--out", str(out),
         "--pairs", pairs], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"bench_ab.py: error: argument --pairs: must be >= 1, got {pairs}"]
    assert not out.exists()


def test_bench_ab_unknown_workload_is_a_usage_error(tmp_path):
    # Checked before the parent is exported; perfbench would fail every run.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), "--out", str(out),
         "--workloads", "full-real", "full-imaginary"], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "bench_ab.py: error: argument --workloads: unknown workload 'full-imaginary' "
        "(choose from full-complex, full-real, desk-search)"]
    assert not out.exists()


@pytest.mark.parametrize("parent, change, unresolved", [
    ([10, 10, 10, 10], [10.5, 10.5, 10.5, 10.5], False),
    ([8, 10, 12, 14], [10, 11, 12, 13], True),
    ([8, 10, 12, 14], [1, 2, 3, 4], False),
], ids=["parent-steady", "parent-spread-wider-than-bound", "change-beats-every-parent-run"])
def test_bench_ab_marks_unresolved_metrics(parent, change, unresolved):
    # The parent's IQR (3 of median 11 in the spread cases) against the 25% bound.
    compare = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))["compare"]
    spec = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    runs = {side: [{"ok": True, "metrics": {"run_s": v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    assert compare(spec, runs)["run_s"]["unresolved"] is unresolved


@pytest.mark.parametrize("better, parent, change, met", [
    ("lower", [10] * 10, [8] * 10, True),
    ("lower", [10] * 10, [8] * 8 + [10, 12], False),
    ("lower", [10] * 10, [8] * 9 + [10], True),
    ("lower", [9.5, 10, 13, 14] * 2 + [11, 11], [9] * 10, False),
    ("higher", [10] * 10, [12] * 9 + [9], True),
    ("higher", [10] * 10, [8] * 10, False),
    ("lower", [10] * 9, [8] * 9, False),
], ids=["all-pairs-won", "eight-of-ten", "nine-of-ten-and-a-tie", "gap-inside-parent-iqr",
        "higher-nine-of-ten", "higher-worse", "nine-pairs-all-won"])
def test_bench_ab_claim_rule(better, parent, change, met):
    # At least ten pairs, nine tenths of them won (a tie wins neither side)
    # and a median gap wider than the parent's IQR.
    script = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))
    spec = {"end_to_end": [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]}
    runs = {side: [{"ok": True, "metrics": {"m": v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    verdict = script["claim"](script["compare"](spec, runs)["m"], len(parent))
    assert verdict["met"] is met and verdict["pairs"] == len(parent)


@pytest.mark.parametrize("parent, change, unresolved", [
    ([10, 11, 12], [13, 14, 15], False),
    ([10, 11, 12], [7, 8, 9.5], False),
    ([10, 11, 12], [12, 13, 14], True),
    ([10, 11, 14], [12, 12.5, 13], True),
    ([10, 11, 12], [], True),
], ids=["change-above", "change-below", "ranges-touch", "range-inside", "change-missing"])
def test_bench_ab_per_layer_unresolved_when_ranges_overlap(parent, change, unresolved):
    per_layer = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))["per_layer"]
    spec = {"per_layer": [{"name": "nn.val_ms", "unit": "ms", "better": "lower"}]}
    traced = {side: [{"seed": seed, "ok": True, "metrics": {"nn.val_ms": v}}
                     for seed, v in zip((1, 2, 3), values)]
              for side, values in (("parent", parent), ("change", change))}
    entry = per_layer(spec, traced)["metrics"]["nn.val_ms"]
    assert entry["unresolved"] is unresolved
    assert entry["parent"] == {"values": parent, "median": 11, "min": 10, "max": max(parent)}
    if change:
        assert entry["rel_change"] == pytest.approx((sorted(change)[1] - 11) / 11)


def test_bench_ab_report_schema(tmp_path):
    # One quick pair and three traced runs per side on one workload; only
    # the report's shape is checked.
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout to export the parent from")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ab.py"), "--out", str(out),
         "--workloads", "full-real", "--pairs", "1", "--seconds", "0", "--quick", "--trace",
         "--claim", "full-real/setup_s"],
        capture_output=True, text=True, timeout=600,
    )
    assert out.exists(), proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"parent", "change", "pairs", "seconds", "quick", "workloads",
                           "flagged", "unresolved", "claim"}
    assert all(len(report[side]["sha"]) == 40 for side in ("parent", "change"))
    files = sorted(str(p) for p in (ROOT / "src" / "cvnet").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout
    assert report["change"]["src_lines"] == int(wc.split()[-2])  # the "N total" line
    assert isinstance(report["parent"]["src_lines"], int) and report["parent"]["src_lines"] > 0
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
                "worse_beyond_bound", "unresolved"} <= set(m)
        assert m["pairs"] == 1 and 0 <= m["wins"] <= 1
        # one run per side has no spread, so no metric is unresolved
        assert m["unresolved"] is False
        for side in ("parent", "change"):
            assert set(m[side]) == {"values", "median", "iqr"} and len(m[side]["values"]) == 1
    assert entry["per_layer"]["seeds"] == [1, 2, 3]
    assert entry["per_layer"]["failed_runs"] == {"parent": 0, "change": 0}, proc.stderr
    layer = entry["per_layer"]["metrics"]
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for m in layer.values():
        assert set(m) == {"unit", "better", "parent", "change", "rel_change", "unresolved"}
        assert isinstance(m["unresolved"], bool)
        for side in ("parent", "change"):
            assert set(m[side]) == {"values", "median", "min", "max"}
            assert len(m[side]["values"]) == 3
            assert all(isinstance(v, (int, float)) for v in m[side]["values"])
            assert m[side]["min"] <= m[side]["median"] <= m[side]["max"]
    assert isinstance(report["flagged"], list)
    assert report["unresolved"] == []
    setup = entry["metrics"]["setup_s"]
    assert report["claim"] == {
        "workload": "full-real", "metric": "setup_s", "wins": setup["wins"], "pairs": 1,
        "parent_median": setup["parent"]["median"], "change_median": setup["change"]["median"],
        "parent_iqr": 0.0, "met": False}  # one pair never meets a claim
