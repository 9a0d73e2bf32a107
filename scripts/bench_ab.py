#!/usr/bin/env python3
"""A/B benchmark: a parent commit against the working tree, in alternating pairs.

    python scripts/bench_ab.py --out BENCH_6.json --pairs 10 --parent HEAD~1
    python scripts/bench_ab.py --out BENCH_9.json --pairs 10 --parent HEAD~1 --trace

The parent commit (--parent, default HEAD) is exported with `git archive`
into a temporary directory. For every workload, pair k = 1..pairs runs
`perfbench/run.py --seed k` once from the parent's copy and
once from the working tree, each with its own perfbench; the side that
runs first alternates from pair to pair, so a drifting host speed falls on
both sides alike. The JSON written to --out holds, per workload and end-to-end
metric, each side's values, median and interquartile range, the number of
pairs the change won, and whether the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json; plus both
SHAs, each side's environment block and whether both sides ran the same
source (`same_source`, from the env blocks' `src_sha256`; a warning is
printed when they did, as when --parent is HEAD and the working tree is
clean). With --trace, each side also makes one traced run per workload
(`perfbench/run.py --trace 1 --seed 1`), and the workload's `per_layer`
entry holds each per-layer metric of BENCHMARK.json for both sides with
its relative change; without it `per_layer` is null. Exit code 0 means
every run passed its checks and no metric was flagged.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    # Extraction filters exist from Python 3.10.12 and 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest, **safe)


def run_once(root: Path, workload: str, seed: int, seconds: float, quick: bool,
             trace: int = 0) -> dict:
    """One perfbench/run.py call from `root`: its env block, checks and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    env, result = None, {}
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "env" in obj and env is None:
            env = obj["env"]
        elif isinstance(obj, dict) and "correct" in obj:
            result = obj
    ok = proc.returncode == 0 and result.get("correct", False)
    return {
        "seed": seed,
        "ok": ok,
        "attempted": result.get("attempted", 1),
        "failed": result.get("failed", 1),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()} if ok else {},
        "env": env,
        "stderr_tail": "" if ok else proc.stderr[-500:],
    }


def spread(values: list[float]) -> dict:
    if not values:
        return {"values": [], "median": None, "iqr": None}
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (values[0],) * 3)
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def relative(base, new):
    return None if base in (None, 0) or new is None else (new - base) / abs(base)


def compare(spec: dict, runs: dict) -> dict:
    """Per-metric summary of one workload's pairs."""
    out = {}
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p["ok"] and c["ok"]]
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name] for r in runs[side] if r["ok"]] for side in SIDES}
        summary = {side: spread(vals[side]) for side in SIDES}
        wins = sum((c["metrics"][name] < p["metrics"][name]) if lower
                   else (c["metrics"][name] > p["metrics"][name]) for p, c in pairs)
        base, new = summary["parent"]["median"], summary["change"]["median"]
        rel = relative(base, new)
        worse = rel is not None and (rel > m["bound"] if lower else -rel > m["bound"])
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **summary,
                     "rel_change": rel, "wins": wins, "pairs": len(pairs),
                     "worse_beyond_bound": worse}
    return out


def per_layer(spec: dict, traced: dict) -> dict:
    """Both sides' values of every per-layer metric, from one traced run each."""
    out = {"ok": {side: traced[side]["ok"] for side in SIDES}, "seed": traced["parent"]["seed"],
           "metrics": {}}
    for m in spec["per_layer"]:
        vals = {side: traced[side]["metrics"].get(m["name"]) for side in SIDES}
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"], **vals,
                                     "rel_change": relative(vals["parent"], vals["change"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=5, help="alternating pairs per workload")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--quick", action="store_true", help="tiny shapes; checks the plumbing only")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per side and workload for per-layer metrics")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    parent_sha = git("rev-parse", args.parent).decode().strip()
    report = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"sha": git("rev-parse", "HEAD").decode().strip(),
                   "dirty": bool(git("status", "--porcelain").strip())},
        "pairs": args.pairs, "seconds": seconds, "quick": args.quick,
        "workloads": {},
    }
    seeds = range(1, args.pairs + 1)
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(parent_sha, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for k, seed in enumerate(seeds):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    run = run_once(roots[side], workload, seed, seconds, args.quick)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: {'ok' if run['ok'] else 'FAILED'}",
                          file=sys.stderr, flush=True)
            env = {side: next((r["env"] for r in runs[side] if r["env"]), None) for side in SIDES}
            same = None if None in env.values() else (
                env["parent"]["src_sha256"] == env["change"]["src_sha256"])
            if same:
                print(f"warning: {workload}: parent and change ran the same source",
                      file=sys.stderr)
            traced = None
            if args.trace:
                traced = {side: run_once(roots[side], workload, 1, seconds, args.quick, trace=1)
                          for side in SIDES}
                for side, run in traced.items():
                    print(f"{workload} traced {side}: {'ok' if run['ok'] else 'FAILED'}",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "seeds": list(seeds), "env": env, "same_source": same,
                "per_layer": None if traced is None else per_layer(spec, traced),
                "failed_runs": {side: sum(not r["ok"] for r in runs[side]) for side in SIDES},
                "metrics": compare(spec, runs),
                "runs": {side: [{k: v for k, v in r.items() if k != "env"} for r in runs[side]]
                         for side in SIDES},
            }
    report["flagged"] = [f"{w}/{name}" for w, entry in report["workloads"].items()
                         for name, m in entry["metrics"].items() if m["worse_beyond_bound"]]
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(n for entry in report["workloads"].values() for n in entry["failed_runs"].values())
    failed += sum(not ok for entry in report["workloads"].values() if entry["per_layer"]
                  for ok in entry["per_layer"]["ok"].values())
    print(f"wrote {args.out}: {failed} failed run(s), flagged {report['flagged'] or 'nothing'}",
          file=sys.stderr)
    return 0 if not failed and not report["flagged"] else 1


if __name__ == "__main__":
    sys.exit(main())
