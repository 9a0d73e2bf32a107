#!/usr/bin/env python3
"""A/B benchmark: a parent commit against the working tree, in alternating pairs.

    python scripts/bench_ab.py --out BENCH_6.json --parent HEAD~1
    python scripts/bench_ab.py --out BENCH_9.json --parent HEAD~1 --trace

The parent commit (--parent, default HEAD) is exported with `git archive`
into a temporary directory. For every workload, pair k = 1..pairs runs
`perfbench/run.py --seed k` once from the parent's copy and
once from the working tree, each with its own perfbench; the side that
runs first alternates from pair to pair, so a drifting host speed falls on
both sides alike. The JSON written to --out holds, per workload and end-to-end
metric, each side's values, median and interquartile range, the number of
pairs the change won, whether the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json, and whether
the metric is unresolved: the parent's IQR exceeds the bound times its
|median| and not every change run beats every parent run. The report lists
the flagged and the unresolved metrics as workload/metric; plus both
SHAs, each side's source size (`src_lines`, the total that `wc -l
src/cvnet/*.py` prints), each side's environment block and whether both
sides ran the same source (`same_source`, from the env blocks'
`src_sha256`; a warning is printed when they did, as when --parent is
HEAD and the working tree is clean). With --trace, each side also makes
three traced runs per workload (`perfbench/run.py --trace 1`), at seeds
1-3 in alternating order like the pairs, and the workload's `per_layer`
entry holds each per-layer metric of BENCHMARK.json with each side's
values, median, min and max, the relative change of the medians, and
whether it is unresolved: the two sides' ranges overlap, since one traced
run's reading moved by up to half on unchanged code (BENCH_17.json).
Without --trace, `per_layer` is null. With --claim WORKLOAD/METRIC,
`claim` holds the gain rule every performance claim is judged by: the
change's wins, the pairs run, both medians, the parent's IQR and `met`,
which is true when at least ten pairs ran, the change wins at least nine
tenths of them (ties count for neither) and its median is better than
the parent's by more than the parent's IQR; fewer pairs never meet a
claim, whatever they show. Without --claim, `claim` is null. Exit code 0
means every run passed its checks (traced runs included) and no metric
was flagged; an unresolved metric does not change it.
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
TRACE_SEEDS = (1, 2, 3)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    # Extraction filters exist from Python 3.10.12 and 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest, **safe)


def src_lines(root: Path) -> int:
    """Newline count of root/src/cvnet/*.py, the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "cvnet").glob("*.py"))


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


def run_alternating(roots: dict, workload: str, seeds, seconds: float, quick: bool,
                    trace: int = 0) -> dict:
    """{side: runs}, one run per side and seed; the side that runs first alternates."""
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            run = run_once(roots[side], workload, seed, seconds, quick, trace)
            runs[side].append(run)
            print(f"{workload} {'traced ' if trace else ''}seed {seed} {side}: "
                  f"{'ok' if run['ok'] else 'FAILED'}", file=sys.stderr, flush=True)
    return runs


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
        # The parent's own spread is wider than the bound: no change within
        # the bound can be told apart, unless every change run beats every
        # parent run.
        noisy = base is not None and summary["parent"]["iqr"] > m["bound"] * abs(base)
        separated = bool(vals["change"] and vals["parent"]) and (
            max(vals["change"]) < min(vals["parent"]) if lower
            else min(vals["change"]) > max(vals["parent"]))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **summary,
                     "rel_change": rel, "wins": wins, "pairs": len(pairs),
                     "worse_beyond_bound": worse, "unresolved": noisy and not separated}
    return out


def claim(metric: dict, pairs: int) -> dict:
    """The gain rule for one compare() entry; a pair that failed counts as lost.

    Fewer than ten pairs never meet it: the rule asks for at least ten.
    """
    base, new = metric["parent"]["median"], metric["change"]["median"]
    iqr = metric["parent"]["iqr"]
    gap = None if None in (base, new) else (base - new if metric["better"] == "lower" else new - base)
    return {"wins": metric["wins"], "pairs": pairs, "parent_median": base, "change_median": new,
            "parent_iqr": iqr,
            "met": pairs >= 10 and metric["wins"] >= 0.9 * pairs and gap is not None and gap > iqr}


def per_layer(spec: dict, traced: dict) -> dict:
    """Both sides' values of every per-layer metric over their traced runs.

    A metric is unresolved when the sides' [min, max] ranges overlap, or a
    side has no value.
    """
    out = {"seeds": [r["seed"] for r in traced["parent"]],
           "failed_runs": {side: sum(not r["ok"] for r in traced[side]) for side in SIDES},
           "metrics": {}}
    for m in spec["per_layer"]:
        vals = {side: [r["metrics"][m["name"]] for r in traced[side]
                       if r["metrics"].get(m["name"]) is not None] for side in SIDES}
        summary = {side: {"values": v, "median": statistics.median(v) if v else None,
                          "min": min(v, default=None), "max": max(v, default=None)}
                   for side, v in vals.items()}
        p, c = summary["parent"], summary["change"]
        overlap = not (vals["parent"] and vals["change"]) or (
            p["min"] <= c["max"] and c["min"] <= p["max"])
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"], **summary,
                                     "rel_change": relative(p["median"], c["median"]),
                                     "unresolved": overlap}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--quick", action="store_true", help="tiny shapes; checks the plumbing only")
    ap.add_argument("--trace", action="store_true",
                    help="add three traced runs per side and workload for per-layer metrics")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="judge a claimed gain on this end-to-end metric by the 9-of-10 rule")
    args = ap.parse_args(argv)
    if args.pairs < 1:  # an empty report would read as a pass
        ap.exit(2, f"{ap.prog}: error: argument --pairs: must be >= 1, got {args.pairs}\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workloads or []:  # else every run would fail after the export
        if name not in known:
            ap.exit(2, f"{ap.prog}: error: argument --workloads: unknown workload {name!r} "
                       f"(choose from {', '.join(known)})\n")
    workloads = args.workloads or known
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in workloads or metric not in {m["name"] for m in spec["end_to_end"]}:
            ap.exit(2, f"{ap.prog}: error: argument --claim: {args.claim!r} is not a run "
                       "workload/end-to-end metric\n")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    parent_sha = git("rev-parse", args.parent).decode().strip()
    report = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"sha": git("rev-parse", "HEAD").decode().strip(),
                   "dirty": bool(git("status", "--porcelain").strip()),
                   "src_lines": src_lines(ROOT)},
        "pairs": args.pairs, "seconds": seconds, "quick": args.quick,
        "workloads": {}, "claim": None,
    }
    seeds = range(1, args.pairs + 1)
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(parent_sha, parent_root)
        report["parent"]["src_lines"] = src_lines(parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in workloads:
            runs = run_alternating(roots, workload, seeds, seconds, args.quick)
            env = {side: next((r["env"] for r in runs[side] if r["env"]), None) for side in SIDES}
            same = None if None in env.values() else (
                env["parent"]["src_sha256"] == env["change"]["src_sha256"])
            if same:
                print(f"warning: {workload}: parent and change ran the same source",
                      file=sys.stderr)
            traced = (run_alternating(roots, workload, TRACE_SEEDS, seconds, args.quick, trace=1)
                      if args.trace else None)
            report["workloads"][workload] = {
                "seeds": list(seeds), "env": env, "same_source": same,
                "per_layer": None if traced is None else per_layer(spec, traced),
                "failed_runs": {side: sum(not r["ok"] for r in runs[side]) for side in SIDES},
                "metrics": compare(spec, runs),
                "runs": {side: [{k: v for k, v in r.items() if k != "env"} for r in runs[side]]
                         for side in SIDES},
            }
    for key, field in (("flagged", "worse_beyond_bound"), ("unresolved", "unresolved")):
        report[key] = [f"{w}/{name}" for w, entry in report["workloads"].items()
                       for name, m in entry["metrics"].items() if m[field]]
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        report["claim"] = {"workload": workload, "metric": metric,
                           **claim(report["workloads"][workload]["metrics"][metric], args.pairs)}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(n for entry in report["workloads"].values() for n in entry["failed_runs"].values())
    failed += sum(n for entry in report["workloads"].values() if entry["per_layer"]
                  for n in entry["per_layer"]["failed_runs"].values())
    print(f"wrote {args.out}: {failed} failed run(s), flagged {report['flagged'] or 'nothing'}, "
          f"unresolved {report['unresolved'] or 'nothing'}"
          + ("" if report["claim"] is None else f", claim met: {report['claim']['met']}"),
          file=sys.stderr)
    return 0 if not failed and not report["flagged"] else 1


if __name__ == "__main__":
    sys.exit(main())
