#!/usr/bin/env python3
"""Self-check of the benchmark on tiny shapes; no timing bounds.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps the shape and limits run.py relies on, that
rationale.json covers every workload and metric, and that for every
workload a quick run reports every end-to-end metric (--trace 0) and every
per-layer metric (--trace 1) with its unit. Each quick traced run is made
twice, and the computed counts must repeat exactly. Last, a copy holding
only BENCHMARK.json and perfbench/ must fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTS = ("autodiff.nodes_per_step", "autodiff.emitted_mb_per_step",
          "autodiff.useful_emit_frac", "trainer.pickled_mb_per_trial")


def check_spec(spec: dict, rationale: dict) -> list[str]:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            names.append(m["name"])
            keys = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
                errors.append(f"{section} entry {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']} is {m['bound']}")
    errors += [f"bad or repeated name {n!r}" for n in names
               if not NAME.fullmatch(n) or names.count(n) > 1]
    if not 2 <= len(spec["workloads"]) <= 8 or any(
            set(w) != {"name", "why"} or len(w["why"]) > 200 for w in spec["workloads"]):
        errors.append("workloads must be 2 to 8 entries of a name and a why of at most 200 characters")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must be in seconds, lower is better, with the largest bound")
    missing = set(w["name"] for w in spec["workloads"]) - set(rationale["workloads"])
    missing |= set(m["name"] for m in spec["end_to_end"]) - set(rationale["end_to_end"])
    predicted = {p["metric"] for p in rationale["predictions"]}
    for m in spec["per_layer"]:
        base = re.sub(r"\.p(50|90)$", "", m["name"])
        if m["name"] not in predicted and base + ".p50" not in predicted \
                and not m["name"].startswith(("trace.", "trainer.steps_traced")) \
                and not m["name"].endswith(".self_s"):
            missing.add(m["name"])
    errors += [f"rationale.json has no entry for {n}" for n in sorted(missing)]
    return errors


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((HERE / "rationale.json").read_text())
    errors = check_spec(spec, rationale)
    for w in spec["workloads"]:
        counts = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, out = run(w["name"], trace)
            result = json.loads(out.splitlines()[-1]) if out.strip() else {}
            if code != 0 or not result.get("correct"):
                errors.append(f"{w['name']} --trace {trace}: exit {code}, {out[-300:]!r}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            if got != want:
                errors.append(f"{w['name']} --trace {trace}: metrics/units differ: "
                              f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
        if len(counts) == 2 and counts[0] != counts[1]:
            errors.append(f"{w['name']}: counts differ between runs: {counts}")
        print(f"{w['name']}: checked", flush=True)

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, out = run(spec["workloads"][0]["name"], 0, cwd=bare)
    if code == 0 or out.strip():
        errors.append(f"a copy without the sources exited {code} and printed {out[-200:]!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"SELFCHECK FAILED: {e}")
    print("selfcheck passed" if not errors else f"selfcheck: {len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
