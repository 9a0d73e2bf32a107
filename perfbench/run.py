#!/usr/bin/env python3
"""cvnet benchmark: one run of one workload.

    python3 perfbench/run.py --workload full-complex --seed 1 --seconds 10 --trace 0

Workloads are listed in BENCHMARK.json and defined in perfbench/protocols.py.
With --trace 0 the run reports every end-to-end metric of BENCHMARK.json;
with --trace 1 it reports every per-layer metric from a traced run. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

This launcher imports no numpy. It starts the workload in a child process
whose environment pins BLAS to one thread per process, samples the
resident memory of the child's process tree, and checks that the child
reported every metric with its unit. The exit code is 0 only when
every output check passed; a run that fails prints no metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
from pathlib import Path

import protocols

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170.0
SAMPLE_S = 0.05


def process_tree(pid: int) -> list[int]:
    """pid and its live descendants, parents first."""
    tree, stack = [], [pid]
    while stack:
        p = stack.pop()
        tree.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return tree


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of pid and its descendants (shared pages count per process)."""
    total = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total


class RssSampler(threading.Thread):
    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_S):
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.pid))


def expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one run of one cvnet benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(protocols.PROTOCOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny shapes; for the self-check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cvnet" / "__init__.py").is_file():
        print(f"no cvnet sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    units = expected_metrics(args.trace)

    # One BLAS thread per process: a search runs one trial per core, so
    # BLAS threads x workers stays within the CPUs, and a single-threaded
    # trial is what the sweep's trial-hours are made of. On a shared host it
    # is also far steadier than two threads that wait on each other.
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # No transparent huge pages for numpy's arrays: whether the kernel can
    # supply them depends on how fragmented the host's memory is, and with
    # them peak memory jumped between ~770 and ~900 MB from run to run.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")

    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sampler = RssSampler(child.pid)
    sampler.start()
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The whole tree: killed alone, the child would leave its pool workers running.
        for p in process_tree(child.pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(p, signal.SIGKILL)
        child.communicate()
        print(f"workload did not finish within {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        sampler.done.set()
        sampler.join()

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"workload exited with {child.returncode} without a result", file=sys.stderr)
        return 4
    if child.returncode != 0 or not result["correct"]:
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": {}}))
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        # The kernel's high-water mark of the largest process, or the sampled
        # sum over the tree when pool workers ran side by side.
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = max(child_kb, sampler.peak_kb) / 1024
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"workload did not report {missing}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"] + 1, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
