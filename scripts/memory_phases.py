#!/usr/bin/env python3
"""Peak resident memory of each phase of a full-scale benchmark run.

    python scripts/memory_phases.py --workload full-complex
    python scripts/memory_phases.py --workload full-real --quick

Runs the phases of perfbench's FullTrial in this process, as
perfbench/workloads.py runs them: set-up (data generation and views),
two training calls, then the export tail after the same garbage
collection and heap release. A thread samples this process's VmRSS every
2 ms, and the script prints one JSON object whose `peak_rss_mb` maps each
phase (setup, pass0, pass1, tail) to the largest sample taken during it.
Its `step` object gives tracemalloc's view of one training step at the
workload's shapes, taken after the tail on the first batch of the same
data: the MB a `forward_loss` still holds when it returns
(`held_after_forward_mb`) and the peak through its `backward`
(`peak_mb`), counting only what the step allocates.
The run uses seed 1, as `perfbench/run.py --seed 1` does.
BLAS runs one thread, and numpy's arrays get no transparent huge pages,
as in the benchmark; a value the caller set wins. perfbench is imported,
never changed. Exit code 1 means an output check of the run failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

# Before numpy loads: its BLAS and allocator read these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import protocols  # noqa: E402  perfbench's modules, through the path above
import workloads  # noqa: E402
from cvnet import autodiff as ad, datagen, nn  # noqa: E402

FULL = sorted(name for name, p in protocols.PROTOCOLS.items() if not p.via_cli)
SAMPLE_S = 0.002
SEED = 1


def vmrss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


class PhaseSampler(threading.Thread):
    """Max VmRSS per phase, sampled every SAMPLE_S and at each phase's ends."""

    def __init__(self):
        super().__init__(daemon=True)
        self.phase: str | None = None
        self.peaks: dict[str, float] = {}
        self.lock = threading.Lock()  # both threads update peaks
        self.done = threading.Event()

    def sample(self) -> None:
        phase = self.phase
        if phase is not None:
            with self.lock:
                self.peaks[phase] = max(self.peaks.get(phase, 0.0), vmrss_mb())

    def run(self):
        while not self.done.wait(SAMPLE_S):
            self.sample()

    def measure(self, phase: str, fn, *args):
        self.phase = phase
        self.sample()
        try:
            return fn(*args)
        finally:
            self.sample()
            self.phase = None


def step_memory(proto, data) -> dict[str, float]:
    """tracemalloc MB of one forward_loss plus backward on the first training batch."""
    frames, target = datagen.build_views(data.train, data.kind, proto.field)
    batch = slice(0, proto.batch_size)
    d_in, d_out = datagen.model_dims(data.kind, proto.field)
    model = nn.init_model(d_in, proto.hidden, d_out, field=proto.field,
                          init_scale=proto.init_scale, seed=SEED)
    gc.collect()
    tracemalloc.start()
    try:
        loss, _ = nn.forward_loss(model, [f[:, batch] for f in frames], target[:, batch])
        held = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"held_after_forward_mb": round(held / 2**20, 3), "peak_mb": round(peak / 2**20, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=FULL)
    ap.add_argument("--quick", action="store_true", help="perfbench's tiny shapes")
    args = ap.parse_args(argv)

    proto = protocols.get(args.workload, args.quick)
    checks = workloads.Checks()
    sampler = PhaseSampler()
    sampler.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = workloads.FullTrial(proto, SEED, Path(tmp))
            sampler.measure("setup", work.setup, SEED)
            for tag in ("pass0", "pass1"):
                trials = sampler.measure(tag, work.train, tag)
                workloads.check_trials(trials, proto, checks)
            gc.collect()
            workloads.release_free_heap()
            sampler.measure("tail", work.tail, checks)
    finally:
        sampler.done.set()
        sampler.join()
    step = step_memory(proto, work.data)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"workload": proto.name, "seed": SEED, "quick": args.quick,
                      "peak_rss_mb": {k: round(v, 1) for k, v in sampler.peaks.items()},
                      "step": step}))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
