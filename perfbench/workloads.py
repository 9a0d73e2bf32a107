#!/usr/bin/env python3
"""One benchmark run of one workload, started by run.py.

run.py sets the BLAS thread count in this process's environment before
numpy loads. This program checks the derivatives with cvnet's gradcheck,
runs the workload's protocol (set-up, training calls, export tail), checks
every output, and prints as its last line one JSON object with the
metrics of the run: the end-to-end metrics, or with --trace 1 the
per-layer metrics of a traced run. A run whose outputs fail a check
reports no metric and exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cvnet import cli, datagen, gradcheck, nn, trainer

import layers
import protocols
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
FILTER_ROWS = 3
SETUP_SEED_STRIDE = 1_000_003


class Checks:
    """Output checks of one run; any failure withholds every metric."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


@dataclass(frozen=True)
class Trial:
    status: str
    best_val: float
    history: tuple  # ((train_mse, val_mse), ...) per epoch run

    @property
    def fingerprint(self) -> str:
        return repr((self.status, self.best_val, self.history))


def _cli(*args) -> str:
    """cli.main in-process; returns what the command printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"cvnet {args[0]} exited with {code}")
    return buf.getvalue()


def _eval_and_filters(model_path: Path, data_path: Path, out: Path, checks: Checks) -> None:
    text = _cli("eval", "--model", model_path, "--data", data_path, "--partition", "test")
    mse = float(text.strip().rsplit("=", 1)[1])
    checks.expect(math.isfinite(mse) and mse > 0, f"test mse {mse!r} is not finite and positive")
    filters = out / "filters.csv"
    _cli("filters", "--model", model_path, "--rows", FILTER_ROWS, "--out", filters)
    lines = filters.read_text().count("\n")
    checks.expect(lines == 1 + FILTER_ROWS * datagen.FRAME_LEN,
                  f"filters.csv has {lines} lines, expected {1 + FILTER_ROWS * datagen.FRAME_LEN}")


class FullTrial:
    """The paper's full-scale epoch: trainer.random_search with one pinned trial, in-process."""

    def __init__(self, proto: protocols.Protocol, seed: int, work: Path):
        self.proto, self.seed, self.work = proto, seed, work
        self.data = None
        # A degenerate range pins the value.
        self.space = trainer.SearchSpace(lr0=(proto.lr0,) * 2, half_life=(proto.half_life,) * 2,
                                         init_scale=(proto.init_scale,) * 2)

    def setup(self, seed: int) -> None:
        p = self.proto
        data = datagen.generate_bundle(p.kind, seed, n_train=p.n_train, n_val=p.n_val,
                                       n_test=p.n_test)
        datagen.build_views(data.train, data.kind, p.field)
        datagen.build_views(data.val, data.kind, p.field)
        d_in, d_out = datagen.model_dims(data.kind, p.field)
        nn.init_model(d_in, p.hidden, d_out, field=p.field, init_scale=p.init_scale, seed=seed)
        self.data = data

    def train(self, tag: str) -> list[Trial]:
        p = self.proto
        results = trainer.random_search(self.data, p.field, p.hidden, p.trials, self.seed,
                                        p.epochs, p.batch_size, space=self.space, jobs=p.jobs)
        self.last = results
        return [Trial(r.status, r.best_val, tuple((h.train_mse, h.val_mse) for h in r.history))
                for r in results]

    def baseline(self) -> float:
        return trainer.zero_baseline_mse(self.data.val, self.data.kind, self.proto.field)

    def search_csv(self, tag: str) -> bytes | None:
        return None

    def tail(self, checks: Checks) -> None:
        """run_full_scale.py's export, then the test evaluation and filters via the CLI."""
        out = self.work / "tail"
        out.mkdir(parents=True, exist_ok=True)
        trainer.write_search_csv(self.last, out / "search.csv")
        for r in self.last:
            trainer.write_curves_csv(r, out / f"trial_{r.trial_id:03d}.csv")
        model_path = out / "best_model.cvnn"
        nn.save_model(self.last[0].model, model_path)
        data_path = out / "data.cvds"
        datagen.write_dataset(self.data, data_path)
        _eval_and_filters(model_path, data_path, out, checks)
        data_path.unlink()


class DeskSearch:
    """The README desk protocol through cli.main: gen, search, eval, filters."""

    def __init__(self, proto: protocols.Protocol, seed: int, work: Path):
        self.proto, self.seed, self.work = proto, seed, work
        self.data_path = work / "desk.cvds"

    def setup(self, seed: int) -> None:
        p = self.proto
        _cli("gen", "--kind", p.kind, "--train", p.n_train, "--val", p.n_val, "--test", p.n_test,
             "--seed", seed, "--out", self.data_path)

    def train(self, tag: str) -> list[Trial]:
        p = self.proto
        out = self.work / tag
        _cli("search", "--data", self.data_path, "--field", p.field, "--trials", p.trials,
             "--hidden", p.hidden, "--epochs", p.epochs, "--batch-size", p.batch_size,
             "--jobs", p.jobs, "--seed", p.search_seed, "--out", out)
        self.last_out = out
        trials = []
        rows = (out / "search.csv").read_text().splitlines()[1:]
        for row in sorted(rows, key=lambda r: int(r.split(",")[0])):
            tid, _, _, _, best_val, status = row.split(",")
            curve = (out / f"trial_{int(tid):03d}.csv").read_text().splitlines()[1:]
            history = tuple((float(c.split(",")[2]), float(c.split(",")[3])) for c in curve)
            trials.append(Trial(status, float(best_val), history))
        return trials

    def baseline(self) -> float:
        data = datagen.read_dataset(self.data_path)
        return trainer.zero_baseline_mse(data.val, data.kind, self.proto.field)

    def search_csv(self, tag: str) -> bytes:
        return (self.work / tag / "search.csv").read_bytes()

    def tail(self, checks: Checks) -> None:
        out = self.last_out
        _eval_and_filters(out / "best_model.cvnn", self.data_path, out, checks)


def check_trials(trials: list[Trial], proto: protocols.Protocol, checks: Checks) -> None:
    checks.expect(len(trials) == proto.trials, f"{len(trials)} trials reported, {proto.trials} run")
    # Desk trials draw from the default search space, where divergence is a
    # reported outcome; the pinned full-scale trial must complete.
    allowed = {"completed", "diverged"} if proto.via_cli else {"completed"}
    for i, t in enumerate(trials):
        checks.expect(t.status in allowed, f"trial {i} status {t.status!r}")
        checks.expect(all(math.isfinite(x) for rec in t.history for x in rec),
                      f"trial {i} has a non-finite loss")
        if t.status == "completed":
            checks.expect(len(t.history) == proto.epochs and math.isfinite(t.best_val),
                          f"trial {i} completed {len(t.history)} of {proto.epochs} epochs")


def pass_metrics(proto: protocols.Protocol, trials: list[Trial], wall: float) -> tuple[float, float]:
    """(train_obs_per_s, trial_h_proj) of one training call."""
    epochs_run = sum(len(t.history) for t in trials)
    obs_per_s = proto.n_train * epochs_run / wall
    # Seconds one trial spends per epoch when `jobs` trials run side by side.
    per_epoch = wall * min(proto.jobs, proto.trials) / epochs_run
    return obs_per_s, 1000 * per_epoch / 3600


def floor_ms(proto: protocols.Protocol, reps: int = 5) -> float:
    """Bare-numpy floor of one step at the workload's shapes.

    7 forward and 14 backward matrix products plus 3 tanh, in complex128 for
    complex models and float64 for real ones; no graph, no checks.
    """
    kind = datagen.DatasetKind(proto.kind)
    d_in, d_out = datagen.model_dims(kind, proto.field)
    h, b = proto.hidden, proto.batch_size
    complex_field = proto.field == "complex"
    rng = np.random.default_rng(0)

    def draw(rows, cols, fan_in=1):
        x = rng.standard_normal((rows, cols)) / math.sqrt(fan_in)
        return x + 1j * rng.standard_normal((rows, cols)) / math.sqrt(fan_in) if complex_field else x

    def adj(a):
        return a.conj().T if complex_field else a.T

    w_in, w_rec, w_out = draw(h, d_in, d_in), draw(h, h, h), draw(d_out, h, h)
    xs = [draw(d_in, b) for _ in range(3)]
    h0 = np.zeros((h, b), dtype=w_in.dtype)

    def step():
        hs = [h0]
        for x in xs:
            hs.append(np.tanh(w_in @ x + w_rec @ hs[-1]))
        delta = w_out @ hs[-1]
        _ = delta @ adj(hs[-1])
        dh = adj(w_out) @ delta
        for t in (2, 1, 0):
            _ = dh @ adj(xs[t])
            _ = adj(w_in) @ dh
            _ = dh @ adj(hs[t])
            dh = adj(w_rec) @ dh

    step()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# Environment and cross-run record
# ---------------------------------------------------------------------------

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cvnet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(proto: protocols.Protocol, seed: int, quick: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": proto.name,
        "seed": seed,
        "quick": quick,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "unset"),
        "workers": proto.jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def check_record(key: str, observed: dict, checks: Checks) -> None:
    """Compare with earlier runs of the same workload, seed and source tree."""
    path = RESULTS / f"record-{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for name, value in observed.items():
        if name in stored:
            checks.expect(stored[name] == value,
                          f"{name} differs from an earlier run of this source: {value!r} vs {stored[name]!r}")
    stored.update({k: v for k, v in observed.items() if k not in stored})
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def best_val_ratio(work, trials: list[Trial], checks: Checks) -> float:
    """Best validation MSE of the completed trials over the zero predictor's."""
    best = min((t.best_val for t in trials if t.status == "completed"), default=math.inf)
    ratio = best / work.baseline()
    checks.expect(math.isfinite(ratio) and ratio > 0, f"val_ratio {ratio!r}")
    return ratio


def setup_seeds(seed: int, reps: int) -> list[int]:
    """Seeds of a run's set-ups: derived ones first, --seed itself last.

    Sawtooth generation cost is heavy-tailed in the harmonic count, so
    set-ups on several derived inputs give a median that depends far less on
    one seed. The last set-up's data is the one the run trains on.
    """
    return [seed + SETUP_SEED_STRIDE * k for k in range(reps - 1, 0, -1)] + [seed]


def timed_in_child(fn, arg, deadline_s: float) -> float:
    """Seconds fn(arg) takes in a forked child, or deadline_s if it takes longer.

    One observation's harmonic count is unbounded (fundamental near 0), so a
    rare set-up takes minutes. Cut off at the deadline, it still counts as the
    slowest set-up, and the median of the others is exact while fewer than
    half are cut off.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: time the call, report, and never return
        os.close(r)
        code = 1
        try:
            t0 = time.perf_counter()
            fn(arg)
            os.write(w, repr(time.perf_counter() - t0).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        ready, _, _ = select.select([r], [], [], deadline_s)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return deadline_s
        reply = os.read(r, 64)
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(r)
    if status != 0 or not reply:
        raise RuntimeError(f"set-up in a child process failed (wait status {status})")
    return float(reply)


def release_free_heap() -> None:
    """Return glibc's free heap memory to the kernel (no-op on other C libraries)."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_plain(work, proto, seconds: float, checks: Checks) -> tuple[dict, dict, int, dict]:
    *derived, seed = setup_seeds(work.seed, proto.setup_reps)
    setups = [timed_in_child(work.setup, s, proto.setup_deadline_s) for s in derived]
    setups.append(_timed(work.setup, seed)[1])
    passes = []
    start = time.perf_counter()
    while len(passes) < proto.min_passes or time.perf_counter() - start < seconds:
        trials, wall = _timed(work.train, f"pass{len(passes)}")
        check_trials(trials, proto, checks)
        passes.append((trials, wall))
    first = [t.fingerprint for t in passes[0][0]]
    for trials, _ in passes[1:]:
        checks.expect([t.fingerprint for t in trials] == first,
                      "training calls on the same inputs gave different results")
    # Training leaves autodiff graphs for the cyclic collector and freed
    # arrays in the C heap, and how much of both is still resident depends on
    # the allocation history. Released here, the tail's peak memory (reading
    # the dataset back) no longer moves by ~100 MB from run to run.
    gc.collect()
    release_free_heap()
    _, tail_s = _timed(work.tail, checks)
    trials = [t for ts, _ in passes for t in ts]
    per_pass = [pass_metrics(proto, ts, wall) for ts, wall in passes]
    val_ratio = best_val_ratio(work, passes[0][0], checks)
    metrics = {
        "setup_s": statistics.median(setups),
        "train_obs_per_s": statistics.median(m[0] for m in per_pass),
        "trial_h_proj": statistics.median(m[1] for m in per_pass),
        "val_ratio": val_ratio,
        "ok_frac": sum(t.status == "completed" for t in trials) / len(trials),
        # Set-up is left out: setup_s reports it under its own bound, and its
        # seed-driven spread would swamp this metric.
        "run_s": statistics.median(w for _, w in passes) + tail_s,
    }
    record = {"val_ratio": repr(val_ratio)}
    csv = work.search_csv("pass0")
    if csv is not None:
        record["search_csv_sha256"] = hashlib.sha256(csv).hexdigest()
    detail = {"setup_s": setups, "pass_s": [w for _, w in passes], "tail_s": tail_s}
    return metrics, record, len(trials), detail


def run_traced(work, proto, checks: Checks) -> tuple[dict, dict, int, list]:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        work.setup(work.seed)
    # The untraced timed call that the traced calls are compared with.
    trials_u, wall_u = _timed(work.train, "untraced")
    check_trials(trials_u, proto, checks)
    untraced = pass_metrics(proto, trials_u, wall_u)[0]
    traced = []
    attempted = len(trials_u)
    with tracing.installed(tracer):
        while not traced or sum(s[2] == "trainer.step" for s in tracer.spans) < proto.traced_min_steps:
            trials, wall = _timed(work.train, f"traced{len(traced)}")
            check_trials(trials, proto, checks)
            checks.expect([t.fingerprint for t in trials] == [t.fingerprint for t in trials_u],
                          "traced training gave other results than untraced training")
            traced.append(pass_metrics(proto, trials, wall)[0])
            attempted += len(trials)
        work.tail(checks)
    csv_u, csv_t = work.search_csv("untraced"), work.search_csv("traced0")
    checks.expect(csv_u == csv_t, "search.csv differs between untraced and traced search")
    metrics, counts = layers.layer_metrics(tracer.spans)
    metrics["nn.floor_ms"] = floor_ms(proto)
    traced_obs = statistics.median(traced)
    metrics["trace.untraced_obs_per_s"] = untraced
    metrics["trace.traced_obs_per_s"] = traced_obs
    metrics["trace.overhead_frac"] = (untraced - traced_obs) / untraced
    val_ratio = best_val_ratio(work, trials_u, checks)
    record = {"val_ratio": repr(val_ratio), "counts": counts}
    if csv_u is not None:
        record["search_csv_sha256"] = hashlib.sha256(csv_u).hexdigest()
    return metrics, record, attempted, tracer.spans


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, start, end, pid, step, extra in spans:
            fh.write(json.dumps({"id": list(sid), "parent": parent and list(parent), "name": name,
                                 "start": start, "end": end, "pid": pid,
                                 "step": step and list(step), "extra": extra}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(protocols.PROTOCOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny shapes; for the self-check")
    args = ap.parse_args(argv)

    proto = protocols.get(args.workload, args.quick)
    env = environment(proto, args.seed, args.quick)
    print(json.dumps({"env": env}), flush=True)
    stem = f"{proto.name}-seed{args.seed}{'-quick' if args.quick else ''}"
    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / f"work-{stem}-{os.getpid()}"
    work_dir.mkdir()
    checks = Checks()
    metrics, attempted, spans, detail = {}, 0, None, {}
    try:
        entries = gradcheck.run_gradcheck()
        if checks.expect(gradcheck.all_passed(entries), "gradcheck failed:\n" + gradcheck.format_report(entries)):
            cls = DeskSearch if proto.via_cli else FullTrial
            work = cls(proto, args.seed, work_dir)
            if args.trace:
                metrics, record, attempted, spans = run_traced(work, proto, checks)
            else:
                metrics, record, attempted, detail = run_plain(work, proto, args.seconds, checks)
            check_record(f"{stem}-{env['src_sha256'][:16]}", record, checks)
    except Exception:  # the run's boundary: report the failure, print no metric
        checks.failures.append(traceback.format_exc())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not checks.failures
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(checks.failures),
        "metrics": metrics if correct else {},
        "env": env,
        "detail": detail,
    }
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        write_spans(spans, RESULTS / f"spans-{stem}.jsonl")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
