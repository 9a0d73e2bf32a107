"""Per-layer metrics from a traced run's spans (see tracing.py for the format)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import SYNTHETIC

LAYERS = ("datagen", "nn", "autodiff", "trainer", "cli", "spectral")
EMIT_OPS = ("matmul", "ctanh", "add", "mse")


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _dur(span) -> float:
    return span[4] - span[3]


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds each layer spent in its own spans, children's cover removed.

    Children that ran in parallel (trials in pool workers) are merged into
    one covered interval, so the parent is not charged for them twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s[2] not in SYNTHETIC:
            children[s[1]].append(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s[2] in SYNTHETIC:
            continue
        lo, hi = s[3], s[4]
        covered = _union((max(c[3], lo), min(c[4], hi)) for c in children[s[0]] if c[4] > lo and c[3] < hi)
        out[s[2].split(".", 1)[0]] += (hi - lo) - covered
    return out


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, int]]:
    """(metrics, exact counts) for one traced run.

    Step metrics are per optimizer step, where a step runs from the
    trainer's `param_vars` call to the end of its `sgd_momentum_step`.
    The counts are computed from array sizes and must repeat exactly.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    names = {s[0]: s[2] for s in spans}

    steps = defaultdict(lambda: defaultdict(float))
    step_extra = {}
    for s in spans:
        if s[6] is None:
            continue
        per = steps[s[6]]
        per[s[2]] += _dur(s)
        if s[2] == "autodiff.backward":
            step_extra[s[6]] = s[7]
    step_ids = [s[6] for s in by_name["trainer.step"]]
    if not step_ids:
        raise RuntimeError("traced run recorded no optimizer step")

    def per_step(*span_names):
        return [sum(steps[k][n] for n in span_names) for k in step_ids]

    m: dict[str, float] = {}
    step_ms = [_ms(_dur(s)) for s in by_name["trainer.step"]]
    m["trainer.step_ms.p50"] = statistics.median(step_ms)
    m["trainer.step_ms.p90"] = nearest_rank(step_ms, 0.9)
    m["trainer.steps_traced"] = len(step_ms)
    fwd = [_ms(x) for x in per_step("nn.predict_frame", "autodiff.mse")]
    m["nn.forward_ms.p50"] = statistics.median(fwd)
    m["nn.forward_ms.p90"] = nearest_rank(fwd, 0.9)
    m["nn.ctanh_ms"] = _ms(statistics.median(per_step("nn.ctanh")))
    m["autodiff.matmul_fwd_ms"] = _ms(statistics.median(per_step("autodiff.matmul")))
    bwd = [_ms(x) for x in per_step("autodiff.backward")]
    m["autodiff.backward_ms.p50"] = statistics.median(bwd)
    m["autodiff.backward_ms.p90"] = nearest_rank(bwd, 0.9)
    emit_names = [f"autodiff.emit.{op}" for op in EMIT_OPS]
    for op, name in zip(EMIT_OPS, emit_names):
        m[f"autodiff.emit_ms.{op}"] = _ms(statistics.median(per_step(name)))
    all_emits = sorted(n for n in by_name if n.startswith("autodiff.emit."))
    m["autodiff.backward_self_ms"] = _ms(statistics.median(
        b - e for b, e in zip(per_step("autodiff.backward"), per_step(*all_emits))
    ))
    m["trainer.optim_ms"] = _ms(statistics.median(per_step("trainer.sgd_momentum_step")))

    in_train = defaultdict(list)  # train sid -> direct children
    for s in spans:
        if names.get(s[1]) == "trainer.train" and s[2] not in SYNTHETIC:
            in_train[s[1]].append(s)
    trains = by_name["trainer.train"]
    m["trainer.loop_self_s"] = statistics.median(
        _dur(t) - sum(_dur(c) for c in in_train[t[0]]) for t in trains
    )
    m["datagen.build_views_s"] = statistics.median(
        sum(_dur(c) for c in in_train[t[0]] if c[2] == "datagen.build_views") for t in trains
    )
    m["nn.val_ms"] = _ms(statistics.median(
        _dur(c) for t in trains for c in in_train[t[0]] if c[2] == "nn.forward_loss"
    ))
    m["nn.snapshot_ms"] = _ms(statistics.median(
        _dur(c) for t in trains for c in in_train[t[0]] if c[2] == "nn.RecurrentModel.copy"
    ))

    gens = by_name["datagen.generate_bundle"]
    m["datagen.gen_obs_per_s"] = sum(s[7]["obs"] for s in gens) / sum(_dur(s) for s in gens)
    io = by_name["datagen.write_dataset"] + by_name["datagen.read_dataset"]
    m["datagen.io_mb_per_s"] = sum(s[7]["bytes"] for s in io) / 1e6 / sum(_dur(s) for s in io)

    overheads, busy = [], []
    for search in by_name["trainer.random_search"]:
        trials = [s for s in by_name["trainer.trial"] if s[1] == search[0]]
        per_pid = defaultdict(float)
        for t in trials:
            per_pid[t[5]] += _dur(t)
        wall = _dur(search)
        overheads.append(wall - max(per_pid.values()))
        busy.append(sum(per_pid.values()) / (search[7]["jobs"] * wall))
    m["trainer.search_overhead_s"] = statistics.median(overheads)
    m["trainer.worker_busy_frac"] = statistics.median(busy)
    exports = ("trainer.write_search_csv", "trainer.write_curves_csv", "nn.save_model")
    m["trainer.export_s"] = sum(_dur(s) for n in exports for s in by_name[n])
    m["cli.eval_s"] = sum(_dur(s) for s in by_name["cli.eval"])
    m["spectral.filters_s"] = sum(_dur(s) for s in by_name["spectral.write_filters_csv"])
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds

    extras = [step_extra[k] for k in step_ids if k in step_extra]
    if any(e != extras[0] for e in extras):
        raise RuntimeError("graph counts differ between optimizer steps")
    first = extras[0]
    pickled = {s[7]["pickled_bytes"] for s in by_name["trainer.random_search"]}
    if len(pickled) != 1:
        raise RuntimeError(f"pickled work item size differs between searches: {sorted(pickled)}")
    counts = {
        "autodiff.nodes_per_step": first["nodes"],
        "autodiff.emitted_bytes_per_step": first["emitted_bytes"],
        "autodiff.useful_emit_elems": first["useful_elems"],
        "autodiff.emitted_elems": first["emitted_elems"],
        "trainer.pickled_bytes_per_trial": pickled.pop(),
    }
    m["autodiff.nodes_per_step"] = counts["autodiff.nodes_per_step"]
    m["autodiff.emitted_mb_per_step"] = counts["autodiff.emitted_bytes_per_step"] / 1e6
    m["autodiff.useful_emit_frac"] = first["useful_elems"] / first["emitted_elems"]
    m["trainer.pickled_mb_per_trial"] = counts["trainer.pickled_bytes_per_trial"] / 1e6
    return m, counts
