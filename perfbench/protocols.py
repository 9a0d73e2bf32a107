"""The benchmark's workloads as plain data.

This module imports nothing heavy, so the launcher can read how many worker
processes a workload starts before numpy (and with it OpenBLAS) is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Protocol:
    name: str
    kind: str  # dataset kind passed to datagen
    field: str  # model field
    n_train: int
    n_val: int
    n_test: int
    hidden: int
    batch_size: int
    epochs: int  # epochs per training call
    trials: int  # trials per training call
    jobs: int  # worker processes of the search pool (1 means in-process)
    setup_reps: int  # set-ups per run; setup_s is their median
    setup_deadline_s: float  # a set-up on a derived seed is cut off after this
    min_passes: int  # timed training calls per untraced run, at least
    traced_min_steps: int  # optimizer steps the traced run covers, at least
    via_cli: bool  # run gen/search through cli.main (desk protocol)
    search_seed: int | None = None  # pinned search seed; None derives it from --seed
    # Pinned hyperparameters for the full-scale workloads: the search space
    # collapses to one point, so the trial cannot diverge by a bad draw.
    lr0: float = 1e-3
    half_life: float = 300.0
    init_scale: float = 0.3


# Full scale is the paper's epoch: 10000/1000/1000 observations, hidden 256,
# batch 1000, so ten optimizer steps and one validation pass per epoch.
# 100 traced steps leave 10 samples beyond the nearest-rank p90.
_FULL = dict(
    n_train=10000, n_val=1000, n_test=1000, hidden=256, batch_size=1000, epochs=1,
    trials=1, jobs=1, setup_reps=3, setup_deadline_s=30.0, min_passes=2,
    traced_min_steps=100, via_cli=False,
)

PROTOCOLS = {
    "full-complex": Protocol(name="full-complex", kind="sawtooth", field="complex", **_FULL),
    "full-real": Protocol(name="full-real", kind="inharmonic-analytic", field="real", **_FULL),
    # The README desk protocol (search seed 7), cut from 10 trials to 4.
    "desk-search": Protocol(
        name="desk-search", kind="sawtooth", field="complex", n_train=500, n_val=200,
        n_test=200, hidden=32, batch_size=250, epochs=200, trials=4, jobs=2,
        setup_reps=7, setup_deadline_s=2.0, min_passes=1,
        traced_min_steps=100, via_cli=True, search_seed=7,
    ),
}

# Tiny shapes for the self-check: same code paths, no timing meaning.
_QUICK = {
    "full-complex": dict(n_train=40, n_val=20, n_test=20, hidden=4, batch_size=20,
                         setup_reps=2, min_passes=2, traced_min_steps=6),
    "full-real": dict(n_train=40, n_val=20, n_test=20, hidden=4, batch_size=20,
                      setup_reps=2, min_passes=2, traced_min_steps=6),
    "desk-search": dict(n_train=40, n_val=20, n_test=20, hidden=4, batch_size=20,
                        epochs=3, trials=2, setup_reps=2, traced_min_steps=6),
}


def get(name: str, quick: bool = False) -> Protocol:
    if name not in PROTOCOLS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(PROTOCOLS)}")
    proto = PROTOCOLS[name]
    return replace(proto, **_QUICK[name]) if quick else proto
