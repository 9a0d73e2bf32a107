"""Mini-batch SGD with momentum, power-decay scheduling, and random search.

One optimizer step per training batch, a full validation pass per epoch,
and validation-based selection of the reported model. Diverged trials
(a non-finite loss, parameter update or cogradient; an activation pole
shows up as one of these) are first-class results with their partial
history, not errors: instability is one of the phenomena this harness
exists to observe.

Everything is deterministic given (dataset seed, config): trial substreams
are derived by counter, batches are fixed slices in dataset order, and CSV
exports use a fixed 17-significant-digit float format.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import datagen, nn
from .complex_ops import Field, make_rng

FLOAT_FMT = ".16e"  # 17 significant digits, stable across platforms

CURVES_HEADER = ["epoch", "lr", "train_mse", "val_mse"]
SEARCH_HEADER = ["trial_id", "lr0", "half_life", "init_scale", "best_val", "status"]


class ConfigError(ValueError):
    """A training configuration is inconsistent with the data or model."""


@dataclass(frozen=True)
class TrainConfig:
    lr0: float
    half_life: float
    init_scale: float
    momentum: float = 0.9
    epochs: int = 1000
    batch_size: int = 1000

    def __post_init__(self):
        # NaN fails every comparison, so each test passes only on finite values.
        for name in ("lr0", "half_life", "init_scale"):
            value = getattr(self, name)
            if not abs(value) < math.inf:
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.lr0 < 0:
            raise ConfigError(f"lr0 must be >= 0, got {self.lr0}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.half_life <= 0:
            raise ConfigError(f"half_life must be positive, got {self.half_life}")
        if self.init_scale <= 0:
            raise ConfigError(f"init_scale must be positive, got {self.init_scale}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be at least 1")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Decay lr0 * (1 + epoch/half_life)^(-1).

    The rate halves exactly at epoch = half_life, which is what the
    half-life name promises.
    """
    return config.lr0 * (1.0 + epoch / config.half_life) ** -1.0


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def sgd_momentum_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """In-place update v <- momentum*v - lr*g, theta <- theta + v.

    g is the conjugate cogradient, the steepest-ascent direction of a real
    loss, so stepping along -g descends. Raises on non-finite updates.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, theta in params.items():
            v = velocity[name]
            v *= momentum
            v -= lr * grads[name]
            theta += v
            if not np.all(np.isfinite(theta)):
                raise ad.NumericError(f"non-finite parameter update in {name}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_mse: float
    val_mse: float


@dataclass
class TrialResult:
    config: TrainConfig
    history: list[EpochRecord]
    best_val: float
    best_epoch: int
    status: str  # "completed" or "diverged"
    model: nn.RecurrentModel | None
    trial_id: int = 0

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def _check_dims(model: nn.RecurrentModel, kind: datagen.DatasetKind) -> None:
    d_in, d_out = datagen.model_dims(kind, model.field)
    if model.d_in != d_in or model.d_out != d_out:
        raise ConfigError(
            f"model dims ({model.d_in}, {model.d_out}) do not match "
            f"{datagen.DatasetKind(kind).value}/{model.field.value} data dims ({d_in}, {d_out})"
        )


def _views(samples: np.ndarray, kind: datagen.DatasetKind, field: Field | str, what: str):
    """datagen.build_views of a partition, which must hold observations."""
    if len(samples) == 0:
        raise ConfigError(f"{what} has no observations")
    return datagen.build_views(samples, kind, field)


def _batch_slices(n: int, batch_size: int) -> list[slice]:
    return [slice(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def evaluate(model: nn.RecurrentModel, samples: np.ndarray, kind: datagen.DatasetKind) -> float:
    """Mean squared error per real DOF over a partition; no gradients."""
    _check_dims(model, kind)
    frames, target = _views(samples, kind, model.field, "the partition to evaluate")
    loss, _ = nn.forward_loss(model, frames, target)
    return float(loss.value.real)


def zero_baseline_mse(samples: np.ndarray, kind: datagen.DatasetKind, field: Field | str) -> float:
    """Error of the all-zero predictor, the floor any model must beat.

    The target comes from build_views, as in training and evaluation, so
    every sample is checked for finiteness.
    """
    target = _views(samples, kind, field, "the baseline partition")[1]
    return float(nn.mse_loss(np.zeros_like(target), target, field).value)


def train(
    model: nn.RecurrentModel, data: datagen.DatasetBundle, config: TrainConfig
) -> TrialResult:
    """Train in place; returns history plus the best-validation snapshot.

    Each epoch takes one momentum step per batch at lr_at(epoch); the step
    objective is the summed per-observation error, so larger batches take
    proportionally larger steps. The history records the per-observation
    mean train error seen during the epoch and a full validation error.
    Divergence ends the trial with status "diverged" and whatever history
    accumulated.
    """
    _check_dims(model, data.kind)
    train_frames, train_target = _views(data.train, data.kind, model.field,
                                        "the training partition")
    val_frames, val_target = _views(data.val, data.kind, model.field, "the validation partition")
    n_train = data.train.shape[0]
    slices = _batch_slices(n_train, config.batch_size)
    # Batch objective: sum of per-observation errors (each already averaged
    # over its real DOF). Gradients therefore scale with batch size and the
    # learning rate is calibrated for full-scale 1000-observation
    # batches. Reported MSEs are per-observation means.
    per_obs_dof = model.field.dof * train_target.shape[0]

    velocity = {name: np.zeros_like(arr) for name, arr in model.params().items()}
    history: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best_model: nn.RecurrentModel | None = None
    status = "completed"

    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        loss_sum = 0.0
        try:
            # Overflow on the way to divergence is expected; the isfinite
            # checks below turn it into a diverged status.
            with np.errstate(over="ignore", invalid="ignore"):
                for sl in slices:
                    frames = [f[:, sl] for f in train_frames]
                    target = train_target[:, sl]
                    pvars = nn.param_vars(model)
                    # No handle on the prediction: only the residual it leaves
                    # in the loss root outlives the forward pass.
                    loss = ad.mse(nn.predict_frame(pvars, frames, model.activation), target,
                                  per_obs_dof)
                    if not np.isfinite(loss.value.real):
                        raise ad.NumericError("non-finite training loss")
                    ad.backward(loss)
                    grads = {name: v.grad for name, v in pvars.items()}
                    sgd_momentum_step(model.params(), grads, velocity, lr, config.momentum)
                    loss_sum += float(loss.value.real)
                    del loss  # the step's graph goes before the next one is built
                val_mse = float(nn.forward_loss(model, val_frames, val_target)[0].value.real)
            if not np.isfinite(val_mse):
                raise ad.NumericError("non-finite validation loss")
        except ad.NumericError:
            status = "diverged"
            break
        history.append(EpochRecord(epoch, lr, loss_sum / n_train, val_mse))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_model = model.copy()

    return TrialResult(
        config=config,
        history=history,
        best_val=float(best_val),
        best_epoch=best_epoch,
        status=status,
        model=best_model,
    )


# ---------------------------------------------------------------------------
# Random hyperparameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSpace:
    """Log-uniform ranges; a degenerate (x, x) range pins the value."""

    lr0: tuple[float, float] = (1e-5, 1.0)
    half_life: tuple[float, float] = (10.0, 1000.0)
    init_scale: tuple[float, float] = (1e-2, 10.0)

    def __post_init__(self):
        for name in ("lr0", "half_life", "init_scale"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi < math.inf):
                raise ConfigError(f"invalid {name} range ({lo}, {hi})")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if lo == hi:
        return lo
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_config(
    space: SearchSpace, rng: np.random.Generator, epochs: int, batch_size: int
) -> TrainConfig:
    """Draw order: lr0, half_life, init_scale."""
    return TrainConfig(
        lr0=_log_uniform(rng, *space.lr0),
        half_life=_log_uniform(rng, *space.half_life),
        init_scale=_log_uniform(rng, *space.init_scale),
        epochs=epochs,
        batch_size=batch_size,
    )


# The running search's dataset: set once per process, by the pool's
# initializer in a worker and by random_search itself when it runs in process.
_search_data: datagen.DatasetBundle | None = None


def _hold_search_data(data: datagen.DatasetBundle | None) -> None:
    global _search_data
    _search_data = data


def _run_trial(args) -> TrialResult:
    fld, hidden, space, seed, epochs, batch_size, trial_id = args
    data = _search_data
    rng = make_rng(seed, trial_id)
    trial_seed = int(rng.integers(0, 2**63))
    config = sample_config(space, rng, epochs, batch_size)
    d_in, d_out = datagen.model_dims(data.kind, fld)
    model = nn.init_model(d_in, hidden, d_out, fld, config.init_scale, trial_seed)
    result = train(model, data, config)
    result.trial_id = trial_id
    return result


def _rank_key(r: TrialResult) -> tuple:
    return (r.diverged, 0.0 if r.diverged else r.best_val, r.trial_id)


def rank_results(results: Sequence[TrialResult]) -> list[TrialResult]:
    """Completed trials by ascending best_val, then diverged trials; ties by trial_id."""
    return sorted(results, key=_rank_key)


def _keep_one_model(trials: Iterable[TrialResult]) -> list[TrialResult]:
    """The results as they arrive, with .model dropped from all but the rank-first that kept one."""
    results, kept = [], None
    for r in trials:
        results.append(r)
        if r.model is not None:
            if kept is None or _rank_key(r) < _rank_key(kept):
                kept, r = r, kept  # r is now the one to lose its model, if any
            if r is not None:
                r.model = None
    return results


def random_search(
    data: datagen.DatasetBundle,
    field: Field | str,
    hidden: int,
    n_trials: int,
    seed: int,
    epochs: int,
    batch_size: int,
    space: SearchSpace | None = None,
    jobs: int = 1,
) -> list[TrialResult]:
    """n_trials independent seeded trials, ranked by validation error.

    Trials draw from independent substreams of the search seed, so results
    do not depend on execution order and jobs > 1 changes nothing but wall
    time. The pool has min(jobs, n_trials) workers; one runs in process.
    The pool's initializer gives each worker the dataset once (under fork
    it inherits the parent's pages and nothing is pickled), so a work item
    carries only its trial's settings. The dataset is held in one
    module-level slot, so a process runs one search at a time; the slot is
    cleared when the search returns or raises.
    Only the rank-first trial that kept a model (write_search_outputs'
    checkpoint) keeps .model; the others lose it as their results arrive.
    """
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    space = space or SearchSpace()
    work = [(Field(field), hidden, space, seed, epochs, batch_size, t) for t in range(n_trials)]
    workers = min(jobs, n_trials)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers, initializer=_hold_search_data,
                                     initargs=(data,)) as pool:
                results = _keep_one_model(pool.map(_run_trial, work))
        else:
            _hold_search_data(data)
            results = _keep_one_model(_run_trial(w) for w in work)
    finally:
        _hold_search_data(None)
    return rank_results(results)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows) -> None:
    """Header, then rows; float cells (float or numpy float64) print with FLOAT_FMT.

    A float column that may hold an int must pass float(x).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(x), FLOAT_FMT) if isinstance(x, float) else x
                             for x in row])


def write_curves_csv(result: TrialResult, path) -> None:
    """Per-epoch curve: epoch, lr, train_mse, val_mse."""
    write_csv(path, CURVES_HEADER,
              ([rec.epoch, rec.lr, rec.train_mse, rec.val_mse] for rec in result.history))


def write_search_csv(results: Sequence[TrialResult], path) -> None:
    """Ranked trial summary: trial_id, lr0, half_life, init_scale, best_val, status."""
    write_csv(path, SEARCH_HEADER, ([r.trial_id, float(r.config.lr0), float(r.config.half_life),
                                     float(r.config.init_scale), r.best_val, r.status]
                                    for r in results))


def write_search_outputs(results: Sequence[TrialResult], out) -> TrialResult | None:
    """A ranked search's files in out: search.csv, trial_NNN.csv, best_model.cvnn.

    The checkpoint is the first ranked trial that kept a model, which is
    returned; None (and no checkpoint) when every trial diverged before
    completing an epoch. An earlier run's trial curves and checkpoint are
    removed, so out holds this run's files only.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_search_csv(results, out / "search.csv")
    for path in out.glob("trial_*.csv"):  # an earlier run's trials may differ from these
        path.unlink()
    for r in results:
        write_curves_csv(r, out / f"trial_{r.trial_id:03d}.csv")
    best = next((r for r in results if r.model is not None), None)
    if best is not None:
        nn.save_model(best.model, out / "best_model.cvnn")
    else:
        (out / "best_model.cvnn").unlink(missing_ok=True)
    return best
