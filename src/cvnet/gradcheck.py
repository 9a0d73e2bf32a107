"""Gradient checks of every analytic derivative against finite differences.

Each registered elementwise op, the squared-error loss, a dense layer, and
the unrolled recurrent model are probed at seeded random points and their
analytic cogradients compared with the central-difference Wirtinger
oracle. The suite is deterministic given the seed and runs in seconds;
it backs both the `gradcheck` CLI command and the acceptance tests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import nn
from .complex_ops import make_rng, sample_circular_gaussian

RTOL_DEFAULT = 1e-5
ATOL_DEFAULT = 1e-8


@dataclass(frozen=True)
class CheckEntry:
    name: str
    max_err: float
    tol: float
    passed: bool


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, atol: float, rtol: float = RTOL_DEFAULT) -> float:
    """Max scaled error; a value below rtol means |a - n| <= atol + rtol|n|."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return float(np.max(np.abs(analytic - numeric) / (atol / rtol + np.abs(numeric))))


def _probe_loop(name: str, rng, n_probes: int, rtol: float, err) -> CheckEntry:
    """Worst of err(rng, k) over the probes k < n_probes; a NaN error fails the entry."""
    if n_probes < 1:  # no probe would pass every entry unchecked
        raise ValueError(f"n_probes must be at least 1, got {n_probes}")
    worst = float(np.max([err(rng, k) for k in range(n_probes)]))
    return CheckEntry(name, worst, rtol, worst < rtol)


def check_elementwise_op(
    name: str, seed: int, n_probes: int = 10, rtol: float = RTOL_DEFAULT
) -> CheckEntry:
    """Analytic (J, Jc) of a registered op vs the numeric pair."""
    op = ad.REGISTRY[name]

    def err(rng, _k):
        z = 0.5 * op.probe_radius * sample_circular_gaussian(rng, 3, 1.0)
        numeric = ad.wirtinger_pair_numeric(op.fn, z)
        analytic = ad.pair_at(name, z)
        return _rel_err(np.stack([analytic.j, analytic.jc]),
                        np.stack([numeric.j, numeric.jc]), ATOL_DEFAULT)

    rng = make_rng(seed, zlib.crc32(name.encode()))  # str hash() is salted per process
    return _probe_loop(f"op:{name}", rng, n_probes, rtol, err)


def _tensor_grads_vs_oracle(params: dict[str, np.ndarray], build) -> float:
    """Max relative error of backward() grads over every parameter tensor.

    build(leaves) must return the loss Var of the graph on the leaf Vars
    {name: Var(params[name])}. The oracle differentiates the scalar loss
    with respect to one tensor at a time, holding the others fixed.
    """
    def loss_at(arrays):
        leaves = {name: ad.Var(arr) for name, arr in arrays.items()}
        return build(leaves), leaves

    loss, leaves = loss_at(params)
    ad.backward(loss)
    errs = []
    for name, var in leaves.items():
        def f(t, _name=name):
            return loss_at({**params, _name: t})[0].value
        oracle = ad.wirtinger_pair_numeric(f, params[name])
        errs.append(_rel_err(var.grad, oracle.jc.reshape(var.grad.shape), ATOL_DEFAULT))
    return float(np.max(errs))


# Each draw(rng, k) returns the (params, build) of probe k for
# _tensor_grads_vs_oracle.

def _draw_mse(rng, _k):
    pred = sample_circular_gaussian(rng, 4, 1.0)
    target = sample_circular_gaussian(rng, 4, 1.0)
    return {"pred": pred}, lambda pv: nn.mse_loss(pv["pred"], target, "complex")


def _draw_dense(rng, k):
    """act(W x + b) under the squared-error loss, alternating both activations."""
    act = nn.ActivationKind.COMPLEX_TANH if k % 2 == 0 else nn.ActivationKind.SPLIT_MAGNITUDE
    params = {
        "w": 0.5 * sample_circular_gaussian(rng, (3, 4), 1.0),
        "b": 0.5 * sample_circular_gaussian(rng, (3, 1), 1.0),
    }
    x = sample_circular_gaussian(rng, (4, 2), 1.0)
    target = sample_circular_gaussian(rng, (3, 2), 1.0)

    def build(pv):
        return nn.mse_loss(nn.apply_activation(pv["w"] @ x + pv["b"], act), target, "complex")

    return params, build


_TINY_SHAPES = nn.param_shapes(4, 3, 4)  # frame width 4, hidden 3


def _tiny_model(rng, field: str, activation: nn.ActivationKind) -> nn.RecurrentModel:
    params = {name: 0.4 * sample_circular_gaussian(rng, shape, 1.0)
              for name, shape in _TINY_SHAPES.items()}
    if field == "real":
        params = {name: w.real for name, w in params.items()}
    return nn.RecurrentModel(field=field, activation=activation, **params)


# Variant -> (model field, activation, real-valued data, stream id).
# build_views feeds a complex model float64 frames and target on
# real-valued kinds.
_RECURRENT_VARIANTS = {
    "complex": ("complex", nn.ActivationKind.COMPLEX_TANH, False, 303),
    "real": ("real", nn.ActivationKind.REAL_TANH, True, 304),
    "complex-real-data": ("complex", nn.ActivationKind.COMPLEX_TANH, True, 305),
    "split-magnitude": ("complex", nn.ActivationKind.SPLIT_MAGNITUDE, False, 306),
}


def _draw_recurrent(variant: str, rng, _k):
    """The 3-step unrolled recurrence on a tiny model of the variant."""
    field, activation, real_data, _ = _RECURRENT_VARIANTS[variant]
    model = _tiny_model(rng, field, activation)
    frames = [sample_circular_gaussian(rng, (4, 2), 1.0) for _ in range(3)]
    target = sample_circular_gaussian(rng, (4, 2), 1.0)
    if real_data:
        frames = [f.real for f in frames]
        target = target.real

    def build(pv):
        return nn.mse_loss(nn.predict_frame(pv, frames, activation), target, field)

    return model.params(), build


def run_gradcheck(seed: int = 2024, n_probes: int = 10, rtol: float = RTOL_DEFAULT) -> list[CheckEntry]:
    graph_checks = [("loss:mse", 101, _draw_mse), ("layer:dense", 202, _draw_dense)]
    graph_checks += [(f"layer:recurrent-{variant}", stream, partial(_draw_recurrent, variant))
                     for variant, (*_, stream) in _RECURRENT_VARIANTS.items()]
    entries = [check_elementwise_op(name, seed, n_probes, rtol) for name in sorted(ad.REGISTRY)]
    for name, stream, draw in graph_checks:
        def err(rng, k, draw=draw):
            return _tensor_grads_vs_oracle(*draw(rng, k))
        entries.append(_probe_loop(name, make_rng(seed, stream), n_probes, rtol, err))
    return entries


def format_report(entries: list[CheckEntry]) -> str:
    lines = []
    for e in entries:
        status = "PASS" if e.passed else "FAIL"
        lines.append(f"{status}  {e.name:<24} max_rel_err={e.max_err:.3e}  tol={e.tol:.1e}")
    return "\n".join(lines)


def all_passed(entries: list[CheckEntry]) -> bool:
    return all(e.passed for e in entries)
