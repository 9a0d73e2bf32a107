"""Gradient checks of every analytic derivative against finite differences.

Each registered elementwise op, the squared-error loss, a dense layer, and
the unrolled recurrent model are probed at N_PROBES seeded random points
and their analytic cogradients compared with the central-difference
Wirtinger oracle. The suite is deterministic given the seed and runs in
seconds; it backs the `gradcheck` CLI command and the acceptance tests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import nn
from .complex_ops import Field, make_rng, sample_circular_gaussian

N_PROBES = 10
RTOL = 1e-5
ATOL = 1e-8


@dataclass(frozen=True)
class CheckEntry:
    name: str
    max_err: float
    passed: bool


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max scaled error; a value below RTOL means |a - n| <= ATOL + RTOL|n|."""
    return float(np.max(np.abs(analytic - numeric) / (ATOL / RTOL + np.abs(numeric))))


def _probe_loop(name: str, rng, err) -> CheckEntry:
    """Worst of err(rng, k) over the probes k < N_PROBES; a NaN error fails the entry."""
    worst = float(np.max([err(rng, k) for k in range(N_PROBES)]))
    return CheckEntry(name, worst, worst < RTOL)


def _op_err(name: str, rng, _k) -> float:
    """Analytic (J, Jc) of a registered op vs the numeric pair."""
    op = ad.REGISTRY[name]
    z = 0.5 * op.probe_radius * sample_circular_gaussian(rng, 3, 1.0)
    numeric = ad.wirtinger_pair_numeric(op.fn, z)
    analytic = ad.pair_at(name, z)
    return _rel_err(np.stack([analytic.j, analytic.jc]), np.stack([numeric.j, numeric.jc]))


def _tensor_grads_vs_oracle(draw, rng, k) -> float:
    """Max relative error of backward() grads over every parameter tensor of probe k.

    draw(rng, k) returns (params, build), and build(leaves) must return
    the loss Var of the graph on the leaf Vars {name: Var(params[name])}.
    The oracle differentiates the scalar loss with respect to one tensor
    at a time, holding the others fixed.
    """
    params, build = draw(rng, k)

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
        errs.append(_rel_err(var.grad, oracle.jc.reshape(var.grad.shape)))
    return float(np.max(errs))


# Each draw(rng, k) returns the (params, build) of probe k for
# _tensor_grads_vs_oracle.

def _draw_mse(rng, _k):
    pred = sample_circular_gaussian(rng, 4, 1.0)
    target = sample_circular_gaussian(rng, 4, 1.0)
    return {"pred": pred}, lambda pv: nn.mse_loss(pv["pred"], target, Field.COMPLEX)


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
        return nn.mse_loss(nn.apply_activation(pv["w"] @ x + pv["b"], act), target, Field.COMPLEX)

    return params, build


_TINY_SHAPES = nn.param_shapes(4, 3, 4)  # frame width 4, hidden 3


def _tiny_model(rng, field: Field, activation: nn.ActivationKind) -> nn.RecurrentModel:
    params = {name: 0.4 * sample_circular_gaussian(rng, shape, 1.0)
              for name, shape in _TINY_SHAPES.items()}
    if field is Field.REAL:
        params = {name: w.real for name, w in params.items()}
    return nn.RecurrentModel(field=field, activation=activation, **params)


# Variant -> (model field, activation, real-valued data, stream id).
# build_views feeds a complex model float64 frames and target on
# real-valued kinds.
_RECURRENT_VARIANTS = {
    "complex": (Field.COMPLEX, nn.ActivationKind.COMPLEX_TANH, False, 303),
    "real": (Field.REAL, nn.ActivationKind.REAL_TANH, True, 304),
    "complex-real-data": (Field.COMPLEX, nn.ActivationKind.COMPLEX_TANH, True, 305),
    "split-magnitude": (Field.COMPLEX, nn.ActivationKind.SPLIT_MAGNITUDE, False, 306),
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


def _checks() -> list[tuple]:
    """Every check as (name, stream, err): each op, then each graph."""
    graphs = [("loss:mse", 101, _draw_mse), ("layer:dense", 202, _draw_dense)]
    graphs += [(f"layer:recurrent-{variant}", stream, partial(_draw_recurrent, variant))
               for variant, (*_, stream) in _RECURRENT_VARIANTS.items()]
    # An op's stream is its name's crc32: str hash() is salted per process.
    return ([(f"op:{name}", zlib.crc32(name.encode()), partial(_op_err, name))
             for name in sorted(ad.REGISTRY)]
            + [(name, stream, partial(_tensor_grads_vs_oracle, draw)) for name, stream, draw in graphs])


def run_gradcheck(seed: int = 2024) -> list[CheckEntry]:
    return [_probe_loop(name, make_rng(seed, stream), err) for name, stream, err in _checks()]


def format_report(entries: list[CheckEntry]) -> str:
    lines = []
    for e in entries:
        status = "PASS" if e.passed else "FAIL"
        lines.append(f"{status}  {e.name:<24} max_rel_err={e.max_err:.3e}  tol={RTOL:.1e}")
    return "\n".join(lines)


def all_passed(entries: list[CheckEntry]) -> bool:
    return all(e.passed for e in entries)
