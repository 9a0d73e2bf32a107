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


def check_elementwise_op(
    name: str, seed: int, n_probes: int = 10, rtol: float = RTOL_DEFAULT
) -> CheckEntry:
    """Analytic (J, Jc) of a registered op vs the numeric pair."""
    op = ad.REGISTRY[name]
    rng = make_rng(seed, zlib.crc32(name.encode()))  # str hash() is salted per process
    worst = 0.0
    for _ in range(n_probes):
        z = 0.5 * op.probe_radius * sample_circular_gaussian(rng, 3, 1.0)
        numeric = ad.wirtinger_pair_numeric(op.fn, z)
        analytic = ad.pair_at(name, z)
        worst = max(worst, _rel_err(analytic.j, numeric.j, ATOL_DEFAULT))
        worst = max(worst, _rel_err(analytic.jc, numeric.jc, ATOL_DEFAULT))
    return CheckEntry(f"op:{name}", worst, rtol, worst < rtol)


def check_mse(seed: int, n_probes: int = 10, rtol: float = RTOL_DEFAULT) -> CheckEntry:
    rng = make_rng(seed, 101)
    worst = 0.0
    for _ in range(n_probes):
        pred = sample_circular_gaussian(rng, 4, 1.0)
        target = sample_circular_gaussian(rng, 4, 1.0)

        def build(params, _t=target):
            pv = {"pred": ad.Var(params["pred"])}
            return ad.mse(pv["pred"], _t, 2 * _t.size), pv

        worst = max(worst, _tensor_grads_vs_oracle(build, {"pred": pred}))
    return CheckEntry("loss:mse", worst, rtol, worst < rtol)


def _tensor_grads_vs_oracle(build_loss, params: dict[str, np.ndarray], atol=ATOL_DEFAULT) -> float:
    """Max relative error of backward() grads over every parameter tensor.

    build_loss(params) must return the loss Var and the dict of leaf Vars.
    The oracle differentiates the scalar loss with respect to one tensor at
    a time, holding the others fixed.
    """
    loss, pvars = build_loss(params)
    ad.backward(loss)
    worst = 0.0
    for name, var in pvars.items():
        def f(t, _name=name):
            trial = dict(params)
            trial[_name] = t
            return build_loss(trial)[0].value
        oracle = ad.wirtinger_pair_numeric(f, params[name])
        worst = max(worst, _rel_err(var.grad, oracle.jc.reshape(var.grad.shape), atol))
    return worst


def check_dense_layer(seed: int, n_probes: int = 10, rtol: float = RTOL_DEFAULT) -> CheckEntry:
    """act(W x + b) under the squared-error loss, both activations."""
    rng = make_rng(seed, 202)
    worst = 0.0
    for k in range(n_probes):
        act = nn.ActivationKind.COMPLEX_TANH if k % 2 == 0 else nn.ActivationKind.SPLIT_MAGNITUDE
        arrays = {
            "w": 0.5 * sample_circular_gaussian(rng, (3, 4), 1.0),
            "b": 0.5 * sample_circular_gaussian(rng, (3, 1), 1.0),
        }
        x = sample_circular_gaussian(rng, (4, 2), 1.0)
        target = sample_circular_gaussian(rng, (3, 2), 1.0)

        def build(params, _act=act, _x=x, _t=target):
            pv = {name: ad.Var(arr) for name, arr in params.items()}
            out = nn.apply_activation(pv["w"] @ _x + pv["b"], _act)
            return nn.mse_loss(out, _t, "complex"), pv

        worst = max(worst, _tensor_grads_vs_oracle(build, arrays))
    return CheckEntry("layer:dense", worst, rtol, worst < rtol)


def _tiny_model(rng, field: str) -> nn.RecurrentModel:
    d, h = 4, 3

    def draw(shape):
        w = 0.4 * sample_circular_gaussian(rng, shape, 1.0)
        return w if field == "complex" else w.real

    act = nn.ActivationKind.COMPLEX_TANH if field == "complex" else nn.ActivationKind.REAL_TANH
    return nn.RecurrentModel(
        field=field,
        activation=act,
        w_in=draw((h, d)),
        b_in=draw((h, 1)),
        w_rec=draw((h, h)),
        b_rec=draw((h, 1)),
        w_out=draw((d, h)),
        b_out=draw((d, 1)),
    )


# Variant -> (model field, real-valued data, stream id). build_views feeds
# a complex model float64 frames and target on real-valued kinds.
_RECURRENT_VARIANTS = {
    "complex": ("complex", False, 303),
    "real": ("real", True, 304),
    "complex-real-data": ("complex", True, 305),
}


def check_recurrent(
    variant: str, seed: int, n_probes: int = 10, rtol: float = RTOL_DEFAULT
) -> CheckEntry:
    """Gradients through the 3-step unrolled recurrence on a tiny model.

    variant is a key of _RECURRENT_VARIANTS: the model's field and whether
    its frames and target are float64.
    """
    field, real_data, stream = _RECURRENT_VARIANTS[variant]
    rng = make_rng(seed, stream)
    worst = 0.0
    for _ in range(n_probes):
        model = _tiny_model(rng, field)
        frames = [sample_circular_gaussian(rng, (4, 2), 1.0) for _ in range(3)]
        target = sample_circular_gaussian(rng, (4, 2), 1.0)
        if real_data:
            frames = [f.real for f in frames]
            target = target.real

        def build(params, _m=model, _f=frames, _t=target):
            pv = {name: ad.Var(arr) for name, arr in params.items()}
            pred = nn.predict_frame(pv, _f, _m.activation)
            return nn.mse_loss(pred, _t, _m.field), pv

        worst = max(worst, _tensor_grads_vs_oracle(build, model.params()))
    return CheckEntry(f"layer:recurrent-{variant}", worst, rtol, worst < rtol)


def run_gradcheck(seed: int = 2024, n_probes: int = 10, rtol: float = RTOL_DEFAULT) -> list[CheckEntry]:
    entries = [
        check_elementwise_op(name, seed, n_probes, rtol) for name in sorted(ad.REGISTRY)
    ]
    entries.append(check_mse(seed, n_probes, rtol))
    entries.append(check_dense_layer(seed, n_probes, rtol))
    entries.extend(check_recurrent(v, seed, n_probes, rtol) for v in _RECURRENT_VARIANTS)
    return entries


def format_report(entries: list[CheckEntry]) -> str:
    lines = []
    for e in entries:
        status = "PASS" if e.passed else "FAIL"
        lines.append(f"{status}  {e.name:<24} max_rel_err={e.max_err:.3e}  tol={e.tol:.1e}")
    return "\n".join(lines)


def all_passed(entries: list[CheckEntry]) -> bool:
    return all(e.passed for e in entries)
