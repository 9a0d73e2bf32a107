"""Activations, squared-error loss, and the recurrent predictor models.

Two model families share one forward path and one engine: complex-valued
models hold complex128 parameters and use the fully complex tanh
(holomorphic, with poles on the imaginary axis); real-valued models hold
float64 parameters and data, so the same graph runs float64 matmuls and a
float64 tanh, and "no imaginary part" holds by construction. A complex
model on a real-valued kind gets float64 frames and target, so its input
products are real GEMMs (autodiff.matmul).
A bounded non-holomorphic alternative, the phase-preserving magnitude
squasher z / (1 + |z|), is registered as well. Both activations are
registry ops: their graph nodes come from autodiff.elementwise, so the
derivative pair that gradcheck validates is the one training runs.
Data frames enter the graph as plain-array constants, and the zero
initial hidden state does not enter it at all: the first recurrent step
has no W_rec product. Only the six parameters are leaves that receive
cogradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .complex_ops import COMPLEX, BlockFormat, Field, FormatError, make_rng, sample_circular_gaussian
from .datagen import FRAME_LEN

# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

_CTANH_BLOCK = 8192  # elements per block: five float64 scratch rows of 64 KiB


def ctanh_values(z: np.ndarray) -> np.ndarray:
    """Elementwise tanh: np.tanh on float64 input, fully complex otherwise.

    Complex z = x+iy gives [t(1+u^2) + i u(1-t^2)] / (1 + t^2 u^2), t = tanh x,
    u = tan y, from float64 SIMD tanh and tan on contiguous copies of the parts
    in blocks; it is within 4e-15 of |tanh z| of np.tanh (TestComplexTanh).
    The float64 points nearest the poles i*pi/2*(2k+1) give |tanh| of 1.6e16
    at k = 0 and at most 1.6e18 for k < 2000. Finite input gives finite
    output: |tan y| <= 1.6e16, and the denominator is at least 1. A NaN part
    gives a non-finite output, and an infinite part may give NaN where C99
    gives +-1 (inf + i*inf); training's non-finite checks end such a trial.
    """
    z = ad.promote(z)
    if z.dtype != COMPLEX:
        return np.tanh(z)
    out = np.empty(z.shape, COMPLEX)
    zf, of = np.ascontiguousarray(z).reshape(-1), out.reshape(-1)
    scratch = np.empty((5, min(zf.size, _CTANH_BLOCK)))
    with np.errstate(invalid="ignore"):
        for s in range(0, zf.size, _CTANH_BLOCK):
            zb, ob = zf[s:s + _CTANH_BLOCK], of[s:s + _CTANH_BLOCK]
            t, u, t2, u2, den = scratch[:, :zb.size]
            np.copyto(t, zb.real)
            np.tanh(t, out=t)
            np.copyto(u, zb.imag)
            np.tan(u, out=u)
            np.multiply(t, t, out=t2)
            np.multiply(u, u, out=u2)
            np.multiply(t2, u2, out=den)
            den += 1.0
            u2 += 1.0
            t *= u2
            np.subtract(1.0, t2, out=t2)
            u *= t2
            np.divide(t, den, out=ob.real)
            np.divide(u, den, out=ob.imag)
    return out


def _ctanh_pair(z: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, int]:
    j = np.multiply(t, t, out=np.empty_like(t))  # 1 - t^2 in one fresh buffer, 0-d too
    np.subtract(1.0, j, out=j)
    return j, 0


def split_magnitude_values(z: np.ndarray) -> np.ndarray:
    """Bounded magnitude squasher z / (1 + |z|); preserves the phase."""
    z = ad.promote(z)
    return z / (1.0 + np.abs(z))


def _split_magnitude_pair(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # J  = 1/(1+m) - m / (2 (1+m)^2)
    # Jc = -z^2 / (2 m (1+m)^2), with the limit (1, 0) at z = 0.
    m = np.abs(z)
    denom = (1.0 + m) ** 2
    j = 1.0 / (1.0 + m) - m / (2.0 * denom)
    safe_m = np.where(m == 0.0, 1.0, m)
    jc = np.where(m == 0.0, 0.0, -z * z / (2.0 * safe_m * denom))
    return j.astype(z.dtype), jc.astype(z.dtype)


ad.register_op(
    ad.ElementwiseOp("ctanh", ctanh_values, _ctanh_pair, holomorphic=True, probe_radius=1.2,
                     reads_input=False)
)
ad.register_op(
    ad.ElementwiseOp(
        "split_magnitude",
        split_magnitude_values,
        _split_magnitude_pair,
        holomorphic=False,
        probe_radius=3.0,
    )
)


def ctanh(x) -> ad.Var:
    """Complex tanh graph node; backward reads only the cached output t, not z."""
    return ad.elementwise(x, "ctanh")


def split_magnitude(x) -> ad.Var:
    return ad.elementwise(x, "split_magnitude")


class ActivationKind(str, Enum):
    COMPLEX_TANH = "complex-tanh"
    SPLIT_MAGNITUDE = "split-magnitude"
    REAL_TANH = "real-tanh"


def apply_activation(x: ad.Var, kind: ActivationKind) -> ad.Var:
    if kind in (ActivationKind.COMPLEX_TANH, ActivationKind.REAL_TANH):
        # real-tanh is the restriction of complex tanh to the real axis:
        # on a float64 input, ctanh_values is np.tanh in float64.
        return ctanh(x)
    if kind is ActivationKind.SPLIT_MAGNITUDE:
        return split_magnitude(x)
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def mse_loss(pred: ad.Var, target: np.ndarray, field: Field | str) -> ad.Var:
    """Mean squared error per real degree of freedom of the model's field.

    Normalizing by real DOF (a complex element counts twice) makes errors
    of complex models and of real models on split re/im data comparable.
    The field, not the prediction's dtype, gives the DOF: gradcheck probes
    real models at complex points.
    """
    t = ad.promote(target)
    return ad.mse(pred, t, Field(field).dof * t.size)


# ---------------------------------------------------------------------------
# Recurrent model
# ---------------------------------------------------------------------------

PARAM_ORDER = ("w_in", "b_in", "w_rec", "b_rec", "w_out", "b_out")


def param_shapes(d_in: int, hidden: int, d_out: int) -> dict[str, tuple[int, int]]:
    """The six parameter shapes in PARAM_ORDER; biases are column vectors."""
    return {"w_in": (hidden, d_in), "b_in": (hidden, 1), "w_rec": (hidden, hidden),
            "b_rec": (hidden, 1), "w_out": (d_out, hidden), "b_out": (d_out, 1)}


_FIELD_TAGS = {Field.COMPLEX: 0, Field.REAL: 1}
_ACTIVATION_TAGS = {
    ActivationKind.COMPLEX_TANH: 0,
    ActivationKind.SPLIT_MAGNITUDE: 1,
    ActivationKind.REAL_TANH: 3,
}


@dataclass
class RecurrentModel:
    """Single-recurrent-layer predictor: hidden state h, linear output.

    h_t = act(W_in x_t + b_in + W_rec h_{t-1} + b_rec)
    y   = W_out h_T + b_out

    Biases are stored as column vectors so they broadcast over a batch of
    column observations. b_in and b_rec are mathematically redundant but
    both kept; the three-bias layout is what the parameter totals assume.
    Every parameter is held in its field's dtype by Field.cast: complex128
    (float64 weights widen exactly) or float64 by the narrowing rule that
    real-valued dataset kinds share (datagen._observations).
    """

    field: Field
    activation: ActivationKind
    w_in: np.ndarray
    b_in: np.ndarray
    w_rec: np.ndarray
    b_rec: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        self.field = Field(self.field)  # each may be its value string, as a flag gives it
        self.activation = ActivationKind(self.activation)
        if self.field is Field.REAL:
            if self.activation is not ActivationKind.REAL_TANH:
                raise ValueError("real-field models use the real-tanh activation")
        elif self.activation is ActivationKind.REAL_TANH:
            raise ValueError("complex-field models do not use the real-tanh activation")
        for name, arr in self.params().items():
            setattr(self, name, self.field.cast(
                arr, f"real-field model has nonzero imaginary part in {name}"))
        h, d_in = self.w_in.shape
        expected = param_shapes(d_in, h, self.w_out.shape[0])
        for name, arr in self.params().items():
            if arr.shape != expected[name]:
                raise ValueError(f"{name} shape {arr.shape}, expected {expected[name]}")

    @property
    def d_in(self) -> int:
        return self.w_in.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_out(self) -> int:
        return self.w_out.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    def param_count(self) -> int:
        return sum(arr.size for arr in self.params().values())

    def copy(self) -> "RecurrentModel":
        return RecurrentModel(
            self.field,
            self.activation,
            **{name: arr.copy() for name, arr in self.params().items()},
        )


def init_model(
    d_in: int,
    hidden: int,
    d_out: int,
    field: Field | str = Field.COMPLEX,
    init_scale: float = 1.0,
    seed: int = 0,
    activation: ActivationKind | None = None,
) -> RecurrentModel:
    """Weights ~ circular Gaussian with sigma = init_scale / sqrt(fan_in).

    Real-field models draw float64 weights with the whole variance, so
    E|w|^2 matches the complex case. Biases start at zero.
    """
    field = Field(field)
    if activation is None:
        activation = ActivationKind.COMPLEX_TANH if field is Field.COMPLEX else ActivationKind.REAL_TANH
    rng = make_rng(seed, 11)

    def draw(name, shape):
        if name.startswith("b_"):
            return np.zeros(shape, dtype=field.dtype)
        sigma = init_scale / np.sqrt(shape[1])  # fan_in
        if field is Field.COMPLEX:
            return sample_circular_gaussian(rng, shape, sigma)
        return rng.normal(0.0, sigma, shape)

    params = {n: draw(n, s) for n, s in param_shapes(d_in, hidden, d_out).items()}
    # Drawn in the files' stacked order and interleaved like a loaded checkpoint,
    # so a seed's model, and the file it writes, follow the file format alone.
    return RecurrentModel(field, activation, **_relayout(field, params, INTERLEAVED))


def param_vars(model: RecurrentModel) -> dict[str, ad.Var]:
    """Fresh leaf Vars sharing the model's parameter storage."""
    return {name: ad.Var(arr) for name, arr in model.params().items()}


def rnn_step(
    params: Mapping[str, ad.Var], h_prev, x, activation: ActivationKind
) -> ad.Var:
    """One recurrent update h = act(W_in x + b_in + W_rec h_prev + b_rec).

    h_prev=None is the zero initial state: W_rec h_prev is exactly zero,
    so the step builds no W_rec product and no node to add it.
    """
    pre = params["w_in"] @ x + params["b_in"]
    if h_prev is not None:
        pre = pre + params["w_rec"] @ h_prev
    return apply_activation(pre + params["b_rec"], activation)


def predict_frame(
    params: Mapping[str, ad.Var], frames: Sequence, activation: ActivationKind
) -> ad.Var:
    """Run three input frames through the recurrence; linear readout.

    frames are (d_in, batch) columns; plain-array frames are constants of
    the graph. The initial hidden state is zero, so the first step has no
    recurrent product.
    """
    if len(frames) != 3:
        raise ValueError(f"expected exactly 3 input frames, got {len(frames)}")
    h = None
    for x in frames:
        h = rnn_step(params, h, x, activation)
    return params["w_out"] @ h + params["b_out"]


def forward_loss(
    model: RecurrentModel, frames: Sequence[np.ndarray], target: np.ndarray
) -> tuple[ad.Var, dict[str, ad.Var]]:
    """Build the full loss graph for one batch; returns (loss, param vars)."""
    pv = param_vars(model)
    pred = predict_frame(pv, frames, model.activation)
    return mse_loss(pred, target, model.field), pv


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
# magic "CVNN", version u8, field u8, d_in/hidden/d_out u32 LE, activation u8,
# then parameters in PARAM_ORDER as little-endian float64 (re, im) pairs,
# in complex_ops.BlockFormat's container; float64 parameters of real-field
# models are written with im = 0 and read back as float64. A real model's
# 512-wide axes (w_in's columns, w_out's and b_out's rows) read and write
# split analytic frames. In memory they follow datagen.build_views'
# interleaved order, re x_0, im x_0, re x_1, ...; files keep the stacked
# order re x_0 .. re x_255, im x_0 .. im x_255, so a file means the same
# whichever order a model is held in (_relayout at the file boundary).
# Position s of the stacked order holds the interleaved coordinate
# STACKED[s]; INTERLEAVED is its inverse, so stacked = interleaved[STACKED].

_FORMAT = BlockFormat("checkpoint", b"CVNN", "<BBIIIB", 1)
_FRAME_AXES = {"w_in": 1, "w_out": 0, "b_out": 0}
STACKED = np.arange(2 * FRAME_LEN).reshape(FRAME_LEN, 2).T.ravel()
INTERLEAVED = np.argsort(STACKED)


def _relayout(field: Field, params: Mapping[str, np.ndarray], order: np.ndarray) -> dict:
    """params with each 512-wide frame axis of a real model permuted by order."""
    out = dict(params)
    if field is Field.REAL:
        for name, axis in _FRAME_AXES.items():
            if out[name].shape[axis] == 2 * FRAME_LEN:
                out[name] = np.take(out[name], order, axis=axis)
    return out


def save_model(model: RecurrentModel, path) -> None:
    header = (_FIELD_TAGS[model.field], model.d_in, model.hidden, model.d_out,
              _ACTIVATION_TAGS[model.activation])
    _FORMAT.write(path, header, _relayout(model.field, model.params(), STACKED).values())


def load_model(path) -> RecurrentModel:
    fields = {v: k for k, v in _FIELD_TAGS.items()}
    acts = {v: k for k, v in _ACTIVATION_TAGS.items()}

    def layout(field_tag, d_in, hidden, d_out, act_tag):
        if field_tag not in fields:
            raise FormatError(f"unknown field tag {field_tag} at byte 5")
        if act_tag not in acts:
            raise FormatError(f"unknown activation tag {act_tag} at byte 18")
        dtype = fields[field_tag].dtype
        return [(name, shape, dtype) for name, shape in param_shapes(d_in, hidden, d_out).items()]

    (field_tag, *_, act_tag), arrays = _FORMAT.read(path, layout)
    field = fields[field_tag]
    try:
        return RecurrentModel(field=field, activation=acts[act_tag],
                              **_relayout(field, arrays, INTERLEAVED))
    except ValueError as exc:  # the tags contradict each other or the content
        raise FormatError(f"inconsistent checkpoint: {exc}") from None
