"""Synthetic wide-band waveform datasets and their binary file format.

Four dataset kinds, all built from sums of sinusoids with randomized
phases on a 1024-sample grid split into four 256-sample frames:

  sawtooth            fundamental f0 ~ U[0, 0.5) with every harmonic n*f0
                      below Nyquist at amplitude 1/n; real-valued.
  sawtooth-analytic   same spectra, but each component also contributes
                      cos(theta - pi/2) on the imaginary axis, i.e. the
                      one-sided complex exponential a*exp(i theta).
  inharmonic          five components with independent uniform frequencies,
                      amplitude 0.2 each; real-valued.
  inharmonic-analytic analytic variant of the above.

Component phases are drawn from U[0, 1) radians (deliberately narrower
than a full turn); pass full_phase_range=True to widen to U[0, 2*pi) for
sensitivity experiments. Frequencies are in cycles/sample with Nyquist at
0.5.

A bundle's sample dtype follows its kind: real-valued kinds hold float64
samples, analytic kinds complex128 (_observations is the one rule). Files
store complex (re, im) pairs for every kind, with an exactly zero imaginary
part for the real-valued ones.

Every observation draws from its own counter-derived substream of the
dataset seed, so generation order (or parallelism) cannot change bytes.

synthesize() renders a spec without a transcendental per sample: the
index split t = 32a + b turns the sum into one 32 x 32 matrix product per
block of 4096 components, built from 64 cos/sin pairs per component, so
its cost grows with the component count at 1/16 of the direct sum's
transcendentals and its memory is bounded. Samples differ from the
direct per-sample sum by less than 1e-12 of the signal's peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complex_ops import COMPLEX, BlockFormat, FormatError, as_real, ensure_finite, make_rng

N_SAMPLES = 1024
FRAME_LEN = 256
N_FRAMES = 4
NYQUIST = 0.5

_PARTITION_STREAMS = {"train": 0, "val": 1, "test": 2}


class DatasetKind(str, Enum):
    SAWTOOTH = "sawtooth"
    SAWTOOTH_ANALYTIC = "sawtooth-analytic"
    INHARMONIC = "inharmonic"
    INHARMONIC_ANALYTIC = "inharmonic-analytic"

    @property
    def analytic(self) -> bool:
        return self in (DatasetKind.SAWTOOTH_ANALYTIC, DatasetKind.INHARMONIC_ANALYTIC)


_KIND_TAGS = {
    DatasetKind.SAWTOOTH: 0,
    DatasetKind.SAWTOOTH_ANALYTIC: 1,
    DatasetKind.INHARMONIC: 2,
    DatasetKind.INHARMONIC_ANALYTIC: 3,
}
_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass(frozen=True)
class WaveformSpec:
    """Component list (frequency, amplitude, phase) plus the analytic flag."""

    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    analytic: bool

    def __post_init__(self):
        if not (len(self.freqs) == len(self.amps) == len(self.phases)):
            raise ValueError("component arrays must have equal length")
        if len(self.freqs) == 0:
            return
        # At most two reductions per array keep this cheap; it runs once per drawn
        # observation. A NaN fails every comparison, so each test is written
        # to pass only on in-range values.
        if not (0 <= self.freqs.min() and self.freqs.max() < NYQUIST):
            raise ValueError("component frequencies must lie in [0, 0.5)")
        if not (0 < self.amps.min() and self.amps.max() < np.inf):
            raise ValueError("component amplitudes must be positive and finite")
        if not np.isfinite(self.phases).all():
            raise ValueError("component phases must be finite")

    @property
    def fundamental(self) -> float:
        return float(self.freqs[0])


# synthesize() splits the sample index as t = _SPLIT * a + b, a and b in
# [0, _SPLIT). Columns 0.._SPLIT-1 of _SPLIT_STEPS are the outer steps
# _SPLIT * a, the rest the inner steps b.
_SPLIT = 32  # N_SAMPLES == _SPLIT ** 2
_SPLIT_STEPS = np.concatenate([_SPLIT * np.arange(_SPLIT), np.arange(_SPLIT)]).astype(np.float64)
_BLOCK = 4096  # components per block: 4 MB of complex phasors


def synthesize(spec: WaveformSpec) -> np.ndarray:
    """Render a spec on the 1024-sample grid.

    Analytic specs sum a_n exp(i (2 pi f_n t + phi_n)) as complex128; real
    specs take the real part of that sum, a_n cos(2 pi f_n t + phi_n), as
    float64.

    No transcendental is evaluated per sample. With t = 32 a + b (the
    index split of Cooley & Tukey, Math. Comp. 19, 1965), each component
    factors as

        a_n exp(i (2 pi f_n 32a + phi_n)) * exp(i 2 pi f_n b),

    so a block of K components needs an outer (K x 32, amplitude and
    phase folded in) and an inner (K x 32) phasor matrix, 64 cos/sin pairs
    per component, and outer.T @ inner read row-major is the block's 1024
    samples. Arguments lose their whole turns before the phase is added,
    which is exact and keeps them small. Blocks hold 4096 components
    and are summed in a fixed order, so memory stays bounded for any
    harmonic count and equal specs give equal bits.

    Over 3000 draws of each kind, samples differ from the direct
    per-sample sum by at most 9.3e-13 of the signal's peak, and sit closer
    to an extended-precision sum than the direct sum does (1.9e-13 against
    6.8e-13 of the peak, 300 draws).
    """
    acc = np.zeros((_SPLIT, _SPLIT), dtype=COMPLEX)
    for lo in range(0, len(spec.freqs), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        turns = spec.freqs[block, None] * _SPLIT_STEPS  # (K, 64) cycles
        turns -= np.rint(turns)
        theta = 2.0 * np.pi * turns
        theta[:, :_SPLIT] += spec.phases[block, None]
        phasors = np.empty(theta.shape, dtype=COMPLEX)
        np.cos(theta, out=phasors.real)
        np.sin(theta, out=phasors.imag)
        outer, inner = phasors[:, :_SPLIT], phasors[:, _SPLIT:]
        outer *= spec.amps[block, None]
        acc += outer.T @ inner
    out = acc.reshape(N_SAMPLES)
    return out if spec.analytic else out.real.copy()


def draw_sawtooth_spec(
    rng: np.random.Generator, analytic: bool = False, full_phase_range: bool = False
) -> WaveformSpec:
    """Fundamental U[0, 0.5); harmonics n = 2, 3, ... while n*f0 < Nyquist.

    Amplitudes follow 1/n including the fundamental (1/1). Each component
    gets an independent phase. Draw order: f0, then all phases.
    """
    f0 = rng.uniform(0.0, NYQUIST)
    while f0 == 0.0:  # uniform() can return its lower bound
        f0 = rng.uniform(0.0, NYQUIST)
    n_max = math.ceil(NYQUIST / f0) - 1
    n = np.arange(1, n_max + 1, dtype=np.float64)
    phase_hi = 2.0 * np.pi if full_phase_range else 1.0
    phases = rng.uniform(0.0, phase_hi, n_max)
    return WaveformSpec(freqs=f0 * n, amps=1.0 / n, phases=phases, analytic=analytic)


def draw_inharmonic_spec(
    rng: np.random.Generator, analytic: bool = False, full_phase_range: bool = False
) -> WaveformSpec:
    """Five independent uniform frequencies, amplitude 0.2 each.

    Draw order: the five frequencies, then the five phases.
    """
    freqs = rng.uniform(0.0, NYQUIST, 5)
    phase_hi = 2.0 * np.pi if full_phase_range else 1.0
    phases = rng.uniform(0.0, phase_hi, 5)
    return WaveformSpec(freqs=freqs, amps=np.full(5, 0.2), phases=phases, analytic=analytic)


def draw_spec(
    kind: DatasetKind, rng: np.random.Generator, full_phase_range: bool = False
) -> WaveformSpec:
    if kind in (DatasetKind.SAWTOOTH, DatasetKind.SAWTOOTH_ANALYTIC):
        return draw_sawtooth_spec(rng, kind.analytic, full_phase_range)
    return draw_inharmonic_spec(rng, kind.analytic, full_phase_range)


def periods_per_frame(spec: WaveformSpec) -> float:
    """Fundamental periods inside one 256-sample frame."""
    return FRAME_LEN * spec.fundamental


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetBundle:
    """Train/val/test sample matrices plus the recipe that made them.

    Each partition is an (n, 1024) matrix whose dtype follows the kind:
    float64 for real-valued kinds, complex128 for analytic ones. A complex
    partition given for a real-valued kind is stored as its real part, and
    a nonzero imaginary part there is a ValueError (_observations).
    """

    kind: DatasetKind
    seed: int
    train: np.ndarray  # (n_train, 1024)
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in _PARTITION_STREAMS:
            object.__setattr__(self, name, _observations(getattr(self, name), self.kind))

    def partition(self, name: str) -> np.ndarray:
        if name not in _PARTITION_STREAMS:
            raise ValueError(f"unknown partition {name!r}")
        return getattr(self, name)


def _gen_partition(kind, seed, stream, count, full_phase_range):
    out = np.empty((count, N_SAMPLES), dtype=COMPLEX if kind.analytic else np.float64)
    for i in range(count):
        rng = make_rng(seed, stream, i)
        out[i] = synthesize(draw_spec(kind, rng, full_phase_range))
    return out


def generate_bundle(
    kind: DatasetKind | str,
    seed: int,
    n_train: int = 10000,
    n_val: int = 1000,
    n_test: int = 1000,
    full_phase_range: bool = False,
) -> DatasetBundle:
    kind = DatasetKind(kind)
    counts = {"train": n_train, "val": n_val, "test": n_test}
    return DatasetBundle(kind=kind, seed=int(seed), **{
        name: _gen_partition(kind, seed, stream, counts[name], full_phase_range)
        for name, stream in _PARTITION_STREAMS.items()
    })


def bundles_equal(a: DatasetBundle, b: DatasetBundle) -> bool:
    return (
        a.kind == b.kind
        and a.seed == b.seed
        and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.partition(n), b.partition(n)) for n in _PARTITION_STREAMS)
        )
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
# magic "CVDS", version u8 = 1, kind u8, seed u64 LE, counts 3 x u32 LE,
# then train/val/test observations as 1024 little-endian float64 (re, im)
# pairs each, in complex_ops.BlockFormat's container. Real-valued kinds are
# float64 blocks: written with im = +0.0 and read back as float64, so a
# nonzero imaginary part in their file is a FormatError. Specs are not stored:
# draw_spec(kind, make_rng(seed, stream, i)) regenerates observation i of
# the partition with stream 0, 1 or 2.

_FORMAT = BlockFormat("dataset", b"CVDS", "<BBQIII", 1)


def write_dataset(bundle: DatasetBundle, path) -> None:
    parts = [bundle.partition(name) for name in _PARTITION_STREAMS]
    _FORMAT.write(path, (_KIND_TAGS[bundle.kind], bundle.seed, *(len(p) for p in parts)), parts)


def _layout(kind_tag, seed, *counts):
    if kind_tag not in _KINDS:
        raise FormatError(f"unknown dataset kind tag {kind_tag} at byte 5")
    dtype = COMPLEX if _KINDS[kind_tag].analytic else np.float64
    return [(name, (n, N_SAMPLES), dtype) for name, n in zip(_PARTITION_STREAMS, counts)]


def read_dataset(path) -> DatasetBundle:
    (kind_tag, seed, *_), parts = _FORMAT.read(path, _layout)
    return DatasetBundle(kind=_KINDS[kind_tag], seed=seed, **parts)


def read_partition(path, name: str) -> tuple[DatasetKind, np.ndarray]:
    """(kind, samples) of one partition, checked as by read_dataset; the rest is not kept."""
    if name not in _PARTITION_STREAMS:
        raise ValueError(f"unknown partition {name!r}")
    (kind_tag, *_), parts = _FORMAT.read(path, _layout, keep={name})
    return _KINDS[kind_tag], parts[name]


# ---------------------------------------------------------------------------
# Model-facing views
# ---------------------------------------------------------------------------

def model_dims(kind: DatasetKind, field: str) -> tuple[int, int]:
    """(d_in, d_out) a model needs for this dataset kind and field.

    Real models on analytic data see each complex frame split into its
    real and imaginary parts, twice the width, in the samples' own memory
    order re x_0, im x_0, re x_1, im x_1, ... (see STACKED); real models on
    real data see the real part only.
    """
    if field == "complex":
        return FRAME_LEN, FRAME_LEN
    if field == "real":
        return (2 * FRAME_LEN, 2 * FRAME_LEN) if kind.analytic else (FRAME_LEN, FRAME_LEN)
    raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


# A split frame's coordinates in the stacked order re x_0 .. re x_255,
# im x_0 .. im x_255, which checkpoints keep: position s of the stacked
# order holds the interleaved coordinate STACKED[s], and INTERLEAVED is its
# inverse, so stacked = interleaved[STACKED] and interleaved = stacked[INTERLEAVED].
STACKED = np.arange(2 * FRAME_LEN).reshape(FRAME_LEN, 2).T.ravel()
INTERLEAVED = np.argsort(STACKED)


def _observations(samples: np.ndarray, kind: DatasetKind) -> np.ndarray:
    """Samples as a C-contiguous (n, 1024) matrix of the kind's dtype; one observation may be 1-D.

    The one dtype rule: analytic kinds hold complex128, real-valued kinds
    float64 by complex_ops.as_real, the narrowing rule that real-field
    models share: complex input must have an exactly zero imaginary part.
    C-contiguous complex128 and float64 input pass uncopied; contiguous
    rows are what lets complex samples be read as float64 (build_views).
    """
    if kind.analytic:
        samples = np.ascontiguousarray(samples, dtype=COMPLEX)
    else:
        samples = as_real(samples, f"{kind.value} samples must have a zero imaginary part")
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[1] != N_SAMPLES:
        raise ValueError(f"expected {N_SAMPLES}-sample observations, got {samples.shape}")
    return samples


def build_views(
    samples: np.ndarray, kind: DatasetKind, field: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """Batch input/target matrices, one observation per column.

    Real-valued kinds (sawtooth, inharmonic): the float64 frames, (256, n),
    for both fields, so a complex model multiplies real frames
    (autodiff.matmul then runs real GEMMs).
    Analytic kinds, complex field: the complex frames, (256, n), complex128.
    Analytic kinds, real field: the complex frames read as float64, (512, n),
    interleaved re x_0, im x_0, re x_1, im x_1, ...
    The input frames are views of the samples in every case, each column
    contiguous, one sample row apart.

    The target is the one copy, C-contiguous like the model's prediction,
    so the residual pred - target runs over both in the same order.
    This is the one entry point from samples to model inputs (training and
    evaluation), so the finiteness of the data is checked here, once per
    call; the frames then enter the graph as unchecked constants.
    """
    samples = ensure_finite(_observations(samples, kind), "samples")
    width = model_dims(kind, field)[0]
    if width == 2 * FRAME_LEN:
        samples = samples.view(np.float64)  # (n, 2048): each sample as its (re, im) pair
    *frames, last = (samples[:, i * width : (i + 1) * width].T for i in range(N_FRAMES))
    return frames, np.ascontiguousarray(last)
