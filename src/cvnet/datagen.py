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
0.5. Real-valued kinds carry an exactly zero imaginary part.

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
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complex_ops import COMPLEX, FormatError, ensure_finite, make_rng

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
        # Three reductions keep this cheap; it runs once per drawn observation.
        if self.freqs.max() >= NYQUIST or self.freqs.min() < 0:
            raise ValueError("component frequencies must lie in [0, 0.5)")
        if self.amps.min() <= 0:
            raise ValueError("component amplitudes must be positive")

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

    Analytic specs sum a_n exp(i (2 pi f_n t + phi_n)); real specs take
    the real part of that sum, a_n cos(2 pi f_n t + phi_n), with a zero
    imaginary part.

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
    return out if spec.analytic else out.real + 0j


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
    """Train/val/test sample matrices plus the recipe that made them."""

    kind: DatasetKind
    seed: int
    train: np.ndarray  # (n_train, 1024)
    val: np.ndarray
    test: np.ndarray

    def partition(self, name: str) -> np.ndarray:
        if name not in _PARTITION_STREAMS:
            raise ValueError(f"unknown partition {name!r}")
        return getattr(self, name)


def _gen_partition(kind, seed, stream, count, full_phase_range):
    out = np.empty((count, N_SAMPLES), dtype=COMPLEX)
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
    return DatasetBundle(
        kind=kind,
        seed=int(seed),
        train=_gen_partition(kind, seed, 0, n_train, full_phase_range),
        val=_gen_partition(kind, seed, 1, n_val, full_phase_range),
        test=_gen_partition(kind, seed, 2, n_test, full_phase_range),
    )


def bundles_equal(a: DatasetBundle, b: DatasetBundle) -> bool:
    return (
        a.kind == b.kind
        and a.seed == b.seed
        and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.train, b.train), (a.val, b.val), (a.test, b.test))
        )
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
# magic "CVDS", version u8 = 1, kind u8, seed u64 LE, counts 3 x u32 LE,
# then train/val/test observations as 1024 little-endian float64 (re, im)
# pairs each. Specs are not stored: draw_spec(kind, make_rng(seed, stream, i))
# regenerates observation i of the partition with stream 0, 1 or 2.

_DATASET_MAGIC = b"CVDS"
_DATASET_VERSION = 1
_HEADER = struct.Struct("<BBQIII")


def write_dataset(bundle: DatasetBundle, path) -> None:
    header = _DATASET_MAGIC + _HEADER.pack(
        _DATASET_VERSION,
        _KIND_TAGS[bundle.kind],
        bundle.seed,
        bundle.train.shape[0],
        bundle.val.shape[0],
        bundle.test.shape[0],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for part in (bundle.train, bundle.val, bundle.test):
            fh.write(np.ascontiguousarray(part, dtype="<c16").tobytes())


def read_dataset(path) -> DatasetBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_DATASET_MAGIC) + _HEADER.size
    if len(blob) < head_len:
        raise FormatError(f"dataset truncated in header at byte {len(blob)}")
    if blob[:4] != _DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {blob[:4]!r} at byte 0")
    version, kind_tag, seed, n_train, n_val, n_test = _HEADER.unpack(blob[4:head_len])
    if version != _DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version} at byte 4")
    kinds = {v: k for k, v in _KIND_TAGS.items()}
    if kind_tag not in kinds:
        raise FormatError(f"unknown dataset kind tag {kind_tag} at byte 5")
    parts = {}
    offset = head_len
    for name, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        nbytes = count * N_SAMPLES * 16
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise FormatError(f"dataset truncated in {name} at byte {offset + len(chunk)}")
        parts[name] = (
            np.frombuffer(chunk, dtype="<c16").astype(COMPLEX).reshape(count, N_SAMPLES)
        )
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"trailing bytes in dataset at byte {offset}")
    return DatasetBundle(kind=kinds[kind_tag], seed=seed, **parts)


# ---------------------------------------------------------------------------
# Model-facing views
# ---------------------------------------------------------------------------

def model_dims(kind: DatasetKind, field: str) -> tuple[int, int]:
    """(d_in, d_out) a model needs for this dataset kind and field.

    Real models on analytic data see split re/im vectors (twice the width);
    real models on real data see the real part only.
    """
    if field == "complex":
        return FRAME_LEN, FRAME_LEN
    if field == "real":
        return (2 * FRAME_LEN, 2 * FRAME_LEN) if kind.analytic else (FRAME_LEN, FRAME_LEN)
    raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


def _observations(samples: np.ndarray) -> np.ndarray:
    """Samples as a complex (n, 1024) matrix; one observation may be 1-D."""
    samples = np.asarray(samples, dtype=COMPLEX)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[1] != N_SAMPLES:
        raise ValueError(f"expected {N_SAMPLES}-sample observations, got {samples.shape}")
    return samples


def _frame_view(
    samples: np.ndarray, index: int, kind: DatasetKind, field: str, order: str = "K"
) -> np.ndarray:
    """Frame `index` of every observation, one per column, as the model sees it.

    Real-valued kinds give float64 in both fields: their imaginary part is
    exactly zero, so a complex model multiplies real frames (autodiff.matmul
    then runs real GEMMs). order="C" returns a row-major array; the default
    "K" keeps each observation's column contiguous.
    """
    if field not in ("complex", "real"):
        raise ValueError(f"field must be 'complex' or 'real', got {field!r}")
    frame = samples[:, index * FRAME_LEN : (index + 1) * FRAME_LEN].T  # (256, n) complex
    if not kind.analytic:
        return frame.real.astype(np.float64, order=order)
    if field == "complex":
        return np.asarray(frame, order=order)
    out = np.empty((2 * FRAME_LEN, frame.shape[1])) if order == "C" else None
    return np.concatenate([frame.real, frame.imag], axis=0, out=out)


def build_views(
    samples: np.ndarray, kind: DatasetKind, field: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """Batch input/target matrices, one observation per column.

    Real-valued kinds (sawtooth, inharmonic): the real part, (256, n), as
    float64, for both fields; the imaginary part is exactly zero.
    Analytic kinds, complex field: the complex frames, (256, n), complex128.
    Analytic kinds, real field: concatenated [re_0..re_255, im_0..im_255],
    (512, n), as float64.

    The target is C-contiguous, like the model's prediction, so the
    residual pred - target runs over both in the same order.
    This is the one entry point from samples to model inputs (training and
    evaluation), so the finiteness of the data is checked here, once per
    call; the frames then enter the graph as unchecked constants.
    """
    samples = ensure_finite(_observations(samples), "samples")
    frames = [_frame_view(samples, i, kind, field) for i in range(N_FRAMES - 1)]
    return frames, _frame_view(samples, N_FRAMES - 1, kind, field, order="C")


def target_view(samples: np.ndarray, kind: DatasetKind, field: str) -> np.ndarray:
    """build_views' target alone: only the last frame is read, checked and widened."""
    samples = _observations(samples)
    ensure_finite(samples[:, (N_FRAMES - 1) * FRAME_LEN :], "samples")
    return _frame_view(samples, N_FRAMES - 1, kind, field, order="C")
