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
transcendentals. Samples differ from the direct per-sample sum by less
than 1e-12 of the signal's peak.

generate_bundle renders a partition in batches: the components of many
observations share one pass of that block math. An observation of more
than one block is streamed instead, its components drawn a block at a
time, so generation's memory is bounded by the block whatever the
harmonic count; a drawn WaveformSpec, by contrast, holds every
component. Each row has the bytes synthesize(draw_spec(...)) gives it.
"""

from __future__ import annotations

import itertools
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
        _check_components(self.freqs, self.amps, self.phases)

    @property
    def fundamental(self) -> float:
        return float(self.freqs[0])


def _check_components(freqs, amps, phases) -> None:
    """WaveformSpec's rules on equal-length component arrays, of one or many observations."""
    if len(freqs) == 0:
        return
    # At most two reductions per array keep this cheap; it runs once per spec
    # and once per rendered batch. A NaN fails every comparison, so each
    # test is written to pass only on in-range values.
    if not (0 <= freqs.min() and freqs.max() < NYQUIST):
        raise ValueError("component frequencies must lie in [0, 0.5)")
    if not (0 < amps.min() and amps.max() < np.inf):
        raise ValueError("component amplitudes must be positive and finite")
    if not np.isfinite(phases).all():
        raise ValueError("component phases must be finite")


# synthesize() splits the sample index as t = _SPLIT * a + b, a and b in
# [0, _SPLIT). Columns 0.._SPLIT-1 of _SPLIT_STEPS are the outer steps
# _SPLIT * a, the rest the inner steps b.
_SPLIT = 32  # N_SAMPLES == _SPLIT ** 2
_SPLIT_STEPS = np.concatenate([_SPLIT * np.arange(_SPLIT), np.arange(_SPLIT)]).astype(np.float64)
_BLOCK = 4096  # components per block: 4 MB of complex phasors
_BATCH_OBS = 64  # observations per batch: 1 MB of 32 x 32 accumulators


class _Workspace:
    """Scratch that _render reuses from block to block.

    Up to n_components components of up to n_obs observations. Rendering
    into the same arrays batch after batch touches the same pages, where
    fresh multi-megabyte temporaries per batch would be handed back to the
    OS and faulted in again.
    """

    def __init__(self, n_components: int, n_obs: int):
        self.theta = np.empty((n_components, 2 * _SPLIT))
        self.phasors = np.empty((n_components, 2 * _SPLIT), dtype=COMPLEX)
        self.prods = np.empty((n_obs, _SPLIT, _SPLIT), dtype=COMPLEX)
        self.accs = np.empty((n_obs, _SPLIT, _SPLIT), dtype=COMPLEX)


def _render(freqs, amps, phases, counts, work: _Workspace) -> None:
    """Add one block of components, from one or many observations, to their accumulators.

    The components are laid out observation after observation, counts[j]
    of them for the observation whose 32 x 32 accumulator is
    work.accs[j]. The block is checked by WaveformSpec's rules, then the
    turns, cos/sin and amplitudes run once over all of it. A run of
    observations with equal counts shares one stacked outer.T @ inner,
    whose matrices have the shape and operand layout each observation's
    product has when it is rendered alone, so every observation gets the
    same bits either way.
    """
    _check_components(freqs, amps, phases)
    theta, phasors = work.theta[:len(freqs)], work.phasors[:len(freqs)]
    np.multiply(freqs[:, None], _SPLIT_STEPS, out=theta)  # (K, 64) cycles
    np.rint(theta, out=phasors.real)  # whole turns, parked where cos goes next
    theta -= phasors.real
    theta *= 2.0 * np.pi
    theta[:, :_SPLIT] += phases[:, None]
    np.cos(theta, out=phasors.real)
    np.sin(theta, out=phasors.imag)
    outer, inner = phasors[:, :_SPLIT], phasors[:, _SPLIT:]
    outer *= amps[:, None]
    lo = j = 0
    for k, run in itertools.groupby(counts):
        m = len(list(run))
        hi = lo + m * k
        stacked = outer[lo:hi].reshape(m, k, _SPLIT).transpose(0, 2, 1)
        prods = np.matmul(stacked, inner[lo:hi].reshape(m, k, _SPLIT), out=work.prods[:m])
        work.accs[j:j + m] += prods
        lo, j = hi, j + m


def _render_stream(blocks, analytic: bool, work: _Workspace) -> np.ndarray:
    """One observation's samples from its (freqs, amps, phases) blocks, summed in order.

    Only the block being rendered is held, so a drawn observation's memory
    is bounded by the block, not by its harmonic count (_gen_partition).
    """
    acc = work.accs[:1]
    acc[...] = 0.0
    for freqs, amps, phases in blocks:
        _render(freqs, amps, phases, (len(freqs),), work)
    out = acc.reshape(N_SAMPLES)
    return out.copy() if analytic else out.real.copy()


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
    which is exact and keeps them small. Blocks hold 4096 components and
    are summed in a fixed order, so the rendering's scratch is bounded for
    any harmonic count (the spec itself is not) and equal specs give equal
    bits. generate_bundle renders through the same block code and gives
    every observation the bits synthesize(draw_spec(...)) gives it.

    Over 3000 draws of each kind, samples differ from the direct
    per-sample sum by at most 9.3e-13 of the signal's peak, and sit closer
    to an extended-precision sum than the direct sum does (1.9e-13 against
    6.8e-13 of the peak, 300 draws).
    """
    k = len(spec.freqs)
    blocks = (
        (spec.freqs[lo:lo + _BLOCK], spec.amps[lo:lo + _BLOCK], spec.phases[lo:lo + _BLOCK])
        for lo in range(0, k, _BLOCK)
    )
    return _render_stream(blocks, spec.analytic, _Workspace(min(k, _BLOCK), 1))


# Each kind's draw order, stated once: a draw returns the observation's
# component count and a generator of its (freqs, amps, phases) blocks of at
# most _BLOCK components. Drawing a uniform array in pieces gives the same
# values as drawing it whole (O'Neill, "PCG", HMC-CS-2014-0905, 2014), so
# the phases can be drawn block by block as the blocks are rendered.

def _draw_sawtooth(rng: np.random.Generator, phase_hi: float):
    f0 = rng.uniform(0.0, NYQUIST)
    while f0 == 0.0:  # uniform() can return its lower bound
        f0 = rng.uniform(0.0, NYQUIST)
    n_max = math.ceil(NYQUIST / f0) - 1

    def blocks():
        for lo in range(0, n_max, _BLOCK):
            n = np.arange(lo + 1, min(lo + _BLOCK, n_max) + 1, dtype=np.float64)
            yield f0 * n, 1.0 / n, rng.uniform(0.0, phase_hi, len(n))

    return n_max, blocks()


_INHARMONIC_AMPS = np.full(5, 0.2)
_INHARMONIC_AMPS.flags.writeable = False  # shared by every draw; specs and batches copy it


def _draw_inharmonic(rng: np.random.Generator, phase_hi: float):
    freqs = rng.uniform(0.0, NYQUIST, 5)
    phases = rng.uniform(0.0, phase_hi, 5)
    return 5, iter([(freqs, _INHARMONIC_AMPS, phases)])


def _draw(kind: DatasetKind, rng: np.random.Generator, full_phase_range: bool):
    phase_hi = 2.0 * np.pi if full_phase_range else 1.0
    if kind in (DatasetKind.SAWTOOTH, DatasetKind.SAWTOOTH_ANALYTIC):
        return _draw_sawtooth(rng, phase_hi)
    return _draw_inharmonic(rng, phase_hi)


def _spec(drawn, analytic: bool) -> WaveformSpec:
    _, blocks = drawn
    freqs, amps, phases = (np.concatenate(parts) for parts in zip(*blocks))
    return WaveformSpec(freqs=freqs, amps=amps, phases=phases, analytic=analytic)


def draw_sawtooth_spec(
    rng: np.random.Generator, analytic: bool = False, full_phase_range: bool = False
) -> WaveformSpec:
    """Fundamental U[0, 0.5); harmonics n = 2, 3, ... while n*f0 < Nyquist.

    Amplitudes follow 1/n including the fundamental (1/1). Each component
    gets an independent phase. Draw order: f0, then all phases.
    """
    return _spec(_draw(DatasetKind.SAWTOOTH, rng, full_phase_range), analytic)


def draw_inharmonic_spec(
    rng: np.random.Generator, analytic: bool = False, full_phase_range: bool = False
) -> WaveformSpec:
    """Five independent uniform frequencies, amplitude 0.2 each.

    Draw order: the five frequencies, then the five phases.
    """
    return _spec(_draw(DatasetKind.INHARMONIC, rng, full_phase_range), analytic)


def draw_spec(
    kind: DatasetKind, rng: np.random.Generator, full_phase_range: bool = False
) -> WaveformSpec:
    return _spec(_draw(kind, rng, full_phase_range), kind.analytic)


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
    """Observations 0..count-1 of one partition, rendered in batches.

    Each observation draws from its own make_rng(seed, stream, i) and
    joins the pending batch, which is rendered once the next observation
    would overflow the block or it holds _BATCH_OBS observations. An
    observation of more than _BLOCK components is rendered alone, its
    phases drawn block by block (_render_stream). Row i equals
    synthesize(draw_spec(kind, make_rng(seed, stream, i),
    full_phase_range)) byte for byte.
    """
    out = np.empty((count, N_SAMPLES), dtype=COMPLEX if kind.analytic else np.float64)
    work = _Workspace(_BLOCK, _BATCH_OBS)
    batch, size = [], 0  # (component count, row, components) per pending observation
    for i in range(count):
        n, blocks = _draw(kind, make_rng(seed, stream, i), full_phase_range)
        if n > _BLOCK:
            out[i] = _render_stream(blocks, kind.analytic, work)
            continue
        if size + n > _BLOCK or len(batch) == _BATCH_OBS:
            _render_batch(batch, out, work)
            batch, size = [], 0
        batch.append((n, i, next(blocks)))
        size += n
    if batch:
        _render_batch(batch, out, work)
    return out


def _render_batch(batch, out, work: _Workspace) -> None:
    """Render pending observations into their rows of out in one pass.

    They are laid out by component count, so observations of equal count
    sit side by side and share one stacked product (_render).
    """
    batch.sort(key=lambda obs: obs[0])
    counts, rows, blocks = zip(*batch)
    accs = work.accs[:len(rows)]
    accs[...] = 0.0
    _render(*(np.concatenate(parts) for parts in zip(*blocks)), counts, work)
    samples = accs.reshape(len(rows), N_SAMPLES)
    out[list(rows)] = samples if out.dtype == COMPLEX else samples.real


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
    order re x_0, im x_0, re x_1, im x_1, ...; real models on real data see
    the real part only.
    """
    if field == "complex":
        return FRAME_LEN, FRAME_LEN
    if field == "real":
        return (2 * FRAME_LEN, 2 * FRAME_LEN) if kind.analytic else (FRAME_LEN, FRAME_LEN)
    raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


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
    The input frames and the target are views of the samples in every
    case, each column contiguous, one sample row apart; nothing is copied.
    autodiff.mse builds the residual pred - target in the prediction's
    row-major layout.
    This is the one entry point from samples to model inputs (training and
    evaluation), so the finiteness of the data is checked here, once per
    call; the frames then enter the graph as unchecked constants.
    """
    samples = ensure_finite(_observations(samples, kind), "samples")
    width = model_dims(kind, field)[0]
    if width == 2 * FRAME_LEN:
        samples = samples.view(np.float64)  # (n, 2048): each sample as its (re, im) pair
    *frames, target = (samples[:, i * width : (i + 1) * width].T for i in range(N_FRAMES))
    return frames, target
