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
than a full turn). Frequencies are in cycles/sample with Nyquist at 0.5.

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

synthesize and generate_bundle share one render path: blocks of one
observation or many share a pass of that block math and are added straight
into their rows. A partition draws an observation's components a block at a
time, so its memory is bounded by the block whatever the harmonic count (a
drawn WaveformSpec holds every component), and each row has the bytes
synthesize(draw_spec(...)) gives it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complex_ops import COMPLEX, BlockFormat, Field, FormatError, ensure_finite, make_rng

N_SAMPLES = 1024
FRAME_LEN = 256
N_FRAMES = 4
NYQUIST = 0.5

_PARTITION_STREAMS = {"train": 0, "val": 1, "test": 2}
PARTITIONS = tuple(_PARTITION_STREAMS)


class DatasetKind(str, Enum):
    SAWTOOTH = "sawtooth"
    SAWTOOTH_ANALYTIC = "sawtooth-analytic"
    INHARMONIC = "inharmonic"
    INHARMONIC_ANALYTIC = "inharmonic-analytic"

    @property
    def analytic(self) -> bool:
        return self in (DatasetKind.SAWTOOTH_ANALYTIC, DatasetKind.INHARMONIC_ANALYTIC)

    @property
    def field(self) -> Field:
        return Field.COMPLEX if self.analytic else Field.REAL


_KIND_TAGS = {
    DatasetKind.SAWTOOTH: 0,
    DatasetKind.SAWTOOTH_ANALYTIC: 1,
    DatasetKind.INHARMONIC: 2,
    DatasetKind.INHARMONIC_ANALYTIC: 3,
}
_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass(frozen=True)
class WaveformSpec:
    """Component lists (frequency, amplitude, phase), 1-D float64, plus the analytic flag."""

    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    analytic: bool

    def __post_init__(self):
        for name in ("freqs", "amps", "phases"):  # contiguous float64 input is not copied
            value = Field.REAL.cast(getattr(self, name), f"component {name} must be real")
            if value.ndim != 1:
                raise ValueError(f"component arrays must be 1-D, got {name} of shape {value.shape}")
            object.__setattr__(self, name, value)
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
_BATCH_OBS = 64  # blocks per batch: 1 MB of 32 x 32 products


class _Workspace:
    """Scratch that _render reuses batch after batch, touching the same pages
    where fresh multi-megabyte temporaries would be handed back to the OS
    and faulted in again."""

    def __init__(self):
        self.theta = np.empty((_BLOCK, 2 * _SPLIT))
        self.phasors = np.empty((_BLOCK, 2 * _SPLIT), dtype=COMPLEX)
        self.prods = np.empty((_BATCH_OBS, _SPLIT, _SPLIT), dtype=COMPLEX)


def _render(batch, out: np.ndarray, work: _Workspace) -> None:
    """Add a batch of (count, row, (freqs, amps, phases)) blocks into their rows of out.

    Laid out by component count and checked by WaveformSpec's rules, the
    blocks' turns, cos/sin and amplitudes run in one pass. Blocks of equal
    count share one stacked outer.T @ inner with the shape and operand
    layout of each block's own product, so every row gets the same bits
    either way. Each product is added straight into its row (its real part
    into a float64 row) by a fancy-indexed +=, which keeps only one of two
    additions to the same row, so a batch must hold at most one block per
    row. It does: every block of a long observation but its last has
    exactly _BLOCK components and so fills a batch alone (_render_rows).
    """
    batch.sort(key=lambda obs: obs[0])
    counts, rows, blocks = zip(*batch)
    freqs, amps, phases = (np.concatenate(parts) for parts in zip(*blocks))
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
    samples = out.reshape(len(out), _SPLIT, _SPLIT)
    lo = j = 0
    for k, run in itertools.groupby(counts):
        m = len(list(run))
        hi = lo + m * k
        stacked = outer[lo:hi].reshape(m, k, _SPLIT).transpose(0, 2, 1)
        prods = np.matmul(stacked, inner[lo:hi].reshape(m, k, _SPLIT), out=work.prods[:m])
        samples[list(rows[j:j + m])] += prods if out.dtype == COMPLEX else prods.real
        lo, j = hi, j + m


def _render_rows(rows, count: int, analytic: bool) -> np.ndarray:
    """(count, 1024) samples, row i the sum of rows[i]'s (freqs, amps, phases) blocks.

    A block, of at most _BLOCK components, joins the pending batch, which is
    rendered once the next block would overflow _BLOCK components or it
    holds _BATCH_OBS blocks; only that batch is held, whatever the harmonic count.
    """
    # Zeros written up front: _render reads a row before writing it, and a page
    # of np.zeros faults on that read and again on the write (92k minor faults,
    # not 48k, for a 10000/1000/1000 inharmonic-analytic bundle on 4 KiB pages).
    out = np.full((count, N_SAMPLES), 0.0, dtype=COMPLEX if analytic else np.float64)
    work = _Workspace()
    batch, size = [], 0  # (component count, row, block) per pending block
    for row, blocks in enumerate(rows):
        for block in blocks:
            n = len(block[0])
            if size + n > _BLOCK or len(batch) == _BATCH_OBS:
                _render(batch, out, work)
                batch, size = [], 0
            batch.append((n, row, block))
            size += n
    if batch:
        _render(batch, out, work)
    return out


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
    are added in a fixed order, so the rendering's scratch is bounded for
    any harmonic count (the spec itself is not) and equal specs give equal
    bits. generate_bundle renders through the same _render_rows and gives
    every observation the bits synthesize(draw_spec(...)) gives it.

    Over 3000 draws of each kind, samples differ from the direct
    per-sample sum by at most 9.3e-13 of the signal's peak, and sit closer
    to an extended-precision sum than the direct sum does (1.9e-13 against
    6.8e-13 of the peak, 300 draws).
    """
    blocks = ((spec.freqs[lo:lo + _BLOCK], spec.amps[lo:lo + _BLOCK], spec.phases[lo:lo + _BLOCK])
              for lo in range(0, len(spec.freqs), _BLOCK))
    return _render_rows([blocks], 1, spec.analytic)[0]


# Each kind's draw order is stated once, in its generator, which yields the
# observation's (freqs, amps, phases) blocks, each of _BLOCK components but
# the last. Drawing a uniform array in pieces gives the same values as
# drawing it whole (O'Neill, "PCG", HMC-CS-2014-0905, 2014), so the phases
# can be drawn block by block as the blocks are rendered.

def _draw_sawtooth(rng: np.random.Generator):
    """Fundamental f0 ~ U(0, 0.5); harmonics n = 1, 2, ... while n*f0 < Nyquist.

    Amplitudes follow 1/n, the fundamental's included, and each component
    gets an independent phase. Draw order: f0, then every phase.
    """
    f0 = rng.uniform(0.0, NYQUIST)
    while f0 == 0.0:  # uniform() can return its lower bound
        f0 = rng.uniform(0.0, NYQUIST)
    n_max = math.ceil(NYQUIST / f0) - 1
    for lo in range(0, n_max, _BLOCK):
        n = np.arange(lo + 1, min(lo + _BLOCK, n_max) + 1, dtype=np.float64)
        yield f0 * n, 1.0 / n, rng.uniform(0.0, 1.0, len(n))


_INHARMONIC_AMPS = np.full(5, 0.2)
_INHARMONIC_AMPS.flags.writeable = False  # shared by every draw; specs and batches copy it


def _draw_inharmonic(rng: np.random.Generator):
    """Five independent uniform frequencies, amplitude 0.2 each, in one block.

    Draw order: the five frequencies, then the five phases.
    """
    freqs = rng.uniform(0.0, NYQUIST, 5)
    phases = rng.uniform(0.0, 1.0, 5)
    yield freqs, _INHARMONIC_AMPS, phases


def _draw(kind: DatasetKind, rng: np.random.Generator):
    if kind in (DatasetKind.SAWTOOTH, DatasetKind.SAWTOOTH_ANALYTIC):
        return _draw_sawtooth(rng)
    return _draw_inharmonic(rng)


def draw_spec(kind: DatasetKind | str, rng: np.random.Generator) -> WaveformSpec:
    """One observation's spec, whole: the blocks of the kind's _draw_* generator joined."""
    kind = DatasetKind(kind)
    blocks = _draw(kind, rng)
    freqs, amps, phases = (np.concatenate(parts) for parts in zip(*blocks))
    return WaveformSpec(freqs=freqs, amps=amps, phases=phases, analytic=kind.analytic)


def draw_sawtooth_spec(rng: np.random.Generator) -> WaveformSpec:
    return draw_spec(DatasetKind.SAWTOOTH, rng)


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
        object.__setattr__(self, "kind", DatasetKind(self.kind))
        for name in PARTITIONS:
            object.__setattr__(self, name, _observations(getattr(self, name), self.kind))

    def partition(self, name: str) -> np.ndarray:
        if name not in PARTITIONS:
            raise ValueError(f"unknown partition {name!r}")
        return getattr(self, name)


def _gen_partition(kind, seed, stream, count):
    """Observations 0..count-1 of one partition, rendered in batches.

    Observation i draws from make_rng(seed, stream, i), its phases a block
    at a time as _render_rows takes its blocks, and row i has the bytes of
    synthesize(draw_spec(kind, make_rng(seed, stream, i))).
    """
    drawn = (_draw(kind, make_rng(seed, stream, i)) for i in range(count))
    return _render_rows(drawn, count, kind.analytic)


def generate_bundle(
    kind: DatasetKind | str,
    seed: int,
    n_train: int = 10000,
    n_val: int = 1000,
    n_test: int = 1000,
) -> DatasetBundle:
    kind = DatasetKind(kind)
    counts = {"train": n_train, "val": n_val, "test": n_test}
    return DatasetBundle(kind=kind, seed=int(seed), **{
        name: _gen_partition(kind, seed, stream, counts[name])
        for name, stream in _PARTITION_STREAMS.items()
    })


def bundles_equal(a: DatasetBundle, b: DatasetBundle) -> bool:
    return (
        a.kind == b.kind
        and a.seed == b.seed
        and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.partition(n), b.partition(n)) for n in PARTITIONS)
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
    parts = [bundle.partition(name) for name in PARTITIONS]
    _FORMAT.write(path, (_KIND_TAGS[bundle.kind], bundle.seed, *(len(p) for p in parts)), parts)


def _layout(kind_tag, seed, *counts):
    if kind_tag not in _KINDS:
        raise FormatError(f"unknown dataset kind tag {kind_tag} at byte 5")
    dtype = _KINDS[kind_tag].field.dtype
    return [(name, (n, N_SAMPLES), dtype) for name, n in zip(PARTITIONS, counts)]


def read_dataset(path) -> DatasetBundle:
    (kind_tag, seed, *_), parts = _FORMAT.read(path, _layout)
    return DatasetBundle(kind=_KINDS[kind_tag], seed=seed, **parts)


def read_partition(path, name: str) -> tuple[DatasetKind, np.ndarray]:
    """(kind, samples) of one partition, checked as by read_dataset; the rest is not kept."""
    if name not in PARTITIONS:
        raise ValueError(f"unknown partition {name!r}")
    (kind_tag, *_), parts = _FORMAT.read(path, _layout, keep={name})
    return _KINDS[kind_tag], parts[name]


# ---------------------------------------------------------------------------
# Model-facing views
# ---------------------------------------------------------------------------

def model_dims(kind: DatasetKind | str, field: Field | str) -> tuple[int, int]:
    """(d_in, d_out) a model needs for this dataset kind and field.

    Real models on analytic data see each complex frame split into its
    real and imaginary parts, twice the width, in the samples' own memory
    order re x_0, im x_0, re x_1, im x_1, ...; real models on real data see
    the real part only.
    """
    kind, field = DatasetKind(kind), Field(field)
    width = FRAME_LEN * kind.field.dof if field is Field.REAL else FRAME_LEN
    return width, width


def _observations(samples: np.ndarray, kind: DatasetKind | str) -> np.ndarray:
    """Samples as a C-contiguous (n, 1024) matrix of the kind's dtype; one observation may be 1-D.

    The one dtype rule: the kind's field's, by Field.cast, whose narrowing
    real-field models share: complex input for a real-valued kind must
    have an exactly zero imaginary part.
    C-contiguous complex128 and float64 input pass uncopied; contiguous
    rows are what lets complex samples be read as float64 (build_views).
    """
    kind = DatasetKind(kind)
    samples = kind.field.cast(samples, f"{kind.value} samples must have a zero imaginary part")
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[1] != N_SAMPLES:
        raise ValueError(f"expected {N_SAMPLES}-sample observations, got {samples.shape}")
    return samples


def build_views(
    samples: np.ndarray, kind: DatasetKind | str, field: Field | str
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
