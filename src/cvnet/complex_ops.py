"""Array conventions and deterministic random sources.

Waveforms, files and complex-field parameters hold numpy complex128
arrays; real-field models, and the model-facing frames of real-valued
kinds in both fields, hold float64 (autodiff.promote()).
numpy already does the arithmetic well, so this module only pins down
the conventions the rest of the package relies on:
finiteness is enforced at boundaries, shape mismatches raise a DimensionError
naming both shapes, and all randomness flows through seeded PCG64 generators
so that identical seeds give identical streams for a fixed numpy version.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

COMPLEX = np.complex128


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class FormatError(ValueError):
    """A binary file does not match its declared layout."""


def ensure_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Reject NaN/Inf instead of letting them propagate silently."""
    if not np.all(np.isfinite(arr)):
        raise ArithmeticError(f"non-finite values in {name}")
    return arr


def squared_norm(arr: np.ndarray):
    """sum |x|^2 as a float64 scalar.

    A float64 array has no imaginary part to square, so it skips the zero
    array that arr.imag would allocate; x**2 + 0 equals x**2, so the value
    is bit-identical to the complex formula on the same numbers.
    """
    if np.iscomplexobj(arr):
        return np.sum(arr.real**2 + arr.imag**2)
    return np.sum(arr**2)


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Seeded generator; extra ints select independent substreams.

    Substreams derived from the same seed are independent by construction
    (SeedSequence), which lets observation- or trial-level work run in any
    order without changing output bytes.
    """
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def sample_circular_gaussian(
    rng: np.random.Generator, shape: Sequence[int] | int, sigma: float
) -> np.ndarray:
    """Circularly symmetric complex Gaussian with E|z|^2 = sigma^2.

    Real and imaginary parts are independent N(0, sigma^2/2). The real part
    is drawn first, then the imaginary part, so streams are reproducible.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    scale = sigma / np.sqrt(2.0)
    re = rng.normal(0.0, scale, shape)
    im = rng.normal(0.0, scale, shape)
    return re + 1j * im
