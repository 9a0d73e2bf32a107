"""Direct DFT analysis for waveforms and learned filters.

Bin layout of a length-N spectrum: bin 0 is DC, bins 1..N/2 are positive
frequencies, bins N/2+1..N-1 are negative frequencies. The forward
transform is unnormalized, X[k] = sum_t x[t] exp(-2 pi i k t / N), so
Parseval reads sum|x|^2 = (1/N) sum|X|^2. Sizes here top out at 1024, so
the O(N^2) matrix form is plenty and trivially deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .complex_ops import COMPLEX
from .datagen import FRAME_LEN
from .nn import RecurrentModel
from .trainer import ConfigError, write_csv


@lru_cache(maxsize=8)
def dft_matrix(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = np.arange(n)
    m = np.exp(-2j * np.pi * np.outer(k, k) / n).astype(COMPLEX)
    m.setflags(write=False)
    return m


def dft(x: np.ndarray) -> np.ndarray:
    """Spectrum of one signal, a 1-D x."""
    return dft_matrix(len(x)) @ np.asarray(x, dtype=COMPLEX)


def negative_bins(n: int) -> np.ndarray:
    """Indices of the strictly negative frequencies, N/2+1 .. N-1."""
    return np.arange(n // 2 + 1, n)


def filter_response(model: RecurrentModel, row: int) -> np.ndarray:
    """256-point magnitude frequency response of one input-to-hidden row.

    Real models with split re/im inputs (512 wide) read the interleaved
    frames of datagen.build_views; their row is read back as (re, im)
    pairs, the inverse of build_views' float64 view, giving the equivalent
    256-tap complex filter w_re + i*w_im and a 256-bin response.
    """
    if not 0 <= row < model.hidden:
        raise ValueError(f"row must be in [0, {model.hidden}), got {row}")
    w = model.w_in[row, :]
    if w.shape[0] == 2 * FRAME_LEN:
        w = w.view(COMPLEX)
    return np.abs(dft(w))


def write_filters_csv(model: RecurrentModel, rows: int, path) -> None:
    """Long-format export: one line per (filter, bin) with the magnitude."""
    if not 1 <= rows <= model.hidden:
        raise ConfigError(f"rows must be in [1, {model.hidden}], got {rows}")
    write_csv(path, ["filter", "bin", "magnitude"], (
        [r, b, mag] for r in range(rows) for b, mag in enumerate(filter_response(model, r))
    ))
