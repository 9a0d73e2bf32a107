"""Array conventions and deterministic random sources.

Complex-field parameters and the samples of analytic dataset kinds hold
numpy complex128 arrays. Real-field models and the samples of real-valued
kinds, and so their model-facing frames in both fields, hold float64
(autodiff.promote(); as_real() is the one narrowing from complex to
float64). Files store (re, im) pairs for both dtypes.
numpy already does the arithmetic well, so this module only pins down
the conventions the rest of the package relies on:
finiteness is enforced at boundaries, shape mismatches raise a DimensionError
naming both shapes, and all randomness flows through seeded PCG64 generators
so that identical seeds give identical streams for a fixed numpy version.
BlockFormat is the one binary container of dataset and checkpoint files.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Sequence

import numpy as np

COMPLEX = np.complex128

_CHUNK = 1 << 16  # (re, im) pairs staged per block transfer: 1 MiB


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class FormatError(ValueError):
    """A binary file does not match its declared layout."""


@dataclass(frozen=True)
class BlockFormat:
    """Magic, a struct header whose first field is the version, then blocks.

    Blocks are little-endian float64 (re, im) pairs, back to back, with
    nothing after the last. Every layout entry is (name, shape, dtype); a
    float64 block is stored as (re, +0.0) pairs. Every block moves through
    one staging buffer a megabyte at a time in both directions. read()
    raises FormatError with `what` and a byte offset, checking in file
    order: header, magic, version, the caller's tags, each block's length,
    finiteness and (for a float64 block) zero imaginary parts, trailing bytes.
    """

    what: str  # noun for error messages, e.g. "dataset"
    magic: bytes
    header: str  # struct format of the header, version field first
    version: int

    def write(self, path, fields: Sequence, blocks: Iterable[np.ndarray]) -> None:
        """Header fields after the version, then each block in order."""
        staging = np.empty(_CHUNK, "<c16")
        with open(path, "wb") as fh:
            fh.write(self.magic + struct.pack(self.header, self.version, *fields))
            for arr in blocks:
                flat = arr.reshape(-1)
                for lo in range(0, flat.size, _CHUNK):
                    pairs = staging[: min(_CHUNK, flat.size - lo)]
                    pairs[...] = flat[lo : lo + _CHUNK]  # float64 x becomes (x, +0.0)
                    fh.write(pairs)

    def read(
        self, path, layout: Callable[..., Sequence[tuple]], keep: Container[str] | None = None
    ) -> tuple[tuple, dict[str, np.ndarray]]:
        """(header fields after the version, {block name: array}).

        layout(*fields) checks the tags and gives each block's
        (name, shape, dtype), dtype being COMPLEX or np.float64. Only the
        blocks named in keep (default: all) are stored, but all are checked.
        """
        start = len(self.magic)
        offset = start + struct.calcsize(self.header)
        staging = np.empty(_CHUNK, "<c16")
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < offset:
                raise FormatError(f"{self.what} truncated in header at byte {size}")
            head = fh.read(offset)
            if head[:start] != self.magic:
                raise FormatError(f"bad {self.what} magic {head[:start]!r} at byte 0")
            version, *fields = struct.unpack_from(self.header, head, start)
            if version != self.version:
                raise FormatError(f"unsupported {self.what} version {version} at byte {start}")
            blocks = {}
            for name, shape, dtype in layout(*fields):
                count = math.prod(shape)
                if offset + 16 * count > size:
                    raise FormatError(f"{self.what} truncated in {name} at byte {size}")
                real = np.dtype(dtype) == np.float64
                arr = np.empty(count, dtype) if keep is None or name in keep else None
                for lo in range(0, count, _CHUNK):
                    pairs = staging[: min(_CHUNK, count - lo)]
                    fh.readinto(pairs)
                    self._check(pairs, name, offset + 16 * lo, real)
                    if arr is not None:
                        arr[lo : lo + pairs.size] = pairs.real if real else pairs
                if arr is not None:
                    blocks[name] = arr.reshape(shape)
                offset += 16 * count
        if offset != size:
            raise FormatError(f"trailing bytes in {self.what} at byte {offset}")
        return tuple(fields), blocks

    def _check(self, pairs: np.ndarray, name: str, offset: int, real: bool) -> None:
        """Reject a non-finite pair, or a nonzero imaginary part if real, by its byte."""
        good = np.isfinite(pairs)
        if real:
            good &= pairs.imag == 0
        if not good.all():
            i = int(np.argmin(good))
            if np.isfinite(pairs[i]):
                raise FormatError(
                    f"nonzero imaginary part in {self.what} {name} at byte {offset + 16 * i + 8}"
                )
            raise FormatError(f"non-finite value in {self.what} {name} at byte {offset + 16 * i}")


def as_real(arr, message: str) -> np.ndarray:
    """C-contiguous float64 arr, or ValueError(message) if an imaginary part is not 0."""
    if np.iscomplexobj(arr) and np.any(np.imag(arr) != 0):
        raise ValueError(message)
    return np.ascontiguousarray(np.real(arr), dtype=np.float64)


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
