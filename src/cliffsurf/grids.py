"""Uniform sampling grids, scalar fields, and their spectral counterparts.

These types are shared between the volume-construction layer and the
spectral operators, so they live in one dependency-free module; so does
write_rows, the text-row formatter of the volume and mesh writers.

Conventions fixed here once for the whole package:

* voxel (i, j, k) is centered at origin + spacing * (i, j, k);
* arrays are indexed [x, y, z] in C order, so the z index varies fastest
  in memory (which is also the file ordering of the volume writers);
* angular wavenumbers are w_i = 2*pi*k_i / (N_i * h) in rad per length
  unit, with the signed integer bin indices k_i of the standard FFT
  layout. All spectral symbols in the package are written in terms of
  these w_i, never in cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform 3D grid: origin, one spacing for all axes, dims."""

    origin: tuple[float, float, float]
    spacing: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.origin) != 3 or not all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be 3 finite floats, got {self.origin}")
        if not (self.spacing > 0 and np.isfinite(self.spacing)):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if len(self.dims) != 3 or any(n < 2 for n in self.dims):
            raise ValueError(f"dims must be 3 integers >= 2, got {self.dims}")

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis voxel center coordinates."""
        return tuple(
            self.origin[a] + self.spacing * np.arange(self.dims[a]) for a in range(3)
        )

    def meshes(self, sparse: bool = True):
        """Voxel center coordinate arrays, broadcastable to the full grid."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=sparse)


@dataclass(frozen=True)
class GridSpec2:
    """Uniform 2D grid; exists for the planar transform demonstrations."""

    dims: tuple[int, int]
    spacing: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if len(self.dims) != 2 or any(n < 2 for n in self.dims):
            raise ValueError(f"dims must be 2 integers >= 2, got {self.dims}")
        if not (self.spacing > 0 and np.isfinite(self.spacing)):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")


@dataclass(frozen=True, eq=False)
class ScalarField3:
    """Real scalar samples on a GridSpec.

    The constructor checks shape and dtype only; operations that require
    finite data (filtering, export, meshing) validate that themselves so
    a deliberately poisoned field can exercise their error paths.

    values is a read-only view of a float64 input, not a snapshot (other
    dtypes are converted once): writing to the caller's array afterwards
    changes the field. The package's producers hand over fresh arrays.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.dims:
            raise ValueError(
                f"values shape {v.shape} does not match grid dims {self.grid.dims}"
            )
        v = v.view()  # own flags: the caller's array stays writeable
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    def is_finite(self) -> bool:
        # no per-voxel mask: a NaN reaches both extremes, an infinity is one
        v = self.values
        return bool(np.isfinite(v.min()) and np.isfinite(v.max()))


def _smooth_enough(n: int, primes=(2, 3, 5, 7)) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def next_smooth(n: int) -> int:
    """Smallest integer >= n whose prime factors are all in {2, 3, 5, 7}."""
    n = max(int(n), 2)
    while not _smooth_enough(n):
        n += 1
    return n


@dataclass(frozen=True)
class SpectralGrid:
    """Wavenumber bookkeeping for the FFT of a uniform grid (any rank).

    Bin k of an N-point axis carries the signed index of np.fft.fftfreq
    and the angular wavenumber w = 2*pi*k/(N*h). The w = 0 bin exists
    exactly once per axis; for even N the Nyquist bin sits at index N/2
    and is assigned the negative frequency.

    half=True selects the real-FFT (np.fft.rfftn) layout instead: the
    last axis keeps only its N//2 + 1 nonnegative bins (np.fft.rfftfreq,
    even-N Nyquist at +N/2), the other axes stay full. The omitted bins
    are the complex conjugates of kept ones, which every even symbol
    (a function of w^2) treats identically.
    """

    dims: tuple[int, ...]
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "spacing", float(self.spacing))
        if any(n < 2 for n in self.dims):
            raise ValueError(f"all dims must be >= 2, got {self.dims}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @classmethod
    def from_grid(cls, grid) -> "SpectralGrid":
        return cls(dims=grid.dims, spacing=grid.spacing)

    def w_axes(self, zero_nyquist: bool = False, half: bool = False) -> list[np.ndarray]:
        """Angular wavenumbers per axis.

        zero_nyquist suppresses the unpaired even-N Nyquist bin; odd
        (sign-sensitive) spectral symbols need that to keep real fields
        real, even symbols keep the bin. half: real-FFT last axis.
        """
        out = []
        last = len(self.dims) - 1
        for a, n in enumerate(self.dims):
            freq = np.fft.rfftfreq if half and a == last else np.fft.fftfreq
            w = 2.0 * np.pi * freq(n, d=self.spacing)
            if zero_nyquist and n % 2 == 0:
                w = w.copy()
                w[n // 2] = 0.0
            out.append(w)
        return out

    def w_meshes(self):
        """Broadcastable (sparse) wavenumber components, Nyquist bins zeroed."""
        return np.meshgrid(*self.w_axes(zero_nyquist=True), indexing="ij", sparse=True)

    def w2(self, half: bool = False) -> np.ndarray:
        """|w|^2 over the full (or real-FFT half) spectrum, Nyquist bins included."""
        meshes = np.meshgrid(*self.w_axes(half=half), indexing="ij", sparse=True)
        return reduce(np.add, (m * m for m in meshes))


# rows formatted per write_rows chunk: a few MB of text at a time
_ROWS_PER_WRITE = 1 << 16


def write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write every row of a 2D array through one printf-style row template.

    Each chunk of rows is a single `%` on the template repeated once per
    row, straight into the open text file, so the text is the same as
    formatting value by value while only one chunk's strings are alive.
    """
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start : start + _ROWS_PER_WRITE]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))
