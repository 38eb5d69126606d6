"""Uniform sampling grids, scalar fields, and their spectral counterparts.

These types are shared between the volume-construction layer and the
spectral operators, so they live in one dependency-free module; so do
write_rows, the text-row formatter of the volume and mesh writers, and
the slab conventions of the streamed pipeline: the CLI rasterizes,
transforms, writes and extracts a grid SLAB planes of axis 0 at a time,
and no stage of a run holds an array the size of the grid.

write_rows formats numbers as arrays, not one Python float at a time: it
fills columns of ASCII bytes from integer digit arithmetic, and its
%.6e, %.6f and %d text is byte-identical to Python's `%` and C printf.
The rounding is proven per value (one correctly rounded scaling by an
exact power of ten, away from a rounding half); a row with a value it
cannot prove, such as an exact tie, a 3-digit exponent or a NaN, is
formatted by Python's `%` instead.

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

import re
from collections.abc import Iterable, Iterator
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

    @classmethod
    def from_slabs(cls, grid: GridSpec, parts: Iterable[np.ndarray]) -> "ScalarField3":
        """The field whose consecutive slabs along axis 0 are parts."""
        values = np.empty(grid.dims)
        lo = 0
        for part in parts:
            values[lo : lo + len(part)] = part
            lo += len(part)
        return cls(grid, values)

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    def face_range(self) -> tuple[float, float]:
        """Min and max over the six box faces, read through views.

        The mesh marching_cubes extracts at an isovalue iso is closed
        exactly when not face_min < iso <= face_max: a sample equal to iso
        counts as above it.
        """
        r = SlabRange(self.grid.dims[0])
        r.add(self.values)
        return float(r.face_min), float(r.face_max)

    def is_finite(self) -> bool:
        # no per-voxel mask: a NaN reaches both extremes, an infinity is one
        v = self.values
        return bool(np.isfinite(v.min()) and np.isfinite(v.max()))


# planes of axis 0 per slab of the streamed pipeline
SLAB = 8


def slabs(values: np.ndarray) -> Iterator[np.ndarray]:
    """Views of consecutive SLAB-plane slabs of values along axis 0, the last maybe shorter."""
    return (values[lo : lo + SLAB] for lo in range(0, len(values), SLAB))


class SlabRange:
    """Min and max of a field fed in consecutive slabs along axis 0, overall and on the box faces.

    A min or max is exact in any order, so min, max, face_min and
    face_max are those of the whole array; a NaN reaches all four.
    """

    def __init__(self, n0: int):
        self.n0 = n0
        self.planes = 0
        self.min = self.face_min = np.float64(np.inf)
        self.max = self.face_max = np.float64(-np.inf)

    def add(self, slab: np.ndarray) -> None:
        faces = [slab[:, 0], slab[:, -1], slab[:, :, 0], slab[:, :, -1]]
        if self.planes == 0:
            faces.append(slab[0])
        self.planes += len(slab)
        if self.planes == self.n0:
            faces.append(slab[-1])
        self.min = np.minimum(self.min, slab.min())
        self.max = np.maximum(self.max, slab.max())
        self.face_min = np.minimum(self.face_min, np.min([f.min() for f in faces]))
        self.face_max = np.maximum(self.face_max, np.max([f.max() for f in faces]))


def next_smooth(n: int) -> int:
    """Smallest integer >= n whose prime factors are all in {2, 3, 5, 7}.

    Each candidate is an odd part 3^b 5^c 7^d times the least power of
    two that lifts it to n; odd parts run only below the best candidate
    so far, so this takes O(log^3 n) steps at any n.
    """
    n = max(int(n), 2)
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            p7 = p5
            while p7 < best:
                # 2^a p7 >= n exactly when 2^a >= ceil(n / p7)
                best = min(best, p7 << (-(-n // p7) - 1).bit_length())
                p7 *= 7
            p5 *= 5
        p3 *= 3
    return best


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

    def w2(self, half: bool = False, index=None) -> np.ndarray:
        """|w|^2 over the full (or real-FFT half) spectrum, Nyquist bins included.

        index, one array of bin indices per axis, restricts it to the box
        of those bins, with the same values as the full array has there.
        """
        axes = self.w_axes(half=half)
        if index is not None:
            axes = [w[i] for w, i in zip(axes, index)]
        meshes = np.meshgrid(*axes, indexing="ij", sparse=True)
        return reduce(np.add, (m * m for m in meshes))


# rows formatted per write_rows chunk: a few MB of text at a time
_ROWS_PER_WRITE = 1 << 16

# 10^0 .. 10^22, every power of ten float64 holds exactly (exact products)
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])


def _put_digits(out: np.ndarray, n: np.ndarray) -> None:
    """Write nonnegative integers n as zero-padded ASCII digits into out (..., width)."""
    # floor division by a scalar is fast in numpy; divmod is not. Narrow
    # integers make it faster still. Each digit is stored as a whole column:
    # numpy loops over a narrow last axis row by row.
    n = n.astype(np.uint32 if 10 ** out.shape[-1] <= 2**32 else np.uint64)
    ten, zero, rest = n.dtype.type(10), n.dtype.type(ord("0")), np.empty_like(n)
    for k in range(out.shape[-1] - 1, -1, -1):
        q = n // ten
        np.subtract(n, np.multiply(q, ten, out=rest), out=rest)
        rest += zero
        out[..., k] = rest
        n = q


def _leading_digits(out, keep, n) -> None:
    """ASCII digits of n into out (..., W); keep drops the leading zeros but one."""
    _put_digits(out, n)
    width = out.shape[-1]
    for k in range(width - 1):
        keep[..., k] = n >= 10 ** (width - 1 - k)


def _trim_sign(chars, keep):
    """Drop the sign slot when no value needs it; keep is None when nothing drops.

    The leading digit slot is always used (the width is the widest
    value's), so the sign slot is the only one that can be dropped
    from every row.
    """
    kept = np.count_nonzero(keep)  # counted while keep is contiguous
    if not keep[..., 0].any():
        chars, keep = chars[..., 1:], keep[..., 1:]
    return chars, (None if kept == keep.size else keep)


def _round_scaled(s: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """Where fast, rint(s) if that provably equals the rounded exact value.

    s is one correctly rounded product or quotient, within half an ulp
    (at most s * 2^-53) of the exact scaled value, so both round to the
    same integer unless s lies within s * 2^-52 of a half-integer; exact
    ties (round-half-even in printf) land there too. fast is narrowed in
    place to the values whose rounding is proven; the others read 0.
    """
    s = np.where(fast, s, 0.0)  # no inf or NaN past this point
    frac = s - np.floor(s)  # exact
    fast &= np.abs(frac - 0.5) > s * 2.0**-52
    return np.where(fast, np.rint(s), 0.0)


def _format_e(x: np.ndarray):
    """%.6e: [sign][d].[dddddd]e[+-][dd], 13 slots."""
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))  # a guess, checked by the range of s below
    k = 6.0 - e  # s = |x| * 10^k, kept only while 10^|k| is exact
    fast = np.abs(k) <= 22.0  # False for 0, inf and NaN
    k = np.where(fast, k, 0.0).astype(np.int64)
    s = ax * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]
    # seven significant digits, so e was right; log10 can round across a
    # power of ten, and such values fall back
    fast &= (s >= 1e6) & (s < 1e7)
    m = _round_scaled(s, fast).astype(np.int64)
    carry = m == 10**7
    m[carry] = 10**6
    exp = np.where(fast, 6 - k, 0) + carry  # |exp| <= 29: always two digits
    chars = np.empty(x.shape + (13,), np.uint8)
    lead, tail = np.divmod(m, 10**6)
    _put_digits(chars[..., 1:2], lead)
    _put_digits(chars[..., 3:9], tail)
    _put_digits(chars[..., 11:13], np.abs(exp))
    chars[..., 0] = ord("-")
    chars[..., 2] = ord(".")
    chars[..., 9] = ord("e")
    chars[..., 10] = np.where(exp < 0, ord("-"), ord("+"))
    keep = np.ones(chars.shape, bool)
    keep[..., 0] = np.signbit(x)  # -0.0 prints as -0.000000e+00
    return (*_trim_sign(chars, keep), (ax != 0) & ~fast)  # zeros are exact


def _format_f(x: np.ndarray):
    """%.6f: [sign][integer digits].[dddddd], leading zeros dropped."""
    x = x.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        s = np.abs(x) * 1e6  # exact scale; s >= 2^52 fails the half-integer test
    fast = np.isfinite(s)
    m = _round_scaled(s, fast).astype(np.int64)
    whole, tail = np.divmod(m, 10**6)
    width = len(str(whole.max())) if whole.size else 1
    chars = np.empty(x.shape + (width + 8,), np.uint8)
    keep = np.ones(chars.shape, bool)
    chars[..., 0] = ord("-")
    keep[..., 0] = np.signbit(x)  # values that round to zero keep the sign
    _leading_digits(chars[..., 1 : width + 1], keep[..., 1 : width + 1], whole)
    chars[..., width + 1] = ord(".")
    _put_digits(chars[..., width + 2 :], tail)
    return (*_trim_sign(chars, keep), ~fast)


def _format_d(x: np.ndarray):
    """%d: [sign][digits], leading zeros dropped; integer dtypes only."""
    neg = x < 0
    mag = x.astype(np.uint64)  # two's complement: -mag is |x| for negatives
    mag = np.where(neg, -mag, mag)
    width = len(str(mag.max())) if mag.size else 1
    chars = np.empty(x.shape + (width + 1,), np.uint8)
    keep = np.ones(chars.shape, bool)
    chars[..., 0] = ord("-")
    keep[..., 0] = neg
    _leading_digits(chars[..., 1:], keep[..., 1:], mag)
    return (*_trim_sign(chars, keep), np.zeros(x.shape, bool))


# each maps a column of n values to (chars, keep, bad): their ASCII slots
# (n, width), the slots to keep (None: all of them), and the values whose
# text is not proven, whose rows go through `%`
_FORMATTERS = {"%.6e": _format_e, "%.6f": _format_f, "%d": _format_d}


def _parse_row_format(row_format: str):
    """Split a row template into its literal texts and its conversions."""
    pieces = re.split(r"(%\.6e|%\.6f|%d)", row_format)
    literals, conversions = pieces[0::2], pieces[1::2]
    if any("%" in lit for lit in literals):
        raise ValueError(
            f"row template {row_format!r}: only %.6e, %.6f and %d are supported"
        )
    return [lit.encode() for lit in literals], conversions


def _format_block(row_format, literals, conversions, block) -> bytes:
    """The text of one chunk of rows, as the `%` of each row would give it."""
    if block.dtype.kind not in ("biu" if "%d" in conversions else "biuf"):
        # e.g. %d of floats, which Python truncates: every row through `%`
        return "".join(row_format % tuple(r) for r in block.tolist()).encode()
    columns = [_FORMATTERS[c](block[:, j]) for j, c in enumerate(conversions)]
    n = len(block)
    width = sum(map(len, literals)) + sum(ch.shape[1] for ch, _, _ in columns)
    buf = np.empty((n, width), np.uint8)
    keep = None
    if any(kp is not None for _, kp, _ in columns):
        keep = np.ones((n, width), bool)
    at = 0
    for lit, column in zip(literals, columns + [None]):
        buf[:, at : at + len(lit)] = np.frombuffer(lit, np.uint8)
        at += len(lit)
        if column is not None:
            w = column[0].shape[1]
            buf[:, at : at + w] = column[0]
            if column[1] is not None:
                keep[:, at : at + w] = column[1]
            at += w
    slow = np.flatnonzero(np.any([bad for _, _, bad in columns], axis=0))
    del columns  # the chunk's largest arrays: freed before the compaction
    text = (buf if keep is None else buf[keep]).tobytes()
    if not slow.size:
        return text
    # splice in the exact `%` text of each row the arrays could not prove
    lens = np.full(n, width) if keep is None else keep.sum(axis=1)
    ends = np.cumsum(lens).tolist()
    pieces, at = [], 0
    for i in slow.tolist():
        pieces.append(text[at : ends[i] - int(lens[i])])
        pieces.append((row_format % tuple(block[i].tolist())).encode())
        at = ends[i]
    pieces.append(text[at:])
    return b"".join(pieces)


def write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write every row of a 2D array through one printf-style row template.

    The text is byte for byte what `row_format % tuple(row)` gives for each
    row, which for %.6e, %.6f and %d is also what C printf gives. The
    template is parsed once into literal texts and conversions; any other
    conversion raises ValueError. Each chunk of _ROWS_PER_WRITE rows is
    formatted as arrays: every conversion fills fixed-width uint8 columns of
    ASCII characters, the literals are constant columns, and one boolean
    compaction drops the unused sign and leading-digit slots (skipped when
    nothing is dropped, e.g. a chunk without negatives).

    Rounding is exact by construction. %.6e takes e = floor(log10|x|) and
    s = |x| * 10^(6 - e) in one correctly rounded operation with an exact
    power of ten (at most 1e22); %.6f takes s = |x| * 1e6. Either way s is
    within half an ulp of the exact value, so rint(s) is the printed
    integer unless s lies within s * 2^-52 of a half-integer. A row goes
    through Python's `%` instead when one of its values is not proven that
    way: near a half-integer (exact ties among them), a power of ten past
    1e22 (every 3-digit exponent is), a log10 guess that leaves s outside
    [1e6, 1e7), |x| * 1e6 of 2^52 or more, or inf or NaN. A whole chunk
    does when the dtype is not numeric, or is float under %d. Only one
    chunk's arrays and text are alive at a time.
    """
    literals, conversions = _parse_row_format(row_format)
    if rows.ndim != 2 or rows.shape[1] != len(conversions):
        raise ValueError(
            f"rows of shape {rows.shape} do not fit the {len(conversions)} "
            f"conversions of {row_format!r}"
        )
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start : start + _ROWS_PER_WRITE]
        fh.write(_format_block(row_format, literals, conversions, block).decode())
