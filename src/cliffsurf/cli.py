"""End-to-end pipeline: structure file in, smoothed isosurface meshes out.

Stages run in a fixed order (input, grid, rasterize, filter, extract,
output) and any failure aborts with a stage-tagged message on stderr and
a stage-family exit code: 2 input, 3 configuration, 4 compute, 5 output.

The run manifest (stdout) records every effective parameter, grid shape,
field ranges, per-surface metrics, and wall-clock per stage. Mesh, volume,
and metrics files contain no timings or other run-varying content, so two
runs of one configuration produce byte-identical files regardless of
thread count; only the manifest's timing lines differ.

The filter stage runs on the real FFT of the initial field, which for a
real field is exactly the scalar channel of the Clifford-Fourier
transform, so no multivector is built. It works on the band: per axis,
the sorted bins whose squared wavenumber alone gets a nonzero gain at
some propagation time of the run. Every bin outside the band's box gets
a gain of exactly 0, because a bin's w^2 is at least each of its axis
terms and the rounded gain exponent cannot fall as w^2 grows; the
default filter keeps a few hundred of a million bins. So the run makes
one forward transform of the band (rfftn's passes, keeping only band
bins after each) and, per time, weights the band and inverts it
(irfftn's passes on zero-filled band lines), and the field is
bit-identical to full rfftn / irfftn. With eps > 0 no gain is 0 and the
band is every bin. The manifest's filter.zero_gain_frac is the share of
the half spectrum whose gain is 0. Sweeps over several propagation times
reuse the one forward spectrum (it does not depend on t); results are
bit-identical to independent single-time runs because the per-time
arithmetic is the same operations on the same spectrum. Several peel-off
passes apply their closed-form summed gain 1 - (1 - L)^K in one step,
equal to summing the mode_decompose modes up to rounding.

The grid streams through the run in slabs of SLAB axis-0 planes, and no
array the size of the grid is alive. Each rasterized slab goes straight
into the forward transform of the band. Per time, one pass inverts the
band slab by slab and feeds each slab to the field's range, the volume
file, and the marching cubes of every isovalue, which carry the vertex
ids of the plane they share with the next slab. The range checks of
extraction wait for the end of the pass and fail in isovalue order. So
a run holds the band, a few slabs' arrays, and the meshes of one time,
one per isovalue, while they grow; each surface is then finished,
measured and written before the next, and only sweep(), which returns
its meshes, holds them all. Every file is the one the whole-array
functions write, byte for byte.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import volumetrics
from .grids import GridSpec, SlabRange
from .molecule import Molecule, parse_auto, parse_pdb, parse_pqr, parse_xyzr
from .pdefilter import (
    DEFAULT_HALF_ORDER,
    BandForward,
    FilterParams,
    SpectralBand,
    default_coefficients,
    field_slabs,
    filter_gain,
    spectral_energy,
)
from .surface import SlabMarcher, mesh_metrics, write_obj, write_off

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_COMPUTE = 4
EXIT_OUTPUT = 5

_STAGE_EXIT = {
    "input": EXIT_INPUT,
    "config": EXIT_CONFIG,
    "grid": EXIT_COMPUTE,
    "rasterize": EXIT_COMPUTE,
    "filter": EXIT_COMPUTE,
    "extract": EXIT_COMPUTE,
    "output": EXIT_OUTPUT,
}

INIT_KINDS = ("piecewise", "gaussian", "piecewise-swapped")
FORMATS = ("pqr", "pdb", "xyzr", "auto")

# diagnostic band edge for the manifest's smoothness indicator, rad^2/A^2
ENERGY_W2_THRESHOLD = 0.25


class StageError(Exception):
    """Pipeline failure attributed to one stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        self.exit_code = _STAGE_EXIT[stage]
        super().__init__(message)

    def tagged(self) -> str:
        return f"error[stage={self.stage}]: {super().__str__()}"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline parameters; everything has a value."""

    input_path: str
    input_format: str = "auto"
    init_kind: str = "piecewise"
    spacing: float = volumetrics.DEFAULT_SPACING
    padding: float = volumetrics.DEFAULT_PADDING
    s: float = volumetrics.DEFAULT_BUMP_HEIGHT
    r_e: float = volumetrics.DEFAULT_BUMP_DECAY
    m: int = DEFAULT_HALF_ORDER
    d: tuple[float, ...] | None = None  # None: single highest-order term
    epsilon: float = 0.0
    times: tuple[float, ...] = (100.0,)
    isovalues: tuple[float, ...] | None = None  # None: per-init default
    passes: int = 1
    mesh_out: str | None = None
    volume_out: str | None = None
    volume_format: str | None = None  # dx | raw | None: by extension
    metrics_out: str | None = None
    mem_cap_gib: float = volumetrics.DEFAULT_MEM_CAP / 1024**3

    def resolved(self) -> "RunConfig":
        """Fill derived defaults and validate cross-field consistency."""
        d = tuple(self.d) if self.d is not None else default_coefficients(self.m)
        isovalues = self.isovalues
        if isovalues is None:
            # the swapped binary field is the complement of the piecewise
            # one, so its natural default is the mirrored level 1 - 0.9
            isovalues = {"gaussian": (0.8,), "piecewise-swapped": (0.1,)}.get(
                self.init_kind, (0.9,)
            )
        cfg = replace(self, d=d, isovalues=tuple(isovalues))
        cfg.validate()
        return cfg

    def validate(self):
        if self.input_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.input_format!r}")
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"init must be one of {INIT_KINDS}, got {self.init_kind!r}")
        volumetrics.check_grid_settings(self.spacing, self.padding)
        if not 0 < self.s < np.inf:
            raise ValueError(f"s must be positive and finite, got {self.s}")
        if not 0 < self.r_e < np.inf:
            raise ValueError(f"re must be positive and finite, got {self.r_e}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if not self.times or any(not (t > 0 and np.isfinite(t)) for t in self.times):
            raise ValueError(f"every propagation time must be positive, got {self.times}")
        if not self.isovalues:
            raise ValueError("need at least one isovalue")
        for iso in self.isovalues:
            if not np.isfinite(iso):
                raise ValueError(f"isovalue must be finite, got {iso}")
            if self.init_kind != "gaussian" and not 0.0 < iso <= 1.0:
                raise ValueError(
                    f"isovalue must lie in (0, 1] for binary initial data, got {iso}"
                )
            if self.init_kind == "gaussian" and not iso > 0:
                raise ValueError(f"isovalue must be positive, got {iso}")
        # output names and manifest keys print values with %g
        for name, values in (("time", self.times), ("isovalue", self.isovalues)):
            if len({f"{v:g}" for v in values}) < len(values):
                raise ValueError(f"{name}s must differ in their %g form, got {_fmt(values)}")
        # no output may overwrite the input or another output
        paths = [self._output_path(self.volume_out, t) for t in self.times if self.volume_out]
        paths += [
            self._output_path(base, t, iso)
            for base in (self.mesh_out, self.metrics_out)
            if base
            for t in self.times
            for iso in self.isovalues
        ]
        seen = {os.path.realpath(self.input_path)}
        for path in paths:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"output {path} would overwrite the input or another output")
            seen.add(real)
        if self.volume_format not in (None, "dx", "raw"):
            raise ValueError(f"volume format must be dx or raw, got {self.volume_format}")
        if not 0 < self.mem_cap_gib < np.inf:
            raise ValueError(f"mem-cap must be positive and finite, got {self.mem_cap_gib}")
        # constructing one parameter set validates m, d, epsilon jointly
        FilterParams(m=self.m, d=self.d, epsilon=self.epsilon, t=self.times[0])

    def _output_path(self, base: str, t: float, iso: float | None = None) -> str:
        """The file written from base at time t (and isovalue iso for a surface)."""
        if iso is None:  # a volume: one per time
            return _combo_path(base, t, None, len(self.times) > 1)
        return _combo_path(base, t, iso, len(self.times) > 1 or len(self.isovalues) > 1)


def _combo_path(base: str, t: float | None, iso: float | None, multi: bool) -> str:
    if not multi:
        return base
    stem, ext = os.path.splitext(base)  # a dot in a directory is not an extension
    suffix = ""
    if t is not None:
        suffix += f"_t{t:g}"
    if iso is not None:
        suffix += f"_iso{iso:g}"
    return stem + suffix + ext


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _rasterize(cfg: RunConfig, mol: Molecule, grid: GridSpec) -> Iterator[np.ndarray]:
    if cfg.init_kind == "gaussian":
        return volumetrics.gaussian_slabs(mol, grid, s=cfg.s, r_e=cfg.r_e)
    parts = volumetrics.piecewise_slabs(mol, grid)
    if cfg.init_kind == "piecewise-swapped":
        return (1.0 - part for part in parts)
    return parts


def _volume_writer(grid: GridSpec, path: str, fmt: str | None) -> volumetrics.VolumeWriter:
    if fmt is None:
        fmt = "raw" if path.lower().endswith(".raw") else "dx"
    return volumetrics.VolumeWriter(grid, path, fmt)


def _write_mesh(mesh, path: str):
    if path.lower().endswith(".off"):
        write_off(mesh, path)
    else:
        write_obj(mesh, path)


def _write_text(text: str, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


@contextlib.contextmanager
def _writing(path: str):
    """An OSError in the block becomes a tagged output failure for path."""
    try:
        yield
    except OSError as exc:
        raise StageError("output", f"cannot write {path}: {exc}") from exc


def _surfaces(config: RunConfig, manifest: list[str]) -> Iterator[dict]:
    """Run the pipeline, appending the manifest lines to manifest.

    Yields one mapping per (t, isovalue) combo right after its files are
    written, and holds no mesh of its own across a yield.
    """
    try:
        cfg = config.resolved()
    except ValueError as exc:
        raise StageError("config", str(exc)) from exc

    timings: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def stage(name):
        start = time.perf_counter()
        try:
            yield
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        finally:
            timings.append((name, time.perf_counter() - start))

    def staged(name, parts):
        # the slabs of parts, each one produced under stage(name); a slab is
        # released before the next is made, here and by the loops below
        parts = iter(parts)
        while True:
            with stage(name):
                part = next(parts, None)
            if part is None:
                return
            yield part
            del part

    with stage("input"):
        try:
            with open(cfg.input_path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise StageError("input", f"cannot read {cfg.input_path}: {exc}") from exc
        parser = {
            "pqr": parse_pqr,
            "pdb": parse_pdb,
            "xyzr": parse_xyzr,
            "auto": parse_auto,
        }[cfg.input_format]
        mol = parser(text, cfg.input_path)

    with stage("grid"):
        grid = volumetrics.make_grid(
            mol,
            spacing=cfg.spacing,
            padding=cfg.padding,
            mem_cap_bytes=int(cfg.mem_cap_gib * 1024**3),
        )
    n0, n1, nz = grid.dims

    # each slab of the initial field goes straight into the forward
    # transform over the band of every time, which serves them all
    per_time = [FilterParams(m=cfg.m, d=cfg.d, epsilon=cfg.epsilon, t=t) for t in cfg.times]
    forward = None
    initial = SlabRange(n0)
    # the check below reports an overflow; numpy's warnings would repeat it
    with np.errstate(all="ignore"):
        for part in staged("rasterize", _rasterize(cfg, mol, grid)):
            with stage("rasterize"):
                initial.add(part)
            with stage("filter"):
                if forward is None:  # built here, so the stage timings keep pipeline order
                    forward = BandForward(grid, SpectralBand.of(grid, per_time))
                forward.add(part)
            del part
    with stage("rasterize"):
        initial_min, initial_max = float(initial.min), float(initial.max)  # a NaN reaches both
        # the forward transform sums every voxel: bounded by n_voxels times
        # the largest magnitude, which must be finite too
        if not np.isfinite(max(-initial_min, initial_max) * grid.n_voxels):
            raise ValueError(
                f"the initial field spans [{initial_min:g}, {initial_max:g}], too large "
                f"to transform over {grid.n_voxels} voxels; --s {cfg.s:g} or "
                f"--re {cfg.r_e:g} is out of range"
            )

    manifest += [
        f"input.path: {cfg.input_path}",
        f"input.format: {mol.source.format or cfg.input_format}",
        f"input.atoms: {len(mol)}",
        f"init.kind: {cfg.init_kind}",
        f"init.s: {_fmt(cfg.s)}",
        f"init.re: {_fmt(cfg.r_e)}",
        f"grid.spacing: {_fmt(cfg.spacing)}",
        f"grid.padding: {_fmt(cfg.padding)}",
        f"grid.dims: {_fmt(grid.dims)}",
        f"grid.origin: {_fmt(grid.origin)}",
        f"grid.mem_cap_gib: {_fmt(cfg.mem_cap_gib)}",
        f"filter.order: {2 * cfg.m}",
        f"filter.d: {_fmt(cfg.d)}",
        f"filter.epsilon: {_fmt(cfg.epsilon)}",
        f"filter.passes: {cfg.passes}",
        f"field.initial.min: {_fmt(initial_min)}",
        f"field.initial.max: {_fmt(initial_max)}",
    ]
    for w in mol.source.warnings:
        manifest.append(f"input.warning: {w}")

    with stage("filter"):
        band, spectrum = forward.band, forward.spectrum()
        del forward
    half_bins = n0 * n1 * (nz // 2 + 1)

    # one time at a time, and within it one pass over the filtered field's
    # slabs, which feeds the range, the volume file and every isovalue's
    # extraction; no slab outlives its pass
    for i, (t, params) in enumerate(zip(cfg.times, per_time)):
        with stage("filter"):
            # the peel-off passes fold into the closed-form gain 1 - (1 - L)^K;
            # the smoothness indicator is read off the retained band
            gain = filter_gain(params, grid, cfg.passes, band)
            zero_gain_frac = 1.0 - np.count_nonzero(gain) / half_bins
            retained = spectrum * gain
            del gain
            if i == len(cfg.times) - 1:
                del spectrum  # keep it out of the last extraction's peak
            energy = spectral_energy(retained, grid, ENERGY_W2_THRESHOLD, band)
            parts = field_slabs(retained, grid, band)
            del retained
            field = SlabRange(n0)
        volume = None
        # a pass that fails removes its partial volume file
        with contextlib.ExitStack() as files:
            if cfg.volume_out:
                path = cfg._output_path(cfg.volume_out, t)
                with stage("output"), _writing(path):
                    volume = files.enter_context(_volume_writer(grid, path, cfg.volume_format))
            with stage("extract"):
                marchers = [SlabMarcher(grid, iso) for iso in cfg.isovalues]
            for part in staged("filter", parts):
                with stage("filter"):
                    field.add(part)
                if volume is not None:
                    with stage("output"), _writing(path):
                        volume.write(part)
                with stage("extract"):
                    for marcher in marchers:
                        marcher.add(part)
                del part
            if volume is not None:
                with stage("output"), _writing(path):
                    files.close()  # finishes the file

        key = f"run[t={t:g}]"
        manifest += [
            f"{key}.field.min: {_fmt(field.min)}",
            f"{key}.field.max: {_fmt(field.max)}",
            f"{key}.field.face_min: {_fmt(field.face_min)}",
            f"{key}.field.face_max: {_fmt(field.face_max)}",
            f"{key}.highband_energy: {_fmt(energy)}",
            f"{key}.filter.zero_gain_frac: {_fmt(zero_gain_frac)}",
        ]
        if volume is not None:
            manifest.append(f"{key}.volume_file: {path}")

        # each surface is finished, measured and written before the next
        for iso, marcher in zip(cfg.isovalues, marchers):
            key = f"run[t={t:g},iso={iso:g}]"
            with stage("extract"):
                mesh = marcher.finish()
                metrics = mesh_metrics(mesh)
            combo = {"t": t, "isovalue": iso, "mesh": mesh, "metrics": metrics}
            # one list renders both the manifest's mesh block and the report
            values = [("vertices", mesh.n_vertices), ("triangles", mesh.n_triangles)]
            values += asdict(metrics).items()
            manifest += [f"{key}.mesh.{name}: {_fmt(v)}" for name, v in values]
            if cfg.mesh_out:
                path = cfg._output_path(cfg.mesh_out, t, iso)
                with stage("output"), _writing(path):
                    _write_mesh(mesh, path)
                combo["mesh_file"] = path
                manifest.append(f"{key}.mesh_file: {path}")
            if cfg.metrics_out:
                path = cfg._output_path(cfg.metrics_out, t, iso)
                lines = [("t", t), ("isovalue", iso), *values]
                report = "".join(f"{name}: {_fmt(v)}\n" for name, v in lines)
                with stage("output"), _writing(path):
                    _write_text(report, path)
                combo["metrics_file"] = path
                manifest.append(f"{key}.metrics_file: {path}")
            yield combo
            del combo, mesh, metrics  # else it lives through the next extraction

    agg: dict[str, float] = {}
    for name, dt in timings:
        agg[name] = agg.get(name, 0.0) + dt
    manifest += [f"timing.{name}_s: {dt:.3f}" for name, dt in agg.items()]


def execute(config: RunConfig) -> str:
    """Run the pipeline and return the manifest text, keeping no mesh.

    Raises StageError; callers decide between exceptions and exit codes.
    """
    manifest: list[str] = []
    collections.deque(_surfaces(config, manifest), maxlen=0)  # holds no item
    return "\n".join(manifest) + "\n"


def sweep(config: RunConfig) -> list[dict]:
    """Execute over the config's time and isovalue lists.

    Returns one mapping per (t, isovalue) combination with the mesh, its
    metrics, and any output paths, so every mesh stays alive. The real
    forward transform of the initial field is computed once for the whole
    sweep.
    """
    return list(_surfaces(config, []))


def _parse_dcoeff(entries: list[str], m: int) -> tuple[float, ...]:
    d = list(default_coefficients(m))
    for entry in entries:
        j_txt, _, v_txt = entry.partition(":")
        try:
            j = int(j_txt)
            v = float(v_txt)
        except ValueError:
            raise ValueError(f"--dcoeff expects j:value, got {entry!r}") from None
        if not 1 <= j <= m:
            raise ValueError(f"--dcoeff index {j} outside 1..{m}")
        d[j - 1] = v
    return tuple(d)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the config exit code
        raise StageError("config", message)


def build_parser() -> argparse.ArgumentParser:
    """The one option table, for flags and config files alike.

    Each dest is the RunConfig field it sets; only order and dcoeff are
    translated, into m and d.
    """
    p = _Parser(
        prog="cliffsurf",
        description=(
            "Generate smooth molecular isosurfaces by spectral high-order "
            "PDE filtering of atom-derived scalar fields."
        ),
        allow_abbrev=False,  # a prefix is neither a flag nor a config key
    )
    p.add_argument("--input", dest="input_path", help="structure file (PQR, PDB, or XYZR)")
    p.add_argument(
        "--format", dest="input_format", choices=FORMATS, help="input format (default auto)"
    )
    p.add_argument("--init", dest="init_kind", choices=INIT_KINDS, help="initial field kind")
    p.add_argument("--spacing", type=float, help="grid spacing in Angstrom")
    p.add_argument("--padding", type=float, help="box padding in Angstrom")
    p.add_argument("--s", type=float, help="bump height for the smooth initial field")
    p.add_argument("--re", dest="r_e", type=float, help="bump decay length in Angstrom")
    p.add_argument("--order", type=int, help="PDE order 2m (even, default 12)")
    p.add_argument(
        "--dcoeff",
        action="append",
        metavar="J:VALUE",
        help="set diffusion coefficient d_J (repeatable)",
    )
    p.add_argument("--epsilon", type=float, help="fidelity weight")
    p.add_argument(
        "--time",
        dest="times",
        action="append",
        type=float,
        metavar="T",
        help="propagation time (repeatable)",
    )
    p.add_argument(
        "--isovalue",
        dest="isovalues",
        action="append",
        type=float,
        metavar="V",
        help="extraction isovalue (repeatable)",
    )
    p.add_argument("--passes", type=int, help="number of peel-off filter passes")
    p.add_argument("--mesh-out", help="mesh output path (.obj or .off)")
    p.add_argument("--volume-out", help="filtered volume output path")
    p.add_argument(
        "--volume-format", choices=("dx", "raw"), help="volume format (default by extension)"
    )
    p.add_argument("--metrics-out", help="metrics report output path")
    p.add_argument("--mem-cap", dest="mem_cap_gib", type=float, help="grid memory cap in GiB")
    p.add_argument("--config", help="flat key=value config file")
    return p


# config keys holding comma-separated lists, one flag token per item
_LIST_KEYS = ("time", "isovalue", "dcoeff")


def _config_file_values(path: str) -> dict[str, object]:
    """A config file's key=value lines, parsed as the flags --key=value.

    A later line for a key replaces an earlier one. Returns the values the
    file gives, keyed like the parser's namespace.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise StageError("config", f"cannot read {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise StageError("config", f"{path} line {line_no}: expected key=value")
        raw[key.strip()] = value.strip()
    tokens = []
    for key, value in raw.items():
        if key in ("help", "config"):  # flags, but not run settings
            raise StageError("config", f"unknown config key {key!r}")
        items = value.split(",") if key in _LIST_KEYS else [value]
        # one --key=value token per item, so a value may begin with '-'
        tokens += [f"--{key}={item.strip()}" for item in items]
    try:
        args, unknown = build_parser().parse_known_args(tokens)
    except StageError as exc:
        raise StageError("config", f"bad value in {path}: {exc}") from None
    if unknown:
        key = unknown[0][2:].partition("=")[0]
        raise StageError("config", f"unknown config key {key!r}")
    return {k: v for k, v in vars(args).items() if v is not None}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over built-in defaults."""
    values = _config_file_values(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if v is not None)
    values.pop("config", None)
    if "input_path" not in values:
        raise StageError("config", "--input is required")

    m = DEFAULT_HALF_ORDER
    order = values.pop("order", None)
    if order is not None:
        if order % 2 != 0 or order < 2:
            raise StageError("config", f"--order must be a positive even integer, got {order}")
        m = order // 2

    d = None
    dcoeff_entries = values.pop("dcoeff", None)
    if dcoeff_entries is not None:
        try:
            d = _parse_dcoeff(dcoeff_entries, m)
        except ValueError as exc:
            raise StageError("config", str(exc)) from exc

    for key in ("times", "isovalues"):
        if key in values:
            values[key] = tuple(values[key])
    return RunConfig(m=m, d=d, **values)


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _reuse_freed_memory() -> None:
    """Keep freed heap blocks for reuse, where the C library is glibc.

    A streamed run allocates and frees the same few MB for every slab.
    glibc's default thresholds follow the largest block freed so far, and
    with no grid-sized array ever freed they hand those MB back to the
    system after each slab and fault them in again: at 135^3 with an
    OpenDX volume, 49k minor page faults instead of 9k and 0.1 s more
    system time. Fixed thresholds keep blocks under 32 MB in the heap and
    up to 64 MB of free heap; the peak RSS grows by about 1 MB.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _reuse_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        manifest = execute(config)
    except StageError as exc:
        print(exc.tagged(), file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(manifest)
    return EXIT_OK
