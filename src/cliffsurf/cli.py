"""End-to-end pipeline: structure file in, smoothed isosurface meshes out.

Stages run in a fixed order (input, grid, rasterize, filter, extract,
output) and any failure aborts with a stage-tagged message on stderr and
a stage-family exit code: 2 input, 3 configuration, 4 compute, 5 output.
A RunConfig checks every setting when it is built, so any RunConfig that
exists is valid, and the CLI reports a setting it refuses at stage config.
build_parser's one option table serves flags and config files alike and
checks no more than a value's type, so a value refused by flag, by config
file or through the API gets the one text of the object that holds it.
Each output's extension picks its format, read by the writer itself:
surface.write_mesh for a mesh and volumetrics.VolumeWriter for a volume.
A run that fails leaves no output file: each writer removes the file it
was writing, and the run removes the files it had finished, both through
grids.remove_output, which leaves a device or a named pipe alone. Only a
manifest that cannot be written, after every file is whole, leaves them.

The run manifest (stdout) records every effective parameter, grid shape,
field ranges, per-surface metrics, and wall-clock per stage. Mesh, volume,
and metrics files contain no timings or other run-varying content, so two
runs of one configuration produce byte-identical files regardless of
thread count; only the manifest's timing lines differ.

The filter stage transforms the real initial field, the scalar channel
of the Clifford-Fourier transform, on the band of bins that any time of
the run can keep; pdefilter says why that is exact. The one forward
spectrum serves every time, bit-identical to single-time runs, and
several peel-off passes apply their summed gain 1 - (1 - L)^K in one step.

The grid streams through the run in slabs of SLAB axis-0 planes, and no
array the size of the grid is alive. One slab pass feeds each rasterized
slab to the initial range and the forward transform of the band. Per
time, a second pass inverts the band slab by slab and feeds each slab to
the field's range, the volume file, and the marching cubes of every
isovalue, which carry the vertex ids of the plane they share with the
next slab. Only the range scans the field's extremes: a NaN or an
infinity fails at stage extract before the volume file or a marcher sees
its slab. At the end of the pass, in isovalue order, each isovalue must
lie inside the open range and outside the box faces' range, (face_min,
face_max], where it would cut a box face and give an open mesh; else the
run fails at stage extract and names the fixes, more padding or a
smaller time. So a run holds the band, a few slabs' arrays, and the
meshes of one time, one per isovalue, while they grow; each surface is
then finished and measured while one second thread writes its mesh
file, and the thread is joined before the next surface is finished, so
only sweep(), which returns its meshes, holds more than one. Both
threads only read the mesh. Every file is the one the whole-array
functions write, byte for byte.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import os
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import NoReturn

import numpy as np

from . import molecule, volumetrics
from .grids import SlabRange, check_finite, check_positive, new_file, read_text, remove_output
from .pdefilter import (
    DEFAULT_HALF_ORDER,
    BandForward,
    FilterParams,
    SpectralBand,
    check_passes,
    default_coefficients,
    field_slabs,
    filter_gain,
    spectral_energy,
    zero_gain_frac,
)
from .surface import SlabMarcher, mesh_metrics, write_mesh

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
    """The pipeline's parameters, checked when built; every field has a value.

    Building one fills in the init kind's default isovalue, makes d, times
    and isovalues tuples of Python floats and the other float settings
    Python floats, as FilterParams and GridSpec do, and raises ValueError
    for any setting a run refuses. Each per-kind rule is volumetrics':
    the default isovalue from DEFAULT_ISOVALUES and the isovalue range
    from check_isovalue, so no kind is named here.
    """

    input_path: str
    input_format: str = "auto"
    init_kind: str = "piecewise"
    spacing: float = volumetrics.DEFAULT_SPACING
    padding: float = volumetrics.DEFAULT_PADDING
    s: float = volumetrics.DEFAULT_BUMP_HEIGHT
    r_e: float = volumetrics.DEFAULT_BUMP_DECAY
    d: tuple[float, ...] = default_coefficients()  # PDE order 2 * len(d)
    epsilon: float = 0.0
    times: tuple[float, ...] = (100.0,)
    isovalues: tuple[float, ...] | None = None  # None: the init kind's default
    passes: int = 1
    mesh_out: str | None = None
    volume_out: str | None = None
    metrics_out: str | None = None
    mem_cap_gib: float = volumetrics.DEFAULT_MEM_CAP / 1024**3

    def __post_init__(self):
        isovalues = self.isovalues
        if isovalues is None:  # an unknown kind gets NaN, and is refused below
            isovalues = (volumetrics.DEFAULT_ISOVALUES.get(self.init_kind, np.nan),)
        for name in ("spacing", "padding", "s", "r_e", "epsilon", "mem_cap_gib"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name, values in (("d", self.d), ("times", self.times), ("isovalues", isovalues)):
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if self.input_format not in molecule.FORMATS:
            raise ValueError(
                f"format must be one of {molecule.FORMATS}, got {self.input_format!r}"
            )
        volumetrics.check_init_kind(self.init_kind)
        volumetrics.check_grid_settings(self.spacing, self.padding)
        volumetrics.check_bump_settings(self.s, self.r_e)
        check_passes(self.passes)
        # each time's parameter set validates d, epsilon and the time
        if not self.filter_params:
            raise ValueError("need at least one propagation time")
        if not self.isovalues:
            raise ValueError("need at least one isovalue")
        for iso in self.isovalues:
            volumetrics.check_isovalue(self.init_kind, iso)
        # output names and manifest keys print values with %g
        for name, values in (("time", self.times), ("isovalue", self.isovalues)):
            if len({f"{v:g}" for v in values}) < len(values):
                raise ValueError(f"{name}s must differ in their %g form, got {_fmt(values)}")
        # None is no output; an empty path names no file
        for name in ("mesh_out", "volume_out", "metrics_out"):
            if getattr(self, name) == "":
                raise ValueError(f"{name.replace('_', '-')} must name a file, got an empty path")
        # no output may overwrite the input or another output
        seen = {os.path.realpath(self.input_path)}
        for path in self._output_paths():
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"output {path} would overwrite the input or another output")
            seen.add(real)
        check_positive("mem-cap", self.mem_cap_gib)

    @property
    def filter_params(self) -> tuple[FilterParams, ...]:
        """One FilterParams per time, in the order of times."""
        return tuple(FilterParams(d=self.d, epsilon=self.epsilon, t=t) for t in self.times)

    def _output_paths(self) -> list[str]:
        """Every file a run of this config writes, volumes first."""
        paths = [self._output_path(self.volume_out, t) for t in self.times if self.volume_out]
        return paths + [
            self._output_path(base, t, iso)
            for base in (self.mesh_out, self.metrics_out)
            if base
            for t in self.times
            for iso in self.isovalues
        ]

    def _output_path(self, base: str, t: float, iso: float | None = None) -> str:
        """The file written from base at time t (and isovalue iso for a surface).

        A volume is written once per time and a surface file once per time
        and isovalue; where base names more than one file, each gets the
        suffix _t<t> (and _iso<iso>) before its extension.
        """
        if len(self.times) * (1 if iso is None else len(self.isovalues)) == 1:
            return base
        stem, ext = os.path.splitext(base)  # a dot in a directory is not an extension
        return stem + f"_t{t:g}" + ("" if iso is None else f"_iso{iso:g}") + ext


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


class _MeshWriter(threading.Thread):
    """Writes one mesh file on a thread of its own, started at once.

    Both threads only read the mesh. wait() joins the thread and re-raises
    the write's error; seconds is the write's own duration. A whole file's
    path is appended to written. The thread drops the mesh and the path
    when it ends.
    """

    def __init__(self, mesh, path: str, written: list[str]):
        super().__init__(name="cliffsurf-mesh-writer")
        self._job = (mesh, path, written)
        self._error: BaseException | None = None
        self.seconds = 0.0
        self.start()

    def run(self):
        start = time.perf_counter()
        try:
            mesh, path, written = self._job
            write_mesh(mesh, path)
            written.append(path)
        except BaseException as exc:
            self._error = exc
        finally:
            del self._job
            self.seconds = time.perf_counter() - start

    def wait(self):
        self.join()
        if self._error is not None:
            raise self._error


def _surfaces(cfg: RunConfig, manifest: list[str]) -> Iterator[dict]:
    """Run the pipeline, appending the manifest lines to manifest.

    Yields one mapping per (t, isovalue) combo right after its files are
    written, and holds no mesh of its own across a yield.
    """
    timings: dict[str, float] = {}  # seconds per stage

    @contextlib.contextmanager
    def stage(name, path=None):
        # an OSError on path fails as the file it was reading or writing
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            message = str(exc)
            if path is not None and isinstance(exc, OSError):
                message = f"cannot {'read' if name == 'input' else 'write'} {path}: {exc}"
            raise StageError(name, message) from exc
        finally:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start

    def feed(parts, producer, consumers):
        # each slab of parts, made under stage producer, goes to every
        # consumer, a (stage, path, add), in order, under that stage; the
        # slab is released before the next one is made
        parts = iter(parts)
        while True:
            with stage(producer):
                part = next(parts, None)
            if part is None:
                return
            for name, path, add in consumers:
                with stage(name, path):
                    add(part)
            del part

    with stage("input", cfg.input_path):
        text = read_text(cfg.input_path)
        mol = molecule.parsers()[cfg.input_format](text, cfg.input_path)

    with stage("grid"):
        grid = volumetrics.make_grid(
            mol,
            spacing=cfg.spacing,
            padding=cfg.padding,
            # a power-of-two scale, exact: the refusal reads the cap as given
            mem_cap_bytes=cfg.mem_cap_gib * 1024**3,
        )

    # each slab of the initial field goes straight into the forward
    # transform over the band of every time, which serves them all
    with stage("filter"):
        forward = BandForward(SpectralBand.of(grid, cfg.filter_params))
    initial = SlabRange(grid.dims)
    # the check below reports an overflow; numpy's warnings would repeat it
    with np.errstate(all="ignore"):
        parts = volumetrics.initial_slabs(cfg.init_kind, mol, grid, cfg.s, cfg.r_e)
        feed(parts, "rasterize", [("rasterize", None, initial.add), ("filter", None, forward.add)])
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
        f"input.format: {mol.source.format}",
        f"input.atoms: {len(mol)}",
        f"init.kind: {cfg.init_kind}",
        f"init.s: {_fmt(cfg.s)}",
        f"init.re: {_fmt(cfg.r_e)}",
        f"grid.spacing: {_fmt(cfg.spacing)}",
        f"grid.padding: {_fmt(cfg.padding)}",
        f"grid.dims: {_fmt(grid.dims)}",
        f"grid.origin: {_fmt(grid.origin)}",
        f"grid.mem_cap_gib: {_fmt(cfg.mem_cap_gib)}",
        f"filter.order: {2 * len(cfg.d)}",
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

    # a run that fails leaves no output file: each writer removes its own
    # unfinished file, and the run removes the ones already finished
    written: list[str] = []  # the finished output files
    writer = None
    try:
        # one time at a time, and within it one pass over the filtered field's
        # slabs, which feeds the range, the volume file and every isovalue's
        # extraction; no slab outlives its pass
        for i, (t, params) in enumerate(zip(cfg.times, cfg.filter_params)):
            with stage("filter"):
                # the peel-off passes fold into the closed-form gain 1 - (1 - L)^K;
                # the smoothness indicator is read off the retained band
                gain = filter_gain(params, band, cfg.passes)
                zero_frac = zero_gain_frac(gain, band)
                retained = spectrum * gain
                del gain
                if i == len(cfg.times) - 1:
                    del spectrum  # keep it out of the last extraction's peak
                energy = spectral_energy(retained, band, ENERGY_W2_THRESHOLD)
                parts = field_slabs(retained, band)
                del retained
                field = SlabRange(grid.dims)
            # the range scans each slab first, so a NaN fails at stage extract
            # before the volume file or a marcher sees it
            consumers = [
                ("filter", None, field.add),
                ("extract", None, lambda part: check_finite(field.min, field.max)),
            ]
            volume = None
            # a pass that fails removes its partial volume file
            with contextlib.ExitStack() as files:
                if cfg.volume_out:
                    path = cfg._output_path(cfg.volume_out, t)
                    with stage("output", path):
                        volume = files.enter_context(volumetrics.VolumeWriter(grid, path))
                    consumers.append(("output", path, volume.write))
                with stage("extract"):
                    marchers = [SlabMarcher(grid, iso) for iso in cfg.isovalues]
                consumers += [("extract", None, marcher.add) for marcher in marchers]
                feed(parts, "filter", consumers)
                if volume is not None:
                    with stage("output", path):
                        files.close()  # finishes the file
                    written.append(path)

            key = f"run[t={t:g}]"
            manifest += [
                f"{key}.field.min: {_fmt(field.min)}",
                f"{key}.field.max: {_fmt(field.max)}",
                f"{key}.field.face_min: {_fmt(field.face_min)}",
                f"{key}.field.face_max: {_fmt(field.face_max)}",
                f"{key}.highband_energy: {_fmt(energy)}",
                f"{key}.filter.zero_gain_frac: {_fmt(zero_frac)}",
            ]
            if volume is not None:
                manifest.append(f"{key}.volume_file: {path}")

            # each surface is finished, then measured while a second thread
            # writes its mesh file, and both end before the next is finished
            for iso, marcher in zip(cfg.isovalues, marchers):
                key = f"run[t={t:g},iso={iso:g}]"
                with stage("extract"):
                    mesh = marcher.finish(field)
                    # the mesh is open exactly when the isovalue cuts the box faces
                    if field.face_min < iso <= field.face_max:
                        raise ValueError(
                            f"isovalue {iso} lies in the box-face range ({field.face_min}, "
                            f"{field.face_max}]; the surface reaches the box and would be open: "
                            "use more --padding or a smaller --time"
                        )
                    writer = None
                    if cfg.mesh_out:
                        path = cfg._output_path(cfg.mesh_out, t, iso)
                        writer = _MeshWriter(mesh, path, written)
                    metrics = mesh_metrics(mesh)
                combo = {"t": t, "isovalue": iso, "mesh": mesh, "metrics": metrics}
                # one list renders both the manifest's mesh block and the report
                values = [("vertices", mesh.n_vertices), ("triangles", mesh.n_triangles)]
                values += asdict(metrics).items()
                manifest += [f"{key}.mesh.{name}: {_fmt(v)}" for name, v in values]
                if writer is not None:
                    with stage("output", path):
                        writer.wait()
                    timings["mesh_write"] = timings.get("mesh_write", 0.0) + writer.seconds
                    combo["mesh_file"] = path
                    manifest.append(f"{key}.mesh_file: {path}")
                if cfg.metrics_out:
                    path = cfg._output_path(cfg.metrics_out, t, iso)
                    lines = [("t", t), ("isovalue", iso), *values]
                    report = "".join(f"{name}: {_fmt(v)}\n" for name, v in lines)
                    with stage("output", path), new_file(path) as fh:
                        fh.write(report.encode())
                    written.append(path)
                    combo["metrics_file"] = path
                    manifest.append(f"{key}.metrics_file: {path}")
                yield combo
                del combo, mesh, metrics  # else it lives through the next extraction
    except BaseException:
        if writer is not None:  # its mesh file may still be finishing
            writer.join()
        for path in written:
            remove_output(path)
        raise

    # in pipeline order; the mesh writes, which overlap the extract stage,
    # follow the output stage's wait for them
    ran = [name for name in (*_STAGE_EXIT, "mesh_write") if name in timings]
    manifest += [f"timing.{name}_s: {timings[name]:.3f}" for name in ran]


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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout, with no line broken at a word's hyphen.

    So a name such as piecewise-swapped stays whole at any width.
    """

    def _split_lines(self, text, width):
        import textwrap  # as argparse does: only when help is formatted

        return textwrap.wrap(self._whitespace_matcher.sub(" ", text).strip(), width,
                             break_on_hyphens=False)

    def _fill_text(self, text, width, indent):
        return "\n".join(indent + line for line in self._split_lines(text, width - len(indent)))


def build_parser() -> argparse.ArgumentParser:
    """The one option table, for flags and config files alike.

    Each dest is the RunConfig field it sets; only order and dcoeff are
    translated, into d.
    """
    p = _Parser(
        prog="cliffsurf",
        description=(
            "Generate smooth molecular isosurfaces by spectral high-order "
            "PDE filtering of atom-derived scalar fields."
        ),
        allow_abbrev=False,  # a prefix is neither a flag nor a config key
        formatter_class=_HelpFormatter,
    )
    p.add_argument("--input", dest="input_path", help="structure file (PQR, PDB, or XYZR)")
    p.add_argument(
        "--format",
        dest="input_format",
        help=f"input format: {', '.join(molecule.FORMATS)} (default auto)",
    )
    p.add_argument(
        "--init",
        dest="init_kind",
        help=f"initial field kind: {', '.join(volumetrics.INIT_KINDS)} (default piecewise)",
    )
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
    p.add_argument("--volume-out", help="filtered volume output path (.raw raw, else OpenDX)")
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
        lines = read_text(path).split("\n")
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
    """Merge CLI flags over config-file values over defaults; no output may be the config file."""
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

    try:
        config = RunConfig(d=_parse_dcoeff(values.pop("dcoeff", []), m), **values)
    except ValueError as exc:
        raise StageError("config", str(exc)) from exc
    if args.config:  # the config file is an input the RunConfig does not name
        real = os.path.realpath(args.config)
        for path in config._output_paths():
            if os.path.realpath(path) == real:
                raise StageError("config", f"output {path} would overwrite the config file")
    return config


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
        try:
            sys.stdout.write(manifest)
            sys.stdout.flush()  # a full disk or a closed pipe fails here
        except OSError as exc:
            raise StageError("output", f"cannot write the manifest: {exc}") from exc
    except StageError as exc:
        print(exc.tagged(), file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


def console_main() -> NoReturn:
    """The process entry of `cliffsurf` and `python -m cliffsurf`.

    Runs main() and ends the process with its exit code without tearing
    the interpreter down, which frees every module and array for about
    30 ms. By then every output file is closed and every writer thread
    joined, and main() has reported any failure to write the manifest;
    stdout and stderr are flushed here, as os._exit does not.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError):  # already reported, or nowhere to report it
            stream.flush()
    os._exit(code)
