"""Run the cliffsurf CLI in-process with spans around its layer functions.

    python3 perfbench/traced_cli.py --trace-out T.json [--memory] -- CLI ARGS

The spans are installed from here, around the public functions that
cliffsurf.cli.execute calls, by rebinding every name under which a
cliffsurf module holds the function. A function that no longer exists is
recorded as absent and its span simply never opens. numpy.fft entry
points are wrapped as counters (calls, points, computed flops), not spans.

Timing mode records each span's start, end and parent; self time is the
span's duration minus its children's. Counters that need extra work
(active cells, live spectral bins) are computed inside a
"trace.bookkeeping" child span, so they never inflate a layer's self time.

Memory mode (--memory) runs tracemalloc instead, for the whole
invocation, and at each span entry and exit folds the running peak into
every open span and resets it, so each span ends up with the highest
traced total seen while it was open. tracemalloc slows allocation-heavy
Python loops by 6-20x (on a 2-vCPU KVM guest at 135^3: marching cubes
2.1 s -> 42 s, OpenDX export 5.0 s -> 32 s; a whole sweep-3000 invocation
11 s -> 141 s), so this mode is for memory figures only; its times are
not reported.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import tracemalloc

import numpy as np

# span name -> (module, function names)
SPAN_TARGETS = {
    "cli.execute": ("cliffsurf.cli", ("execute",)),
    "molecule.parse": (
        "cliffsurf.molecule",
        ("parse_xyzr", "parse_pqr", "parse_pdb", "parse_auto"),
    ),
    "volumetrics.make_grid": ("cliffsurf.volumetrics", ("make_grid",)),
    "volumetrics.rasterize": (
        "cliffsurf.volumetrics",
        ("rasterize_piecewise", "rasterize_piecewise_swapped", "rasterize_gaussian"),
    ),
    "cft.forward": ("cliffsurf.cft", ("cft3_forward",)),
    "cft.inverse": ("cliffsurf.cft", ("cft3_inverse",)),
    "pdefilter.lowpass": (
        "cliffsurf.pdefilter",
        ("lowpass_from_spectrum", "lowpass_apply"),
    ),
    "pdefilter.gain": ("cliffsurf.pdefilter", ("frequency_response",)),
    "pdefilter.mode_decompose": ("cliffsurf.pdefilter", ("mode_decompose",)),
    "pdefilter.highband_energy": ("cliffsurf.pdefilter", ("highband_energy",)),
    "surface.marching_cubes": ("cliffsurf.surface", ("marching_cubes",)),
    "surface.mesh_metrics": ("cliffsurf.surface", ("mesh_metrics",)),
    "surface.write_mesh": ("cliffsurf.surface", ("write_obj", "write_off")),
    "volumetrics.export": ("cliffsurf.volumetrics", ("export_opendx", "export_raw")),
}

FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_REAL = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# corners of a cell in the order of the marching-cubes case bits, and its
# faces as cyclic corner quadruples; a face is ambiguous when its corners
# below the isovalue sit on exactly one diagonal
_CORNERS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
_FACES = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (3, 2, 6, 7), (0, 3, 7, 4), (1, 2, 6, 5))


def _ambiguous_case_table() -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    for case in range(256):
        below = [(case >> c) & 1 for c in range(8)]
        table[case] = any(
            below[a] == below[c] and below[b] == below[d] and below[a] != below[b]
            for a, b, c, d in _FACES
        )
    return table


_AMBIGUOUS = _ambiguous_case_table()


def cell_counts(values: np.ndarray, iso: float) -> tuple[int, int, int]:
    """(cells, active cells, active cells with an ambiguous face)."""
    below = values < iso
    nx, ny, nz = values.shape
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(_CORNERS):
        case |= below[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1].astype(
            np.uint8
        ) << np.uint8(bit)
    active = (case != 0) & (case != 255)
    return case.size, int(active.sum()), int(_AMBIGUOUS[case[active]].sum())


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.voxels = 0

    def count(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- spans -------------------------------------------------------------

    def _mem_fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for span in self.stack:
            span["mem_peak"] = max(span["mem_peak"], peak)
        tracemalloc.reset_peak()

    def open(self, name: str) -> dict:
        parent = self.stack[-1]["id"] if self.stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent, "mem_peak": 0}
        if self.memory:
            self._mem_fold()
            span["mem_peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        if self.memory:
            self._mem_fold()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None and not self.memory:
                book = self.open("trace.bookkeeping")
                try:
                    after(self, result, *args, **kwargs)
                finally:
                    self.close(book)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cliffsurf"]
        for name, (module_name, funcs) in SPAN_TARGETS.items():
            module = sys.modules.get(module_name)
            for fname in funcs:
                original = getattr(module, fname, None)
                if original is None:
                    self.absent.append(f"{module_name}.{fname}")
                    continue
                wrapper = self.wrap(name, original, _AFTER.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        if not self.memory:
            for fname in FFT_COMPLEX + FFT_REAL:
                original = getattr(np.fft, fname, None)
                if original is not None:
                    setattr(np.fft, fname, self._fft_counter(fname, original))

    def _fft_counter(self, fname: str, fn):
        sig = inspect.signature(fn)
        real = fname in FFT_REAL
        real_input = fname.startswith("rfft") or fname == "ihfft"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            side = np.asarray(bound.arguments["a"]) if real_input else out
            if "axis" in sig.parameters:
                axes = (bound.arguments.get("axis", -1),)
            else:
                axes = bound.arguments.get("axes")
                if axes is None:
                    s = bound.arguments.get("s")
                    if fname.endswith("2"):
                        axes = (-2, -1)
                    elif s is not None:
                        axes = tuple(range(-len(s), 0))
                    else:
                        axes = tuple(range(side.ndim))
            n = math.prod(side.shape[a] for a in axes)
            batch = side.size // n if n else 0
            flops = 5.0 * n * math.log2(n) * batch if n > 1 else 0.0
            self.count("fft.calls")
            self.count("fft.points", n * batch)
            self.count("fft.flop_computed", flops / 2 if real else flops)
            return out

        return wrapper

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        children: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                dur = span["end"] - span["start"]
                children[span["parent"]] = children.get(span["parent"], 0.0) + dur
        by_name: dict[str, dict] = {}
        for span in self.spans:
            rec = by_name.setdefault(
                span["name"],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "mem_peak_bytes": 0},
            )
            dur = span["end"] - span["start"]
            rec["calls"] += 1
            rec["self_s"] += dur - children.get(span["id"], 0.0)
            # inclusive time counts only the outermost span of a name
            parent = span["parent"]
            nested = False
            while parent is not None:
                if self.spans[parent]["name"] == span["name"]:
                    nested = True
                    break
                parent = self.spans[parent]["parent"]
            if not nested:
                rec["total_s"] += dur
            rec["mem_peak_bytes"] = max(rec["mem_peak_bytes"], span["mem_peak"])
        return {
            "spans": by_name,
            "counters": self.counters,
            "absent": self.absent,
            "voxels": self.voxels,
        }


# -- counters computed after a span closes -----------------------------------


def _after_make_grid(tracer, grid, *args, **kwargs):
    tracer.voxels = max(tracer.voxels, int(np.prod(grid.dims)))


def _after_gain(tracer, gain, *args, **kwargs):
    if isinstance(gain, np.ndarray):
        tracer.count("pdefilter.live_bins", int(np.count_nonzero(gain > 0)))
        tracer.count("pdefilter.bins", gain.size)


def _after_marching_cubes(tracer, mesh, field, isovalue, *args, **kwargs):
    cells, active, ambiguous = cell_counts(field.values, float(isovalue))
    tracer.count("surface.cells", cells)
    tracer.count("surface.active_cells", active)
    tracer.count("surface.ambiguous_cells", ambiguous)
    tracer.count("surface.triangles", len(mesh.triangles))


def _after_write(prefix):
    def after(tracer, result, obj, path, *args, **kwargs):
        tracer.count(prefix + "_bytes", os.path.getsize(path))

    return after


_AFTER = {
    "volumetrics.make_grid": _after_make_grid,
    "pdefilter.gain": _after_gain,
    "surface.marching_cubes": _after_marching_cubes,
    "surface.write_mesh": _after_write("surface.mesh"),
    "volumetrics.export": _after_write("volumetrics.export"),
}


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1 :]
    out_path = own[own.index("--trace-out") + 1]
    memory = "--memory" in own

    import cliffsurf.cli

    tracer = Tracer(memory)
    tracer.install()
    if memory:
        tracemalloc.start()
    start = time.perf_counter()
    code = cliffsurf.cli.main(cli_args)
    main_s = time.perf_counter() - start
    summary = tracer.summary()
    summary["cli.main_s"] = main_s
    if memory:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        summary["mem_peak_bytes"] = max(
            [peak] + [s["mem_peak_bytes"] for s in summary["spans"].values()]
        )
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
