"""End-to-end and per-layer benchmark of the cliffsurf CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-reference --workload all --seeds 0-49

Run from the root of a checkout; the CLI is taken from its src/.
--workload all runs every workload with tracing off and then on and
prints every metric; --self-check does the same on the three-atom test
fixture in a few seconds. --record-reference runs the workloads once per
seed and stores their report fields and output hashes in reference.json;
the stored references were recorded at the commit that added this
benchmark, for seeds 0-49, and should only be re-recorded where a change
of outputs is intended and stated.

Any --seed is accepted: the globule is generated from seed mod
GLOBULE_SEEDS (50), so every seed lands on one of the 50 inputs whose
reference is recorded and every invocation can be checked. Two seeds
that differ by a multiple of 50 give the same input.

Load model: closed loop, one client. This process runs one CLI
invocation at a time (`python3 -m cliffsurf`, one process each) on a
globule generated from --seed, until --seconds have passed, and stops
early when another invocation would overrun (at least two run); with
--trace 1 a memory pass runs alongside (see below).
BLAS/OpenMP thread counts are pinned to at most the core count.

--trace 0 prints the end-to-end metrics: median wall time, set-up time
(median of import-only spawns, eight before each CLI invocation, so they
sample the same stretch of time as the wall times), median max RSS and
grid throughput. --trace 1 alternates untraced invocations with traced
ones (traced_cli.py wraps the layer functions in spans) while one memory
pass under tracemalloc runs alongside on the second core, and prints the
per-layer metrics. Every invocation's outputs are checked (check.py); a
failed check counts in `failed`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RUNDIR = os.path.join(WORK, f"run-{os.getpid()}")
FIXTURE = os.path.join(ROOT, "tests", "golden", "fixture.xyzr")

sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
from workloads import SELF_CHECK, WORKLOADS, Workload  # noqa: E402

# import-only spawns before each untraced CLI invocation, so set-up time is
# sampled through the whole run, alongside the wall times
SETUP_SPAWNS_PER_CYCLE = 8
# --seed picks globule seed (--seed mod GLOBULE_SEEDS); references exist for
# globule seeds 0 .. GLOBULE_SEEDS-1
GLOBULE_SEEDS = 50
MIN_INVOCATIONS = 2
THREADS = str(min(2, os.cpu_count() or 1))

# layers, in the order their names are printed
LAYERS = ("cli", "molecule", "volumetrics", "cft", "pdefilter", "surface")

# (metric, unit) reported with --trace 0. mvoxel_per_s is printed too but
# left out of the result: it is wall_s's reciprocal times the workload's
# fixed voxel count, so it carries no information wall_s does not.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# span names whose inclusive time is reported as <span>_s with --trace 1
TIMED_SPANS = (
    "molecule.parse",
    "volumetrics.make_grid",
    "volumetrics.rasterize",
    "cft.forward",
    "cft.inverse",
    "pdefilter.lowpass",
    "pdefilter.gain",
    "pdefilter.mode_decompose",
    "pdefilter.highband_energy",
    "surface.marching_cubes",
    "surface.mesh_metrics",
    "surface.write_mesh",
    "volumetrics.export",
    "cli.execute",
)

PER_LAYER = (
    tuple((f"{span}_s", "s") for span in TIMED_SPANS)
    + (
        ("cli.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("fft.calls", "count"),
        ("fft.points", "count"),
        ("fft.gflop_computed", "Gflop"),
        ("pdefilter.live_bin_frac", "ratio"),
        ("surface.active_cells", "count"),
        ("surface.active_cell_frac", "ratio"),
        ("surface.ambiguous_cells", "count"),
        ("surface.us_per_active_cell", "us"),
        ("surface.triangles", "count"),
        ("surface.mesh_mb", "MB"),
        ("volumetrics.export_mb", "MB"),
        ("grids.voxels", "count"),
    )
    + tuple((f"mem.{layer}.peak_bytes_per_voxel", "B/voxel") for layer in LAYERS)
    + (("mem.peak_bytes_per_voxel", "B/voxel"),)
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


class Child:
    """One running process, its output going to files in its run directory."""

    def __init__(self, argv: list[str], cwd: str, mode: str = ""):
        self.cwd = cwd
        self.mode = mode
        self.out = open(os.path.join(cwd, "stdout.txt"), "w")
        self.err = open(os.path.join(cwd, "stderr.txt"), "w")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                     stdout=self.out, stderr=self.err)

    def wait(self) -> tuple[float, float, int, str, str]:
        """Wait for exit: (wall s, max RSS MB, exit code, stdout, stderr)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.close()
        self.err.close()
        with open(self.out.name) as fh:
            stdout = fh.read()
        with open(self.err.name) as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, self.proc.returncode, stdout, stderr

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.out.close()
        self.err.close()


def spawn(argv: list[str], cwd: str) -> tuple[float, float, int, str, str]:
    """Run one process to exit: (wall s, max RSS MB, exit code, stdout, stderr)."""
    child = Child(argv, cwd)
    try:
        return child.wait()
    finally:
        child.kill()


def verify_checkout():
    if not os.path.isfile(os.path.join(SRC, "cliffsurf", "cli.py")):
        raise SetupError(f"no cliffsurf sources under {SRC}")


def setup_spawn() -> float:
    """Interpreter start plus `import cliffsurf.cli` in a process of its own."""
    wall, _, code, _, err = spawn([sys.executable, "-c", "import cliffsurf.cli"],
                                  fresh_rundir("setup"))
    if code != 0:
        raise SetupError(f"import cliffsurf.cli failed: {err.strip()}")
    return wall


def fresh_rundir(name: str) -> str:
    path = os.path.join(RUNDIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def input_path(w: Workload, seed: int) -> str:
    if w.spec == "fixture":
        if not os.path.isfile(FIXTURE):
            raise SetupError(f"missing {FIXTURE}")
        return FIXTURE
    return inputs.cached_globule(w.spec, seed, os.path.join(WORK, "inputs"))


def grid_voxels(manifest: str) -> int:
    for line in manifest.splitlines():
        if line.startswith("grid.dims: "):
            nx, ny, nz = (int(v) for v in line.split()[1:])
            return nx * ny * nz
    return 0


class Runner:
    """Invokes one workload on one seed and checks every invocation."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.globule_seed = seed % GLOBULE_SEEDS
        self.input = input_path(w, self.globule_seed)
        self.reference = check.load_reference().get(w.name, {}).get(str(self.globule_seed))
        self.attempted = 0
        self.failed = 0
        self.hash_lines: dict[str, str] = {}

    def launch(self, mode: str) -> Child:
        """Start one invocation; mode is plain, traced or memory."""
        cli_args = self.w.cli_args(self.input)
        if mode == "plain":
            argv = [sys.executable, "-m", "cliffsurf", *cli_args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    "--trace-out", "trace.json"]
            argv += ["--memory"] if mode == "memory" else []
            argv += ["--", *cli_args]
        return Child(argv, fresh_rundir(mode), mode)

    def collect(self, child: Child) -> dict:
        """Wait for an invocation and check its outputs.

        Returns mode, wall, rss, voxels and, for a traced one, its trace.
        """
        try:
            wall, rss, code, stdout, stderr = child.wait()
        finally:
            child.kill()
        self.attempted += 1
        trace = None
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
            hashes = {}
        else:
            try:
                problems, hashes = check.check_outputs(
                    child.cwd, self.w.combos, self.w.outputs, self.reference
                )
                if child.mode != "plain":
                    with open(os.path.join(child.cwd, "trace.json")) as fh:
                        trace = json.load(fh)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                # malformed output counts as a failed invocation
                problems, hashes = [f"unreadable output: {exc!r}"], {}
        for name, (digest, same) in hashes.items():
            verdict = {True: "matches reference", False: "DIFFERS from reference",
                       None: "no reference"}[same]
            self.hash_lines[name] = f"sha256 {name} {digest} {verdict}"
        if problems:
            self.failed += 1
            trace = None
            for p in problems:
                print(f"check FAILED [{self.w.name} seed {self.seed} {child.mode}]: {p}")
        return {"mode": child.mode, "wall": wall, "rss": rss,
                "voxels": grid_voxels(stdout), "trace": trace}

    def loop(self, modes: tuple[str, ...], seconds: float) -> tuple[list[dict], list[float]]:
        """Cycle through modes until another cycle would overrun `seconds`.

        A plain invocation is preceded by SETUP_SPAWNS_PER_CYCLE import-only
        spawns when `setup` is among the modes. Returns the invocations'
        results and the set-up times.
        """
        results: list[dict] = []
        setup: list[float] = []
        cycles: list[float] = []
        invocations = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                if mode == "setup":
                    setup += [setup_spawn() for _ in range(SETUP_SPAWNS_PER_CYCLE)]
                else:
                    results.append(self.collect(self.launch(mode)))
                    invocations += 1
            cycles.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if invocations >= MIN_INVOCATIONS and (
                elapsed + statistics.median(cycles) > seconds
            ):
                return results, setup

    def print_hashes(self):
        for name in sorted(self.hash_lines):
            print(self.hash_lines[name])


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any above p50."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return f"no tail percentile (n={n} < 21)"
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"p{pct}={q:.6g}"


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup_spawn()  # warms the file cache; not a sample
    results, setup = runner.loop(("setup", "plain"), seconds)
    walls = [r["wall"] for r in results]
    rss = [r["rss"] for r in results]
    voxels = max(r["voxels"] for r in results) * len(runner.w.times)
    rates = [voxels / wall / 1e6 for wall in walls]
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss, "mvoxel_per_s": rates}
    metrics = {}
    for name, unit in (*END_TO_END, ("mvoxel_per_s", "Mvoxel/s")):
        vals = samples[name]
        value = statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit} (median, n={len(vals)}, {tail(vals)}, "
              f"min {min(vals):.6g}, max {max(vals):.6g})")
    del metrics["mvoxel_per_s"]
    print(f"failed_frac: {runner.failed}/{runner.attempted} "
          f"= {runner.failed / runner.attempted:.3g} ratio")
    return metrics


def _self_time_by_layer(spans: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, rec in spans.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + rec["self_s"]
    return out


def per_layer(runner: Runner, seconds: float) -> dict:
    # The memory pass runs on the second core while the timed loop runs:
    # under tracemalloc it takes up to ~145 s (sweep-3000), and after the
    # loop it would not fit in the 180 s a run may take. So per-layer times
    # are taken with the other core busy; the --trace 0 runs are not.
    child = runner.launch("memory")
    try:
        results, _ = runner.loop(("plain", "traced"), seconds)
    except BaseException:
        child.kill()
        raise
    memory = runner.collect(child)
    plain = [r["wall"] for r in results if r["mode"] == "plain"]
    traced = [r for r in results if r["mode"] == "traced" and r["trace"]]
    if not traced or not memory["trace"]:
        return {}
    # per-layer figures come from the traced invocation with median wall
    traced.sort(key=lambda r: r["wall"])
    trace = traced[(len(traced) - 1) // 2]["trace"]
    spans, counters = trace["spans"], trace["counters"]
    voxels = trace["voxels"] or 1

    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    values = {f"{name}_s": span(name) for name in TIMED_SPANS}
    active = counters.get("surface.active_cells", 0.0)
    values.update({
        "cli.self_s": span("cli.execute", "self_s"),
        "trace.overhead_s": statistics.median(r["wall"] for r in traced)
        - statistics.median(plain),
        "fft.calls": counters.get("fft.calls", 0.0),
        "fft.points": counters.get("fft.points", 0.0),
        "fft.gflop_computed": counters.get("fft.flop_computed", 0.0) / 1e9,
        "pdefilter.live_bin_frac": counters.get("pdefilter.live_bins", 0.0)
        / (counters.get("pdefilter.bins") or 1.0),
        "surface.active_cells": active,
        "surface.active_cell_frac": active / (counters.get("surface.cells") or 1.0),
        "surface.ambiguous_cells": counters.get("surface.ambiguous_cells", 0.0),
        "surface.us_per_active_cell": span("surface.marching_cubes") / (active or 1.0) * 1e6,
        "surface.triangles": counters.get("surface.triangles", 0.0),
        "surface.mesh_mb": counters.get("surface.mesh_bytes", 0.0) / 1e6,
        "volumetrics.export_mb": counters.get("volumetrics.export_bytes", 0.0) / 1e6,
        "grids.voxels": float(trace["voxels"]),
    })
    mem_spans = memory["trace"]["spans"]
    for layer in LAYERS:
        peaks = [0]
        for name, rec in mem_spans.items():
            if name.split(".")[0] == layer:
                peaks.append(rec["mem_peak_bytes"])
        values[f"mem.{layer}.peak_bytes_per_voxel"] = max(peaks) / voxels
    values["mem.peak_bytes_per_voxel"] = memory["trace"]["mem_peak_bytes"] / voxels

    print(f"traced invocations: {len(traced)} (+{len(plain)} untraced, 1 memory pass)")
    print("span                            calls     total_s      self_s")
    for name in sorted(spans, key=lambda n: -spans[n]["self_s"]):
        rec = spans[name]
        print(f"  {name:<28}{rec['calls']:>7}{rec['total_s']:>12.4f}{rec['self_s']:>12.4f}")
    for name in trace["absent"]:
        print(f"  absent: {name} (no such function; its span never opens)")
    for name in TIMED_SPANS:
        if name not in spans:
            print(f"  {name}: not called on this workload")
    children = sum(rec["self_s"] for n, rec in spans.items() if n != "cli.execute")
    print(f"accounting: child spans {children:.4f} s + cli.self_s "
          f"{values['cli.self_s']:.4f} s = {children + values['cli.self_s']:.4f} s; "
          f"cli.execute_s {values['cli.execute_s']:.4f} s")
    layers = _self_time_by_layer(spans)
    layers.pop("trace", None)
    top_span = max((n for n in spans if n != "trace.bookkeeping"),
                   key=lambda n: spans[n]["self_s"], default="none")
    print("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    print(f"largest self-time span: {top_span}")
    print(f"memory pass: {memory['wall']:.1f} s wall under tracemalloc (not a timing)")
    print(f"threads pinned: OMP/OPENBLAS/MKL_NUM_THREADS={THREADS}")
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name}: {values[name]:.6g} {unit}")
    return metrics


def run_workload(w: Workload, seed: int, seconds: float, traces: tuple[int, ...]):
    runner = Runner(w, seed)
    print(f"== {w.name} seed {seed} (globule seed {runner.globule_seed}): {w.why}")
    if runner.reference is None:
        print(f"reference: none recorded for globule seed {runner.globule_seed}; "
              "every invocation will fail the output check")
    metrics = {}
    for trace in traces:
        metrics.update(per_layer(runner, seconds) if trace else end_to_end(runner, seconds))
    runner.print_hashes()
    print(f"output check: {runner.attempted - runner.failed}/{runner.attempted} "
          "invocations passed")
    return runner, metrics


def record_reference(names: list[str], seeds: list[int]):
    """Store each workload's report fields and output hashes per seed."""
    try:
        with open(check.REFERENCE_PATH) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in names:
        w = SELF_CHECK if name == SELF_CHECK.name else WORKLOADS[name]
        for seed in seeds:
            rundir = fresh_rundir("record")
            path = input_path(w, seed)
            argv = [sys.executable, "-m", "cliffsurf", *w.cli_args(path)]
            _, _, code, _, err = spawn(argv, rundir)
            if code != 0:
                raise SetupError(f"{name} seed {seed}: exit {code}: {err.strip()}")
            entry = {
                "combos": {c: check.read_report(os.path.join(rundir, f"x{c}.txt"))
                           for c in w.combos},
                "sha256": {o: check.sha256(os.path.join(rundir, o)) for o in w.outputs},
            }
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"recorded {name} seed {seed}", flush=True)
            with open(check.REFERENCE_PATH, "w") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--seeds", default="0", help="for --record-reference: e.g. 0-19,42")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    if not (args.self_check or args.record_reference or args.workload):
        p.error("give --workload, --self-check or --record-reference")

    try:
        verify_checkout()
        if args.record_reference:
            if args.workload in (None, "all"):
                names = [*WORKLOADS, SELF_CHECK.name]
            else:
                names = [args.workload]
            record_reference(names, parse_seeds(args.seeds))
            return 0
        if args.self_check:
            # the fixture does not depend on the seed; its reference is seed 0
            args.seed = 0
            jobs = [(SELF_CHECK, (0, 1))]
            seconds = 1.0
        elif args.workload == "all":
            jobs = [(w, (0, 1)) for w in WORKLOADS.values()]
            seconds = args.seconds
        else:
            jobs = [(WORKLOADS[args.workload], (args.trace,))]
            seconds = args.seconds
        attempted = failed = 0
        metrics = {}
        for w, traces in jobs:
            runner, got = run_workload(w, args.seed, seconds, traces)
            attempted += runner.attempted
            failed += runner.failed
            prefix = f"{w.name}." if len(jobs) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(RUNDIR, ignore_errors=True)
    expected = sum(len(END_TO_END) * (0 in t) + len(PER_LAYER) * (1 in t) for _, t in jobs)
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
