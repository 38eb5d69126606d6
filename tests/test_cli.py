"""End-to-end tests for the command line driver and the run-config plumbing.

Pipeline invocations run in-process through main(argv) on a coarse grid so
the whole module stays fast; the exit-code contract is asserted against the
documented stage map (0 ok, 2 input, 3 config, 4 compute, 5 output).
"""

import builtins
import dataclasses
import gc
import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cliffsurf import cli, grids, molecule, pdefilter, volumetrics
from cliffsurf.cli import (
    ENERGY_W2_THRESHOLD,
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_OUTPUT,
    RunConfig,
    StageError,
    _parse_dcoeff,
    build_parser,
    config_from_args,
    execute,
    main,
    sweep,
)
from cliffsurf.grids import SLAB, GridSpec, squared_norm, w_axes
from cliffsurf.molecule import parse_xyzr
from cliffsurf.pdefilter import (
    FilterParams,
    SpectralBand,
    default_coefficients,
    filter_gain,
    lowpass_apply,
    mode_decompose,
)
from cliffsurf.volumetrics import _BYTES_PER_VOXEL, make_grid, rasterize

from conftest import FullDisk, read_dx, read_obj, read_off, read_raw

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# happy path


def test_single_run_manifest_and_outputs(three_atom_file, tmp_path, capsys):
    mesh_out = str(tmp_path / "m.obj")
    vol_out = str(tmp_path / "v.dx")
    met_out = str(tmp_path / "met.txt")
    code, out, err = run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--mesh-out", mesh_out,
            "--volume-out", vol_out,
            "--metrics-out", met_out,
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    m = manifest_dict(out)

    assert m["input.atoms"] == "3"
    assert m["input.format"] == "xyzr"
    assert m["init.kind"] == "piecewise"
    assert m["filter.order"] == "12"
    assert m["filter.d"] == "0.0 0.0 0.0 0.0 0.0 1.0"
    assert m["filter.passes"] == "1"
    assert m["field.initial.min"] == "0.0"
    assert m["field.initial.max"] == "1.0"

    # single combo keeps the exact requested file names
    assert m["run[t=100,iso=0.9].mesh_file"] == mesh_out
    assert m["run[t=100].volume_file"] == vol_out
    assert m["run[t=100,iso=0.9].metrics_file"] == met_out

    # mesh on disk agrees with the manifest counts
    verts, faces = read_obj(mesh_out)
    assert str(len(verts)) == m["run[t=100,iso=0.9].mesh.vertices"]
    assert str(len(faces)) == m["run[t=100,iso=0.9].mesh.triangles"]

    # volume dims echo the manifest grid line
    dims, _, _, values = read_dx(vol_out)
    assert " ".join(str(n) for n in dims) == m["grid.dims"]
    assert np.isfinite(values).all()

    # the metrics file repeats the manifest values verbatim
    met = manifest_dict(Path(met_out).read_text())
    prefix = "run[t=100,iso=0.9].mesh."
    for name in (
        "vertices",
        "triangles",
        "component_count",
        "euler_characteristic",
        "boundary_edge_count",
        "area",
        "enclosed_volume",
        "min_dihedral",
    ):
        assert met[name] == m[prefix + name]
    assert met["t"] == "100.0"
    assert met["isovalue"] == "0.9"

    # per-stage wall times are reported and parse as floats
    for stage in ("input", "grid", "rasterize", "filter", "extract", "output"):
        float(m[f"timing.{stage}_s"])


def test_filtered_surface_is_closed_sphere_like(three_atom_file, capsys):
    code, out, _ = run_cli(["--input", three_atom_file, "--spacing", "0.5"], capsys)
    assert code == EXIT_OK
    m = manifest_dict(out)
    assert m["run[t=100,iso=0.9].mesh.component_count"] == "1"
    assert m["run[t=100,iso=0.9].mesh.euler_characteristic"] == "2"
    assert m["run[t=100,iso=0.9].mesh.boundary_edge_count"] == "0"
    assert float(m["run[t=100,iso=0.9].mesh.enclosed_volume"]) > 0.0


def test_off_extension_selects_off_writer(three_atom_file, tmp_path, capsys):
    path = str(tmp_path / "m.off")
    code, out, _ = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", path], capsys
    )
    assert code == EXIT_OK
    verts, faces, _ = read_off(path)
    m = manifest_dict(out)
    assert str(len(verts)) == m["run[t=100,iso=0.9].mesh.vertices"]
    assert str(len(faces)) == m["run[t=100,iso=0.9].mesh.triangles"]


# ---------------------------------------------------------------------------
# exit codes, one per failure stage


def test_missing_input_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "absent.xyzr")
    code, out, err = run_cli(["--input", path], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"error[stage=input]: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.xyzr"
    bad.write_text("1.0 2.0 3.0 1.5\n1.0 2.0 not-a-number 1.5\n")
    code, _, err = run_cli(["--input", str(bad)], capsys)
    assert code == EXIT_INPUT
    assert err.startswith("error[stage=input]: ")
    assert "line 2" in err


def test_unknown_flag_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--frobnicate", "1"], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error[stage=config]: ")


def test_missing_required_input_flag_exits_3(capsys):
    code, _, err = run_cli([], capsys)
    assert code == EXIT_CONFIG
    assert "--input is required" in err


def test_odd_order_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--order", "7"], capsys)
    assert code == EXIT_CONFIG
    assert "even" in err


def test_bad_dcoeff_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--dcoeff", "6"], capsys)
    assert code == EXIT_CONFIG
    assert "j:value" in err

    code, _, err = run_cli(["--input", three_atom_file, "--dcoeff", "9:1.0"], capsys)
    assert code == EXIT_CONFIG
    assert "outside 1..6" in err


def test_out_of_domain_isovalue_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--isovalue", "1.5"], capsys)
    assert code == EXIT_CONFIG
    assert "(0, 1]" in err


def test_tiny_memory_cap_exits_4(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--mem-cap", "0.0001"], capsys)
    assert code == EXIT_COMPUTE
    assert err.startswith("error[stage=grid]: ")
    assert "memory cap" in err


@pytest.mark.parametrize("cap", ["0.04", "0.001"])
def test_memory_cap_refusal_reads_the_cap_and_the_need(cap, capsys):
    # both sizes used to print with one decimal, so each read 0.0 GiB here
    code, _, err = run_cli(
        ["--input", str(GOLDEN / "fixture.xyzr"), "--spacing", "0.1", "--mem-cap", cap], capsys
    )
    assert code == EXIT_COMPUTE
    assert err == (
        f"error[stage=grid]: grid (140, 175, 175) needs about 0.29 GiB, "
        f"over the {cap} GiB memory cap\n"
    )


def test_memory_cap_past_the_largest_byte_count_refuses_nothing(three_atom_file, capsys):
    # 1e308 GiB overflows to an infinite byte count, which used to fail as
    # "cannot convert float infinity to integer"
    code, _, err = run_cli(["--input", three_atom_file, "--mem-cap", "1e308"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("spacing", ["1e-300", "1e-310"])
def test_absurd_spacing_fails_fast_at_grid(three_atom_file, spacing):
    # about 1e301 samples per axis: the cap refuses them before they are
    # rounded up to FFT-smooth sizes, which took minutes one integer at a
    # time; at 1e-310 the sample count itself is not finite
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cliffsurf", "--input", three_atom_file, "--spacing", spacing],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == EXIT_COMPUTE
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[stage=grid]: ")


@pytest.mark.parametrize(
    "setting", [["--re", "1e-160"], ["--s", "1e308"]], ids=["re-underflow", "s-overflow"]
)
def test_gaussian_field_out_of_range_fails_at_rasterize(three_atom_file, capsys, setting):
    # r_e^2 = 1e-320 overflows the exponent to inf; s = 1e308 keeps every
    # voxel finite, but the transform's sum over the voxels would overflow
    code, out, err = run_cli(["--input", three_atom_file, "--init", "gaussian", *setting], capsys)
    assert code == EXIT_COMPUTE
    assert out == ""
    assert err.startswith("error[stage=rasterize]: ")
    assert setting[0] in err


def test_isovalue_outside_field_range_exits_4(three_atom_file, capsys):
    # 0.05 is a legal level for binary data but the filtered field never
    # drops that low, so extraction has nothing to cut
    code, _, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--isovalue", "0.05"], capsys
    )
    assert code == EXIT_COMPUTE
    assert err.startswith("error[stage=extract]: ")


def test_unwritable_output_exits_5(three_atom_file, tmp_path, capsys):
    target = str(tmp_path / "no_such_dir" / "m.obj")
    code, _, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", target], capsys
    )
    assert code == EXIT_OUTPUT
    assert err.startswith("error[stage=output]: ")
    assert "cannot write" in err


def fill_the_disk_at(monkeypatch, target, fail):
    """Open target as a FullDisk handle failing at fail; other files open as usual."""
    real_open = builtins.open

    def open_on_a_full_disk(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return FullDisk(fh, fail) if os.fspath(file) == target else fh

    monkeypatch.setattr(builtins, "open", open_on_a_full_disk)


@pytest.mark.parametrize(
    "flag, name, fail",
    [
        (flag, name, fail)
        for flag, name in [("--mesh-out", "m.obj"), ("--mesh-out", "m.off"),
                           ("--metrics-out", "r.txt")]
        for fail in ("write", "close")
    ]
    + [("--volume-out", "v.dx", "write"), ("--volume-out", "v.raw", "write")],
)
def test_an_output_that_fails_to_write_is_removed(
    three_atom_file, tmp_path, monkeypatch, capsys, flag, name, fail
):
    # a full disk at a write or at the closing flush: the run exits 5 and
    # leaves no truncated file behind. A volume's first write is its header
    target = str(tmp_path / name)
    fill_the_disk_at(monkeypatch, target, fail)
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", flag, target], capsys
    )
    assert code == EXIT_OUTPUT
    assert err.startswith("error[stage=output]: ") and "No space left" in err
    assert out == "" and not os.path.exists(target)


# ---------------------------------------------------------------------------
# each mesh file is written on a second thread while the mesh is measured


def overlap_write_and_metrics(monkeypatch):
    """Hold each mesh_metrics call until its mesh's write has ended.

    So a write's outcome is settled while the metrics run, whatever the
    threads' timing. Returns the list of thread ids the writes ran on.
    """
    written = threading.Event()
    writers = []
    real_write, real_metrics = cli.write_mesh, cli.mesh_metrics

    def write(mesh, path):
        writers.append(threading.get_ident())
        try:
            real_write(mesh, path)
        finally:
            written.set()

    def metrics(mesh):
        written.wait(timeout=5)  # times out where the write follows the metrics
        written.clear()
        return real_metrics(mesh)

    monkeypatch.setattr(cli, "write_mesh", write)
    monkeypatch.setattr(cli, "mesh_metrics", metrics)
    return writers


@pytest.mark.parametrize("name", ["m.obj", "m.off"])
def test_the_mesh_file_is_written_off_the_main_thread(
    three_atom_file, tmp_path, monkeypatch, capsys, name
):
    # one writer thread per surface, each joined before the next surface
    # is finished; holding the metrics until the write ends changes no byte
    plain = tmp_path / "plain"
    plain.mkdir()
    argv = ["--input", three_atom_file, "--spacing", "0.5", "--time", "50", "--time", "100",
            "--isovalue", "0.8", "--isovalue", "0.9", "--metrics-out", "r.txt"]
    monkeypatch.chdir(plain)
    code, before, _ = run_cli(argv + ["--mesh-out", name], capsys)
    assert code == EXIT_OK
    held = tmp_path / "held"
    held.mkdir()
    monkeypatch.chdir(held)
    writers = overlap_write_and_metrics(monkeypatch)
    threads = threading.active_count()
    code, after, _ = run_cli(argv + ["--mesh-out", name], capsys)
    assert code == EXIT_OK
    assert len(writers) == 4 and threading.get_ident() not in writers
    assert threading.active_count() == threads
    assert sorted(os.listdir(held)) == sorted(os.listdir(plain))
    for file in os.listdir(plain):
        assert (held / file).read_bytes() == (plain / file).read_bytes()

    def untimed(text):
        return [ln for ln in text.splitlines() if not ln.startswith("timing.")]

    assert untimed(after) == untimed(before)
    # the writes' own seconds follow the output stage's wait for them
    timing = [ln.partition(":")[0] for ln in after.splitlines() if ln.startswith("timing.")]
    assert timing[-2:] == ["timing.output_s", "timing.mesh_write_s"]
    assert float(manifest_dict(after)["timing.mesh_write_s"]) >= 0


def test_a_run_without_a_mesh_file_reports_no_mesh_write_time(three_atom_file, tmp_path):
    text = execute(RunConfig(three_atom_file, spacing=0.5, metrics_out=str(tmp_path / "r.txt")))
    m = manifest_dict(text)
    assert "timing.output_s" in m and "timing.mesh_write_s" not in m


@pytest.mark.parametrize("fail", ["write", "close"])
def test_a_mesh_write_failing_beside_the_metrics_exits_5(
    three_atom_file, tmp_path, monkeypatch, capsys, fail
):
    # the write fails on a full disk while the mesh is measured: the join
    # re-raises it with the write's own message, and the partial file is removed
    target = str(tmp_path / "m.obj")
    fill_the_disk_at(monkeypatch, target, fail)
    writers = overlap_write_and_metrics(monkeypatch)
    threads = threading.active_count()
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", target], capsys
    )
    assert code == EXIT_OUTPUT
    assert err == f"error[stage=output]: cannot write {target}: [Errno 28] No space left on device\n"
    assert out == "" and not os.path.exists(target)
    assert len(writers) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["m.obj", "m.off"])
def test_metrics_failing_beside_the_mesh_write_leaves_no_mesh_file(
    three_atom_file, tmp_path, monkeypatch, capsys, name
):
    # mesh_metrics fails after the mesh file is whole: the run fails at
    # stage extract, as when the file was never begun, and removes it
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    written = threading.Event()
    real_write = cli.write_mesh

    def write(mesh, path):
        real_write(mesh, path)
        written.set()

    def broken(mesh):
        written.wait(timeout=5)
        raise ValueError("metrics exploded")

    monkeypatch.setattr(cli, "write_mesh", write)
    monkeypatch.setattr(cli, "mesh_metrics", broken)
    threads = threading.active_count()
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", str(out_dir / name)],
        capsys,
    )
    assert code == EXIT_COMPUTE
    assert err == "error[stage=extract]: metrics exploded\n"
    assert out == "" and not any(out_dir.iterdir())
    assert threading.active_count() == threads


def test_a_failed_run_leaves_no_output_file(tmp_path, monkeypatch, capsys):
    # the second time's field stays below 0.8: the run fails at stage
    # extract after the first time's volume and mesh and the second time's
    # volume are whole, and removes all three
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["--input", str(GOLDEN / "fixture.pdb"), "--spacing", "0.4", "--init", "gaussian",
         "--time", "50", "--time", "100", "--mesh-out", "m.off", "--volume-out", "v.raw"],
        capsys,
    )
    assert code == EXIT_COMPUTE
    assert err.startswith("error[stage=extract]: isovalue 0.8 outside the open field range ")
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("fail", ["write", "close"])
def test_a_failing_second_mesh_write_removes_every_output(
    three_atom_file, tmp_path, monkeypatch, capsys, fail
):
    # the second surface's mesh file fails on a full disk: the run exits 5
    # and also removes the first surface's mesh and report and both volumes
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = str(out_dir / "m_t100_iso0.9.obj")
    fill_the_disk_at(monkeypatch, target, fail)
    threads = threading.active_count()
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--time", "50", "--time", "100",
         "--mesh-out", str(out_dir / "m.obj"), "--volume-out", str(out_dir / "v.dx"),
         "--metrics-out", str(out_dir / "r.txt")],
        capsys,
    )
    assert code == EXIT_OUTPUT
    assert err == f"error[stage=output]: cannot write {target}: [Errno 28] No space left on device\n"
    assert out == "" and not any(out_dir.iterdir())
    assert threading.active_count() == threads


def test_a_manifest_that_fails_to_write_exits_5(three_atom_file, monkeypatch, capsys):
    # in process: the manifest's write or flush fails as a tagged output error
    class Full:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(28, "No space left on device")

    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["--input", three_atom_file, "--spacing", "0.5"])
    assert code == EXIT_OUTPUT
    assert capsys.readouterr().err == (
        "error[stage=output]: cannot write the manifest: [Errno 28] No space left on device\n"
    )


# ---------------------------------------------------------------------------
# argument and config-file plumbing (no pipeline runs)


def parse_config(argv):
    return config_from_args(build_parser().parse_args(argv))


def test_flag_parsing_round_trip():
    cfg = parse_config(
        [
            "--input", "x.xyzr",
            "--init", "gaussian",
            "--spacing", "0.4",
            "--padding", "6",
            "--s", "1.5",
            "--re", "2.5",
            "--order", "8",
            "--epsilon", "0.25",
            "--time", "50",
            "--time", "100",
            "--isovalue", "0.7",
            "--passes", "2",
            "--mem-cap", "2.0",
        ]
    )
    assert cfg.init_kind == "gaussian"
    assert cfg.spacing == 0.4
    assert cfg.padding == 6.0
    assert cfg.s == 1.5
    assert cfg.r_e == 2.5
    assert len(cfg.d) == 4
    assert cfg.epsilon == 0.25
    assert cfg.times == (50.0, 100.0)
    assert cfg.isovalues == (0.7,)
    assert cfg.passes == 2
    assert cfg.mem_cap_gib == 2.0


def test_order_sets_coefficient_length():
    cfg = parse_config(["--input", "x.xyzr", "--order", "8"])
    assert cfg.d == (0.0, 0.0, 0.0, 1.0)


def test_dcoeff_overrides_one_slot():
    cfg = parse_config(["--input", "x.xyzr", "--dcoeff", "3:0.5"])
    assert cfg.d == (0.0, 0.0, 0.5, 0.0, 0.0, 1.0)


def test_parse_dcoeff_defaults_and_errors():
    assert _parse_dcoeff([], 3) == (0.0, 0.0, 1.0)
    assert _parse_dcoeff(["1:2.0", "3:0.0"], 3) == (2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        _parse_dcoeff(["0:1.0"], 3)
    with pytest.raises(ValueError):
        _parse_dcoeff(["one:1.0"], 3)


def test_config_file_supplies_values(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# reference coarse run\n"
        "spacing = 0.5\n"
        "time = 50, 100\n"
        "isovalue = 0.8\n"
        "init = gaussian\n"
        "dcoeff = 6:0.5\n"
        "\n"
    )
    cfg = parse_config(["--input", "x.xyzr", "--config", str(cfg_file)])
    assert cfg.spacing == 0.5
    assert cfg.times == (50.0, 100.0)
    assert cfg.isovalues == (0.8,)
    assert cfg.init_kind == "gaussian"
    assert cfg.d == (0.0, 0.0, 0.0, 0.0, 0.0, 0.5)


def test_cli_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("spacing=0.5\nisovalue=0.8\n")
    cfg = parse_config(
        ["--input", "x.xyzr", "--config", str(cfg_file), "--spacing", "0.3"]
    )
    assert cfg.spacing == 0.3  # flag wins
    assert cfg.isovalues == (0.8,)  # file fills the gap


def test_config_file_input_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("input=from_file.xyzr\n")
    cfg = parse_config(["--config", str(cfg_file)])
    assert cfg.input_path == "from_file.xyzr"


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    # a misspelling, a prefix, and the flags that are not run settings
    for line in ("spacng=0.5", "spac=0.5", "help=1", "config=other.cfg"):
        cfg_file.write_text(line + "\n")
        with pytest.raises(StageError, match="unknown config key"):
            parse_config(["--input", "x.xyzr", "--config", str(cfg_file)])


# a legal non-default value for each option, by RunConfig field (or dest)
_OPTION_VALUES = {
    "input_path": "y.xyzr",
    "input_format": "pdb",
    "init_kind": "gaussian",
    "order": "8",
    "dcoeff": "2:0.5",
    "passes": "3",
    "mesh_out": "m.obj",
    "volume_out": "v.dx",
    "metrics_out": "r.txt",
}
_LONG_OPTIONS = [
    (action.option_strings[-1], action.dest)
    for action in build_parser()._actions
    if action.option_strings[-1] not in ("--help", "--config")
]


@pytest.mark.parametrize("flag, dest", _LONG_OPTIONS, ids=[f for f, _ in _LONG_OPTIONS])
def test_every_flag_is_a_config_key(tmp_path, flag, dest):
    # one option table: each long flag without its dashes is a config key
    # that lands on the same RunConfig field as the flag
    value = _OPTION_VALUES.get(dest, "0.5")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{flag[2:]}={value}\n")
    given = [] if dest == "input_path" else ["--input", "x.xyzr"]
    from_file = parse_config([*given, "--config", str(cfg_file)])
    from_flag = parse_config([*given, flag, value])
    assert from_file == from_flag
    assert from_file != parse_config(["--input", "x.xyzr"])


def test_config_value_may_begin_with_dash(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mesh-out = -m.obj\n")
    cfg = parse_config(["--input", "x.xyzr", "--config", str(cfg_file)])
    assert cfg.mesh_out == "-m.obj"


def test_malformed_config_line_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("spacing 0.5\n")
    with pytest.raises(StageError, match="key=value"):
        parse_config(["--input", "x.xyzr", "--config", str(cfg_file)])


def test_bad_config_value_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("spacing=half\n")
    with pytest.raises(StageError, match="bad value"):
        parse_config(["--input", "x.xyzr", "--config", str(cfg_file)])


def test_missing_config_file_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(
        ["--input", three_atom_file, "--config", "/no/such/file.cfg"], capsys
    )
    assert code == EXIT_CONFIG
    assert "cannot read" in err


def test_nonpositive_passes_exits_3(three_atom_file, capsys):
    code, _, err = run_cli(["--input", three_atom_file, "--passes", "0"], capsys)
    assert code == EXIT_CONFIG
    assert "passes" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--spacing", "inf"],
        ["--spacing", "nan"],
        ["--padding", "inf"],
        ["--padding", "nan"],
        ["--mem-cap", "inf"],
        ["--init", "gaussian", "--s", "inf"],
        ["--init", "gaussian", "--re", "inf"],
        ["--time", "100", "--time", "inf"],
        ["--init", "gaussian", "--isovalue", "inf"],
    ],
    ids=lambda flags: " ".join(flags[-2:]),
)
def test_nonfinite_setting_exits_3(three_atom_file, capsys, flags):
    # caught as a configuration error, not later as a grid, filter or
    # extract failure
    code, out, err = run_cli(["--input", three_atom_file, *flags], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error[stage=config]: ") and "finite" in err
    assert out == ""


def test_combo_path_suffixes():
    single = RunConfig("x")
    assert single._output_path("m.obj", 100.0, 0.9) == "m.obj"
    assert single._output_path("v.dx", 100.0) == "v.dx"
    multi = RunConfig("x", times=(1.0, 2.0))  # each time its own files
    assert multi._output_path("m.obj", 100.0, 0.9) == "m_t100_iso0.9.obj"
    assert multi._output_path("m.obj", 10000.0, 0.5) == "m_t10000_iso0.5.obj"
    assert multi._output_path("v.dx", 100.0) == "v_t100.dx"
    assert multi._output_path("noext", 2.5, 0.4) == "noext_t2.5_iso0.4"
    # a dot in a directory name is not an extension
    assert multi._output_path("out.d/mesh", 100.0, 0.9) == "out.d/mesh_t100_iso0.9"
    assert multi._output_path("x.obj", 300.0, 0.6) == "x_t300_iso0.6.obj"
    # several isovalues of one time: one volume, a surface file per isovalue
    isos = RunConfig("x", isovalues=(0.6, 0.9))
    assert isos._output_path("v.dx", 100.0) == "v.dx"
    assert isos._output_path("m.obj", 100.0, 0.6) == "m_t100_iso0.6.obj"


def test_sweep_into_dotted_directory(three_atom_file, tmp_path, capsys):
    out_dir = tmp_path / "run.d"
    out_dir.mkdir()
    code, out, err = run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--time", "100",
            "--time", "200",
            "--mesh-out", str(out_dir / "mesh"),
            "--volume-out", str(out_dir / "vol"),
        ],
        capsys,
    )
    assert code == EXIT_OK, err
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "mesh_t100_iso0.9", "mesh_t200_iso0.9", "vol_t100", "vol_t200",
    ]
    assert manifest_dict(out)["run[t=200,iso=0.9].mesh_file"] == str(out_dir / "mesh_t200_iso0.9")


@pytest.mark.parametrize(
    "flags",
    [
        ["--time", "100", "--time", "100.0000001"],
        ["--time", "100", "--time", "100"],
        ["--isovalue", "0.9", "--isovalue", "0.9"],
        ["--isovalue", "0.8", "--isovalue", "0.80000001"],
    ],
)
def test_values_printing_alike_exit_3(three_atom_file, tmp_path, capsys, flags):
    # output names and manifest keys print times and isovalues with %g, so
    # two values printing alike would overwrite each other's files
    mesh_out = tmp_path / "m.obj"
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", str(mesh_out), *flags],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert err.startswith("error[stage=config]: ") and "%g" in err
    assert out == "" and not list(tmp_path.glob("m*.obj"))


@pytest.mark.parametrize(
    "flags",
    [
        ["--mesh-out", "x.txt", "--metrics-out", "x.txt"],
        ["--mesh-out", "sub/../x.txt", "--volume-out", "x.txt"],
        ["--metrics-out", "three.xyzr"],
        ["--volume-out", "link.dx"],
        ["--isovalue", "0.8", "--isovalue", "0.9", "--mesh-out", "m.obj",
         "--volume-out", "m_t100_iso0.8.obj"],
    ],
)
def test_outputs_sharing_a_path_exit_3(three_atom_file, tmp_path, monkeypatch, capsys, flags):
    # two outputs on one file (after symlinks and ..), or an output on
    # the input, would silently overwrite each other; nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    os.symlink(three_atom_file, "link.dx")
    text = Path(three_atom_file).read_text()
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(["--input", "three.xyzr", "--spacing", "0.5", *flags], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error[stage=config]: ") and "overwrite" in err
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before
    assert Path(three_atom_file).read_text() == text


@pytest.mark.parametrize(
    "line, flags",
    [
        ("", ["--metrics-out", "run.cfg"]),
        ("", ["--mesh-out", "run.cfg"]),
        ("", ["--volume-out", "sub/../run.cfg"]),
        ("", ["--time", "50", "--time", "100", "--volume-out", "run.cfg"]),
        ("metrics-out = run.cfg\n", []),
    ],
)
def test_an_output_on_the_config_file_exits_3(
    three_atom_file, tmp_path, monkeypatch, capsys, line, flags
):
    # the config file is read before any output is written; an output on it
    # would replace it, so the run stops at config and writes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = "spacing = 0.5\n" + line
    (tmp_path / "run.cfg").write_text(text)
    (tmp_path / "run_t50.cfg").symlink_to("run.cfg")
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(["--input", three_atom_file, "--config", "run.cfg", *flags], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error[stage=config]: ") and "config file" in err
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "run.cfg").read_text() == text


@pytest.mark.parametrize(
    "line, flags, key",
    [
        ("", ["--mesh-out", ""], "mesh-out"),
        ("", ["--volume-out", ""], "volume-out"),
        ("", ["--metrics-out", ""], "metrics-out"),
        ("mesh-out =\n", [], "mesh-out"),
        ("volume-out =\n", [], "volume-out"),
        ("metrics-out = \n", [], "metrics-out"),
    ],
)
def test_an_empty_output_path_exits_3(
    three_atom_file, tmp_path, monkeypatch, capsys, line, flags, key
):
    # an empty path names no file; only a missing option means no output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("spacing = 0.5\n" + line)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(["--input", three_atom_file, "--config", "run.cfg", *flags], capsys)
    assert code == EXIT_CONFIG
    assert err == f"error[stage=config]: {key} must name a file, got an empty path\n"
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before


def test_no_output_path_is_no_output(three_atom_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(["--input", three_atom_file, "--spacing", "0.5"], capsys)
    assert code == EXIT_OK, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert "_file: " not in out
    cfg = RunConfig("x", mesh_out=None, volume_out=None, metrics_out=None)
    assert cfg._output_paths() == []


def test_isovalue_defaults_are_filled_when_built():
    assert RunConfig("x").isovalues == (0.9,)
    assert RunConfig("x", init_kind="gaussian").isovalues == (0.8,)
    assert RunConfig("x", init_kind="piecewise-swapped").isovalues == (0.1,)
    assert RunConfig("x", isovalues=(0.6,)).isovalues == (0.6,)


def test_run_config_normalizes_its_numbers(three_atom_file, capsys):
    # a list d and int or numpy settings make the config, hash and manifest
    # of the CLI's Python floats
    given = RunConfig(
        three_atom_file, spacing=1, d=[0, 0, 0, 0, 0, 1], times=[np.float32(100)],
        isovalues=[0.9], passes=np.int64(1), mem_cap_gib=4,
    )
    want = RunConfig(three_atom_file, spacing=1.0, d=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert given == want and hash(given) == hash(want)
    assert all(type(v) is float for v in (given.spacing, given.mem_cap_gib, *given.d))
    assert type(given.times[0]) is float
    # one FilterParams per time, a property: no field, so no part of == or hash
    assert given.filter_params == (FilterParams(d=want.d, epsilon=0.0, t=100.0),)
    assert "filter_params" not in {f.name for f in dataclasses.fields(RunConfig)}
    code, out, _ = run_cli(["--input", three_atom_file, "--spacing", "1"], capsys)
    assert code == EXIT_OK
    untimed = lambda text: [line for line in text.splitlines() if not line.startswith("timing.")]
    assert untimed(execute(given)) == untimed(out)
    assert "grid.spacing: 1.0" in out and "filter.d: 0.0 0.0 0.0 0.0 0.0 1.0" in out


@pytest.mark.parametrize("passes", [2.5, 2.0, True, "2"])
def test_run_config_refuses_a_pass_count_that_is_not_an_integer(passes):
    with pytest.raises(ValueError, match=f"^passes must be >= 1, an integer, got {passes}$"):
        RunConfig("x", passes=passes)


def test_option_table_leaves_each_choice_to_run_config():
    parser = build_parser()
    assert not any(action.choices for action in parser._actions)
    (action,) = [a for a in parser._actions if a.dest == "init_kind"]
    assert action.help == (
        "initial field kind: piecewise, gaussian, piecewise-swapped (default piecewise)"
    )
    assert volumetrics.INIT_KINDS == ("piecewise", "gaussian", "piecewise-swapped")


def test_run_config_validation_direct():
    with pytest.raises(ValueError, match="spacing"):
        RunConfig("x", spacing=0.0)
    # the choices argparse guards on the command line
    with pytest.raises(ValueError, match=r"format must be one of \('pqr', 'pdb', 'xyzr', 'auto'\)"):
        RunConfig("x", input_format="vtk")
    with pytest.raises(ValueError, match="init must be one of"):
        RunConfig("x", init_kind="smooth")
    with pytest.raises(ValueError, match="need at least one propagation time"):
        RunConfig("x", times=())
    with pytest.raises(ValueError, match="time"):
        RunConfig("x", times=(0.0,))
    with pytest.raises(ValueError, match="isovalue"):
        RunConfig("x", isovalues=())
    # the file's extension picks the volume format; there is no field for it
    with pytest.raises(TypeError, match="volume_format"):
        RunConfig("x", volume_format="raw")
    # d alone sets the order, and needs a positive coefficient
    with pytest.raises(ValueError, match="at least one diffusion coefficient"):
        RunConfig("x", d=())
    # gaussian fields are not capped at 1, larger levels are legal
    RunConfig("x", init_kind="gaussian", isovalues=(1.3,))


def test_run_config_takes_each_kinds_default_isovalue_from_volumetrics():
    for kind, iso in volumetrics.DEFAULT_ISOVALUES.items():
        assert RunConfig("x", init_kind=kind).isovalues == (iso,)
    # an unknown kind is refused as such, whatever its default would be
    with pytest.raises(ValueError, match=r"^init must be one of "):
        RunConfig("x", init_kind="smooth")


# each rule a RunConfig checks when it is built: its fields, the same
# settings as config-file lines, and the refusal the CLI prints at exit 3
_REFUSALS = [
    ({"spacing": 0.0}, ["spacing = 0"], "spacing must be positive and finite, got 0.0"),
    ({"padding": -1.0}, ["padding = -1"], "padding must be nonnegative and finite, got -1.0"),
    ({"s": 0.0}, ["s = 0"], "s must be positive and finite, got 0.0"),
    ({"r_e": 0.0}, ["re = 0"], "r_e must be positive and finite, got 0.0"),
    ({"passes": 0}, ["passes = 0"], "passes must be >= 1, an integer, got 0"),
    # no choices of argparse's own: a bad kind or format gets RunConfig's text
    ({"init_kind": "foo"}, ["init = foo"],
     "init must be one of ('piecewise', 'gaussian', 'piecewise-swapped'), got 'foo'"),
    ({"input_format": "vtk"}, ["format = vtk"],
     "format must be one of ('pqr', 'pdb', 'xyzr', 'auto'), got 'vtk'"),
    ({"d": (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)}, ["dcoeff = 6:-1"],
     "coefficients must be finite and >= 0, got (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)"),
    ({"d": (0.0,) * 6}, ["dcoeff = 6:0"], "at least one diffusion coefficient must be positive"),
    ({"epsilon": -1.0}, ["epsilon = -1"], "epsilon must be finite and >= 0, got -1.0"),
    ({"times": (0.0,)}, ["time = 0"], "propagation time t must be positive and finite, got 0.0"),
    ({"isovalues": (1.5,)}, ["isovalue = 1.5"],
     "isovalue must lie in (0, 1] for binary initial data, got 1.5"),
    ({"init_kind": "gaussian", "isovalues": (0.0,)}, ["init = gaussian", "isovalue = 0"],
     "isovalue must be positive and finite, got 0.0"),
    ({"times": (100.0, 100.0)}, ["time = 100, 100"],
     "times must differ in their %g form, got 100.0 100.0"),
    ({"isovalues": (0.8, 0.80000001)}, ["isovalue = 0.8, 0.80000001"],
     "isovalues must differ in their %g form, got 0.8 0.80000001"),
    ({"mesh_out": ""}, ["mesh-out ="], "mesh-out must name a file, got an empty path"),
    ({"mesh_out": "x.obj", "metrics_out": "x.obj"}, ["mesh-out = x.obj", "metrics-out = x.obj"],
     "output x.obj would overwrite the input or another output"),
    ({"mem_cap_gib": 0.0}, ["mem-cap = 0"], "mem-cap must be positive and finite, got 0.0"),
]


def _as_flags(lines):
    """The flags that give a config file's lines."""
    flags = []
    for line in lines:
        key, _, value = (part.strip() for part in line.partition("="))
        items = value.split(",") if key in ("time", "isovalue", "dcoeff") else [value]
        flags += [arg for item in items for arg in (f"--{key}", item.strip())]
    return flags


@pytest.mark.parametrize("given", ["flags", "config"])
@pytest.mark.parametrize(
    "fields, lines, message", _REFUSALS, ids=[m.split(",")[0] for _, _, m in _REFUSALS]
)
def test_each_run_config_rule_refuses_when_built(
    three_atom_file, tmp_path, monkeypatch, capsys, fields, lines, message, given
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as refused:
        RunConfig("three.xyzr", **fields)
    assert str(refused.value) == message
    if given == "config":
        (tmp_path / "run.cfg").write_text("".join(line + "\n" for line in lines))
        argv = ["--config", "run.cfg"]
    else:
        argv = _as_flags(lines)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(["--input", "three.xyzr", *argv], capsys)
    assert code == EXIT_CONFIG
    assert err == f"error[stage=config]: {message}\n"
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == before


# ---------------------------------------------------------------------------
# sweeps, formats, determinism


def test_sweep_files_carry_combo_suffixes(three_atom_file, tmp_path, capsys):
    mesh_out = str(tmp_path / "m.obj")
    vol_out = str(tmp_path / "v.dx")
    code, out, _ = run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--time", "50",
            "--time", "100",
            "--isovalue", "0.8",
            "--isovalue", "0.9",
            "--mesh-out", mesh_out,
            "--volume-out", vol_out,
        ],
        capsys,
    )
    assert code == EXIT_OK
    for t in ("50", "100"):
        assert (tmp_path / f"v_t{t}.dx").exists()
        for iso in ("0.8", "0.9"):
            assert (tmp_path / f"m_t{t}_iso{iso}.obj").exists()
    m = manifest_dict(out)
    assert m["run[t=50,iso=0.8].mesh_file"] == str(tmp_path / "m_t50_iso0.8.obj")
    assert m["run[t=100].volume_file"] == str(tmp_path / "v_t100.dx")
    # every combo reports its own field and mesh statistics
    assert "run[t=50].field.min" in m and "run[t=100].field.min" in m
    assert "run[t=50,iso=0.9].mesh.vertices" in m


def test_sweep_matches_single_runs_bitwise(three_atom_file, tmp_path, capsys):
    """Reusing one forward transform across the sweep must not perturb output."""
    sweep_mesh = str(tmp_path / "m.obj")
    run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--time", "50",
            "--time", "100",
            "--isovalue", "0.8",
            "--mesh-out", sweep_mesh,
        ],
        capsys,
    )
    for t in ("50", "100"):
        single = str(tmp_path / f"single_{t}.obj")
        run_cli(
            [
                "--input", three_atom_file,
                "--spacing", "0.5",
                "--time", t,
                "--isovalue", "0.8",
                "--mesh-out", single,
            ],
            capsys,
        )
        swept = tmp_path / f"m_t{t}_iso0.8.obj"
        assert swept.read_bytes() == Path(single).read_bytes()


def test_repeat_runs_are_byte_identical(three_atom_file, tmp_path, capsys):
    mesh = tmp_path / "m.obj"
    vol = tmp_path / "v.raw"
    met = tmp_path / "met.txt"
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            [
                "--input", three_atom_file,
                "--spacing", "0.5",
                "--mesh-out", str(mesh),
                "--volume-out", str(vol),
                "--metrics-out", str(met),
            ],
            capsys,
        )
        assert code == EXIT_OK
        outputs.append((mesh.read_bytes(), vol.read_bytes(), met.read_bytes(), out))
    assert outputs[0][:3] == outputs[1][:3]
    # manifests may differ only in the timing lines
    stable = [
        [l for l in text.splitlines() if not l.startswith("timing.")]
        for _, _, _, text in (outputs[0], outputs[1])
    ]
    assert stable[0] == stable[1]


def test_volume_format_by_extension_and_flag(three_atom_file, tmp_path, capsys):
    raw_out = tmp_path / "v.raw"
    run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--volume-out", str(raw_out),
        ],
        capsys,
    )
    dims, origin, spacing, values = read_raw(str(raw_out))
    assert spacing == 0.5
    assert np.isfinite(values).all()

    # any other extension gives OpenDX
    dx_out = tmp_path / "w.dat"
    run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--volume-out", str(dx_out),
        ],
        capsys,
    )
    head = dx_out.read_text().splitlines()[0]
    assert head.startswith("object 1 class gridpositions counts")

    # both formats describe the same grid
    dx_dims, _, _, dx_values = read_dx(str(dx_out))
    assert tuple(dx_dims) == tuple(dims)
    np.testing.assert_allclose(
        np.asarray(dx_values).ravel(), np.asarray(values).ravel(), rtol=1e-6
    )

    # the extension alone picks the format: no flag or config key forces one
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("volume-format = raw\n")
    for argv, text in (
        (["--volume-format", "raw"], "unrecognized arguments: --volume-format raw"),
        (["--config", str(cfg_file)], "unknown config key 'volume-format'"),
    ):
        out_path = tmp_path / "x.dx"
        code, out, err = run_cli(
            ["--input", three_atom_file, "--volume-out", str(out_path), *argv], capsys
        )
        assert (code, out, err) == (EXIT_CONFIG, "", f"error[stage=config]: {text}\n")
        assert not out_path.exists()


def test_output_extensions_match_in_any_case(three_atom_file, tmp_path, capsys):
    mesh, vol = tmp_path / "s.OFF", tmp_path / "v.RAW"
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5",
         "--mesh-out", str(mesh), "--volume-out", str(vol)],
        capsys,
    )
    assert code == EXIT_OK, err
    verts, _, _ = read_off(str(mesh))
    assert str(len(verts)) == manifest_dict(out)["run[t=100,iso=0.9].mesh.vertices"]
    dims, _, spacing, values = read_raw(str(vol))
    assert spacing == 0.5 and values.shape == dims


def test_numpy_scalar_settings_print_as_floats(three_atom_file, tmp_path):
    # numpy 2 reprs np.float64(0.5) as "np.float64(0.5)"; outputs must not
    # depend on whether a setting arrived as a numpy or a Python float
    def run(spacing, times):
        cfg = RunConfig(
            three_atom_file, spacing=spacing, times=times, metrics_out=str(tmp_path / "r.txt")
        )
        manifest = [ln for ln in execute(cfg).splitlines() if not ln.startswith("timing.")]
        reports = {}
        for path in sorted(tmp_path.glob("r_*.txt")):
            reports[path.name] = path.read_bytes()
            path.unlink()
        return manifest, reports

    plain = run(0.5, (50.0, 100.0))
    numpy = run(np.float64(0.5), (np.float64(50.0), np.float64(100.0)))
    assert len(plain[1]) == 2
    assert numpy == plain
    assert "grid.spacing: 0.5" in plain[0]


def test_format_flag_overrides_extension(tmp_path, capsys):
    # charge-and-radius records stored under a misleading extension still
    # parse when the format is forced; auto detection would trust the name
    path = tmp_path / "mol.xyzr"
    path.write_text((GOLDEN / "fixture.pqr").read_text())
    code, _, err = run_cli(["--input", str(path)], capsys)
    assert code == EXIT_INPUT  # extension says bare numbers, content disagrees

    code, out, _ = run_cli(
        ["--input", str(path), "--format", "pqr", "--spacing", "0.5"], capsys
    )
    assert code == EXIT_OK
    m = manifest_dict(out)
    assert m["input.format"] == "pqr"
    assert m["input.atoms"] == "3"
    warnings = [l for l in out.splitlines() if l.startswith("input.warning: ")]
    assert len(warnings) == 1 and "dropped atom" in warnings[0]


@pytest.mark.parametrize("flags", [[], ["--format", "xyzr"]], ids=["auto", "xyzr"])
def test_the_run_calls_the_parser_bound_on_the_molecule_module(
    three_atom_file, monkeypatch, capsys, flags
):
    # the format table is read when the run starts, so a wrapper put on the
    # molecule module (a tracer's span, say) sees the parse
    calls = []
    real = molecule.parse_xyzr

    def wrapped(text, path=None):
        calls.append(path)
        return real(text, path)

    monkeypatch.setattr(molecule, "parse_xyzr", wrapped)
    code, _, err = run_cli(["--input", three_atom_file, "--spacing", "0.5", *flags], capsys)
    assert code == EXIT_OK, err
    assert calls == [three_atom_file]


def test_format_choices_are_the_molecule_table():
    # the help lists the table; RunConfig refuses any other format
    (action,) = [a for a in build_parser()._actions if a.dest == "input_format"]
    assert action.choices is None and molecule.FORMATS == ("pqr", "pdb", "xyzr", "auto")
    assert action.help == "input format: pqr, pdb, xyzr, auto (default auto)"


@pytest.mark.parametrize("columns", range(60, 121, 10))
def test_help_keeps_each_init_kind_whole(monkeypatch, columns):
    # argparse wraps at the terminal's width, 80 columns when stdout is no
    # terminal; no line breaks at the hyphen of piecewise-swapped
    monkeypatch.setenv("COLUMNS", str(columns))
    lines = build_parser().format_help().splitlines()
    for kind in volumetrics.INIT_KINDS:
        assert any(kind in line for line in lines), kind


def test_swapped_initialization_mirrors_piecewise(three_atom_file):
    """The swapped field is the exact complement, so its default level-0.1
    surface matches the piecewise level-0.9 surface with reversed
    orientation."""
    plain = sweep(RunConfig(three_atom_file, spacing=0.5))
    swapped = sweep(RunConfig(three_atom_file, spacing=0.5, init_kind="piecewise-swapped"))
    a, b = plain[0]["metrics"], swapped[0]["metrics"]
    assert plain[0]["mesh"].n_vertices == swapped[0]["mesh"].n_vertices
    assert a.enclosed_volume > 0 > b.enclosed_volume
    assert np.isclose(a.enclosed_volume, -b.enclosed_volume, rtol=1e-9)
    assert np.isclose(a.area, b.area, rtol=1e-9)
    assert a.euler_characteristic == b.euler_characteristic == 2


def test_multiple_passes_change_the_surface(three_atom_file):
    one = sweep(RunConfig(three_atom_file, spacing=0.5, passes=1))
    three = sweep(RunConfig(three_atom_file, spacing=0.5, passes=3))
    v1 = one[0]["metrics"].enclosed_volume
    v3 = three[0]["metrics"].enclosed_volume
    assert one[0]["metrics"].boundary_edge_count == 0
    assert three[0]["metrics"].boundary_edge_count == 0
    assert not np.isclose(v1, v3, rtol=1e-6)  # extra peel-off passes matter


def test_execute_returns_manifest_text(three_atom_file):
    text = execute(RunConfig(three_atom_file, spacing=0.5))
    m = manifest_dict(text)
    assert m["input.atoms"] == "3"
    assert "run[t=100,iso=0.9].mesh.vertices" in m


def test_execute_keeps_no_mesh_alive(three_atom_file, tmp_path, monkeypatch):
    # the CLI path streams its surfaces: by the time a mesh is finished,
    # every mesh finished before it has been written and released
    meshes, alive = [], []

    class Recording(cli.SlabMarcher):
        def finish(self, field):
            gc.collect()
            alive.append(sum(ref() is not None for ref in meshes))
            mesh = super().finish(field)
            meshes.append(weakref.ref(mesh))
            return mesh

    monkeypatch.setattr(cli, "SlabMarcher", Recording)
    execute(
        RunConfig(
            three_atom_file,
            spacing=0.5,
            times=(50.0, 100.0),
            isovalues=(0.8, 0.9),
            mesh_out=str(tmp_path / "m.obj"),
        )
    )
    gc.collect()
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in meshes)


@pytest.mark.parametrize("volume", [None, "v.dx", "v.raw"])
def test_nonfinite_filtered_field_fails_at_extract(
    three_atom_file, tmp_path, capsys, monkeypatch, volume
):
    # a NaN in the second filtered slab: the pass's range refuses it before
    # the volume file or any marcher sees the slab, with or without a
    # volume, and no file is left
    def poisoned(spectrum, band):
        for i, part in enumerate(pdefilter.field_slabs(spectrum, band)):
            if i == 1:
                part[0, 0, 0] = np.nan
            yield part

    fed = []

    class Recording(cli.SlabMarcher):
        def add(self, slab):
            fed.append(bool(np.isnan(slab).any()))
            super().add(slab)

    monkeypatch.setattr(cli, "field_slabs", poisoned)
    monkeypatch.setattr(cli, "SlabMarcher", Recording)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", str(out_dir / "m.obj")]
    if volume:
        argv += ["--volume-out", str(out_dir / volume)]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_COMPUTE
    assert out == ""
    assert err == "error[stage=extract]: field contains NaN or Inf\n"
    assert not any(out_dir.iterdir())
    assert fed == [False]  # the first slab only


def test_one_range_per_pass(three_atom_file, tmp_path, monkeypatch):
    # each filtered slab's range is read once per pass: one SlabRange for
    # the initial field and one per time, each fed every slab once; the
    # marchers and the volume writer keep none of their own
    original = grids.SlabRange
    ranges = []

    class Spy(original):
        def __init__(self, dims):
            super().__init__(dims)
            self.added = []
            ranges.append(self)

        def add(self, slab):
            self.added.append(len(slab))
            super().add(slab)

    # every module's binding of the class, wherever it is imported
    for module in list(sys.modules.values()):
        if module.__name__.startswith("cliffsurf") and getattr(module, "SlabRange", None) is original:
            monkeypatch.setattr(module, "SlabRange", Spy)
    times = (50.0, 100.0)
    text = execute(
        RunConfig(
            three_atom_file,
            spacing=0.5,
            times=times,
            isovalues=(0.8, 0.9),
            volume_out=str(tmp_path / "v.dx"),
        )
    )
    n0 = int(manifest_dict(text)["grid.dims"].split()[0])
    assert len(ranges) == 1 + len(times)
    for r in ranges:
        assert sum(r.added) == n0
        assert len(r.added) == -(-n0 // SLAB)


def test_sweep_returns_one_entry_per_combo(three_atom_file):
    combos = sweep(
        RunConfig(three_atom_file, spacing=0.5, times=(50.0, 100.0), isovalues=(0.8, 0.9))
    )
    assert [(c["t"], c["isovalue"]) for c in combos] == [
        (50.0, 0.8),
        (50.0, 0.9),
        (100.0, 0.8),
        (100.0, 0.9),
    ]
    for combo in combos:
        assert combo["mesh"].n_triangles > 0
        assert combo["metrics"].boundary_edge_count == 0


def test_smoothness_indicator_decreases_with_time(three_atom_file):
    text = execute(
        RunConfig(three_atom_file, spacing=0.5, times=(10.0, 100.0, 1000.0))
    )
    m = manifest_dict(text)
    energies = [float(m[f"run[t={t:g}].highband_energy"]) for t in (10, 100, 1000)]
    assert energies[0] > energies[1] > energies[2]


def test_main_module_entry_point(three_atom_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cliffsurf", "--input", three_atom_file,
         "--spacing", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "input.atoms: 3" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "cliffsurf", "--input", "/no/file.xyzr"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[stage=input]: ")


def cliffsurf_process(argv, cwd, stdout=subprocess.PIPE):
    """`python -m cliffsurf` on this tree's sources, its stderr a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "cliffsurf", *argv],
        cwd=cwd,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )


def test_the_process_exit_keeps_a_piped_manifest_whole(three_atom_file, tmp_path):
    # the process ends without interpreter teardown: what it printed to a
    # pipe must be flushed first, the manifest to its last timing line
    proc = cliffsurf_process(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", "m.obj"], tmp_path
    )
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    lines = proc.stdout.splitlines()
    want = execute(RunConfig(three_atom_file, spacing=0.5, mesh_out=str(tmp_path / "x.obj")))
    assert proc.stdout.endswith("\n") and len(lines) == len(want.splitlines())
    assert lines[0] == f"input.path: {three_atom_file}"
    timing = [ln.partition(":")[0] for ln in lines if ln.startswith("timing.")]
    assert len(timing) == 7
    assert [ln.partition(":")[0] for ln in lines[-2:]] == ["timing.output_s", "timing.mesh_write_s"]
    assert (tmp_path / "m.obj").read_bytes() == (tmp_path / "x.obj").read_bytes()


@pytest.mark.parametrize(
    "argv, code, stage",
    [
        (["--spacing", "-1"], EXIT_CONFIG, "config"),
        (["--spacing", "0.5", "--mesh-out", "no_such_dir/m.obj"], EXIT_OUTPUT, "output"),
    ],
)
def test_the_process_exit_keeps_a_piped_error_line(three_atom_file, tmp_path, argv, code, stage):
    proc = cliffsurf_process(["--input", three_atom_file, *argv], tmp_path)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error[stage={stage}]: ") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_manifest_on_a_full_device_exits_5(three_atom_file, tmp_path):
    # the manifest's write fails: one tagged line and the output exit code,
    # not a traceback
    with open("/dev/full", "w") as full:
        proc = cliffsurf_process(
            ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", "m.obj"],
            tmp_path,
            stdout=full,
        )
    assert proc.returncode == EXIT_OUTPUT
    assert proc.stderr == (
        "error[stage=output]: cannot write the manifest: [Errno 28] No space left on device\n"
    )


def test_both_process_entries_run_console_main():
    # `python -m cliffsurf` and the `cliffsurf` script share one entry
    main_module = Path(cli.__file__).with_name("__main__.py").read_text()
    assert "console_main()" in main_module
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert 'cliffsurf = "cliffsurf.cli:console_main"' in pyproject.read_text()


# ---------------------------------------------------------------------------
# real-FFT filter stage


def _cli_initial_field(path, spacing):
    mol = parse_xyzr(Path(path).read_text(), path)
    return rasterize("piecewise", mol, make_grid(mol, spacing=spacing))


@pytest.mark.parametrize("passes", [2, 3])
def test_cli_passes_field_is_sum_of_peeled_modes(three_atom_file, tmp_path, capsys, passes):
    vol = str(tmp_path / "v.raw")
    code, _, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--time", "20",
         "--epsilon", "0.05", "--passes", str(passes), "--volume-out", vol],
        capsys,
    )
    assert code == EXIT_OK, err
    _, _, _, got = read_raw(vol)
    params = FilterParams(d=default_coefficients(6), epsilon=0.05, t=20.0)
    modes = mode_decompose(_cli_initial_field(three_atom_file, 0.5), [params] * passes).modes
    want = sum(mode.values for mode in modes)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize(
    "flags, box, closed",
    [
        ([], {}, True),
        (["--spacing", "0.5", "--padding", "0.5"], {"spacing": 0.5, "padding": 0.5}, False),
    ],
    ids=["default", "tight-box"],
)
def test_face_range_tells_whether_the_mesh_is_closed(three_atom_file, tmp_path, capsys,
                                                     flags, box, closed):
    # the mesh is closed exactly when no box-face sample is below the
    # isovalue or none is above it; at 0.5 A of padding the surface
    # reaches the box, and the run refuses it at stage extract
    vol, mesh = str(tmp_path / "v.raw"), tmp_path / "m.obj"
    code, out, err = run_cli(
        ["--input", three_atom_file, *flags, "--volume-out", vol, "--mesh-out", str(mesh)], capsys
    )
    # the run's field, bit for bit: a failed run leaves no volume to read
    mol = parse_xyzr(Path(three_atom_file).read_text(), three_atom_file)
    params = FilterParams(d=default_coefficients(), epsilon=0.0, t=100.0)
    values = lowpass_apply(rasterize("piecewise", mol, make_grid(mol, **box)), params).values
    faces = [values[[0, -1]], values[:, [0, -1]], values[:, :, [0, -1]]]
    lo, hi = float(min(f.min() for f in faces)), float(max(f.max() for f in faces))
    assert (not lo < 0.9 <= hi) == closed
    if not closed:
        assert code == EXIT_COMPUTE
        assert err.count("\n") == 1 and err.startswith("error[stage=extract]: isovalue 0.9 ")
        assert f"({lo!r}, {hi!r}]" in err
        assert "--padding" in err and "--time" in err
        assert not mesh.exists() and not os.path.exists(vol)
        return
    assert code == EXIT_OK, err
    assert np.array_equal(read_raw(vol)[3], values)
    m = manifest_dict(out)
    assert float(m["run[t=100].field.face_min"]) == lo
    assert float(m["run[t=100].field.face_max"]) == hi
    assert m["run[t=100,iso=0.9].mesh.boundary_edge_count"] == "0"


def test_overflowing_highband_energy_reads_inf_without_warning(three_atom_file, capsys):
    # |X|^2 overflows where |X| does not: the true high-band energy of this
    # run is about 1e587, and no warning may escape as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["--input", three_atom_file, "--init", "gaussian", "--s", "1e290",
             "--isovalue", "8e289"],
            capsys,
        )
    assert code == EXIT_OK, err
    assert err == ""
    assert manifest_dict(out)["run[t=100].highband_energy"] == "inf"


@pytest.mark.parametrize("eps, passes", [(0.0, 1), (0.0, 3), (0.05, 3)])
def test_manifest_zero_gain_frac_counts_the_full_half_spectrum(three_atom_file, capsys,
                                                               eps, passes):
    times = (10.0, 1000.0)
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--time", "10", "--time", "1000",
         "--epsilon", str(eps), "--passes", str(passes)],
        capsys,
    )
    assert code == EXIT_OK, err
    got = manifest_dict(out)
    grid = make_grid(parse_xyzr(Path(three_atom_file).read_text()), spacing=0.5)
    for t in times:
        params = FilterParams.single_term(t=t, epsilon=eps)
        gain = filter_gain(params, SpectralBand.full(grid), passes)
        want = float(1.0 - np.count_nonzero(gain) / gain.size)
        assert got[f"run[t={t:g}].filter.zero_gain_frac"] == repr(want)
        assert (want == 0.0) == (eps > 0)


def test_cli_highband_energy_is_full_fft_band_energy(three_atom_file, tmp_path, capsys):
    vol = str(tmp_path / "v.raw")
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--time", "10",
         "--volume-out", vol],
        capsys,
    )
    assert code == EXIT_OK, err
    dims, origin, spacing, values = read_raw(vol)
    grid = GridSpec(origin=origin, spacing=spacing, dims=dims)
    band = squared_norm(w_axes(grid)) > ENERGY_W2_THRESHOLD
    want = float(np.sum(np.abs(np.fft.fftn(values)[band]) ** 2))
    got = float(manifest_dict(out)["run[t=10].highband_energy"])
    assert want > 0 and abs(got - want) <= 1e-12 * want


def test_filter_stage_fft_count(three_atom_file, monkeypatch):
    # per run, the last-axis rfft takes every voxel once, one slab of
    # axis-0 planes at a time, whatever the number of times, and each slab
    # then takes the axis-1 fft; per time, one axis-0 ifft of the band and
    # per slab one axis-1 ifft and one last-axis irfft over its n1 lines;
    # every complex pass takes band lines only; no n-D transform at all,
    # whatever the number of peel-off passes
    calls: list[tuple[str, tuple[int, ...], int, int | None]] = []

    def recording(name, fn):
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            a = np.asarray(a)
            calls.append((name, a.shape, axis % a.ndim, n))
            return fn(a, n, axis, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
    for name in ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn",
                 "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, None)  # calling one fails the run
    times = (50.0, 100.0)
    combos = sweep(RunConfig(three_atom_file, spacing=0.5, times=times, passes=3))
    assert len(combos) == 2

    grid = make_grid(parse_xyzr(Path(three_atom_file).read_text()), spacing=0.5)
    n0, n1, nz = grid.dims
    params = [FilterParams(d=default_coefficients(6), epsilon=0.0, t=t) for t in times]
    b0, b1, bz = SpectralBand.of(grid, params).shape
    assert b0 < n0 and b1 < n1 and bz < nz // 2 + 1  # the band prunes every axis
    rows = [min(SLAB, n0 - lo) for lo in range(0, n0, SLAB)]
    assert n0 % SLAB  # a short last slab
    forward = []
    for r in rows:
        forward += [("rfft", (r, n1, nz), 2, None), ("fft", (r, n1, bz), 1, None)]
    inverse = [("ifft", (n0, b1, bz), 0, None)]
    for r in rows:
        inverse += [("ifft", (r, n1, bz), 1, None), ("irfft", (r, n1, bz), 2, nz)]
    assert calls == forward + [("fft", (n0, b1, bz), 0, None)] + inverse * len(times)


def test_energy_failure_is_tagged_filter(three_atom_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("energy exploded")

    monkeypatch.setattr(cli, "spectral_energy", broken)
    code, _, err = run_cli(["--input", three_atom_file, "--spacing", "0.5"], capsys)
    assert code == EXIT_COMPUTE
    assert err.startswith("error[stage=filter]: ")
    assert "energy exploded" in err


@pytest.mark.parametrize("times", [(100.0,), (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)])
def test_traced_peak_within_memory_estimate(three_atom_file, tmp_path, times):
    # the grid memory cap must not promise less memory than a run takes:
    # the full pipeline with every writer, traced end to end, for one
    # propagation time and for a six-time sweep, which streams its times
    # and so must fit the same flat per-voxel estimate
    cfg = RunConfig(
        three_atom_file,
        spacing=0.25,
        times=times,
        mesh_out=str(tmp_path / "m.obj"),
        volume_out=str(tmp_path / "v.dx"),
        metrics_out=str(tmp_path / "r.txt"),
    )
    tracemalloc.start()
    try:
        combos = sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["metrics"].boundary_edge_count == 0 for c in combos)
    n_voxels = make_grid(parse_xyzr(Path(three_atom_file).read_text()), spacing=0.25).n_voxels
    assert peak <= n_voxels * _BYTES_PER_VOXEL


def test_eps_run_weighs_its_energy_one_plane_at_a_time(tmp_path, monkeypatch, capsys):
    # with eps > 0 the band is the whole half spectrum, 16 bytes per bin.
    # spectral_energy runs beside the spectrum kept for the next time and
    # the retained one, and used to add |X|^2, the band's w^2 and a mask
    # to them (25.25 B/voxel). The bench's G300 globule, seed 0.
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / "g300.xyzr"
    inputs.write_globule("G300", 0, str(path))
    energy_peaks = []

    def traced(*args):
        tracemalloc.reset_peak()
        energy = pdefilter.spectral_energy(*args)
        energy_peaks.append(tracemalloc.get_traced_memory()[1])
        return energy

    monkeypatch.setattr(cli, "spectral_energy", traced)
    args = ["--input", str(path), "--init", "gaussian", "--spacing", "0.3", "--epsilon",
            "0.05", "--passes", "3", "--time", "100", "--time", "200"]
    tracemalloc.start()
    try:
        code = main(args)
    finally:
        tracemalloc.stop()
    assert code == 0
    dims = [int(n) for n in manifest_dict(capsys.readouterr().out)["grid.dims"].split()]
    assert len(energy_peaks) == 2
    assert max(energy_peaks) <= 17 * dims[0] * dims[1] * dims[2]


def test_streamed_gaussian_run_holds_no_grid_array(three_atom_file, tmp_path, capsys):
    # a traced run at 108 x 135 x 135 with every writer stays under
    # 6 B/voxel + 200 B/triangle: less than one float64 array of the grid
    # (8 B/voxel) beside the mesh (about 50 B/triangle), mesh_metrics (100)
    # and the slabs, so no stage may hold a field or spectrum whole
    args = ["--input", three_atom_file, "--init", "gaussian", "--spacing", "0.13",
            "--mesh-out", str(tmp_path / "m.obj"), "--volume-out", str(tmp_path / "v.dx"),
            "--metrics-out", str(tmp_path / "r.txt")]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    m = manifest_dict(out)
    dims = [int(n) for n in m["grid.dims"].split()]
    assert min(dims) >= 100
    n_voxels = dims[0] * dims[1] * dims[2]
    triangles = int(m["run[t=100,iso=0.8].mesh.triangles"])
    assert m["run[t=100,iso=0.8].mesh.boundary_edge_count"] == "0"
    assert peak <= 6 * n_voxels + 200 * triangles


# ---------------------------------------------------------------------------
# a producer's setup runs in the stage that consumes it; a failed run removes
# only regular files; input and config files are UTF-8, with or without a BOM


def test_an_error_in_the_piecewise_setup_fails_at_rasterize(
    three_atom_file, monkeypatch, capsys
):
    # the rasterizer's setup runs at its first slab, inside the rasterize
    # stage, so its failure is one tagged line with the compute exit code
    def broken(self):
        raise MemoryError("no room for the voxel axes")

    monkeypatch.setattr(GridSpec, "axes", broken)
    code, out, err = run_cli(["--input", three_atom_file, "--spacing", "0.5"], capsys)
    assert code == EXIT_COMPUTE and out == ""
    assert err == "error[stage=rasterize]: no room for the voxel axes\n"


def test_a_failed_run_leaves_an_output_pipe_in_place(three_atom_file, tmp_path, capsys):
    # the mesh goes into a named pipe, then the report's directory is missing:
    # the run exits 5 and removes no output it did not create
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)

    def drain():
        with open(fifo, "rb") as fh:
            while fh.read(1 << 16):
                pass

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", str(fifo),
         "--metrics-out", str(tmp_path / "nodir" / "r.txt")],
        capsys,
    )
    reader.join(timeout=30)
    assert code == EXIT_OUTPUT and out == ""
    assert err.startswith("error[stage=output]: cannot write ")
    assert not reader.is_alive() and fifo.is_fifo()


def test_a_failed_run_leaves_an_output_link_in_place(three_atom_file, tmp_path, capsys):
    # the mesh goes through a symbolic link, then the report's directory is
    # missing: the run exits 5, the link stays and its target holds the mesh
    target, link = tmp_path / "target.obj", tmp_path / "link.obj"
    target.write_text("keep me\n")
    link.symlink_to("target.obj")
    code, out, err = run_cli(
        ["--input", three_atom_file, "--spacing", "0.5", "--mesh-out", str(link),
         "--metrics-out", str(tmp_path / "nodir" / "r.txt")],
        capsys,
    )
    assert code == EXIT_OUTPUT and out == ""
    assert err.startswith("error[stage=output]: cannot write ")
    assert link.is_symlink() and target.read_text().startswith("v ")


def _untimed_run(directory, name, data, argv, monkeypatch, capsys):
    # the manifest of a run on data saved as name in directory, from there,
    # without its timing lines
    directory.mkdir()
    (directory / name).write_bytes(data)
    monkeypatch.chdir(directory)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_OK, err
    return [line for line in out.splitlines() if not line.startswith("timing.")]


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark


@pytest.mark.parametrize("name", ["fixture.xyzr", "fixture.pqr"])
def test_an_input_file_with_a_byte_order_mark_runs_as_its_twin(
    tmp_path, monkeypatch, capsys, name
):
    # the mark comes right before the first atom record: without its
    # REMARK line, the PQR fixture starts with one too
    lines = (GOLDEN / name).read_bytes().splitlines(keepends=True)
    data = b"".join(line for line in lines if not line.startswith(b"REMARK"))
    argv = ["--input", name, "--spacing", "0.5"]
    runs = [
        _untimed_run(tmp_path / where, name, mark + data, argv, monkeypatch, capsys)
        for where, mark in (("plain", b""), ("marked", BOM))
    ]
    assert runs[0] == runs[1]


def test_a_config_file_with_a_byte_order_mark_runs_as_its_twin(
    three_atom_file, tmp_path, monkeypatch, capsys
):
    text = b"spacing = 0.5\ntime = 50, 100\n"
    argv = ["--input", three_atom_file, "--config", "run.cfg"]
    runs = [
        _untimed_run(tmp_path / where, "run.cfg", mark + text, argv, monkeypatch, capsys)
        for where, mark in (("plain", b""), ("marked", BOM))
    ]
    assert runs[0] == runs[1]
    assert "grid.spacing: 0.5" in runs[1]


@pytest.mark.parametrize(
    ("stage", "exit_code"), [("input", EXIT_INPUT), ("config", EXIT_CONFIG)]
)
def test_a_file_that_is_not_utf8_keeps_its_stage(
    three_atom_file, tmp_path, capsys, stage, exit_code
):
    path = tmp_path / "latin1.txt"
    path.write_bytes("spacing = 0.5 Å\n".encode("latin-1"))
    argv = ["--input", str(path)]
    if stage == "config":
        argv = ["--input", three_atom_file, "--config", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (exit_code, "")
    assert err.startswith(f"error[stage={stage}]: ") and "can't decode" in err
