"""End-to-end tests for the command line driver and the run-config plumbing.

Pipeline invocations run in-process through main(argv) on a coarse grid so
the whole module stays fast; the exit-code contract is asserted against the
documented stage map (0 ok, 2 input, 3 config, 4 compute, 5 output).
"""

import gc
import os
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cliffsurf import cli
from cliffsurf.cli import (
    ENERGY_W2_THRESHOLD,
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_OUTPUT,
    RunConfig,
    StageError,
    _combo_path,
    _parse_dcoeff,
    build_parser,
    config_from_args,
    execute,
    main,
    sweep,
)
from cliffsurf.grids import SLAB, SpectralGrid
from cliffsurf.molecule import parse_xyzr
from cliffsurf.pdefilter import (
    FilterParams,
    SpectralBand,
    default_coefficients,
    filter_gain,
    mode_decompose,
)
from cliffsurf.volumetrics import _BYTES_PER_VOXEL, make_grid, rasterize_piecewise

from conftest import read_dx, read_obj, read_off, read_raw

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
    code, out, err = run_cli(["--input", str(tmp_path / "absent.xyzr")], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error[stage=input]: ")


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
    assert cfg.m == 4
    assert cfg.epsilon == 0.25
    assert cfg.times == (50.0, 100.0)
    assert cfg.isovalues == (0.7,)
    assert cfg.passes == 2
    assert cfg.mem_cap_gib == 2.0


def test_order_sets_coefficient_length():
    cfg = parse_config(["--input", "x.xyzr", "--order", "8"]).resolved()
    assert cfg.d == (0.0, 0.0, 0.0, 1.0)


def test_dcoeff_overrides_one_slot():
    cfg = parse_config(["--input", "x.xyzr", "--dcoeff", "3:0.5"]).resolved()
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
    assert cfg.resolved().d == (0.0, 0.0, 0.0, 0.0, 0.0, 0.5)


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
    "volume_format": "raw",
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
    assert _combo_path("m.obj", 100.0, 0.9, multi=False) == "m.obj"
    assert _combo_path("m.obj", 100.0, 0.9, multi=True) == "m_t100_iso0.9.obj"
    assert _combo_path("m.obj", 10000.0, 0.5, multi=True) == "m_t10000_iso0.5.obj"
    assert _combo_path("v.dx", 100.0, None, multi=True) == "v_t100.dx"
    assert _combo_path("noext", 2.5, 0.4, multi=True) == "noext_t2.5_iso0.4"
    # a dot in a directory name is not an extension
    assert _combo_path("out.d/mesh", 100.0, 0.9, multi=True) == "out.d/mesh_t100_iso0.9"
    assert _combo_path("x.obj", 300.0, 0.6, multi=True) == "x_t300_iso0.6.obj"


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
    # two outputs on one file (symlinks and .. resolved), or an output on
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


def test_resolved_isovalue_defaults():
    assert RunConfig("x").resolved().isovalues == (0.9,)
    assert RunConfig("x", init_kind="gaussian").resolved().isovalues == (0.8,)
    assert RunConfig("x", init_kind="piecewise-swapped").resolved().isovalues == (0.1,)
    assert RunConfig("x", isovalues=(0.6,)).resolved().isovalues == (0.6,)


def test_run_config_validation_direct():
    with pytest.raises(ValueError, match="spacing"):
        RunConfig("x", spacing=0.0).resolved()
    with pytest.raises(ValueError, match="time"):
        RunConfig("x", times=(0.0,)).resolved()
    with pytest.raises(ValueError, match="isovalue"):
        RunConfig("x", isovalues=()).resolved()
    with pytest.raises(ValueError, match="volume format"):
        RunConfig("x", volume_format="vtk").resolved()
    # gaussian fields are not capped at 1, larger levels are legal
    RunConfig("x", init_kind="gaussian", isovalues=(1.3,)).resolved()


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

    # an explicit format wins over the extension
    forced = tmp_path / "w.raw"
    run_cli(
        [
            "--input", three_atom_file,
            "--spacing", "0.5",
            "--volume-out", str(forced),
            "--volume-format", "dx",
        ],
        capsys,
    )
    head = forced.read_text().splitlines()[0]
    assert head.startswith("object 1 class gridpositions counts")

    # both routes describe the same grid
    dx_dims, _, _, dx_values = read_dx(str(forced))
    assert tuple(dx_dims) == tuple(dims)
    np.testing.assert_allclose(
        np.asarray(dx_values).ravel(), np.asarray(values).ravel(), rtol=1e-6
    )


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
        def finish(self):
            gc.collect()
            alive.append(sum(ref() is not None for ref in meshes))
            mesh = super().finish()
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


# ---------------------------------------------------------------------------
# real-FFT filter stage


def _cli_initial_field(path, spacing):
    mol = parse_xyzr(Path(path).read_text(), path)
    return rasterize_piecewise(mol, make_grid(mol, spacing=spacing))


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
    params = FilterParams(m=6, d=default_coefficients(6), epsilon=0.05, t=20.0)
    modes = mode_decompose(_cli_initial_field(three_atom_file, 0.5), passes, params).modes
    want = sum(mode.values for mode in modes)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize(
    "flags, closed",
    [([], True), (["--spacing", "0.5", "--padding", "0.5"], False)],
    ids=["default", "tight-box"],
)
def test_face_range_tells_whether_the_mesh_is_closed(three_atom_file, tmp_path, capsys,
                                                     flags, closed):
    vol = str(tmp_path / "v.raw")
    code, out, err = run_cli(["--input", three_atom_file, *flags, "--volume-out", vol], capsys)
    assert code == EXIT_OK, err
    m = manifest_dict(out)
    _, _, _, values = read_raw(vol)
    faces = [values[[0, -1]], values[:, [0, -1]], values[:, :, [0, -1]]]
    lo = float(m["run[t=100].field.face_min"])
    hi = float(m["run[t=100].field.face_max"])
    assert lo == min(f.min() for f in faces) and hi == max(f.max() for f in faces)
    # the mesh is closed exactly when no box-face sample is below the
    # isovalue or none is above it; at 0.5 A of padding the surface
    # reaches the box
    assert (not lo < 0.9 <= hi) == closed
    boundary = int(m["run[t=100,iso=0.9].mesh.boundary_edge_count"])
    assert (boundary == 0) == closed


def test_overflowing_highband_energy_reads_inf_without_warning(three_atom_file, capsys):
    # |X|^2 overflows where |X| does not: the true high-band energy of this
    # run is about 1e587, and no warning may escape as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["--input", three_atom_file, "--init", "gaussian", "--s", "1e290"], capsys
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
        gain = filter_gain(FilterParams.single_term(t=t, epsilon=eps), grid, passes)
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
    dims, _, spacing, values = read_raw(vol)
    band = SpectralGrid(dims=dims, spacing=spacing).w2() > ENERGY_W2_THRESHOLD
    want = float(np.sum(np.abs(np.fft.fftn(values)[band]) ** 2))
    got = float(manifest_dict(out)["run[t=10].highband_energy"])
    assert want > 0 and abs(got - want) <= 1e-12 * want


def test_filter_stage_fft_count(three_atom_file, monkeypatch):
    # per run, the last-axis rfft takes every voxel once, one axis-0 plane
    # at a time, whatever the number of times, and each slab of planes
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
    params = [FilterParams(m=6, d=default_coefficients(6), epsilon=0.0, t=t) for t in times]
    b0, b1, bz = SpectralBand.of(grid, params).shape
    assert b0 < n0 and b1 < n1 and bz < nz // 2 + 1  # the band prunes every axis
    rows = [min(SLAB, n0 - lo) for lo in range(0, n0, SLAB)]
    assert n0 % SLAB  # a short last slab
    forward = []
    for r in rows:
        forward += [("rfft", (n1, nz), 1, None)] * r + [("fft", (r, n1, bz), 1, None)]
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
