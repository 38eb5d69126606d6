"""One holder per rule: source greps that fail when a rule's text or code is
written a second time, or a deleted name comes back.

Every slab consumer counts its planes with grids.PlaneFeed, so its two
refusal texts are formatted there once; every spectral symbol takes its
wavenumbers from grids.w_axes, the one caller of the FFT frequency
layout. Each run input is refused by its one owner: an atom-less input by
Molecule, a mesh with no triangles by TriangleMesh, a bad bump height s or
decay r_e by volumetrics.check_bump_settings, and a bad grid origin,
spacing or dims by the one field check that GridSpec and GridSpec2 share,
so check_spacing and check_dims have no holder. Every setting that must
be positive and finite is refused in one text, by grids.check_positive,
and a field with a NaN or an infinity in one text, by grids.check_finite;
a pass count that is not an integer >= 1 by pdefilter.check_passes, and
an unknown init kind by volumetrics.check_init_kind. Each init kind's
default isovalue and isovalue rule are volumetrics', so the CLI compares
no kind name. A RunConfig is checked when it is built,
so no resolve step exists, and argparse checks no choice of its own. Each
writer reads its format from its path, so no setting or parameter names
one: the .raw test is volumetrics.VolumeWriter's, the .off test
surface.write_mesh's. volumetrics.rasterize(kind) is the one whole-field
rasterizer and write_volume the one volume export. The CLI's
stage(name, path) is its one turner of an OSError into a "cannot
read/write <path>" failure, and one slab pass feeds every consumer.
molecule.parsers is the one table from input format to parser, and
grids.read_only the one maker of a read-only view (ga snapshots its
coefficients with a copy). The gaussian rasterizer prunes atoms by one
halving rule at every box size, so its former cube level (_BLOCK,
block_pairs) and leaf level (leaf_pairs) have no holder. The marcher keeps
one vertex id per grid edge, at its axis and lower point, so no cell steps
back to an edge's owner (_SHIFT, _OWNER_EDGE, _TRI_SLOTS) and no owner
rows carry over between slabs (_NO_CARRY). Each slab producer is one
generator, whose setup runs at its first slab, so no private twin
(_piecewise_slabs, _gaussian_slabs, _field_slabs) does the slab work
after a call-time setup. A failed run removes an output only through
grids.remove_output, which leaves anything but a regular file alone, and
every file is opened in grids.py: for writing by new_file, for reading by
read_text, the one reader of input and config files, as UTF-8 with or
without a BOM.

Each rule is a regular expression searched line by line, as grep does.
The one rule that searches tests/ leaves out this module, whose message
names the deleted method.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/cliffsurf"


def grep(pattern: str, *where: str, python_only: bool = True) -> list[str]:
    """'path:line:text' of each line matching pattern in the files under where (repo-relative)."""
    hits = []
    for top in where:
        base = ROOT / top
        if base.is_file():
            files = [base]
        else:
            files = sorted(base.rglob("*.py" if python_only else "*"))
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), start=1):
                if re.search(pattern, line):
                    hits.append(f"{path.relative_to(ROOT).as_posix()}:{number}:{line}")
    return hits


def outside(hits: list[str], *holders: str) -> list[str]:
    """The hits in no file of holders."""
    return [hit for hit in hits if not hit.startswith(tuple(f"{h}:" for h in holders))]


def once(pattern: str, *where: str) -> list[str]:
    """Nothing when exactly one line matches; else the matching lines, or a note that none does."""
    hits = grep(pattern, *where)
    return [] if len(hits) == 1 else hits or [f"no line matches {pattern!r}"]


THIS = Path(__file__).resolve().relative_to(ROOT).as_posix()
GRIDS = f"{PACKAGE}/grids.py"
SLAB_REFUSALS = r'does not fit grid|planes"\)'

# texts formatted by exactly one line of the package
FORMATTED_ONCE = (
    '"no atoms"',
    "empty mesh",
    "field contains NaN or Inf",
    "passes must be >= 1",
    "init must be one of",
    "must be positive and finite, got",
    "dims must be",
)

RULES = [
    pytest.param(
        lambda: outside(grep(SLAB_REFUSALS, PACKAGE), GRIDS)
        + once("does not fit grid", GRIDS)
        + once(r'planes"\)', GRIDS),
        "a slab-feed refusal is formatted outside grids.py",
        id="slab-feed-refusals",
    ),
    pytest.param(
        lambda: outside(grep("fftfreq", PACKAGE), GRIDS),
        "FFT wavenumbers are computed outside grids.w_axes",
        id="wavenumbers",
    ),
    *(
        pytest.param(
            lambda text=text: once(re.escape(text), PACKAGE),
            f"{text} is formatted more than once",
            id=f"formatted-once[{text}]",
        )
        for text in FORMATTED_ONCE
    ),
    pytest.param(
        lambda: outside(grep(r"\bs must be|\br_?e must be", PACKAGE), f"{PACKAGE}/volumetrics.py"),
        "an s or r_e refusal is formatted outside volumetrics.py",
        id="bump-settings",
    ),
    pytest.param(
        lambda: grep(r"def check_(spacing|dims)\b", "src"),
        "a grid check is written beside the one field check of both ranks "
        "and grids.check_positive",
        id="one-grid-check",
    ),
    pytest.param(
        lambda: grep(r'init_kind [!=]= "', f"{PACKAGE}/cli.py"),
        "the CLI names an init kind; its default isovalue and isovalue rule are volumetrics'",
        id="no-kind-names-in-cli",
    ),
    pytest.param(
        lambda: outside(grep(r"resolved\(", "src", "tests"), THIS),
        "a RunConfig is checked when it is built; there is no resolved()",
        id="no-resolve-step",
    ),
    pytest.param(
        lambda: outside(grep(r'": *[A-Za-z_.]*parse_', "src"), f"{PACKAGE}/molecule.py"),
        "a format -> parser table is written outside molecule.py",
        id="parser-table",
    ),
    pytest.param(
        lambda: grep(r"choices=", f"{PACKAGE}/cli.py"),
        "argparse checks a choice that RunConfig checks",
        id="no-argparse-choices",
    ),
    pytest.param(
        lambda: grep(r"volume_format", "src"),
        "a setting picks the volume format that the extension picks",
        id="no-volume-format",
    ),
    pytest.param(
        lambda: outside(grep(r"setflags\(write=False\)", "src"), GRIDS, f"{PACKAGE}/ga.py"),
        "a read-only view is made outside grids.read_only",
        id="read-only-view",
    ),
    pytest.param(
        lambda: grep(r"def is_finite", "src"),
        "a second copy of the non-finite rule of grids.check_finite",
        id="non-finite-rule",
    ),
    pytest.param(
        lambda: grep(r"def _writing|staged\(", f"{PACKAGE}/cli.py"),
        "the CLI has a second stage context or slab loop beside stage() and its one slab pass",
        id="stage-context",
    ),
    pytest.param(
        lambda: outside(grep(r'endswith\("\.raw"\)', "src"), f"{PACKAGE}/volumetrics.py"),
        "the volume format is read from a path outside volumetrics.VolumeWriter",
        id="volume-format-holder",
    ),
    pytest.param(
        lambda: outside(grep(r'endswith\("\.off"\)', "src"), f"{PACKAGE}/surface.py"),
        "the mesh format is read from a path outside surface.write_mesh",
        id="mesh-format-holder",
    ),
    pytest.param(
        lambda: grep(
            r"rasterize_(piecewise|gaussian)|export_(opendx|raw)",
            "src",
            "README.md",
            python_only=False,
        ),
        "a per-kind rasterizer or per-format export is back; "
        "use rasterize(kind) or write_volume(path)",
        id="one-rasterizer-one-export",
    ),
    pytest.param(
        lambda: grep(r"_BLOCK|block_pairs|leaf_pairs", "src"),
        "a second pruning level is back in the gaussian rasterizer; "
        "it halves one box at every size",
        id="one-pruning-rule",
    ),
    pytest.param(
        lambda: grep(r"\b(_SHIFT|_OWNER_EDGE|_TRI_SLOTS|_NO_CARRY)\b", "src"),
        "the marcher looks up an edge's owner again; "
        "every corner reads its id at its grid edge's slot",
        id="one-edge-id-grid",
    ),
    pytest.param(
        lambda: grep(r"def _(piecewise|gaussian|field)_slabs\b", "src"),
        "a slab producer is split again into a call-time setup and a private generator",
        id="one-generator-per-producer",
    ),
    pytest.param(
        lambda: outside(grep(r"\bos\.(remove|unlink)\(|\.unlink\(", PACKAGE), GRIDS)
        + once(r"\bos\.remove\(", GRIDS),
        "an output is removed outside grids.remove_output, which removes only regular files",
        id="output-removal",
    ),
    pytest.param(
        lambda: outside(grep(r"\bopen\(", PACKAGE), GRIDS)
        + once(r'open\(path, encoding="utf-8-sig"\)', GRIDS),
        "a file is opened outside grids.py: input and config files are read by grids.read_text",
        id="one-reader",
    ),
]


@pytest.mark.parametrize(("problems", "message"), RULES)
def test_one_holder(problems, message):
    found = problems()
    assert not found, message + "\n" + "\n".join(found)
