"""Structure file parsing: fixtures for each format, fallback paths,
error reporting, serialization round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsurf.molecule import (
    FORMATS,
    VDW_DEFAULT,
    VDW_RADII,
    Molecule,
    ParseError,
    parse_auto,
    parse_pdb,
    parse_pqr,
    parse_xyzr,
    parsers,
    serialize_pqr,
)

PQR_FIXTURE = """\
REMARK generated for parser tests
ATOM      1  N   ALA A   1      -0.677  -1.230  -0.491  -0.3000 1.5500
ATOM      2  CA  ALA A   1       0.001  -0.064  -0.491   0.2100 1.7000
HETATM    3  O1  LIG A   2       1.500   2.250   0.000  -0.5500 1.5200
ATOM      4  HX  ALA A   1       9.000   9.000   9.000   0.1000 0.0000
TER
END
"""

PQR_NO_CHAIN = """\
ATOM 1 N ALA 1 -0.677 -1.230 -0.491 -0.3000 1.5500
ATOM 2 CA ALA 1 0.001 -0.064 -0.491 0.2100 1.7000
"""

PDB_FIXTURE = """\
HEADER    TEST
ATOM      1  N   ALA A   1      -0.677  -1.230  -0.491  1.00  0.00           N
ATOM      2  CA  ALA A   1       0.001  -0.064  -0.491  1.00  0.00           C
ATOM      3  XX  ALA A   1       2.000   2.000   2.000  1.00  0.00          ZZ
HETATM    4  O   HOH A   2       5.000   5.000   5.000  1.00  0.00           O
ATOM      5  CB  ALA A   1       1.000   1.000   1.000  1.00  0.00
END
"""


def test_parse_pqr_fixture():
    mol = parse_pqr(PQR_FIXTURE)
    assert len(mol) == 3  # zero-radius hydrogen dropped
    assert tuple(mol.centers[0].tolist()) == (-0.677, -1.230, -0.491)
    assert mol.radii[0] == 1.55
    assert mol.charges[0] == -0.30
    assert mol.labels[0] == ("1", "N", "ALA")  # serial, name, residue
    assert mol.radii[2] == 1.52  # HETATM accepted
    assert mol.elements is None
    assert len(mol.source.warnings) == 1
    assert "radius" in mol.source.warnings[0] and "line 5" in mol.source.warnings[0]
    assert mol.source.format == "pqr"


def test_parse_pqr_without_chain_column():
    mol = parse_pqr(PQR_NO_CHAIN)
    assert len(mol) == 2
    assert tuple(mol.centers[0].tolist()) == (-0.677, -1.230, -0.491)
    assert mol.charges[0] == -0.3
    assert mol.radii[1] == 1.70


def test_parse_pqr_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_pqr("ATOM 1 N ALA 1 0.0 0.0 0.5\n")  # 8 fields, 9 required
    with pytest.raises(ParseError, match="non-numeric"):
        parse_pqr("ATOM 1 N ALA 1 x 0.0 0.0 0.5 1.5\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_pqr("ATOM 1 N ALA 1 nan 0.0 0.0 0.5 1.5\n")
    with pytest.raises(ParseError, match="no atoms"):
        parse_pqr("REMARK nothing here\n")
    with pytest.raises(ParseError, match="no atoms"):
        # the only atom is dropped for nonpositive radius
        parse_pqr("ATOM 1 N ALA 1 0.0 0.0 0.0 0.5 -1.0\n")


def test_pqr_serialize_parse_round_trip():
    mol = parse_pqr(PQR_FIXTURE)
    again = parse_pqr(serialize_pqr(mol))
    assert len(again) == len(mol)
    for a, b in zip(mol.centers, again.centers):
        assert np.allclose(a, b, atol=5e-7)
    for a, b in zip(mol.radii, again.radii):
        assert abs(a - b) <= 5e-7
    for a, b in zip(mol.charges, again.charges):
        assert abs(a - b) <= 5e-7
    assert again.labels == mol.labels


def test_pqr_round_trip_is_exact():
    # a radius that %.6f writes as 0.000000, and coordinates that need 17 digits
    mol = Molecule(
        [(0.1 + 0.2, 1 / 3, -2 / 3), (9999.123456789012, -1e-300, 5e-324)],
        [1e-7, 1.7000000000000002],
        charges=[-0.1 + 0.7, 1e-17],
        labels=[("1", "N", "ALA"), ("2", "CA", "GLY")],
    )
    again = parse_pqr(serialize_pqr(mol))
    assert not again.source.warnings
    assert np.array_equal(again.centers, mol.centers)
    assert np.array_equal(again.radii, mol.radii)
    assert np.array_equal(again.charges, mol.charges)
    assert again.labels == mol.labels


coord = st.floats(min_value=-999.0, max_value=999.0, allow_nan=False)
radius = st.floats(min_value=0.1, max_value=9.0, allow_nan=False)


@given(st.lists(st.tuples(coord, coord, coord, coord, radius), min_size=1, max_size=8))
@settings(max_examples=50)
def test_pqr_round_trip_random(rows):
    xyzqr = np.array(rows)
    mol = Molecule(xyzqr[:, :3], xyzqr[:, 4], charges=xyzqr[:, 3])
    again = parse_pqr(serialize_pqr(mol))
    assert len(again) == len(mol)
    for a, b in zip(mol.centers, again.centers):
        assert np.allclose(a, b, atol=5e-7)
    for a, b in zip(mol.radii, again.radii):
        assert abs(a - b) <= 5e-7


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite, finite, st.floats(min_value=0.0, exclude_min=True,
                                                             allow_infinity=False)),
                min_size=1, max_size=20))
@settings(max_examples=100)
def test_parse_xyzr_arrays_are_the_rows_bit_for_bit(rows):
    # repr is the shortest text that reads back as the same double
    mol = parse_xyzr("".join(" ".join(map(repr, row)) + "\n" for row in rows))
    want = np.array(rows)
    assert mol.centers.dtype == mol.radii.dtype == np.float64
    assert np.array_equal(mol.centers.view(np.uint64), want[:, :3].view(np.uint64))
    assert np.array_equal(mol.radii.view(np.uint64), want[:, 3].view(np.uint64))


def test_parse_xyzr():
    mol = parse_xyzr("0.0 0.0 1.8 1.8\n0.0 0.0 -1.8 1.8\n\n0.0 3.12 0.0 1.8\n")
    assert len(mol) == 3
    assert tuple(mol.centers[2].tolist()) == (0.0, 3.12, 0.0)
    assert np.array_equal(mol.radii, [1.8, 1.8, 1.8])
    assert mol.charges is None and mol.labels is None and mol.elements is None


def test_parse_xyzr_errors():
    with pytest.raises(ParseError, match="expected 4 fields"):
        parse_xyzr("0.0 0.0 1.8\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_xyzr("0 0 0 1\n0.0 0.0 1.8 1.8 extra\n")
    with pytest.raises(ParseError, match="radius"):
        parse_xyzr("0 0 0 0\n")
    with pytest.raises(ParseError, match="no atoms"):
        parse_xyzr("\n\n")


def test_parse_pdb_fixture():
    mol = parse_pdb(PDB_FIXTURE)
    assert len(mol) == 5
    assert mol.charges is None
    byname = {name: i for i, (_, name, _) in enumerate(mol.labels)}
    assert mol.radii[byname["N"]] == VDW_RADII["N"]
    assert mol.radii[byname["CA"]] == VDW_RADII["C"]
    assert mol.elements[byname["CA"]] == "C"
    assert tuple(mol.centers[byname["N"]].tolist()) == (-0.677, -1.23, -0.491)
    assert mol.labels[byname["N"]] == ("1", "N", "ALA")
    # unknown element gets the default radius plus a warning
    assert mol.radii[byname["XX"]] == VDW_DEFAULT
    assert any("ZZ" in w for w in mol.source.warnings)
    # missing element columns fall back to the atom-name field
    assert mol.elements[byname["CB"]] == "C"
    assert mol.radii[byname["CB"]] == VDW_RADII["C"]


def test_parse_pdb_strip_solvent():
    mol = parse_pdb(PDB_FIXTURE, strip_solvent=True)
    assert len(mol) == 4
    assert all(residue != "HOH" for _, _, residue in mol.labels)
    assert len(mol.labels) == len(mol.elements) == 4


def test_parse_pdb_custom_radii():
    mol = parse_pdb(PDB_FIXTURE, radii={"N": 2.5, "C": 2.0, "O": 1.0, "ZZ": 0.5})
    assert mol.radii[0] == 2.5
    assert mol.radii[2] == 0.5
    assert not mol.source.warnings


def test_parse_pdb_errors():
    with pytest.raises(ParseError, match="too short"):
        parse_pdb("ATOM      1  N   ALA A   1      -0.677\n")
    with pytest.raises(ParseError, match="no atoms"):
        parse_pdb("HEADER only\nEND\n")


def test_parse_auto_by_extension(tmp_path):
    assert parse_auto("0 0 0 1.8\n", "m.xyzr").source.format == "xyzr"
    assert parse_auto(PQR_NO_CHAIN, "m.pqr").source.format == "pqr"
    assert parse_auto(PDB_FIXTURE, "m.pdb").source.format == "pdb"


def test_parse_auto_by_content():
    assert parse_auto("0 0 0 1.8\n").source.format == "xyzr"
    assert parse_auto(PQR_NO_CHAIN).source.format == "pqr"
    assert parse_auto(PDB_FIXTURE).source.format == "pdb"
    with pytest.raises(ParseError, match="could not detect"):
        parse_auto("garbage that is no known format\n")


def test_parse_auto_extension_wins_over_content():
    # valid under both readers; the extension must decide
    text = "ATOM 1 N ALA 1 0.0 0.0 0.0 0.5 1.5\n"
    assert parse_auto(text, "f.pqr").source.format == "pqr"


def test_one_format_table_in_the_cli_order():
    assert FORMATS == ("pqr", "pdb", "xyzr", "auto")
    assert parsers() == {
        "pqr": parse_pqr, "pdb": parse_pdb, "xyzr": parse_xyzr, "auto": parse_auto
    }


def test_an_auto_extension_is_detected_by_content():
    # "auto" names the detector in the format table, not a file format
    assert parse_auto("0 0 0 1.8\n", "m.auto").source.format == "xyzr"


def test_atom_validation():
    # each refusal is made once, over the whole arrays
    with pytest.raises(ValueError, match="shape"):
        Molecule([(0.0, 0.0)], [1.0])  # two coordinates
    with pytest.raises(ValueError, match=r"finite coordinates, got \(0.0, 0.0, inf\)"):
        Molecule([(1.0, 1.0, 1.0), (0.0, 0.0, np.inf)], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive and finite, got 0.0"):
        Molecule([(0.0, 0.0, 0.0)], [0.0])
    with pytest.raises(ValueError, match="positive and finite, got nan"):
        Molecule([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, np.nan])
    with pytest.raises(ValueError, match="shape"):
        Molecule([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0])  # one radius for two atoms
    with pytest.raises(ValueError, match="labels has 1 entries for 2 atoms"):
        Molecule([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0], labels=[("1", "N", "ALA")])
    with pytest.raises(ParseError, match="no atoms"):
        Molecule(np.empty((0, 3)), np.empty(0))


def test_a_pdb_radius_table_is_checked_by_the_molecule():
    with pytest.raises(ValueError, match="radius must be positive and finite, got 0.0"):
        parse_pdb(PDB_FIXTURE, radii={"N": 0.0, "C": 2.0, "O": 1.0, "ZZ": 0.5})


def test_molecule_accessors(three_atoms):
    assert len(three_atoms) == 3
    assert three_atoms.centers.shape == (3, 3)
    lo, hi = three_atoms.bounding_box()
    assert np.allclose(lo, [-1.8, -1.8, -3.6])
    assert np.allclose(hi, [1.8, 4.92, 3.6])
    with pytest.raises(ParseError):
        Molecule([], [])


def test_molecule_arrays_are_built_once_and_read_only(three_atoms):
    centers, radii = three_atoms.centers, three_atoms.radii
    assert three_atoms.centers is centers and three_atoms.radii is radii
    assert not centers.flags.writeable and not radii.flags.writeable
    with pytest.raises(ValueError):
        centers[0, 0] = 1.0
    assert centers.dtype == radii.dtype == np.float64
    assert np.array_equal(centers, [(0.0, 0.0, 1.8), (0.0, 0.0, -1.8), (0.0, 3.12, 0.0)])
    assert np.array_equal(radii, [1.8, 1.8, 1.8])


def test_molecule_keeps_read_only_views_of_float64_inputs():
    # the ScalarField3 rule: a float64 input is kept as a view, not copied
    centers, radii, charges = np.zeros((2, 3)), np.ones(2), np.zeros(2)
    centers[1, 0] = 5.0
    mol = Molecule(centers, radii, charges=charges)
    for mine, theirs in ((mol.centers, centers), (mol.radii, radii), (mol.charges, charges)):
        assert np.shares_memory(mine, theirs)
        assert not mine.flags.writeable and theirs.flags.writeable
    radii[0] = 2.0  # writing the caller's array afterwards changes the molecule
    assert mol.radii[0] == 2.0
    # other dtypes and sequences are converted once, to float64
    mol = Molecule(centers.astype(np.float32), [1, 1], labels=[("1", "N", "ALA")] * 2)
    assert mol.centers.dtype == mol.radii.dtype == np.float64
    assert not np.shares_memory(mol.centers, centers)
    assert mol.labels == (("1", "N", "ALA"),) * 2


def test_bounding_box_uses_per_atom_radii():
    mol = Molecule([(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)], [1.0, 0.25])
    lo, hi = mol.bounding_box()
    assert np.allclose(lo, [-1.0, -1.0, -1.0])
    assert np.allclose(hi, [4.25, 1.0, 1.0])
