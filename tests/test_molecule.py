"""Structure file parsing: fixtures for each format, fallback paths,
error reporting, serialization round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsurf.molecule import (
    VDW_DEFAULT,
    VDW_RADII,
    Atom,
    Molecule,
    ParseError,
    parse_auto,
    parse_pdb,
    parse_pqr,
    parse_xyzr,
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
    a = mol.atoms[0]
    assert a.center == (-0.677, -1.230, -0.491)
    assert a.radius == 1.55
    assert a.charge == -0.30
    assert a.serial == "1" and a.name == "N" and a.residue == "ALA"
    assert mol.atoms[2].radius == 1.52  # HETATM accepted
    assert len(mol.source.warnings) == 1
    assert "radius" in mol.source.warnings[0] and "line 5" in mol.source.warnings[0]
    assert mol.source.format == "pqr"


def test_parse_pqr_without_chain_column():
    mol = parse_pqr(PQR_NO_CHAIN)
    assert len(mol) == 2
    assert mol.atoms[0].center == (-0.677, -1.230, -0.491)
    assert mol.atoms[0].charge == -0.3
    assert mol.atoms[1].radius == 1.70


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
    for a, b in zip(mol.atoms, again.atoms):
        assert np.allclose(a.center, b.center, atol=5e-7)
        assert abs(a.radius - b.radius) <= 5e-7
        assert abs(a.charge - b.charge) <= 5e-7
        assert (a.serial, a.name, a.residue) == (b.serial, b.name, b.residue)


coord = st.floats(min_value=-999.0, max_value=999.0, allow_nan=False)
radius = st.floats(min_value=0.1, max_value=9.0, allow_nan=False)


@given(st.lists(st.tuples(coord, coord, coord, coord, radius), min_size=1, max_size=8))
@settings(max_examples=50)
def test_pqr_round_trip_random(rows):
    atoms = tuple(
        Atom(center=(x, y, z), radius=r, charge=q) for x, y, z, q, r in rows
    )
    again = parse_pqr(serialize_pqr(Molecule(atoms)))
    assert len(again) == len(atoms)
    for a, b in zip(atoms, again.atoms):
        assert np.allclose(a.center, b.center, atol=5e-7)
        assert abs(a.radius - b.radius) <= 5e-7


def test_parse_xyzr():
    mol = parse_xyzr("0.0 0.0 1.8 1.8\n0.0 0.0 -1.8 1.8\n\n0.0 3.12 0.0 1.8\n")
    assert len(mol) == 3
    assert mol.atoms[2].center == (0.0, 3.12, 0.0)
    assert np.array_equal(mol.radii, [1.8, 1.8, 1.8])
    assert mol.atoms[0].charge is None


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
    byname = {a.name: a for a in mol.atoms}
    assert byname["N"].radius == VDW_RADII["N"]
    assert byname["CA"].radius == VDW_RADII["C"]
    assert byname["CA"].element == "C"
    assert byname["N"].center == (-0.677, -1.23, -0.491)
    # unknown element gets the default radius plus a warning
    assert byname["XX"].radius == VDW_DEFAULT
    assert any("ZZ" in w for w in mol.source.warnings)
    # missing element columns fall back to the atom-name field
    assert byname["CB"].element == "C"
    assert byname["CB"].radius == VDW_RADII["C"]


def test_parse_pdb_strip_solvent():
    mol = parse_pdb(PDB_FIXTURE, strip_solvent=True)
    assert len(mol) == 4
    assert all(a.residue != "HOH" for a in mol.atoms)


def test_parse_pdb_custom_radii():
    mol = parse_pdb(PDB_FIXTURE, radii={"N": 2.5, "C": 2.0, "O": 1.0, "ZZ": 0.5})
    assert mol.atoms[0].radius == 2.5
    assert mol.atoms[2].radius == 0.5
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


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(ValueError):
        Atom(center=(0.0, 0.0, np.inf), radius=1.0)
    with pytest.raises(ValueError):
        Atom(center=(0.0, 0.0, 0.0), radius=0.0)


def test_molecule_accessors(three_atoms):
    assert len(three_atoms) == 3
    assert three_atoms.centers.shape == (3, 3)
    lo, hi = three_atoms.bounding_box()
    assert np.allclose(lo, [-1.8, -1.8, -3.6])
    assert np.allclose(hi, [1.8, 4.92, 3.6])
    with pytest.raises(ParseError):
        Molecule(())


def test_molecule_arrays_are_built_once_and_read_only(three_atoms):
    centers, radii = three_atoms.centers, three_atoms.radii
    assert three_atoms.centers is centers and three_atoms.radii is radii
    assert not centers.flags.writeable and not radii.flags.writeable
    with pytest.raises(ValueError):
        centers[0, 0] = 1.0
    assert np.array_equal(centers, [a.center for a in three_atoms.atoms])
    assert np.array_equal(radii, [a.radius for a in three_atoms.atoms])
    assert Molecule(three_atoms.atoms) == Molecule(three_atoms.atoms)


def test_bounding_box_uses_per_atom_radii():
    mol = Molecule(
        (
            Atom(center=(0.0, 0.0, 0.0), radius=1.0),
            Atom(center=(4.0, 0.0, 0.0), radius=0.25),
        )
    )
    lo, hi = mol.bounding_box()
    assert np.allclose(lo, [-1.0, -1.0, -1.0])
    assert np.allclose(hi, [4.25, 1.0, 1.0])
