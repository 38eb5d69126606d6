"""Molecular structure ingestion: atom centers and radii from PQR, XYZR, PDB.

Parsing is deterministic and locale-independent (decimal points only, no
thousands separators). The parsers take text, and the CLI reads a
structure file as UTF-8, with or without a byte-order mark, in any
locale (grids.read_text). Radii come from the file when the format
carries them (PQR, XYZR); bare PDB input falls back to an embedded
per-element van der Waals table. No hydrogens are added and no charges
are assigned; protonation and charge assignment stay upstream.

A Molecule is its arrays: centers (n, 3) and radii (n,), plus the
per-atom columns a format carries (PQR charges; serial, name and residue
labels from PQR and PDB; PDB elements). No object is built per atom.
Each parser checks every field of a line once, in its one per-line loop,
and raises ParseError with the line number; it appends the checked
floats to lists, and the arrays are built once from them. Molecule makes
its own refusals once, over whole arrays: no atoms, a wrong shape, a
non-finite center, a radius that is not positive and finite (from a
custom PDB radius table, or a caller's arrays) and a column whose length
is not the atom count. parsers() is the one table from an input format's
name to its parser.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .grids import check_positive, read_only

# Bondi-style van der Waals radii (Angstrom) for bare PDB input.
# PQR radii always win when present. Swappable via parse_pdb(radii=...).
VDW_RADII = {
    "H": 1.20,
    "C": 1.70,
    "N": 1.55,
    "O": 1.52,
    "S": 1.80,
    "P": 1.80,
}
VDW_DEFAULT = 1.50

_WATER_RESIDUES = {"HOH", "WAT", "H2O", "TIP3", "SOL"}


class ParseError(ValueError):
    """Structure file rejected; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Provenance:
    path: str | None = None
    format: str | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class Molecule:
    """A nonempty set of spheres as arrays, its per-atom columns, and its source.

    centers (n, 3) and radii (n,) are read-only views of float64 inputs,
    as ScalarField3 keeps its values: other dtypes and lists are converted
    once, and writing to the caller's array afterwards changes the
    molecule. The parsers hand over fresh arrays. The optional columns
    hold what a format carries per atom: charges (n,), read-only float64
    (PQR); labels, one (serial, name, residue) per atom (PQR, PDB); and
    elements, one element symbol or None per atom (PDB).
    """

    centers: np.ndarray
    radii: np.ndarray
    source: Provenance = field(default_factory=Provenance)
    charges: np.ndarray | None = None
    labels: tuple[tuple[str | None, str | None, str | None], ...] | None = None
    elements: tuple[str | None, ...] | None = None

    def __post_init__(self):
        centers, radii = read_only(self.centers), read_only(self.radii)
        if not (centers.size or radii.size):
            raise ParseError("no atoms")
        if radii.ndim != 1 or centers.shape != (len(radii), 3):
            raise ValueError(
                f"centers must have shape (n, 3) and radii (n,), "
                f"got {centers.shape} and {radii.shape}"
            )
        finite = np.isfinite(centers).all(axis=1)
        if not finite.all():
            bad = tuple(centers[~finite][0].tolist())
            raise ValueError(f"center must be 3 finite coordinates, got {bad}")
        good = (radii > 0) & (radii < np.inf)  # a NaN fails both
        if not good.all():
            check_positive("radius", radii[~good][0])
        columns = {"centers": centers, "radii": radii}
        for name, convert in (("charges", read_only), ("labels", tuple), ("elements", tuple)):
            if getattr(self, name) is not None:
                columns[name] = convert(getattr(self, name))
        for name, column in columns.items():
            if len(column) != len(radii):
                raise ValueError(f"{name} has {len(column)} entries for {len(radii)} atoms")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.radii)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of the tightest box containing every sphere."""
        c, r = self.centers, self.radii
        return (c - r[:, None]).min(axis=0), (c + r[:, None]).max(axis=0)


def _finite_floats(tokens, line_no):
    try:
        vals = [float(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"non-numeric field in {tokens!r}", line_no) from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite value in {tokens!r}", line_no)
    return vals


def parse_pqr(text: str, path: str | None = None) -> Molecule:
    """Parse whitespace-delimited PQR records.

    ATOM/HETATM lines are tokenized; the last five numeric fields are
    x, y, z, charge, radius, which tolerates both the chain-ID and the
    no-chain-ID layouts that popular generators emit. Other record types
    are ignored. Records with nonpositive radius are dropped with a
    warning (they cannot bound a sphere); a file where nothing survives
    is an error.
    """
    centers, radii, charges, labels, warnings = [], [], [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0] not in ("ATOM", "HETATM"):
            continue
        if len(tokens) < 9:
            raise ParseError(
                f"ATOM record needs at least 9 fields, got {len(tokens)}", line_no
            )
        x, y, z, charge, radius = _finite_floats(tokens[-5:], line_no)
        if radius <= 0:
            warnings.append(f"line {line_no}: dropped atom with radius {radius}")
            continue
        centers.append((x, y, z))
        radii.append(radius)
        charges.append(charge)
        labels.append(tuple(tokens[1:4]))
    source = Provenance(path, "pqr", tuple(warnings))
    return Molecule(centers, radii, source, charges=charges, labels=labels)


def serialize_pqr(mol: Molecule) -> str:
    """Whitespace-delimited PQR text, each float written with repr.

    parse_pqr of the text gives back the centers, radii and charges bit
    for bit, and the labels (a molecule without charges or labels is
    written with charge 0.0 and labels (i, X, UNK) for atom i). The
    Molecule itself is a new object: molecules compare by identity.
    """
    n = len(mol)
    charges = mol.charges.tolist() if mol.charges is not None else [0.0] * n
    labels = mol.labels or [(None, None, None)] * n
    rows = zip(mol.centers.tolist(), mol.radii.tolist(), charges, labels)
    lines = []
    for i, ((x, y, z), radius, charge, (serial, name, residue)) in enumerate(rows, start=1):
        lines.append(
            f"ATOM {serial if serial is not None else i} {name or 'X'} {residue or 'UNK'} {i} "
            f"{x!r} {y!r} {z!r} {charge!r} {radius!r}"
        )
    return "\n".join(lines) + "\n"


def parse_xyzr(text: str, path: str | None = None) -> Molecule:
    """Parse one x y z r quadruple per non-blank line."""
    centers, radii = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 4:
            raise ParseError(f"expected 4 fields (x y z r), got {len(tokens)}", line_no)
        x, y, z, r = _finite_floats(tokens, line_no)
        if r <= 0:
            raise ParseError(f"radius must be positive, got {r}", line_no)
        centers.append((x, y, z))
        radii.append(r)
    return Molecule(centers, radii, Provenance(path, "xyzr"))


def _pdb_element(line: str) -> str:
    elem = line[76:78].strip() if len(line) >= 78 else ""
    if not elem:
        # fall back to the atom-name field; its first alphabetic character
        # is the element for the organic set this table knows about
        name = line[12:16].strip()
        for ch in name:
            if ch.isalpha():
                elem = ch
                break
    return elem.upper()


def parse_pdb(
    text: str,
    path: str | None = None,
    strip_solvent: bool = False,
    radii: dict[str, float] | None = None,
) -> Molecule:
    """Parse fixed-column PDB ATOM/HETATM records.

    Coordinates come from columns 31-54; the radius is looked up by
    element (columns 77-78, falling back to the atom-name field) in the
    embedded van der Waals table. Unknown elements get the default radius
    with a warning. strip_solvent skips HETATM water records.
    """
    table = VDW_RADII if radii is None else radii
    centers, sizes, labels, elements, warnings = [], [], [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        record = line[:6].strip()
        if record not in ("ATOM", "HETATM"):
            continue
        residue = line[17:20].strip()
        if strip_solvent and record == "HETATM" and residue in _WATER_RESIDUES:
            continue
        if len(line) < 54:
            raise ParseError("record too short for coordinate columns", line_no)
        x, y, z = _finite_floats((line[30:38], line[38:46], line[46:54]), line_no)
        elem = _pdb_element(line)
        if elem in table:
            radius = table[elem]
        else:
            radius = VDW_DEFAULT
            warnings.append(
                f"line {line_no}: unknown element {elem!r}, default radius {VDW_DEFAULT}"
            )
        centers.append((x, y, z))
        sizes.append(radius)
        labels.append((line[6:11].strip() or None, line[12:16].strip() or None, residue or None))
        elements.append(elem or None)
    source = Provenance(path, "pdb", tuple(warnings))
    return Molecule(centers, sizes, source, labels=labels, elements=elements)


def parse_auto(text: str, path: str | None = None) -> Molecule:
    """Detect the format from the file extension, else by trying parsers.

    Extension wins when recognized: a format's name, in any case, or .ent,
    the wwPDB's own extension for PDB files (pdb1abc.ent). Otherwise XYZR
    is tried first (its all-numeric lines cannot be valid PQR/PDB), then
    PQR, then PDB. PQR takes the last five fields of an ATOM record, so a
    PDB file under another extension whose element columns are blank can
    be detected as PQR, with the occupancy read as the charge and the
    B-factor as the radius: pass --format pdb (parse_pdb) for such a file.
    """
    table = parsers()
    del table["auto"]  # this detector: a *.auto file is detected by content
    if path:
        ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
        ext = "pdb" if ext == "ent" else ext
        if ext in table:
            return table[ext](text, path)
    last_error: Exception | None = None
    for fmt in ("xyzr", "pqr", "pdb"):
        try:
            return table[fmt](text, path)
        except ParseError as exc:
            last_error = exc
    raise ParseError(f"could not detect format: {last_error}")


def parsers() -> dict[str, Callable[..., Molecule]]:
    """The parser of each input format, auto included, in --format's order.

    This is the one format table. It is built on each call from the
    module's functions, so a parser rebound on the module (a wrapper or a
    test double) is the one every caller gets.
    """
    return {"pqr": parse_pqr, "pdb": parse_pdb, "xyzr": parse_xyzr, "auto": parse_auto}


# the input format names, in --format's order
FORMATS = tuple(parsers())
