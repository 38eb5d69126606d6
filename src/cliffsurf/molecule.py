"""Molecular structure ingestion: atom centers and radii from PQR, XYZR, PDB.

Parsing is deterministic and locale-independent (decimal points only, no
thousands separators). Radii come from the file when the format carries
them (PQR, XYZR); bare PDB input falls back to an embedded per-element
van der Waals table. No hydrogens are added and no charges are assigned;
protonation and charge assignment stay upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
class Atom:
    """One sphere: center (Angstrom), positive radius, optional metadata."""

    center: tuple[float, float, float]
    radius: float
    charge: float | None = None
    element: str | None = None
    serial: str | None = None
    name: str | None = None
    residue: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) != 3 or not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be 3 finite coordinates, got {self.center}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class Provenance:
    path: str | None = None
    format: str | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Molecule:
    """Nonempty list of atoms plus where they came from."""

    atoms: tuple[Atom, ...]
    source: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ParseError("no atoms")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def centers(self) -> np.ndarray:
        return np.array([a.center for a in self.atoms])

    @property
    def radii(self) -> np.ndarray:
        return np.array([a.radius for a in self.atoms])

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
    atoms: list[Atom] = []
    warnings: list[str] = []
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
        atoms.append(
            Atom(
                center=(x, y, z),
                radius=radius,
                charge=charge,
                serial=tokens[1],
                name=tokens[2],
                residue=tokens[3],
            )
        )
    if not atoms:
        raise ParseError("no atoms")
    return Molecule(tuple(atoms), Provenance(path, "pqr", tuple(warnings)))


def serialize_pqr(mol: Molecule) -> str:
    """Canonical whitespace-delimited PQR text; parse(serialize(m)) == m."""
    lines = []
    for i, a in enumerate(mol.atoms, start=1):
        serial = a.serial if a.serial is not None else str(i)
        name = a.name or "X"
        residue = a.residue or "UNK"
        charge = a.charge if a.charge is not None else 0.0
        lines.append(
            f"ATOM {serial} {name} {residue} {i} "
            f"{a.center[0]:.6f} {a.center[1]:.6f} {a.center[2]:.6f} "
            f"{charge:.6f} {a.radius:.6f}"
        )
    return "\n".join(lines) + "\n"


def parse_xyzr(text: str, path: str | None = None) -> Molecule:
    """Parse one x y z r quadruple per non-blank line."""
    atoms: list[Atom] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 4:
            raise ParseError(f"expected 4 fields (x y z r), got {len(tokens)}", line_no)
        x, y, z, r = _finite_floats(tokens, line_no)
        if r <= 0:
            raise ParseError(f"radius must be positive, got {r}", line_no)
        atoms.append(Atom(center=(x, y, z), radius=r))
    if not atoms:
        raise ParseError("no atoms")
    return Molecule(tuple(atoms), Provenance(path, "xyzr"))


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
    atoms: list[Atom] = []
    warnings: list[str] = []
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
        atoms.append(
            Atom(
                center=(x, y, z),
                radius=radius,
                element=elem or None,
                serial=line[6:11].strip() or None,
                name=line[12:16].strip() or None,
                residue=residue or None,
            )
        )
    if not atoms:
        raise ParseError("no atoms")
    return Molecule(tuple(atoms), Provenance(path, "pdb", tuple(warnings)))


_PARSERS = {"pqr": parse_pqr, "xyzr": parse_xyzr, "pdb": parse_pdb}


def parse_auto(text: str, path: str | None = None) -> Molecule:
    """Detect the format from the file extension, else by trying parsers.

    Extension wins when recognized. Otherwise XYZR is tried first (its
    all-numeric lines cannot be valid PQR/PDB), then PQR, then PDB.
    """
    if path:
        ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
        if ext in _PARSERS:
            return _PARSERS[ext](text, path)
    last_error: Exception | None = None
    for fmt in ("xyzr", "pqr", "pdb"):
        try:
            return _PARSERS[fmt](text, path)
        except ParseError as exc:
            last_error = exc
    raise ParseError(f"could not detect format: {last_error}")
