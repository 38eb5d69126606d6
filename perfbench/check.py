"""Output check for one CLI invocation.

An invocation passes when it exited 0 and, for every (t, isovalue)
combination of the workload:

* its metrics report exists and every mesh it describes is closed
  (boundary_edge_count == 0);
* where a mesh file was written, the mesh read back from it has the same
  triangle count, boundary edges, components, Euler characteristic, area
  and volume as the report says (recomputed here, independently of the
  program);
* component count and Euler characteristic equal the reference recorded
  from the seed commit, and area and enclosed volume match it within
  REL_TOL.

The reference is per (workload, globule seed); a seed without one fails the
check (record it with run.py --record-reference at a commit whose outputs
are trusted). The sha256 of every output file is reported with whether
it matches the reference, but a mismatch does not fail the check: a change
that alters output bytes must say so, not be refused.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

REL_TOL = 1e-3
# the report's %r floats are read back exactly; the OBJ coordinates are
# rounded to 6 decimals, so recomputed area and volume carry that error
OBJ_REL_TOL = 1e-4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_report(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(": ")
            value = value.strip()
            try:
                out[key] = int(value)
            except ValueError:
                out[key] = float(value)
    return out


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        lines = fh.read().split("\n")
    vs = [ln[2:] for ln in lines if ln.startswith("v ")]
    fs = [ln[2:] for ln in lines if ln.startswith("f ")]
    verts = np.array(" ".join(vs).split(), dtype=np.float64).reshape(-1, 3)
    tris = np.array(" ".join(fs).split(), dtype=np.int64).reshape(-1, 3) - 1
    return verts, tris


def _components(n_vertices: int, edges: np.ndarray) -> int:
    # min-label propagation with pointer jumping until no label changes
    label = np.arange(n_vertices)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return int(np.unique(label).size)
        label = new


def mesh_stats(verts: np.ndarray, tris: np.ndarray) -> dict:
    """Topology and size of a triangle mesh, computed from scratch."""
    nv = len(verts)
    pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    pairs.sort(axis=1)
    codes, counts = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_counts=True)
    edges = np.stack([codes // nv, codes % nv], axis=1)
    p = verts[tris]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return {
        "triangles": len(tris),
        "boundary_edge_count": int((counts == 1).sum()),
        "component_count": _components(nv, edges),
        "euler_characteristic": nv - len(edges) + len(tris),
        "area": float(np.linalg.norm(cross, axis=1).sum() / 2.0),
        "enclosed_volume": float(np.einsum("ij,ij->i", p[:, 0], cross).sum() / 6.0),
    }


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_outputs(
    workdir: str, combos: list[str], outputs: list[str], reference: dict | None,
) -> tuple[list[str], dict[str, tuple[str, bool | None]]]:
    """Problems found (empty when the invocation passes) and output hashes.

    combos names each (t, isovalue) combination by the stem suffix its
    files carry ("" for a single combination); outputs lists every file
    the invocation must write. reference is the recorded entry for this
    seed, or None when there is none.
    """
    problems: list[str] = []
    hashes: dict[str, tuple[str, bool | None]] = {}
    for name in outputs:
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            problems.append(f"missing output {name}")
            continue
        digest = sha256(path)
        ref_digest = (reference or {}).get("sha256", {}).get(name)
        hashes[name] = (digest, None if ref_digest is None else digest == ref_digest)

    for combo in combos:
        report_name = f"x{combo}.txt"
        if report_name not in hashes:
            continue
        report = read_report(os.path.join(workdir, report_name))
        if report.get("boundary_edge_count") != 0:
            problems.append(f"{report_name}: boundary_edge_count {report.get('boundary_edge_count')}")
        mesh_name = f"x{combo}.obj"
        if mesh_name in hashes:
            stats = mesh_stats(*read_obj(os.path.join(workdir, mesh_name)))
            for key in ("triangles", "boundary_edge_count", "component_count", "euler_characteristic"):
                if stats[key] != report.get(key):
                    problems.append(f"{mesh_name}: {key} {stats[key]} but report says {report.get(key)}")
            for key in ("area", "enclosed_volume"):
                if not _close(stats[key], report[key], OBJ_REL_TOL):
                    problems.append(f"{mesh_name}: {key} {stats[key]} but report says {report[key]}")
        if reference is not None:
            ref = reference["combos"].get(combo)
            if ref is None:
                problems.append(f"{report_name}: no reference entry")
                continue
            for key in ("component_count", "euler_characteristic"):
                if report.get(key) != ref[key]:
                    problems.append(f"{report_name}: {key} {report.get(key)}, reference {ref[key]}")
            for key in ("area", "enclosed_volume"):
                if not _close(report[key], ref[key], REL_TOL):
                    problems.append(f"{report_name}: {key} {report[key]}, reference {ref[key]}")
        else:
            problems.append(f"{report_name}: no reference recorded for this seed")
    return problems, hashes
