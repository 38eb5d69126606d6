"""Seeded random-packed globules, written as XYZR files.

A globule is `atoms` spheres of radius 1.7 A whose centres lie in a ball
of radius `radius` about the origin, at least 2.2 A apart, placed by
rejection sampling from numpy.random.default_rng(seed). Six anchor atoms
sit at +-radius on the axes before sampling starts, so every seed gives
the same bounding box and therefore the same grid dims: seeds vary the
packing, never the problem size.
"""

from __future__ import annotations

import os

import numpy as np

ATOM_RADIUS = 1.7
MIN_SEPARATION = 2.2

# name -> (atoms, ball radius in A). G300 is the 300-atom, 10 A globule;
# its centres stay within 9.9 A so the box gives 135^3 at h = 0.25 and
# 112^3 at h = 0.3 for every seed. G3000's 25 A ball (108^3 at h = 0.6)
# is larger than G300's density would give, because G300 already packs
# close to the jamming limit of random sequential placement.
SPECS = {
    "G300": (300, 9.9),
    "G3000": (3000, 25.0),
}

_BATCH = 4096


def globule_centres(atoms: int, radius: float, seed: int) -> np.ndarray:
    """Centres (atoms, 3) in the ball, pairwise >= MIN_SEPARATION apart.

    Candidates are drawn uniformly in the ball and taken in order; each is
    accepted unless it lies closer than MIN_SEPARATION to an accepted one.
    The test against earlier batches is vectorized through an occupancy
    grid whose cells are small enough to hold one centre each.
    """
    rng = np.random.default_rng(seed)
    cell = MIN_SEPARATION / np.sqrt(3.0)  # cell diagonal == MIN_SEPARATION
    reach = int(np.ceil(MIN_SEPARATION / cell))
    offsets = np.stack(
        np.meshgrid(*[np.arange(-reach, reach + 1)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    n_cells = int(np.ceil(2 * radius / cell)) + 1
    owner = np.full((n_cells + 2 * reach,) * 3, -1, dtype=np.int64)
    min_d2 = MIN_SEPARATION * MIN_SEPARATION
    centres = np.zeros((atoms, 3))
    n = 0

    def cell_of(p):
        return np.floor((p + radius) / cell).astype(np.int64) + reach

    def take(batch):
        nonlocal n
        # conflicts with centres accepted before this batch
        near = owner[tuple(np.moveaxis(cell_of(batch)[:, None, :] + offsets, -1, 0))]
        d2 = np.sum((centres[np.maximum(near, 0)] - batch[:, None, :]) ** 2, axis=2)
        free = ~np.any((near >= 0) & (d2 < min_d2), axis=1)
        first = n
        for p in batch[free]:
            if n > first and np.min(np.sum((centres[first:n] - p) ** 2, axis=1)) < min_d2:
                continue
            centres[n] = p
            owner[tuple(cell_of(p))] = n
            n += 1
            if n == atoms:
                return

    take(radius * np.concatenate([np.eye(3), -np.eye(3)]))
    draws = 0
    while n < atoms:
        batch = rng.uniform(-radius, radius, size=(_BATCH, 3))
        take(batch[np.sum(batch * batch, axis=1) <= radius * radius])
        draws += _BATCH
        if draws > 2000 * atoms:
            raise RuntimeError(f"could not place {atoms} atoms in a {radius} A ball")
    return centres


def write_globule(spec: str, seed: int, path: str) -> None:
    atoms, radius = SPECS[spec]
    centres = globule_centres(atoms, radius, seed)
    lines = [f"{x:.6f} {y:.6f} {z:.6f} {ATOM_RADIUS}" for x, y, z in centres]
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def cached_globule(spec: str, seed: int, cache_dir: str) -> str:
    """Path of the (spec, seed) input, generating it on first use."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{spec}_seed{seed}.xyzr")
    if not os.path.exists(path):
        write_globule(spec, seed, path)
    return path
