"""Seeded benchmark inputs: parametric tori under a random rigid pose.

The vertex numbering and face lists are fixed by the grid size; the seed
only picks the rotation and translation applied to every vertex. The
paper metrics psi, zeta* and xi are invariant under a rigid pose, so one
set of goldens (``goldens.json``, recorded at the identity pose) checks
every seed.

Set-up for a workload builds its meshes, attaches naive normals and writes
them as OBJ files, which is what a user does before refining.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from pnpsubdiv import Mesh, naive_normals, save_obj

# grid sizes (around the big circle, around the tube)
REFINE_GRID = (30, 10)
MORPH_GRID = (20, 8)

# shared start normal of the morph before posing: its antipode lies between
# the torus's discrete normal directions, so no blend meets an antipodal pair
MORPH_NSTAR = (
    math.cos(math.pi / 8) * math.cos(math.pi / 20),
    math.cos(math.pi / 8) * math.sin(math.pi / 20),
    math.sin(math.pi / 8),
)


def torus_grid(nu: int, nv: int, big: float = 3.0, small: float = 1.0):
    """Vertices and outward-oriented quad faces of a parametric torus."""
    u = 2.0 * math.pi * np.arange(nu) / nu
    v = 2.0 * math.pi * np.arange(nv) / nv
    w = big + small * np.cos(v)
    verts = np.stack(
        [
            np.outer(np.cos(u), w),
            np.outer(np.sin(u), w),
            np.broadcast_to(small * np.sin(v), (nu, nv)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    a = i * nv + j
    b = (i + 1) % nu * nv + j
    c = (i + 1) % nu * nv + (j + 1) % nv
    d = i * nv + (j + 1) % nv
    quads = np.stack([a, b, c, d], axis=-1).reshape(-1, 4)
    return verts, quads


def tri_faces(quads: np.ndarray) -> np.ndarray:
    """Split every quad ``a b c d`` into ``a b c`` and ``a c d``."""
    return np.stack([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]], axis=1).reshape(-1, 3)


def rigid_pose(seed: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrix (from a random unit quaternion) and translation.

    ``seed=None`` gives the identity pose, at which the goldens are recorded.
    """
    if seed is None:
        return np.eye(3), np.zeros(3)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return rot, rng.normal(size=3) * 2.0


def posed_torus(grid, arity: int, rot, shift) -> Mesh:
    """The torus on ``grid`` with naive normals, after the rigid pose."""
    verts, quads = torus_grid(*grid)
    faces = quads if arity == 4 else tri_faces(quads)
    mesh = Mesh(verts @ rot.T + shift, faces)
    return mesh.with_normals(naive_normals(mesh))


def build_inputs(workload: str, seed: Optional[int], indir: str) -> dict:
    """Generate, pose and save the input meshes of ``workload``.

    Returns the meshes by name; each is also written to ``indir/<name>.obj``.
    """
    rot, shift = rigid_pose(seed)
    grid = MORPH_GRID if workload == "cli-morph" else REFINE_GRID
    meshes = {"tri": posed_torus(grid, 3, rot, shift), "quad": posed_torus(grid, 4, rot, shift)}
    os.makedirs(indir, exist_ok=True)
    for name, mesh in meshes.items():
        save_obj(mesh, os.path.join(indir, f"{name}.obj"))
    return meshes


def morph_nstar(seed: Optional[int]) -> str:
    """The ``--nstar`` argument of the morph: the start normal, posed."""
    rot, _ = rigid_pose(seed)
    return ",".join(repr(float(c)) for c in rot @ np.array(MORPH_NSTAR))
