"""The paper metrics psi, zeta* and xi, vectorized over face corners.

The correctness check computes these on every job's output, so they must be
cheap; ``pnpsubdiv.measure`` loops over vertices in Python and takes seconds
per refined mesh. The formulas are measure's: each face corner is one wedge
of the vertex's one-ring, so per-vertex sums become ``np.bincount`` over
corners and the one-ring spread of curvature becomes ``np.maximum.at`` /
``np.minimum.at`` over edges. ``make_goldens.py`` records the goldens with
``measure`` and confirms that these functions agree with it.

Only the mesh arrays are read (``vertices``, ``faces``, ``normals``,
``edges``), so the check does not depend on the library's metric code.
"""

from __future__ import annotations

import math

import numpy as np


def _angles(a, b):
    cross = np.cross(a, b)
    return np.arctan2(np.linalg.norm(cross, axis=-1), np.einsum("...i,...i->...", a, b))


def _unit(vecs):
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def psi_deg(mesh) -> float:
    """Largest dihedral angle, in degrees.

    Every half-edge ``a -> b`` of a face gets a side normal: the face normal
    for triangles, and for quads the cross of (midpoint of the opposite
    edge - midpoint of ``ab``) with ``b - a``. An edge's dihedral angle is the
    angle between the side normals of its two half-edges.
    """
    v = mesh.vertices
    f = mesh.faces
    a, b = f, np.roll(f, -1, axis=1)
    if f.shape[1] == 3:
        face_n = _unit(np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]))
        side = np.repeat(face_n[:, None, :], 3, axis=1)
    else:
        mid = 0.5 * (v[a] + v[b])
        opp = 0.5 * (v[np.roll(f, -2, axis=1)] + v[np.roll(f, -3, axis=1)])
        side = _unit(np.cross(opp - mid, v[b] - v[a]))
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    order = np.lexsort((hi, lo))  # the two half-edges of an edge become neighbours
    side = side.reshape(-1, 3)[order]
    return math.degrees(float(_angles(side[0::2], side[1::2]).max()))


def _corner_wedges(mesh):
    """Corner vertex, wedge cross product, its norm and the wedge angle."""
    v = mesh.vertices
    f = mesh.faces
    e_next = v[np.roll(f, -1, axis=1)] - v[f]
    e_prev = v[np.roll(f, 1, axis=1)] - v[f]
    cross = np.cross(e_next, e_prev)
    norms = np.linalg.norm(cross, axis=-1)
    gamma = np.arctan2(norms, np.einsum("...i,...i->...", e_next, e_prev))
    return f.ravel(), cross.reshape(-1, 3), norms.ravel(), gamma.ravel()


def zeta_star(mesh) -> float:
    """Largest spread of angle-deficit curvature over a vertex and its ring."""
    n = mesh.vertex_count
    corner, _, norms, gamma = _corner_wedges(mesh)
    k = (2.0 * math.pi - np.bincount(corner, gamma, n)) / (np.bincount(corner, norms, n) / 6.0)
    hi, lo = k.copy(), k.copy()
    u, w = mesh.edges[:, 0], mesh.edges[:, 1]
    for x, y in ((u, w), (w, u)):
        np.maximum.at(hi, x, k[y])
        np.minimum.at(lo, x, k[y])
    return float((hi - lo).max())


def xi_deg(mesh) -> float:
    """Mean angle between stored normals and angle-weighted naive normals, in degrees."""
    corner, cross, norms, gamma = _corner_wedges(mesh)
    weighted = (gamma / norms)[:, None] * cross
    naive = np.stack(
        [np.bincount(corner, weighted[:, i], mesh.vertex_count) for i in range(3)], axis=1
    )
    return math.degrees(float(_angles(mesh.normals, _unit(naive)).mean()))


def paper_metrics(mesh) -> dict:
    return {"psi_deg": psi_deg(mesh), "zeta_star": zeta_star(mesh), "xi_deg": xi_deg(mesh)}
