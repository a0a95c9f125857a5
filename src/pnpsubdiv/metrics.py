"""Discrete smoothness estimates for refined meshes.

Per-edge dihedral angles proxy the deviation from tangent-plane continuity;
the per-vertex angle-deficit curvature and its local spread proxy the
deviation from curvature continuity. Reported scalars:

* ``psi_deg``   largest dihedral angle, in degrees;
* ``zeta_star`` largest local curvature spread (max - min of the curvature
  over a vertex and its one-ring);
* ``xi_deg``    mean angle between the normals stored on a mesh and its
  naive normals, in degrees (meaningful for meshes produced by a modified
  scheme, where stored normals come from the averaging).

Angles are radians internally; only the report converts to degrees. All
functions are pure over an immutable mesh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFaceError, MissingNormalsError, ZeroAreaError
from .geom import _CROSS
from .mesh import Mesh, _corner_wedges, _unit_scaled, naive_normals

__all__ = [
    "MetricsReport",
    "dihedral_angles",
    "curvature",
    "zeta",
    "psi_zeta_star",
    "normal_deviation",
    "measure",
    "curvature_colors",
]


def _unit_cross(a, b, context):
    """Unit cross products of the rows of ``a`` and ``b``; parallel rows are a zero-area face."""
    cross = np.cross(a, b)
    norms = np.linalg.norm(cross, axis=1)
    floor = _CROSS * np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    if (norms <= floor).any():
        raise DegenerateFaceError(f"zero-area face while computing {context}")
    return cross / norms[:, None]


def _row_angles(a, b):
    cross = np.cross(a, b)
    return np.arctan2(np.linalg.norm(cross, axis=1), np.einsum("ij,ij->i", a, b))


def dihedral_angles(mesh: Mesh) -> np.ndarray:
    """Per-edge dihedral estimate in radians, aligned with ``mesh.edges``.

    Triangle meshes: the angle between the two incident face normals. Quad
    meshes: connect the edge midpoint to the midpoints of the opposite edges
    of both incident faces, cross each of those directions with the edge
    direction, and take the angle between the two results.
    """
    verts, _ = _unit_scaled(mesh.vertices)
    faces = mesh.faces
    if mesh.arity == 3:
        fnorm = _unit_cross(
            verts[faces[:, 1]] - verts[faces[:, 0]],
            verts[faces[:, 2]] - verts[faces[:, 0]],
            "dihedral angles",
        )
        return _row_angles(fnorm[mesh.edge_faces[:, 0]], fnorm[mesh.edge_faces[:, 1]])

    # one normal per half-edge, each along its own face's orientation, so
    # the two normals of a flat edge agree (angle 0)
    h = np.arange(len(mesh.origin))
    a, b = verts[mesh.origin], verts[mesh.dest(h)]
    o1 = verts[mesh.origin[mesh.next_half(mesh.next_half(h))]]
    o2 = verts[mesh.origin[mesh.prev_half(h)]]
    side = _unit_cross(0.5 * (o1 + o2) - 0.5 * (a + b), b - a, "dihedral angles")
    halves = mesh.edge_halves()
    return _row_angles(side[halves], side[mesh.twin[halves]])


def _scaled_curvature(mesh: Mesh) -> tuple[np.ndarray, int]:
    """The curvature times ``4**scale``, and ``scale`` (see :func:`curvature`).

    The areas are computed in units of ``4**scale``, so these values stay in
    the float range at any coordinate scale; only the final rescaling by
    ``2**(-2 * scale)`` can overflow or underflow.
    """
    n = mesh.vertex_count
    corner = mesh.origin
    _, cross_norms, extent, gammas, scale = _corner_wedges(mesh)
    doubled = np.bincount(corner, cross_norms, n)
    flat = np.flatnonzero(doubled <= _CROSS * np.bincount(corner, extent, n))
    if len(flat):
        raise ZeroAreaError(f"vanishing cell area at vertex {flat[0]}")
    return (2.0 * math.pi - np.bincount(corner, gammas, n)) / (doubled / 6.0), scale


def curvature(mesh: Mesh) -> np.ndarray:
    """Angle-deficit curvature per vertex: ``(2 pi - sum gamma_i) / A``.

    ``A`` is the barycentric cell area ``(1/6) sum |p v_i| |p v_{i+1}|
    sin gamma_i`` over the wedges at the vertex, one per face corner. A cell
    whose doubled area is at most ``cross`` times ``sum |p v_i| |p v_{i+1}|``
    is degenerate; the lowest such vertex is named.
    """
    k, scale = _scaled_curvature(mesh)
    return np.ldexp(k, -2 * scale)


def _spread(mesh: Mesh, k: np.ndarray) -> np.ndarray:
    neighbour = k[mesh.dest(np.arange(len(mesh.origin)))]
    hi, lo = k.copy(), k.copy()
    np.maximum.at(hi, mesh.origin, neighbour)
    np.minimum.at(lo, mesh.origin, neighbour)
    return hi - lo


def zeta(mesh: Mesh, curvatures: Optional[np.ndarray] = None) -> np.ndarray:
    """Local curvature spread per vertex: max - min over the vertex + ring.

    Without ``curvatures`` the spread is taken on the scaled curvature and
    rescaled once, which is exact, so a curvature beyond the float range
    gives an infinite spread rather than ``inf - inf``.
    """
    if curvatures is not None:
        return _spread(mesh, np.asarray(curvatures))
    k, scale = _scaled_curvature(mesh)
    return np.ldexp(_spread(mesh, k), -2 * scale)


def psi_zeta_star(mesh: Mesh) -> tuple[float, float]:
    """Mesh maxima: (largest dihedral angle in degrees, largest zeta)."""
    psi = math.degrees(float(dihedral_angles(mesh).max()))
    return psi, float(zeta(mesh).max())


def normal_deviation(mesh: Mesh) -> float:
    """Mean angle in degrees between stored normals and naive normals."""
    if mesh.normals is None:
        raise MissingNormalsError("mesh carries no normals to compare against")
    angles = _row_angles(mesh.normals, naive_normals(mesh))
    return math.degrees(float(angles.mean()))


@dataclass(frozen=True)
class MetricsReport:
    """All smoothness estimates of one mesh."""

    edge_dihedral: np.ndarray    # radians, aligned with mesh.edges
    vertex_curvature: np.ndarray
    vertex_zeta: np.ndarray
    psi_deg: float
    zeta_star: float
    xi_deg: Optional[float] = None

    def to_dict(self, include_arrays: bool = False) -> dict:
        out = {
            "psi_deg": self.psi_deg,
            "zeta_star": self.zeta_star,
            "xi_deg": self.xi_deg,
        }
        if include_arrays:
            out["edge_dihedral_deg"] = [math.degrees(a) for a in self.edge_dihedral]
            out["vertex_curvature"] = list(self.vertex_curvature)
            out["vertex_zeta"] = list(self.vertex_zeta)
        return out

    def to_json(self, include_arrays: bool = False) -> str:
        return json.dumps(self.to_dict(include_arrays), indent=2) + "\n"


def measure(mesh: Mesh, xi: bool = False) -> MetricsReport:
    """Compute the full report; ``xi`` needs stored normals on the mesh."""
    dihedral = dihedral_angles(mesh)
    k, scale = _scaled_curvature(mesh)
    z = np.ldexp(_spread(mesh, k), -2 * scale)
    return MetricsReport(
        edge_dihedral=dihedral,
        vertex_curvature=np.ldexp(k, -2 * scale),
        vertex_zeta=z,
        psi_deg=math.degrees(float(dihedral.max())),
        zeta_star=float(z.max()),
        xi_deg=normal_deviation(mesh) if xi else None,
    )


# ---------------------------------------------------------------------------
# curvature colorization
# ---------------------------------------------------------------------------

_NEUTRAL = (128, 255, 128)


def curvature_colors(curvatures, lo: float, hi: float) -> np.ndarray:
    """Map curvature values onto a signed color ramp as ``(n, 3)`` uint8.

    Positive values run yellow to red over ``(0, hi]``, negative values cyan
    to blue over ``[lo, 0)``, clamped outside. The range must straddle zero.
    Values within ``1e-9 * max(|lo|, hi)`` of zero get the neutral mid color
    so that flat regions read as flat.
    """
    if not (lo < 0.0 < hi):
        raise ValueError(f"range must straddle zero, got [{lo}, {hi}]")
    k = np.asarray(curvatures, dtype=float)
    if np.isnan(k).any():
        raise ValueError("curvature values must not be nan")
    band = 1e-9 * max(abs(lo), hi)
    cases = [np.abs(k) <= band, k > 0.0]
    warm = np.rint(255 * (1.0 - np.minimum(k / hi, 1.0)))
    cold = np.rint(255 * (1.0 - np.minimum(k / lo, 1.0)))
    red = np.select(cases, [_NEUTRAL[0], 255], 0)
    green = np.select(cases, [_NEUTRAL[1], warm], cold)
    blue = np.select(cases, [_NEUTRAL[2], 0], 255)
    return np.stack([red, green, blue], axis=1).astype(np.uint8)
