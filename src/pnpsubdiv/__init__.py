"""Subdivision of point-normal pair meshes via a 3D circle average.

The library refines meshes whose vertices carry unit normals. The binary
building block is the circle average: the normal is the geodesic average of
the two input normals, and the point travels along a circular arc (planar
case) or a helix (general case) instead of the straight chord. Rewriting
the classical Catmull-Clark, Loop, Butterfly and Kobbelt four-point schemes
as chains of weighted binary averages and swapping in the circle average
turns each of them into a scheme refining point-normal pairs, so the shape
of the limit surface can be edited through the initial normals alone.
"""

from .circle3d import circle_avg_3d, deviation_from_chord
from .geom import (
    Plane,
    Pnp,
    angle_between,
    circle_avg_2d,
    geodesic_avg,
    z_dir,
)
from .mesh import Mesh, load_obj, naive_normals, save_obj, save_ply
from .metrics import (
    MetricsReport,
    curvature,
    curvature_colors,
    dihedral_angles,
    measure,
    normal_deviation,
    psi_zeta_star,
    zeta,
)
from .schemes import SchemeKind, refine

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "MetricsReport",
    "Plane",
    "Pnp",
    "SchemeKind",
    "angle_between",
    "circle_avg_2d",
    "circle_avg_3d",
    "curvature",
    "curvature_colors",
    "deviation_from_chord",
    "dihedral_angles",
    "geodesic_avg",
    "load_obj",
    "measure",
    "naive_normals",
    "normal_deviation",
    "psi_zeta_star",
    "refine",
    "save_obj",
    "save_ply",
    "z_dir",
    "zeta",
]
