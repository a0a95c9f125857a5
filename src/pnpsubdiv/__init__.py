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

from .circle3d import chord_point, circle_avg_3d, deviation_from_chord, helix_trace
from .geom import (
    Plane,
    Pnp,
    Tolerances,
    angle_between,
    circle_avg_2d,
    geodesic_avg,
    get_tolerances,
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
from .schemes import RefinementStep, SchemeKind, refine, refine_once, refinement_step
from .stencil import AvgPlan, Stencil, affine_average, compile_plan, evaluate_plan

__version__ = "0.1.0"

__all__ = [
    "AvgPlan",
    "Mesh",
    "MetricsReport",
    "Plane",
    "Pnp",
    "RefinementStep",
    "SchemeKind",
    "Stencil",
    "Tolerances",
    "affine_average",
    "angle_between",
    "chord_point",
    "circle_avg_2d",
    "circle_avg_3d",
    "compile_plan",
    "curvature",
    "curvature_colors",
    "deviation_from_chord",
    "dihedral_angles",
    "evaluate_plan",
    "geodesic_avg",
    "get_tolerances",
    "helix_trace",
    "load_obj",
    "measure",
    "naive_normals",
    "normal_deviation",
    "psi_zeta_star",
    "refine",
    "refine_once",
    "refinement_step",
    "save_obj",
    "save_ply",
    "z_dir",
    "zeta",
]
