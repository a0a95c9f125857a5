import pnpsubdiv

PUBLIC = [
    "Mesh", "MetricsReport", "Plane", "Pnp", "SchemeKind", "Tolerances", "angle_between",
    "circle_avg_2d", "circle_avg_3d", "curvature", "curvature_colors", "deviation_from_chord",
    "dihedral_angles", "geodesic_avg", "get_tolerances", "load_obj", "measure", "naive_normals",
    "normal_deviation", "psi_zeta_star", "refine", "refine_once", "save_obj", "save_ply", "z_dir",
    "zeta",
]

# the scalar stencil reference and circle-average views of tests/oracle.py, and the
# per-level builder, which is pnpsubdiv.schemes.refinement_step
NOT_PUBLIC = [
    "AvgPlan", "RefinementStep", "Stencil", "affine_average", "chord_point", "compile_plan",
    "evaluate_plan", "helix_trace", "refinement_step",
]


def test_public_surface():
    assert sorted(pnpsubdiv.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(pnpsubdiv, name) is not None
    assert [name for name in NOT_PUBLIC if hasattr(pnpsubdiv, name)] == []
