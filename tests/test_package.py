import pnpsubdiv

PUBLIC = [
    "Mesh", "MetricsReport", "Plane", "Pnp", "SchemeKind", "angle_between", "circle_avg_2d",
    "circle_avg_3d", "curvature", "curvature_colors", "deviation_from_chord", "dihedral_angles",
    "geodesic_avg", "load_obj", "measure", "naive_normals", "normal_deviation", "psi_zeta_star",
    "refine", "save_obj", "save_ply", "z_dir", "zeta",
]

# the scalar stencil reference and circle-average views of tests/oracle.py, the
# per-level builder, which is pnpsubdiv.schemes.refinement_step, the thresholds,
# which are private constants of pnpsubdiv.geom, and refine_once, which is
# refine(mesh, scheme, 1)
NOT_PUBLIC = [
    "AvgPlan", "RefinementStep", "Stencil", "Tolerances", "affine_average", "chord_point",
    "compile_plan", "evaluate_plan", "get_tolerances", "helix_trace", "refine_once",
    "refinement_step",
]


def test_public_surface():
    assert sorted(pnpsubdiv.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(pnpsubdiv, name) is not None
    assert [name for name in NOT_PUBLIC if hasattr(pnpsubdiv, name)] == []
