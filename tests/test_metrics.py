import contextlib
import json
import math

import numpy as np
import pytest

from meshes import (
    cube,
    torus_quad,
    flat_cube,
    flat_cube_interior_vertices,
    flat_tri_octa,
    icosahedron,
    octahedron,
    one_ring,
    tetrahedron,
    torus_tri,
    tri_sphere,
)
from pnpsubdiv import (
    Mesh,
    SchemeKind,
    curvature,
    curvature_colors,
    dihedral_angles,
    measure,
    naive_normals,
    normal_deviation,
    psi_zeta_star,
    refine,
    zeta,
)
from pnpsubdiv.errors import MissingNormalsError, ZeroAreaError


# ---------------------------------------------------------------------------
# dihedral angles
# ---------------------------------------------------------------------------

def test_flat_interior_edges_have_zero_dihedral_quad():
    m = flat_cube(2)
    angles = dihedral_angles(m)
    interior = set(flat_cube_interior_vertices(m))
    hits = 0
    for eid, (u, v) in enumerate(m.edges):
        if int(u) in interior and int(v) in interior:
            assert angles[eid] < 1e-9
            hits += 1
    assert hits > 0


def test_flat_interior_edges_have_zero_dihedral_tri():
    m = flat_tri_octa(2)
    angles = dihedral_angles(m)
    # interior edge of a flat octahedron face: both endpoints strictly inside
    # the open octant face, i.e. all coordinates nonzero
    hits = 0
    for eid, (u, v) in enumerate(m.edges):
        if (m.vertices[[u, v]] != 0).all():
            assert angles[eid] < 1e-9
            hits += 1
    assert hits > 0


def test_cube_edges_are_right_angles():
    angles = dihedral_angles(cube())
    assert np.abs(angles - math.pi / 2).max() < 1e-12


def test_octahedron_dihedral_between_face_normals():
    angles = dihedral_angles(octahedron())
    assert np.abs(angles - math.acos(1.0 / 3.0)).max() < 1e-12


def test_convex_polyhedra_have_positive_dihedrals():
    for m in (tetrahedron(), octahedron(), icosahedron(), cube()):
        assert dihedral_angles(m).min() > 1e-6


# ---------------------------------------------------------------------------
# curvature and zeta
# ---------------------------------------------------------------------------

def test_flat_interior_vertices_have_zero_curvature():
    m = flat_cube(2)
    k = curvature(m)
    for v in flat_cube_interior_vertices(m):
        assert abs(k[v]) < 1e-9


def test_octahedron_curvature_value():
    # four 60-degree wedges of unit-edge triangles around every vertex:
    # deficit 2pi/3 over cell area sqrt(3)/3
    m = octahedron()
    edge = math.sqrt(2.0)
    k = curvature(m)
    expect = (2 * math.pi - 4 * math.pi / 3) / (edge * edge * math.sqrt(3) / 3)
    assert np.abs(k - expect).max() < 1e-12


def test_curvature_scales_inverse_squared():
    m = icosahedron()
    k = curvature(m)
    k_scaled = curvature(Mesh(m.vertices * 3.0, m.faces))
    assert np.abs(k_scaled - k / 9.0).max() < 1e-12


def test_curvature_zero_area_names_vertex():
    # vertices 0..4 on one line: every wedge at vertex 4 is flat, the others
    # keep a wedge towards vertex 5
    verts = [[1, 0, 0], [-1, 0, 0], [0.5, 0, 0], [-0.5, 0, 0], [0.2, 0, 0], [0, 0, -1]]
    with pytest.raises(ZeroAreaError) as err:
        curvature(Mesh(verts, octahedron().faces))
    assert str(err.value) == "vanishing cell area at vertex 4"


def test_curvature_and_zeta_match_the_ring_loop():
    for m in (icosahedron(), flat_cube(1), torus_tri(12, 6), torus_quad(12, 6)):
        k = np.empty(m.vertex_count)
        spread = np.empty(m.vertex_count)
        for p in range(m.vertex_count):
            ring, _ = one_ring(m, p)
            e = m.vertices[ring] - m.vertices[p]
            e_next = np.roll(e, -1, axis=0)
            norms = np.linalg.norm(np.cross(e, e_next), axis=1)
            gam = np.arctan2(norms, np.einsum("ij,ij->i", e, e_next))
            k[p] = (2 * math.pi - gam.sum()) / (norms.sum() / 6.0)
        for p in range(m.vertex_count):
            values = k[np.append(one_ring(m, p)[0], p)]
            spread[p] = values.max() - values.min()
        assert np.abs(curvature(m) - k).max() < 1e-12 * np.abs(k).max()
        assert np.array_equal(zeta(m, k), spread)


def test_zeta_definition_on_explicit_values():
    m = octahedron()
    # neighborhood values {1, 2, 5}: spread is 4 regardless of multiplicity
    ring, _ = one_ring(m, 0)
    values = np.full(m.vertex_count, 2.0)
    values[ring[0]] = 1.0
    values[ring[1]] = 5.0
    z = zeta(m, values)
    assert z[0] == pytest.approx(4.0)


def test_zeta_constant_curvature_is_zero():
    m = flat_cube(2)
    k = curvature(m)
    z = zeta(m, np.zeros_like(k))
    assert np.abs(z).max() == 0.0


def test_psi_zeta_star_permutation_invariant(rng):
    m = icosahedron()
    psi, zstar = psi_zeta_star(m)
    perm = rng.permutation(m.vertex_count)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(m.vertex_count)
    shuffled = Mesh(m.vertices[perm], inv[m.faces][rng.permutation(m.face_count)])
    psi2, zstar2 = psi_zeta_star(shuffled)
    assert psi2 == pytest.approx(psi, abs=1e-12)
    assert zstar2 == pytest.approx(zstar, abs=1e-12)


def test_gauss_bonnet_on_genus_zero_meshes():
    for m in (tetrahedron(), octahedron(), icosahedron(), tri_sphere(2), cube(), flat_cube(2)):
        total = 0.0
        for p in range(m.vertex_count):
            ring, _ = one_ring(m, p)
            e = m.vertices[ring] - m.vertices[p]
            e_next = np.roll(e, -1, axis=0)
            gam = np.arctan2(
                np.linalg.norm(np.cross(e, e_next), axis=1),
                np.einsum("ij,ij->i", e, e_next),
            )
            total += 2 * math.pi - gam.sum()
        assert abs(total - 4 * math.pi) < 1e-9


def test_gauss_bonnet_torus_is_zero():
    m = torus_tri(12, 8)
    total = 0.0
    for p in range(m.vertex_count):
        ring, _ = one_ring(m, p)
        e = m.vertices[ring] - m.vertices[p]
        e_next = np.roll(e, -1, axis=0)
        gam = np.arctan2(
            np.linalg.norm(np.cross(e, e_next), axis=1), np.einsum("ij,ij->i", e, e_next)
        )
        total += 2 * math.pi - gam.sum()
    assert abs(total) < 1e-9


@pytest.mark.parametrize("mesh_fn, base", [(torus_tri, "lp"), (torus_quad, "cc")])
def test_measure_is_scale_free(mesh_fn, base):
    """psi and xi do not depend on the coordinate scale; zeta* scales as 1 / s^2.

    Below 1e-150 and at 1e300 the curvature itself leaves the float range, so
    only psi and xi are compared there. Below 1e-150, where it overflows,
    zeta* is infinite, and only numpy's overflow warning is silenced.
    """
    mesh = mesh_fn(12, 6)
    refined = refine(mesh.with_normals(naive_normals(mesh)), SchemeKind(base, modified=True), 1)
    base_report = measure(refined, xi=True)
    for s in (1e-300, 1e-160, 1e-150, 1e-100, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8, 1e100, 1e150, 1e300):
        scaled = Mesh(refined.vertices * s, refined.faces, normals=refined.normals)
        overflows = s < 1e-150
        with np.errstate(over="ignore") if overflows else contextlib.nullcontext():
            report = measure(scaled, xi=True)
        assert report.psi_deg == pytest.approx(base_report.psi_deg, rel=1e-9)
        assert report.xi_deg == pytest.approx(base_report.xi_deg, rel=1e-9)
        if overflows:
            assert math.isinf(report.zeta_star)
        if 1e-150 <= s <= 1e150:
            assert report.zeta_star * s * s == pytest.approx(base_report.zeta_star, rel=1e-9)


# ---------------------------------------------------------------------------
# normal deviation
# ---------------------------------------------------------------------------

def test_normal_deviation_zero_for_naive_normals():
    m = icosahedron()
    assert normal_deviation(m.with_normals(naive_normals(m))) < 1e-12


def test_normal_deviation_constant_offset(rng):
    m = icosahedron()
    base = naive_normals(m)
    angle = math.radians(10.0)
    rotated = np.empty_like(base)
    for i, n in enumerate(base):
        axis = np.cross(n, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        rotated[i] = n * math.cos(angle) + np.cross(axis, n) * math.sin(angle)
    got = normal_deviation(m.with_normals(rotated))
    assert got == pytest.approx(10.0, abs=1e-9)


def test_normal_deviation_requires_normals():
    with pytest.raises(MissingNormalsError):
        normal_deviation(icosahedron())


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_measure_report_fields():
    m = cube()
    rep = measure(m)
    assert rep.psi_deg == pytest.approx(90.0)
    assert rep.psi_deg == pytest.approx(math.degrees(rep.edge_dihedral.max()))
    assert rep.zeta_star == pytest.approx(rep.vertex_zeta.max())
    assert rep.xi_deg is None
    payload = json.loads(rep.to_json())
    assert set(payload) == {"psi_deg", "zeta_star", "xi_deg"}
    full = json.loads(rep.to_json(include_arrays=True))
    assert len(full["edge_dihedral_deg"]) == m.edge_count
    assert len(full["vertex_curvature"]) == m.vertex_count


def test_measure_with_xi():
    m = cube()
    rep = measure(m.with_normals(naive_normals(m)), xi=True)
    assert rep.xi_deg == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# colorization
# ---------------------------------------------------------------------------

def test_colors_flat_is_neutral():
    k = np.array([0.0, 1e-12, -1e-12])
    colors = curvature_colors(k, -0.25, 0.25)
    assert (colors == (128, 255, 128)).all()


def test_colors_positive_ramp():
    colors = curvature_colors(np.array([0.125, 0.25, 5.0]), -0.25, 0.25)
    assert tuple(colors[0]) == (255, 128, 0)   # halfway yellow -> red
    assert tuple(colors[1]) == (255, 0, 0)
    assert tuple(colors[2]) == (255, 0, 0)     # clamped


def test_colors_negative_ramp():
    colors = curvature_colors(np.array([-0.125, -0.25, -5.0]), -0.25, 0.25)
    assert tuple(colors[0]) == (0, 128, 255)   # halfway cyan -> blue
    assert tuple(colors[1]) == (0, 0, 255)
    assert tuple(colors[2]) == (0, 0, 255)


def _colors_loop(k, lo, hi):
    """The per-value reference ramp."""
    out = np.empty((len(k), 3), dtype=np.uint8)
    band = 1e-9 * max(abs(lo), hi)
    for i, value in enumerate(k):
        if abs(value) <= band:
            out[i] = (128, 255, 128)
        elif value > 0.0:
            out[i] = (255, round(255 * (1.0 - min(value / hi, 1.0))), 0)
        else:
            out[i] = (0, round(255 * (1.0 - min(value / lo, 1.0))), 255)
    return out


def test_colors_match_the_per_value_ramp(rng):
    lo, hi = -0.3, 0.7
    halfway = [0.5 * hi * (1 + j / 255) for j in range(-3, 4)]   # .5 roundings
    edges = [0.0, -0.0, 7e-10, -7e-10, 1e-8, lo, hi, 2 * lo, 2 * hi]
    k = np.concatenate([rng.uniform(-1.0, 1.0, 500), edges, halfway])
    assert np.array_equal(curvature_colors(k, lo, hi), _colors_loop(k, lo, hi))


def test_colors_bad_range_rejected():
    with pytest.raises(ValueError):
        curvature_colors(np.array([0.1, np.nan]), -0.25, 0.25)
    with pytest.raises(ValueError):
        curvature_colors(np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        curvature_colors(np.zeros(3), 0.25, -0.25)
    with pytest.raises(ValueError):
        curvature_colors(np.zeros(3), 0.1, 0.5)


def test_sphere_colors_uniform_positive():
    m = tri_sphere(1)
    k = curvature(m)
    colors = curvature_colors(k, -3.0, 3.0)
    assert (colors[:, 0] == 255).all()         # everything on the warm ramp
    assert len(np.unique(colors[:, 1])) <= 3   # near-constant curvature
