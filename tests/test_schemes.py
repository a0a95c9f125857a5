import math

import numpy as np
import pytest

from meshes import (
    cube,
    icosahedron,
    octahedron,
    quad_sphere,
    random_rotation,
    tetrahedron,
    torus_quad,
    torus_tri,
    tri_sphere,
    with_outward_unit_normals,
)
from pnpsubdiv import (
    Mesh,
    Pnp,
    SchemeKind,
    Stencil,
    affine_average,
    circle_avg_3d,
    compile_plan,
    evaluate_plan,
    naive_normals,
    refine,
    refine_once,
    refinement_step,
)
from pnpsubdiv.errors import AntipodalNormalsError, ArityMismatchError, MissingNormalsError
from pnpsubdiv.schemes import _ARITY, _TERMS, _circle_fold
from test_stencil import _table

ALL_BASES = ["cc", "lp", "k4", "by"]


def _mesh_for(base):
    return cube() if base in ("cc", "k4") else tetrahedron()


# ---------------------------------------------------------------------------
# scheme kinds
# ---------------------------------------------------------------------------

def test_scheme_kind_names():
    assert SchemeKind("lp").name == "lp"
    assert SchemeKind("lp", modified=True).name == "mlp"
    assert SchemeKind("k4").interpolatory and SchemeKind("by").interpolatory
    assert not SchemeKind("cc").interpolatory
    with pytest.raises(ValueError):
        SchemeKind("nope")


@pytest.mark.parametrize("base", ALL_BASES)
def test_arity_mismatch(base):
    wrong = tetrahedron() if base in ("cc", "k4") else cube()
    with pytest.raises(ArityMismatchError):
        refine_once(wrong, SchemeKind(base))


def test_modified_requires_normals():
    with pytest.raises(MissingNormalsError):
        refine_once(tetrahedron(), SchemeKind("lp", modified=True))


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_cc_cube_counts():
    out = refine_once(cube(), SchemeKind("cc"))
    assert out.vertex_count == 26      # 8 old + 12 edge + 6 face
    assert out.face_count == 24
    out2 = refine_once(out, SchemeKind("cc"))
    assert out2.vertex_count == 98     # 26 + 48 + 24


def test_loop_tetra_counts():
    out = refine_once(tetrahedron(), SchemeKind("lp"))
    assert out.vertex_count == 10      # 4 + 6 edges
    assert out.face_count == 16
    # once more: V + E = 10 + 24, F = 64 (Euler-consistent at every level)
    out2 = refine_once(out, SchemeKind("lp"))
    assert out2.vertex_count == 34
    assert out2.face_count == 64
    assert out2.vertex_count - out2.edge_count + out2.face_count == 2


@pytest.mark.parametrize("base", ALL_BASES)
def test_refine_zero_iters_is_identity(base):
    m = _mesh_for(base)
    assert refine(m, SchemeKind(base), 0) is m


@pytest.mark.parametrize("base", ALL_BASES)
def test_stencils_are_affine_and_faces_oriented(base):
    m = _mesh_for(base)
    step = refinement_step(m, base)
    # Stencil construction enforces the unit weight sum; re-check explicitly
    for st in step.stencils:
        assert abs(sum(w for _, w in st.terms) - 1.0) < 1e-12
    out = refine_once(m, SchemeKind(base))
    assert out.face_count == 4 * m.face_count
    # constructing the Mesh validated orientation; also expect outward normals
    assert (np.einsum("ij,ij->i", naive_normals(out), out.vertices) > 0).any()


def test_interpolatory_old_vertex_stencils_are_identity():
    for base, mesh in (("k4", cube()), ("by", tetrahedron())):
        step = refinement_step(mesh, base)
        for v in range(mesh.vertex_count):
            assert step.stencils[v].terms == ((v, 1.0),)


# Butterfly wings repeat and cancel on the tetrahedron and the octahedron;
# on the 3 x 3 torus the k4 taps of a grid line wrap onto each other, up to
# four times in one row
_TABLE_MESHES = {
    3: [tetrahedron, octahedron, icosahedron, lambda: torus_tri(12, 6)],
    4: [cube, lambda: torus_quad(12, 6), lambda: torus_quad(3, 3)],
}


def _two_levels(base):
    """Every test mesh of the scheme's arity and its first refinement."""
    for mesh_fn in _TABLE_MESHES[_ARITY[base]]:
        mesh = mesh_fn()
        yield mesh
        yield refine_once(mesh, SchemeKind(base))


def _dict_merged_terms(mesh, base):
    """Every output stencil's terms by dict accumulation over the scheme's term groups.

    Each row takes its terms in the order the rule lists them, sums repeated
    indices in that order, drops zero sums and sorts by index.
    """
    count = mesh.vertex_count + mesh.edge_count + (mesh.face_count if mesh.arity == 4 else 0)
    acc = [{} for _ in range(count)]
    for rows, index, weight in _TERMS[base](mesh):
        weight = np.broadcast_to(np.asarray(weight, float), len(rows))
        for row, idx, w in zip(rows.tolist(), index.tolist(), weight.tolist()):
            acc[row][idx] = acc[row].get(idx, 0.0) + w
    return [tuple((i, w) for i, w in sorted(terms.items()) if w != 0.0) for terms in acc]


@pytest.mark.parametrize("base", ALL_BASES)
def test_stencils_equal_the_dict_merge(base):
    for mesh in _two_levels(base):
        step = refinement_step(mesh, base)
        assert [st.terms for st in step.stencils] == _dict_merged_terms(mesh, base)


def _affine_positions(stencils, vertices):
    """Linear positions by a walk over every stencil term, the reference for ``refine_once``."""
    rows, cols, weights = [], [], []
    for i, st in enumerate(stencils):
        for idx, w in st.terms:
            rows.append(i)
            cols.append(idx)
            weights.append(w)
    out = np.zeros((len(stencils), 3))
    weights = np.array(weights)
    np.add.at(out, np.array(rows), weights[:, None] * vertices[np.array(cols)])
    return out


@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_positions_equal_the_term_walk(base):
    for mesh in _two_levels(base):
        step = refinement_step(mesh, base)
        out = refine_once(mesh, SchemeKind(base))
        assert np.array_equal(out.vertices, _affine_positions(step.stencils, mesh.vertices))
        assert np.array_equal(out.faces, step.faces)


# ---------------------------------------------------------------------------
# linear mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_mode_planar_meshes_stay_planar(base):
    # a planar ring of faces: torus squashed flat would be degenerate, so
    # check affine precision instead through a planar-by-symmetry slice:
    # refine a mesh symmetric about z = 0 and check the symmetry persists
    m = torus_quad(12, 6) if base in ("cc", "k4") else torus_tri(12, 6)
    out = refine(m, SchemeKind(base), 2)
    flipped = Mesh(out.vertices * np.array([1.0, 1.0, -1.0]), out.faces)
    z = np.sort(out.vertices[:, 2])
    z_flipped = np.sort(flipped.vertices[:, 2])
    assert np.abs(z + z_flipped[::-1]).max() < 1e-9


@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_mode_matches_plan_evaluation(base):
    m = _mesh_for(base)
    step = refinement_step(m, base)
    out = refine_once(m, SchemeKind(base))
    for i, st in enumerate(step.stencils):
        via_plan = evaluate_plan(compile_plan(st), list(m.vertices), affine_average)
        assert np.linalg.norm(out.vertices[i] - via_plan) < 1e-12


def test_linear_mode_attaches_naive_normals():
    out = refine_once(cube(), SchemeKind("cc"))
    assert out.has_normals
    assert np.abs(out.normals - naive_normals(out)).max() < 1e-15


def test_cc_vertex_stencil_matches_q_2r_formula():
    # independent oracle: assemble (Q + 2R + (k-3)P)/k from face centroids
    # and edge midpoints, compare against the stencil evaluation
    m = quad_sphere(1)
    step = refinement_step(m, "cc")
    verts = m.vertices
    for p in (0, 10, 20):
        ring, rfaces = m.ring(p)
        k = len(ring)
        q = np.mean([verts[m.faces[f]].mean(axis=0) for f in rfaces], axis=0)
        r = np.mean([(verts[p] + verts[v]) / 2 for v in ring], axis=0)
        expect = (q + 2 * r + (k - 3) * verts[p]) / k
        got = sum(w * verts[i] for i, w in step.stencils[p].terms)
        assert np.linalg.norm(got - expect) < 1e-12


def test_loop_edge_and_vertex_weights():
    m = tetrahedron()
    step = refinement_step(m, "lp")
    # vertex stencil for valence 3: beta = 3/16
    st = dict(step.stencils[0].terms)
    assert st[0] == pytest.approx(1 - 3 * 3 / 16)
    for v in (1, 2, 3):
        assert st[v] == pytest.approx(3 / 16)
    # edge stencils: 3/8 endpoints, 1/8 wings
    st = dict(step.stencils[4].terms)
    assert sorted(st.values()) == pytest.approx([1 / 8, 1 / 8, 3 / 8, 3 / 8])


def test_butterfly_on_tetrahedron_collapses_to_midpoint():
    # wings coincide with the opposite corners and cancel the 1/8 taps
    step = refinement_step(tetrahedron(), "by")
    for eid in range(6):
        st = step.stencils[4 + eid]
        assert sorted(w for _, w in st.terms) == [0.5, 0.5]


def test_butterfly_regular_stencil_weights():
    m = tri_sphere(1)  # all valences 5 or 6
    step = refinement_step(m, "by")
    for eid in range(m.edge_count):
        a, b = m.edges[eid]
        if m.valence(int(a)) == 6 and m.valence(int(b)) == 6:
            weights = sorted(w for _, w in step.stencils[m.vertex_count + eid].terms)
            assert weights == pytest.approx([-1 / 16] * 4 + [1 / 8] * 2 + [1 / 2] * 2)
            return
    pytest.skip("no regular edge found")


def test_k4_regular_grid_tensor_weights():
    m = torus_quad(8, 8, 4.0, 1.5)  # all valences 4: fully regular
    step = refinement_step(m, "k4")
    eid = 0
    st = sorted(w for _, w in step.stencils[m.vertex_count + eid].terms)
    assert st == pytest.approx([-1 / 16, -1 / 16, 9 / 16, 9 / 16])
    face_st = step.stencils[m.vertex_count + m.edge_count].terms
    weights = sorted(w for _, w in face_st)
    expect = sorted(
        [81 / 256] * 4 + [-9 / 256] * 8 + [1 / 256] * 4
    )
    assert weights == pytest.approx(expect)
    assert len(face_st) == 16


def test_k4_cube_falls_back_to_midpoints():
    step = refinement_step(cube(), "k4")  # valence 3 everywhere
    for eid in range(12):
        assert sorted(w for _, w in step.stencils[8 + eid].terms) == [0.5, 0.5]
    for f in range(6):
        st = step.stencils[8 + 12 + f]
        assert sorted(w for _, w in st.terms) == [0.25] * 4


# ---------------------------------------------------------------------------
# modified mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", ALL_BASES)
def test_equal_normals_reduce_to_linear(base):
    m = _mesh_for(base)
    shared = np.tile(np.array([0.0, 0.0, 1.0]), (m.vertex_count, 1))
    lin = refine(m, SchemeKind(base), 2)
    mod = refine(m.with_normals(shared), SchemeKind(base, modified=True), 2)
    assert np.abs(lin.vertices - mod.vertices).max() < 1e-9
    assert np.abs(mod.normals - shared[0]).max() < 1e-12


@pytest.mark.parametrize(
    "base,mesh_fn", [("lp", tri_sphere), ("by", tri_sphere), ("cc", quad_sphere), ("k4", quad_sphere)]
)
def test_modified_schemes_preserve_the_sphere(base, mesh_fn):
    m = with_outward_unit_normals(mesh_fn(1))
    out = refine(m, SchemeKind(base, modified=True), 2)
    radii = np.linalg.norm(out.vertices, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-9
    # normals stay radial
    radial = out.vertices / radii[:, None]
    assert np.abs(out.normals - radial).max() < 1e-9


@pytest.mark.parametrize("base", ["k4", "by"])
def test_interpolatory_modified_fixes_original_pnps(base):
    m = with_outward_unit_normals(quad_sphere(1) if base == "k4" else tri_sphere(1))
    out = refine(m, SchemeKind(base, modified=True), 2)
    n = m.vertex_count
    assert np.abs(out.vertices[:n] - m.vertices).max() < 1e-12
    assert np.abs(out.normals[:n] - m.normals).max() < 1e-12


@pytest.mark.parametrize("base", ALL_BASES)
def test_modified_rigid_equivariance(base, rng):
    m = with_outward_unit_normals(quad_sphere(1) if base in ("cc", "k4") else tri_sphere(0))
    scheme = SchemeKind(base, modified=True)
    base_out = refine_once(m, scheme)
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    moved = Mesh(m.vertices @ rot.T + shift, m.faces, normals=m.normals @ rot.T)
    moved_out = refine_once(moved, scheme)
    assert np.abs(moved_out.vertices - (base_out.vertices @ rot.T + shift)).max() < 1e-9
    assert np.abs(moved_out.normals - base_out.normals @ rot.T).max() < 1e-9


@pytest.mark.parametrize("s", [1e-14, 1e-12, 1e-10, 1e-6, 1e6, 1e12])
@pytest.mark.parametrize("base", ALL_BASES)
def test_modified_refine_commutes_with_scaling(base, s):
    m = (torus_quad if base in ("cc", "k4") else torus_tri)(12, 6)
    m = m.with_normals(naive_normals(m))
    scheme = SchemeKind(base, modified=True)
    unit = refine(m, scheme, 2)
    scaled = refine(Mesh(s * m.vertices, m.faces, normals=m.normals), scheme, 2)
    diag = np.linalg.norm(np.ptp(unit.vertices, axis=0))
    assert np.abs(scaled.vertices - s * unit.vertices).max() < 1e-12 * s * diag
    assert np.abs(scaled.normals - unit.normals).max() < 1e-12


def test_modified_deterministic():
    m = with_outward_unit_normals(tri_sphere(0))
    a = refine(m, SchemeKind("lp", modified=True), 2)
    b = refine(m, SchemeKind("lp", modified=True), 2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.normals, b.normals)


# ---------------------------------------------------------------------------
# the level-batched fold against the scalar oracle
# ---------------------------------------------------------------------------

def _posed_torus(base, rng, normal_kind):
    """A randomly posed small torus with perturbed naive or all-equal normals."""
    mesh = torus_quad(12, 6) if base in ("cc", "k4") else torus_tri(12, 6)
    mesh = Mesh(mesh.vertices @ random_rotation(rng).T * 2.5 + rng.normal(size=3), mesh.faces)
    if normal_kind == "equal":
        n = np.tile(rng.normal(size=3), (mesh.vertex_count, 1))
    else:
        n = naive_normals(mesh) + rng.normal(scale=0.2, size=(mesh.vertex_count, 3))
    return mesh.with_normals(n / np.linalg.norm(n, axis=1)[:, None])


@pytest.mark.parametrize("normal_kind", ["perturbed", "equal"])
@pytest.mark.parametrize("base", ALL_BASES)
def test_modified_refine_equals_scalar_oracle(base, normal_kind, rng):
    """Every output vertex equals its plan folded by circle_avg_3d, bit for bit.

    All-equal normals take the linear-limit branch of the circle average on
    every step of the first level.
    """
    mesh = _posed_torus(base, rng, normal_kind)
    for _ in range(2):
        step = refinement_step(mesh, base)
        pnps = [Pnp(mesh.vertices[i], mesh.normals[i]) for i in range(mesh.vertex_count)]
        want = [evaluate_plan(compile_plan(st), pnps, circle_avg_3d) for st in step.stencils]
        points = np.array([r.point for r in want])
        normals = np.array([r.normal for r in want])
        got_points, got_normals = _circle_fold(mesh, step.table)
        assert np.array_equal(got_points, points)
        assert np.array_equal(got_normals, normals)
        out = refine_once(mesh, SchemeKind(base, modified=True))
        ref = Mesh(points, step.faces, normals=normals)
        assert np.array_equal(out.vertices, ref.vertices)
        assert np.array_equal(out.normals, ref.normals)
        mesh = out


# ---------------------------------------------------------------------------
# independence of face order, corner rotation and vertex labels
# ---------------------------------------------------------------------------

def _match_nearest(a, b):
    """For every row of ``a``, the index of the nearest row of ``b``; must be a bijection."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    nearest = d.argmin(axis=1)
    assert len(np.unique(nearest)) == len(a)
    return nearest


def _assert_same_refinement(out, other):
    match = _match_nearest(out.vertices, other.vertices)
    assert np.abs(out.vertices - other.vertices[match]).max() < 1e-12
    assert np.abs(out.normals - other.normals[match]).max() < 1e-12


def _relabelled(mesh, rng, permute_vertices):
    faces = mesh.faces[rng.permutation(mesh.face_count)]
    shift = rng.integers(0, mesh.arity, size=mesh.face_count)
    cols = (np.arange(mesh.arity)[None, :] + shift[:, None]) % mesh.arity
    faces = np.take_along_axis(faces, cols, axis=1)
    verts, normals = mesh.vertices, mesh.normals
    if permute_vertices:
        perm = rng.permutation(mesh.vertex_count)  # new label of each old vertex
        verts = np.empty_like(verts)
        verts[perm] = mesh.vertices
        normals = np.empty_like(normals)
        normals[perm] = mesh.normals
        faces = perm[faces]
    return Mesh(verts, faces, normals=normals)


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("base", ALL_BASES)
def test_refinement_independent_of_face_order_and_corner_rotation(base, modified, rng):
    mesh = _posed_torus(base, rng, "perturbed")
    scheme = SchemeKind(base, modified=modified)
    out = refine_once(mesh, scheme)
    other = refine_once(_relabelled(mesh, rng, permute_vertices=False), scheme)
    _assert_same_refinement(out, other)


@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_refinement_independent_of_vertex_labels(base, rng):
    mesh = _posed_torus(base, rng, "perturbed")
    out = refine_once(mesh, SchemeKind(base))
    other = refine_once(_relabelled(mesh, rng, permute_vertices=True), SchemeKind(base))
    _assert_same_refinement(out, other)


def test_refined_normals_are_the_fold_output():
    mesh = torus_tri(12, 6)
    mesh = refine_once(mesh.with_normals(naive_normals(mesh)), SchemeKind("lp", modified=True))
    step = refinement_step(mesh, "lp")
    _, normals = _circle_fold(mesh, step.table)
    assert np.array_equal(refine_once(mesh, SchemeKind("lp", modified=True)).normals, normals)


def test_antipodal_error_names_output_vertex_and_stencil():
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(AntipodalNormalsError) as err:
        refine_once(tetrahedron().with_normals(normals), SchemeKind("lp", modified=True))
    assert str(err.value) == (
        "antipodal normals while averaging output vertex 0 (stencil over [0, 1, 2, 3]): "
        "circle average undefined for antipodal normals"
    )


def test_fold_reports_the_lowest_failing_output_vertex():
    # output vertex 0 fails on its second step; vertex 1, whose longer plan
    # the fold puts first, on its first step. The scalar path evaluates
    # vertex 0 first and fails there.
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    mesh = tetrahedron().with_normals(normals)
    table = _table([
        Stencil(((0, 0.5), (2, 0.375), (1, 0.125))),
        Stencil(((1, 0.4), (0, 0.3), (2, 0.2), (3, 0.1))),
    ])
    with pytest.raises(AntipodalNormalsError, match="output vertex 0 "):
        _circle_fold(mesh, table)


def test_non_finite_intermediate_point_raises_value_error():
    # coordinates near the float limit: the chord of a circle average overflows
    m = tetrahedron()
    huge = Mesh(m.vertices * 1e308, m.faces, normals=naive_normals(m))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="point components must be finite"):
        refine_once(huge, SchemeKind("lp", modified=True))
