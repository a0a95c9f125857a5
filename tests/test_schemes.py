import math

import numpy as np
import pytest

from meshes import (
    cube,
    flat_cube,
    flat_tri_octa,
    icosahedron,
    lumpy_tube,
    octahedron,
    one_ring,
    quad_sphere,
    random_rotation,
    tetrahedron,
    torus_quad,
    torus_tri,
    tri_sphere,
    valence,
    with_outward_unit_normals,
)
import oracle
from oracle import Stencil, affine_average, as_stencils, as_table, compile_plan, evaluate_plan
from pnpsubdiv import Mesh, Pnp, SchemeKind, naive_normals, refine
from pnpsubdiv.errors import (
    AntipodalNormalsError,
    ArityMismatchError,
    DegenerateCornerError,
    MissingNormalsError,
)
from pnpsubdiv.schemes import _ARITY, _TERMS, Refiner, _circle_fold, refinement_step
from pnpsubdiv.stencil import compile_table

ALL_BASES = ["cc", "lp", "k4", "by"]


def _mesh_for(base):
    return cube() if base in ("cc", "k4") else tetrahedron()


def _stencils(mesh, base):
    """The output stencils of one refinement step, as scalar-reference stencils."""
    return as_stencils(refinement_step(mesh, base).table)


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
        refine(wrong, SchemeKind(base), 1)


def test_modified_requires_normals():
    with pytest.raises(MissingNormalsError):
        refine(tetrahedron(), SchemeKind("lp", modified=True), 1)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_cc_cube_counts():
    out = refine(cube(), SchemeKind("cc"), 1)
    assert out.vertex_count == 26      # 8 old + 12 edge + 6 face
    assert out.face_count == 24
    out2 = refine(out, SchemeKind("cc"), 1)
    assert out2.vertex_count == 98     # 26 + 48 + 24


def test_loop_tetra_counts():
    out = refine(tetrahedron(), SchemeKind("lp"), 1)
    assert out.vertex_count == 10      # 4 + 6 edges
    assert out.face_count == 16
    # once more: V + E = 10 + 24, F = 64 (Euler-consistent at every level)
    out2 = refine(out, SchemeKind("lp"), 1)
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
    stencils = _stencils(m, base)
    # Stencil construction enforces the unit weight sum; re-check explicitly
    for st in stencils:
        assert abs(sum(w for _, w in st.terms) - 1.0) < 1e-12
    out = refine(m, SchemeKind(base), 1)
    assert out.face_count == 4 * m.face_count
    # constructing the Mesh validated orientation; also expect outward normals
    assert (np.einsum("ij,ij->i", naive_normals(out), out.vertices) > 0).any()


def test_interpolatory_old_vertex_stencils_are_identity():
    for base, mesh in (("k4", cube()), ("by", tetrahedron())):
        stencils = _stencils(mesh, base)
        for v in range(mesh.vertex_count):
            assert stencils[v].terms == ((v, 1.0),)


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
        yield refine(mesh, SchemeKind(base), 1)


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
        assert [st.terms for st in _stencils(mesh, base)] == _dict_merged_terms(mesh, base)


def _affine_positions(stencils, vertices):
    """Linear positions by a walk over every stencil term, the reference for one ``refine`` level."""
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
        out = refine(mesh, SchemeKind(base), 1)
        want = _affine_positions(as_stencils(step.table), mesh.vertices)
        assert np.array_equal(out.vertices, want)
        assert np.array_equal(out.faces, step.faces)


# every closed test mesh, by arity; valence 3 (tetrahedron, cube, quad sphere),
# 5 (icosahedron, tri sphere) and 6 or more (tori, lumpy tube, split octahedron)
_CLOSED_MESHES = {
    3: [tetrahedron, octahedron, icosahedron, lambda: tri_sphere(1), lambda: flat_tri_octa(1),
        lambda: torus_tri(6, 4), lambda: lumpy_tube(8, 4)],
    4: [cube, lambda: quad_sphere(1), lambda: flat_cube(1), lambda: torus_quad(6, 4),
        lambda: torus_quad(3, 3)],
}


@pytest.mark.parametrize("base", ALL_BASES)
def test_refined_topology_equals_the_validated_build(base):
    """Refined levels derive their half-edges from the parent; ``Mesh(...)`` on
    the same vertices and faces builds and validates them from scratch."""
    for mesh_fn in _CLOSED_MESHES[_ARITY[base]]:
        mesh = mesh_fn()
        for level in range(1, 4):
            mesh = refine(mesh, SchemeKind(base), 1)
            built = Mesh(mesh.vertices, mesh.faces)
            for name in ("twin", "edge", "edges"):
                assert np.array_equal(getattr(mesh, name), getattr(built, name)), (level, name)


def _term_by_term(table, vertices):
    """Every row of ``table`` applied to ``vertices``, its terms summed one at a time from 0.0."""
    out = np.empty((len(table), 3))
    for i in range(len(table)):
        acc = np.zeros(3)
        for k in range(table.indptr[i], table.indptr[i + 1]):
            acc = acc + table.weight[k] * vertices[table.index[k]]
        out[i] = acc
    return out


def _validated_chain(mesh, base, levels):
    """``levels`` linear steps, each level built with ``Mesh(points, faces)``."""
    for _ in range(levels):
        step = refinement_step(mesh, base)
        mesh = Mesh(_term_by_term(step.table, mesh.vertices), step.faces)
    return mesh


@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_refine_equals_a_chain_of_validated_levels(base):
    for mesh_fn in _CLOSED_MESHES[_ARITY[base]][:3]:
        mesh = mesh_fn()
        out = refine(mesh, SchemeKind(base), 3)
        want = _validated_chain(mesh, base, 3)
        assert np.array_equal(out.vertices, want.vertices)
        assert np.array_equal(out.faces, want.faces)
        assert np.array_equal(out.normals, naive_normals(want))


def test_linear_refine_with_a_collinear_last_level_names_the_vertex():
    # vertex 3 sits on the edge 0-1; the butterfly keeps every input vertex
    # in place, so each level has a collinear wedge at vertex 0
    flat = Mesh([[0, 0, 0], [2, 0, 0], [0, 2, 0], [1, 0, 0]], tetrahedron().faces)
    for levels in (1, 2):
        with pytest.raises(DegenerateCornerError) as want:
            naive_normals(_validated_chain(flat, "by", levels))
        with pytest.raises(DegenerateCornerError) as got:
            refine(flat, SchemeKind("by"), levels)
        assert str(got.value) == str(want.value) == "collinear wedge at vertex 0"


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
    stencils = _stencils(m, base)
    out = refine(m, SchemeKind(base), 1)
    for i, st in enumerate(stencils):
        via_plan = evaluate_plan(compile_plan(st), list(m.vertices), affine_average)
        assert np.linalg.norm(out.vertices[i] - via_plan) < 1e-12


def test_linear_mode_attaches_naive_normals():
    out = refine(cube(), SchemeKind("cc"), 1)
    assert out.has_normals
    assert np.abs(out.normals - naive_normals(out)).max() < 1e-15


def test_cc_vertex_stencil_matches_q_2r_formula():
    # independent oracle: assemble (Q + 2R + (k-3)P)/k from face centroids
    # and edge midpoints, compare against the stencil evaluation
    m = quad_sphere(1)
    stencils = _stencils(m, "cc")
    verts = m.vertices
    for p in (0, 10, 20):
        ring, rfaces = one_ring(m, p)
        k = len(ring)
        q = np.mean([verts[m.faces[f]].mean(axis=0) for f in rfaces], axis=0)
        r = np.mean([(verts[p] + verts[v]) / 2 for v in ring], axis=0)
        expect = (q + 2 * r + (k - 3) * verts[p]) / k
        got = sum(w * verts[i] for i, w in stencils[p].terms)
        assert np.linalg.norm(got - expect) < 1e-12


def test_loop_edge_and_vertex_weights():
    m = tetrahedron()
    stencils = _stencils(m, "lp")
    # vertex stencil for valence 3: beta = 3/16
    st = dict(stencils[0].terms)
    assert st[0] == pytest.approx(1 - 3 * 3 / 16)
    for v in (1, 2, 3):
        assert st[v] == pytest.approx(3 / 16)
    # edge stencils: 3/8 endpoints, 1/8 wings
    st = dict(stencils[4].terms)
    assert sorted(st.values()) == pytest.approx([1 / 8, 1 / 8, 3 / 8, 3 / 8])


def test_butterfly_on_tetrahedron_collapses_to_midpoint():
    # wings coincide with the opposite corners and cancel the 1/8 taps
    stencils = _stencils(tetrahedron(), "by")
    for eid in range(6):
        st = stencils[4 + eid]
        assert sorted(w for _, w in st.terms) == [0.5, 0.5]


def test_butterfly_regular_stencil_weights():
    m = tri_sphere(1)  # all valences 5 or 6
    stencils = _stencils(m, "by")
    for eid, (a, b) in enumerate(m.edges):
        if valence(m, int(a)) == 6 and valence(m, int(b)) == 6:
            weights = sorted(w for _, w in stencils[m.vertex_count + eid].terms)
            assert weights == pytest.approx([-1 / 16] * 4 + [1 / 8] * 2 + [1 / 2] * 2)
            return
    pytest.skip("no regular edge found")


def test_k4_regular_grid_tensor_weights():
    m = torus_quad(8, 8, 4.0, 1.5)  # all valences 4: fully regular
    stencils = _stencils(m, "k4")
    eid = 0
    st = sorted(w for _, w in stencils[m.vertex_count + eid].terms)
    assert st == pytest.approx([-1 / 16, -1 / 16, 9 / 16, 9 / 16])
    face_st = stencils[m.vertex_count + m.edge_count].terms
    weights = sorted(w for _, w in face_st)
    expect = sorted(
        [81 / 256] * 4 + [-9 / 256] * 8 + [1 / 256] * 4
    )
    assert weights == pytest.approx(expect)
    assert len(face_st) == 16


def test_k4_cube_falls_back_to_midpoints():
    stencils = _stencils(cube(), "k4")  # valence 3 everywhere
    for eid in range(12):
        assert sorted(w for _, w in stencils[8 + eid].terms) == [0.5, 0.5]
    for f in range(6):
        st = stencils[8 + 12 + f]
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
    base_out = refine(m, scheme, 1)
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    moved = Mesh(m.vertices @ rot.T + shift, m.faces, normals=m.normals @ rot.T)
    moved_out = refine(moved, scheme, 1)
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
    """A randomly posed small torus with naive, perturbed naive or all-equal normals."""
    mesh = torus_quad(12, 6) if base in ("cc", "k4") else torus_tri(12, 6)
    mesh = Mesh(mesh.vertices @ random_rotation(rng).T * 2.5 + rng.normal(size=3), mesh.faces)
    if normal_kind == "naive":
        return mesh.with_normals(naive_normals(mesh))
    if normal_kind == "equal":
        n = np.tile(rng.normal(size=3), (mesh.vertex_count, 1))
    else:
        n = naive_normals(mesh) + rng.normal(scale=0.2, size=(mesh.vertex_count, 3))
    return mesh.with_normals(n / np.linalg.norm(n, axis=1)[:, None])


@pytest.mark.parametrize("normal_kind", ["naive", "perturbed", "equal"])
@pytest.mark.parametrize("base", ALL_BASES)
def test_modified_refine_equals_scalar_oracle(base, normal_kind, rng):
    """Every output vertex equals its plan folded by oracle.circle_avg_3d, bit for bit.

    Naive normals on a posed torus are the benchmark's input, folded for as
    many levels as it refines. All-equal normals take the linear-limit
    branch of the circle average on every step of the first level.
    """
    mesh = _posed_torus(base, rng, normal_kind)
    for _ in range(3 if normal_kind == "naive" else 2):
        step = refinement_step(mesh, base)
        pnps = [Pnp(mesh.vertices[i], mesh.normals[i]) for i in range(mesh.vertex_count)]
        stencils = as_stencils(step.table)
        want = [evaluate_plan(compile_plan(st), pnps, oracle.circle_avg_3d) for st in stencils]
        points = np.array([r.point for r in want])
        normals = np.array([r.normal for r in want])
        got_points, got_normals = _circle_fold(mesh, step.table, step.plans)
        assert np.array_equal(got_points, points)
        assert np.array_equal(got_normals, normals)
        out = refine(mesh, SchemeKind(base, modified=True), 1)
        ref = Mesh(points, step.faces, normals=normals)
        assert np.array_equal(out.vertices, ref.vertices)
        assert np.array_equal(out.normals, ref.normals)
        mesh = out


# ---------------------------------------------------------------------------
# the Refiner: one topology, many normal sets
# ---------------------------------------------------------------------------

def _posed_normal_sets(base, rng):
    """The posed torus of ``base`` without normals, and three normal sets for it."""
    mesh = _posed_torus(base, rng, "naive")
    sets = [mesh.normals] + [_posed_torus(base, rng, kind).normals for kind in ("perturbed", "equal")]
    return Mesh(mesh.vertices, mesh.faces), sets


def _assert_bit_identical(out, want):
    for name in ("vertices", "normals", "faces", "twin", "edge"):
        assert np.array_equal(getattr(out, name), getattr(want, name)), name


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("base", ALL_BASES)
def test_refiner_evaluations_equal_refine(base, modified, rng):
    """Three normal sets on one Refiner, each bit for bit a fresh ``refine``."""
    mesh, sets = _posed_normal_sets(base, rng)
    for iters in (1, 2, 3):
        refiner = Refiner(mesh, base, iters)
        for normals in sets:
            posed = mesh.with_normals(normals)
            want = refine(posed, SchemeKind(base, modified), iters)
            out = refiner.evaluate(posed, modified)
            _assert_bit_identical(out, want)
            # the last level is evaluated on its stored step's topology, not a copy
            assert out.faces is refiner._steps[-1].faces and out.twin is refiner._steps[-1].twin


@pytest.mark.parametrize("base", ALL_BASES)
def test_refiner_raises_as_refine_and_stays_usable(base):
    bad = _antipodal_at_face(base, 0)
    scheme = SchemeKind(base, modified=True)
    refiner = Refiner(bad, base, 2)
    with pytest.raises(AntipodalNormalsError) as got:
        refiner.evaluate(bad, modified=True)
    with pytest.raises(AntipodalNormalsError) as want:
        refine(bad, scheme, 2)
    assert str(got.value) == str(want.value)
    good = bad.with_normals(naive_normals(bad))
    _assert_bit_identical(refiner.evaluate(good, modified=True), refine(good, scheme, 2))


def test_refiner_refuses_a_mesh_with_other_faces():
    mesh = torus_tri(6, 4)
    refiner = Refiner(mesh, "lp", 1)
    for other in (Mesh(mesh.vertices, np.roll(mesh.faces, 1, axis=1)), torus_tri(7, 4)):
        with pytest.raises(ValueError, match="this refiner refines 24 vertices"):
            refiner.evaluate(other, modified=False)


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
    out = refine(mesh, scheme, 1)
    other = refine(_relabelled(mesh, rng, permute_vertices=False), scheme, 1)
    _assert_same_refinement(out, other)


@pytest.mark.parametrize("base", ALL_BASES)
def test_linear_refinement_independent_of_vertex_labels(base, rng):
    mesh = _posed_torus(base, rng, "perturbed")
    out = refine(mesh, SchemeKind(base), 1)
    other = refine(_relabelled(mesh, rng, permute_vertices=True), SchemeKind(base), 1)
    _assert_same_refinement(out, other)


def test_refined_normals_are_the_fold_output():
    mesh = torus_tri(12, 6)
    mesh = refine(mesh.with_normals(naive_normals(mesh)), SchemeKind("lp", modified=True), 1)
    step = refinement_step(mesh, "lp")
    _, normals = _circle_fold(mesh, step.table, step.plans)
    assert np.array_equal(refine(mesh, SchemeKind("lp", modified=True), 1).normals, normals)


def test_antipodal_error_names_output_vertex_and_stencil():
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(AntipodalNormalsError) as err:
        refine(tetrahedron().with_normals(normals), SchemeKind("lp", modified=True), 1)
    assert str(err.value) == (
        "antipodal normals while averaging output vertex 0 (stencil over [0, 1, 2, 3]): "
        "circle average undefined for antipodal normals; "
        "fold step 1 averages in input vertex 1: its normal is opposite the running normal"
    )


def test_fold_reports_the_lowest_failing_output_vertex():
    # output vertex 0 fails on its second step; vertex 1, whose longer plan
    # the fold puts first, on its first step. The scalar path evaluates
    # vertex 0 first and fails there.
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    mesh = tetrahedron().with_normals(normals)
    table = as_table([
        Stencil(((0, 0.5), (2, 0.375), (1, 0.125))),
        Stencil(((1, 0.4), (0, 0.3), (2, 0.2), (3, 0.1))),
    ])
    with pytest.raises(AntipodalNormalsError, match="output vertex 0 "):
        _circle_fold(mesh, table, compile_table(table))


def _antipodal_at_face(base, face):
    """The scheme's test torus with naive normals, flipped at the second corner of ``face``."""
    mesh = torus_quad(12, 6) if base in ("cc", "k4") else torus_tri(12, 6)
    normals = naive_normals(mesh)
    a, b = mesh.faces[face, :2]
    normals[b] = -normals[a]
    return mesh.with_normals(normals)


def _huge(mesh_fn):
    """A mesh at the float limit with its unit-scale naive normals: fold chords overflow."""
    m = mesh_fn()
    return Mesh(m.vertices * 1e308, m.faces, normals=naive_normals(m))


DEGENERATE = (
    [(f"{base}-antipodal-face-{face}", base, lambda b=base, f=face: _antipodal_at_face(b, f))
     for base in ALL_BASES for face in (0, -1)]
    + [("lp-huge-tetrahedron", "lp", lambda: _huge(tetrahedron)),
       ("by-huge-tetrahedron", "by", lambda: _huge(tetrahedron)),
       ("cc-huge-cube", "cc", lambda: _huge(cube)),
       ("k4-huge-cube", "k4", lambda: _huge(cube))]
)


def _scalar_error(mesh, base):
    """The first error of the scalar path: the exception, its message as ``refine(mesh, scheme, 1)``
    words it, the output vertex, the fold step and the input vertex of that step.

    The scalar path folds each output vertex's plan with :func:`oracle.circle_avg_3d`
    in vertex order and stops at the first error.
    """
    pnps = [Pnp(mesh.vertices[i], mesh.normals[i]) for i in range(mesh.vertex_count)]
    for i, st in enumerate(_stencils(mesh, base)):
        plan = compile_plan(st)
        folded = []  # the input vertex of every fold step begun

        def counted(a, b, w):
            folded.append(plan.steps[len(folded)][0])
            return oracle.circle_avg_3d(a, b, w)

        try:
            evaluate_plan(plan, pnps, counted)
        except AntipodalNormalsError as exc:
            where = f"output vertex {i} (stencil over {[t[0] for t in st.terms]})"
            message = f"antipodal normals while averaging {where}: {exc}"
            return exc, message, i, len(folded), folded[-1]
        except ValueError as exc:
            return exc, str(exc), i, len(folded), folded[-1]
    raise AssertionError("the scalar path does not fail")


@pytest.mark.parametrize(
    "base, make", [row[1:] for row in DEGENERATE], ids=[row[0] for row in DEGENERATE]
)
def test_fold_errors_extend_the_scalar_error(base, make):
    """Same class as the scalar path; its message, then the output vertex, fold step and input."""
    mesh = make()
    with np.errstate(all="ignore"):  # the scalar path's numpy floats warn where chords overflow
        want, message, output, step, vertex = _scalar_error(mesh, base)
    with pytest.raises((AntipodalNormalsError, ValueError)) as err:
        refine(mesh, SchemeKind(base, modified=True), 1)
    assert type(err.value) is type(want)
    got = str(err.value)
    assert got.startswith(message)
    assert f"output vertex {output} " in got
    assert f"fold step {step} averages in input vertex {vertex}: " in got


def test_a_flagged_row_that_pnp_accepts_never_returns(monkeypatch):
    """If the row kernel flags a valid average, the fold stops instead of returning it."""
    import pnpsubdiv.circle3d as circle3d

    monkeypatch.setattr(circle3d, "_invalid_pnp_rows", lambda p, n: np.ones(p.shape[1], bool))
    m = tetrahedron()
    with pytest.raises(AssertionError, match="output vertex 0 failed the fold but Pnp accepts"):
        refine(m.with_normals(naive_normals(m)), SchemeKind("lp", modified=True), 1)


def test_non_finite_intermediate_point_raises_value_error():
    # coordinates near the float limit: the chord of a circle average overflows
    m = tetrahedron()
    huge = Mesh(m.vertices * 1e308, m.faces, normals=naive_normals(m))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="point components must be finite"):
        refine(huge, SchemeKind("lp", modified=True), 1)


# ---------------------------------------------------------------------------
# numbering that keeps relative order keeps the floats
# ---------------------------------------------------------------------------

def _interleaved(a: Mesh, b: Mesh, rng) -> Mesh:
    """The disjoint union of ``a`` and ``b``, their vertices and faces
    interleaved at random in each mesh's own order."""
    va = np.sort(rng.choice(a.vertex_count + b.vertex_count, a.vertex_count, replace=False))
    vb = np.setdiff1d(np.arange(a.vertex_count + b.vertex_count), va)
    fa = np.sort(rng.choice(a.face_count + b.face_count, a.face_count, replace=False))
    fb = np.setdiff1d(np.arange(a.face_count + b.face_count), fa)
    vertices = np.empty((len(va) + len(vb), 3))
    normals = np.empty_like(vertices)
    faces = np.empty((len(fa) + len(fb), a.arity), dtype=a.faces.dtype)
    vertices[va], vertices[vb] = a.vertices, b.vertices
    normals[va], normals[vb] = a.normals, b.normals
    faces[fa], faces[fb] = va[a.faces], vb[b.faces]
    return Mesh(vertices, faces, normals=normals)


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("base", ALL_BASES)
def test_refine_of_an_interleaved_union_returns_each_part_bit_for_bit(base, modified, rng):
    """Tie breaks go by ascending index, edges are numbered in corner order
    and child rows are vertices, then edges, then faces: all keep relative
    order, so a mesh refines to the same floats inside any union that
    numbers it in its own order."""
    torus = _posed_torus(base, rng, "naive")
    other = torus_quad(5, 4) if _ARITY[base] == 4 else torus_tri(5, 4)
    other = Mesh(other.vertices + 100.0, other.faces)  # far apart, to sort the outputs by
    other = other.with_normals(naive_normals(other))
    union = _interleaved(torus, other, rng)
    scheme = SchemeKind(base, modified)
    for iters in (1, 2):
        want = refine(torus, scheme, iters)
        got = refine(union, scheme, iters)
        mine = got.vertices[:, 0] < 50.0
        label = np.cumsum(mine) - 1  # the union's output vertex -> the torus's
        assert np.array_equal(got.vertices[mine], want.vertices)
        assert np.array_equal(got.normals[mine], want.normals)
        assert np.array_equal(label[got.faces[mine[got.faces[:, 0]]]], want.faces)
