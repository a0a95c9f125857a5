import math

import numpy as np
import pytest

from meshes import (
    cube,
    flat_cube,
    flat_cube_interior_vertices,
    icosahedron,
    lumpy_tube,
    octahedron,
    one_ring,
    random_rotation,
    tetrahedron,
    torus_quad,
    torus_tri,
    valence,
)
from pnpsubdiv import Mesh, load_obj, naive_normals, save_obj, save_ply
from pnpsubdiv.errors import (
    DegenerateCornerError,
    MeshParseError,
    MixedFaceArityError,
    NonManifoldError,
    OpenBoundaryError,
    VanishingNormalError,
)

TETRA_FACES = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]


# ---------------------------------------------------------------------------
# construction and adjacency
# ---------------------------------------------------------------------------

def test_cube_counts_and_valences():
    m = cube()
    assert m.vertex_count == 8
    assert m.face_count == 6
    assert m.edge_count == 12                      # Euler: 8 - 12 + 6 = 2
    assert all(valence(m, v) == 3 for v in range(8))


def test_every_edge_has_two_faces():
    for mesh in (cube(), octahedron(), icosahedron(), torus_quad(8, 6)):
        assert mesh.edges.shape == (mesh.edge_count, 2)
        assert mesh.edge_faces.shape == (mesh.edge_count, 2)
        assert mesh.vertex_count - mesh.edge_count + mesh.face_count in (2, 0)


def test_ring_traversal_covers_incident_faces_once():
    for mesh in (cube(), icosahedron(), torus_quad(8, 6)):
        face_sets = [set() for _ in range(mesh.vertex_count)]
        for fi, face in enumerate(mesh.faces):
            for v in face:
                face_sets[int(v)].add(fi)
        for v in range(mesh.vertex_count):
            ring_v, ring_f = one_ring(mesh, v)
            assert len(ring_v) == len(ring_f)
            assert set(int(f) for f in ring_f) == face_sets[v]
            assert len(set(int(f) for f in ring_f)) == len(ring_f)


def test_ring_order_consistent_with_faces():
    m = cube()
    for v in range(m.vertex_count):
        ring_v, ring_f = one_ring(m, v)
        k = len(ring_v)
        assert ring_v[0] == ring_v.min()
        for i in range(k):
            face = [int(x) for x in m.faces[ring_f[i]]]
            # wedge i spans ring neighbors i and i+1 inside face ring_f[i]
            assert int(ring_v[i]) in face
            assert int(ring_v[(i + 1) % k]) in face


def test_open_mesh_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    with pytest.raises(OpenBoundaryError):
        Mesh(verts, [[0, 1, 2], [1, 3, 2]])


def test_inconsistent_orientation_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    with pytest.raises(NonManifoldError):
        Mesh(verts, [[0, 1, 2], [1, 2, 3], [0, 1, 3], [0, 2, 3]])


def test_mixed_arity_rejected():
    verts = np.zeros((5, 3))
    with pytest.raises(MixedFaceArityError):
        Mesh(verts, [[0, 1, 2], [0, 1, 2, 3]])


def test_unsupported_arity_rejected():
    verts = np.zeros((6, 3))
    with pytest.raises(MixedFaceArityError):
        Mesh(verts, [[0, 1, 2, 3, 4], [0, 4, 3, 2, 1]])


def _second_tetra(offset):
    return [[0 if v == 0 else v + offset for v in f] for f in TETRA_FACES]


@pytest.mark.parametrize(
    "n_verts, faces, error, message",
    [
        (4, [[0, 1, 1]] + TETRA_FACES[1:], NonManifoldError, "face 0 repeats a vertex"),
        (4, TETRA_FACES + [[1, 1, 2]], NonManifoldError, "face 4 repeats a vertex"),
        (
            4,
            TETRA_FACES + TETRA_FACES[:1],
            NonManifoldError,
            "directed edge (0, 1) appears in faces 0 and 4",
        ),
        # the duplicate in face 4 comes before the repeat in face 5
        (
            4,
            TETRA_FACES + TETRA_FACES[:1] + [[1, 2, 2]],
            NonManifoldError,
            "directed edge (0, 1) appears in faces 0 and 4",
        ),
        (4, [[0, 1, 2], [1, 3, 2]], OpenBoundaryError, "edge (0, 1) has only one incident face"),
        (4, TETRA_FACES[1:], OpenBoundaryError, "edge (1, 0) has only one incident face"),
        (5, TETRA_FACES, NonManifoldError, "vertex 4 belongs to no face"),
        (7, TETRA_FACES + _second_tetra(3), NonManifoldError,
         "vertex 0 has more than one face fan"),
        # vertex 0 has two fans and comes before the isolated vertex 7
        (8, TETRA_FACES + _second_tetra(3), NonManifoldError,
         "vertex 0 has more than one face fan"),
    ],
)
def test_topology_errors_name_the_first_fault(n_verts, faces, error, message):
    verts = np.random.default_rng(3).normal(size=(n_verts, 3))
    with pytest.raises(error) as err:
        Mesh(verts, faces)
    assert str(err.value) == message


def test_face_index_out_of_range():
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), [[0, 1, 7]])


def test_with_normals_shares_topology():
    m = cube()
    n = naive_normals(m)
    m2 = m.with_normals(n)
    assert m2.has_normals and not m.has_normals
    assert m2.edges is m.edges


# ---------------------------------------------------------------------------
# naive normals
# ---------------------------------------------------------------------------

def test_flat_region_normal_is_plane_normal():
    m = flat_cube(2)
    normals = naive_normals(m)
    for v in flat_cube_interior_vertices(m):
        p = m.vertices[v]
        axis = np.argmax(np.abs(p))
        expect = np.zeros(3)
        expect[axis] = math.copysign(1.0, p[axis])
        assert np.allclose(normals[v], expect, atol=1e-12)


def test_cube_corner_normal_is_diagonal():
    m = cube()
    normals = naive_normals(m)
    for v in range(8):
        expect = m.vertices[v] / math.sqrt(3.0)
        assert np.allclose(normals[v], expect, atol=1e-12)


def test_octahedron_pole_normal_by_symmetry():
    m = octahedron()
    normals = naive_normals(m)
    assert np.allclose(normals[4], (0, 0, 1), atol=1e-12)
    assert np.allclose(normals[5], (0, 0, -1), atol=1e-12)


def test_naive_normals_point_outward():
    for mesh in (cube(), octahedron(), icosahedron()):
        normals = naive_normals(mesh)
        assert (np.einsum("ij,ij->i", normals, mesh.vertices) > 0).all()


def test_naive_normals_rotation_equivariant(rng):
    m = icosahedron()
    base = naive_normals(m)
    rot = random_rotation(rng)
    rotated = naive_normals(Mesh(m.vertices @ rot.T, m.faces))
    assert np.abs(rotated - base @ rot.T).max() < 1e-9


def test_naive_normals_collinear_wedge_names_vertex():
    m = octahedron()
    verts = m.vertices.copy()
    verts[4] = 0.5 * (verts[1] + verts[3])  # face (1, 3, 4) collapses onto a segment
    with pytest.raises(DegenerateCornerError) as err:
        naive_normals(Mesh(verts, m.faces))
    assert str(err.value) == "collinear wedge at vertex 1"


def test_naive_normals_cancelling_wedges_name_vertex():
    # a flat tetrahedron: vertex 0 in the middle of the triangle (1, 2, 3);
    # at each outer corner the big face's wedge cancels the two small ones
    verts = [[0.1, 0.2, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    relabel = [1, 2, 3, 0]
    faces = [[relabel[v] for v in f] for f in TETRA_FACES]
    with pytest.raises(VanishingNormalError) as err:
        naive_normals(Mesh(verts, faces))
    assert str(err.value) == "wedge normals cancel at vertex 1"


def _naive_normals_loop(mesh):
    """The per-vertex reference: wedges in one-ring order."""
    out = np.empty((mesh.vertex_count, 3))
    for p in range(mesh.vertex_count):
        ring, _ = one_ring(mesh, p)
        e = mesh.vertices[ring] - mesh.vertices[p]
        crosses = np.cross(e, np.roll(e, -1, axis=0))
        norms = np.linalg.norm(crosses, axis=1)
        gammas = np.arctan2(norms, np.einsum("ij,ij->i", e, np.roll(e, -1, axis=0)))
        a = (gammas[:, None] * crosses / norms[:, None]).sum(axis=0)
        out[p] = a / np.linalg.norm(a)
    return out


def test_naive_normals_match_the_ring_loop():
    for mesh in (icosahedron(), cube(), torus_tri(12, 6), torus_quad(12, 6), lumpy_tube()):
        assert np.abs(naive_normals(mesh) - _naive_normals_loop(mesh)).max() < 1e-14


def test_wedge_angles_sum_to_two_pi_on_flat_regions():
    m = flat_cube(2)
    for v in flat_cube_interior_vertices(m):
        ring, _ = one_ring(m, v)
        e = m.vertices[ring] - m.vertices[v]
        e_next = np.roll(e, -1, axis=0)
        gam = np.arctan2(
            np.linalg.norm(np.cross(e, e_next), axis=1), np.einsum("ij,ij->i", e, e_next)
        )
        assert abs(gam.sum() - 2 * math.pi) < 1e-12


# ---------------------------------------------------------------------------
# OBJ round trip
# ---------------------------------------------------------------------------

def test_obj_roundtrip_plain(tmp_path):
    m = icosahedron()
    path = tmp_path / "ico.obj"
    save_obj(m, path)
    back = load_obj(path)
    assert np.abs(back.vertices - m.vertices).max() < 1e-9
    assert np.array_equal(back.faces, m.faces)
    assert back.normals is None


def test_obj_roundtrip_with_normals(tmp_path):
    m = cube().with_normals(naive_normals(cube()))
    path = tmp_path / "cube.obj"
    save_obj(m, path)
    back = load_obj(path)
    assert np.abs(back.vertices - m.vertices).max() < 1e-9
    assert np.abs(back.normals - m.normals).max() < 1e-9
    assert np.array_equal(back.faces, m.faces)


def _extreme_mesh(arity):
    """A mesh whose coordinates and normals carry -0.0, 5e-324, 1e-300, 1e300,
    123456789.5 and mixed signs."""
    m = tetrahedron() if arity == 3 else cube()
    extremes = np.array([
        [-0.0, 1e-300, 1e300], [1.5, 5e-324, 123456789.5], [-1e300, 0.1, -0.0],
        [123456789.123, -1e-300, 7.0], [-1e-300, 0.0, -123.456], [2.0 / 3.0, -1.0 / 3.0, 1e-5],
        [-7.25e12, 0.5, -0.0], [1.0, -1.0, 1e299],
    ])
    n = np.array([
        [-0.0, 5e-324, 1.0], [0.6, -0.8, -0.0], [-0.0, -1.0, 0.0], [1.0, -0.0, -0.0],
        [0.0, 0.6, -0.8], [-0.48, 0.64, 0.6], [0.8, 0.0, -0.6], [-1.0, 0.0, 0.0],
    ])
    k = m.vertex_count
    return Mesh(extremes[:k], m.faces), n[:k]


def _obj_text_loop(mesh):
    """The per-row f-string reference encoding of ``save_obj``."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    if mesh.normals is not None:
        for x, y, z in mesh.normals:
            lines.append(f"vn {x:.9g} {y:.9g} {z:.9g}")
        for face in mesh.faces:
            refs = " ".join(f"{i + 1}//{i + 1}" for i in face)
            lines.append(f"f {refs}")
    else:
        for face in mesh.faces:
            refs = " ".join(str(i + 1) for i in face)
            lines.append(f"f {refs}")
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def _ply_ascii_body_loop(mesh, colors):
    """The per-row f-string reference encoding of an ASCII PLY body."""
    lines = []
    for i in range(mesh.vertex_count):
        x, y, z = mesh.vertices[i]
        row = f"{x:.9g} {y:.9g} {z:.9g}"
        if colors is not None:
            r, g, b = colors[i]
            row += f" {r} {g} {b}"
        lines.append(row)
    for face in mesh.faces:
        lines.append(f"{mesh.arity} " + " ".join(str(i) for i in face))
    lines.append("")
    return "\n".join(lines).encode("ascii")


@pytest.mark.parametrize("with_normals", [False, True])
@pytest.mark.parametrize("arity", [3, 4])
def test_obj_bytes_equal_the_row_loop(tmp_path, arity, with_normals):
    m, n = _extreme_mesh(arity)
    if with_normals:
        m = m.with_normals(n)
    path = tmp_path / "out.obj"
    save_obj(m, path)
    assert path.read_bytes() == _obj_text_loop(m)


@pytest.mark.parametrize("with_colors", [False, True])
@pytest.mark.parametrize("arity", [3, 4])
def test_ply_ascii_bytes_equal_the_row_loop(tmp_path, arity, with_colors):
    m, _ = _extreme_mesh(arity)
    colors = None
    if with_colors:
        colors = np.arange(3 * m.vertex_count, dtype=np.uint8).reshape(-1, 3) * 11
    path = tmp_path / "out.ply"
    save_ply(m, path, colors=colors)
    raw = path.read_bytes()
    body = raw[raw.index(b"end_header\n") + len(b"end_header\n"):]
    assert body == _ply_ascii_body_loop(m, colors)


def test_obj_cube_is_valid(tmp_path):
    path = tmp_path / "cube.obj"
    save_obj(cube(), path)
    m = load_obj(path)
    assert m.edge_count == 12
    assert all(valence(m, v) == 3 for v in range(m.vertex_count))


def test_obj_accepts_slash_forms(tmp_path):
    text = """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
vn 0 0 -1
f 1/1/1 4//1 3//1
f 1//1 3//1 2//1
f 1 2 5
f 2 3 5
f 3 4 5
f 4 1 5
"""
    # pyramid with a square base split in two; vn only on the base corners
    path = tmp_path / "pyr.obj"
    path.write_text(text)
    with pytest.raises(MeshParseError):
        load_obj(path)  # vertex 5 never gets a normal


def test_obj_normal_conflict_rejected(tmp_path):
    text = """
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
vn 1 0 0
vn 0 1 0
f 1//1 2//1 3//1
f 1//2 3//1 4//1
f 1//1 4//1 2//1
f 2//1 4//1 3//1
"""
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(MeshParseError):
        load_obj(path)


def test_obj_offunit_normal_renormalized_or_rejected(tmp_path):
    base = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1"]
    faces = ["f 1//1 3//1 2//1", "f 1//1 2//1 4//1", "f 1//1 4//1 3//1", "f 2//1 3//1 4//1"]
    slightly_off = 1.0 + 5e-7
    path = tmp_path / "near.obj"
    path.write_text("\n".join(base + [f"vn {slightly_off:.9f} 0 0"] + faces))
    m = load_obj(path)
    assert abs(np.linalg.norm(m.normals[0]) - 1.0) < 1e-12

    path2 = tmp_path / "far.obj"
    path2.write_text("\n".join(base + ["vn 1.1 0 0"] + faces))
    with pytest.raises(MeshParseError):
        load_obj(path2)


def test_obj_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "broken.obj"
    path.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshParseError) as err:
        load_obj(path)
    assert err.value.line == 2


@pytest.mark.parametrize("record", ["v nan 0 0", "v 0 inf 0", "vn 0 0 -inf", "vn nan 0 1"])
def test_obj_non_finite_coordinates_rejected(tmp_path, record):
    lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "vn 0 0 1", "f 1//1 2//1 3//1"]
    lines.insert(2, record)
    path = tmp_path / "nonfinite.obj"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshParseError) as err:
        load_obj(path)
    assert err.value.line == 3


def test_obj_relative_indices(tmp_path):
    text = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 -1\nvn 0 -1 0\nvn -1 0 0\n"
        "f -3//-3 -1//-1 -2//-2\n"
        "v 0 0 1\nvn 0.6 0 0.8\n"
        "f 1//-4 2//-3 -1//-1\nf -4 -1 3\nf 2//2 -2//-2 -1//4\n"
    )
    path = tmp_path / "relative.obj"
    path.write_text(text)
    m = load_obj(path)
    assert m.faces.tolist() == [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    assert m.normals.tolist() == [[0, 0, -1], [0, -1, 0], [-1, 0, 0], [0.6, 0, 0.8]]


@pytest.mark.parametrize(
    "face, message",
    [
        ("f 1 2 0", "vertex index 0 out of range"),
        ("f 1 2 -4", "vertex index -4 out of range"),
        ("f 1//-2 2 3", "normal index -2 out of range"),
        ("f 1//0 2 3", "normal index 0 out of range"),
    ],
)
def test_obj_bad_indices_name_the_line(tmp_path, face, message):
    path = tmp_path / "bad_index.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\n{face}\n")
    with pytest.raises(MeshParseError, match=message) as err:
        load_obj(path)
    assert err.value.line == 5


def test_obj_mixed_arity_rejected(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 2 3 4\nf 1 2 5\n"
    )
    with pytest.raises(MixedFaceArityError):
        load_obj(path)


def test_obj_missing_file():
    with pytest.raises(OSError):
        load_obj("/nonexistent/nowhere.obj")


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------

def test_ply_ascii_structure(tmp_path):
    m = cube()
    colors = np.tile(np.array([10, 20, 30], dtype=np.uint8), (8, 1))
    path = tmp_path / "cube.ply"
    save_ply(m, path, colors=colors)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert "format ascii 1.0" in text[1]
    assert f"element vertex {m.vertex_count}" in text
    assert f"element face {m.face_count}" in text
    assert "property uchar red" in text
    body = text[text.index("end_header") + 1 :]
    assert len([ln for ln in body if ln]) == m.vertex_count + m.face_count
    assert body[0].split()[3:] == ["10", "20", "30"]


def test_ply_binary_size(tmp_path):
    m = cube()
    path = tmp_path / "cube_bin.ply"
    save_ply(m, path, colors=np.zeros((8, 3), dtype=np.uint8), binary=True)
    raw = path.read_bytes()
    header_end = raw.index(b"end_header\n") + len(b"end_header\n")
    body = raw[header_end:]
    assert len(body) == m.vertex_count * (12 + 3) + m.face_count * (1 + 16)


def _ply_binary_body_loop(mesh, colors):
    """The row-by-row reference encoding of a binary PLY body."""
    body = bytearray()
    pts = mesh.vertices.astype("<f4")
    for i in range(mesh.vertex_count):
        body += pts[i].tobytes()
        if colors is not None:
            body += colors[i].tobytes()
    arity = np.uint8(mesh.arity).tobytes()
    for face in mesh.faces.astype("<i4"):
        body += arity + face.tobytes()
    return bytes(body)


@pytest.mark.parametrize("with_colors", [False, True])
@pytest.mark.parametrize("mesh_fn", [icosahedron, lambda: torus_quad(8, 6)])
def test_ply_binary_body_bytes(tmp_path, mesh_fn, with_colors):
    from pnpsubdiv import curvature, curvature_colors

    m = mesh_fn()
    colors = curvature_colors(curvature(m), -0.5, 0.5) if with_colors else None
    path = tmp_path / "out.ply"
    save_ply(m, path, colors=colors, binary=True)
    raw = path.read_bytes()
    body = raw[raw.index(b"end_header\n") + len(b"end_header\n"):]
    assert body == _ply_binary_body_loop(m, colors)
    vertex_fields = [("xyz", "<f4", 3)] + ([("rgb", "u1", 3)] if with_colors else [])
    vertex_size = np.dtype(vertex_fields).itemsize
    rows = np.frombuffer(body, dtype=vertex_fields, count=m.vertex_count)
    face_fields = [("k", "u1"), ("i", "<i4", m.arity)]
    faces = np.frombuffer(body[m.vertex_count * vertex_size:], dtype=face_fields)
    assert np.array_equal(rows["xyz"], m.vertices.astype("<f4"))
    if with_colors:
        assert np.array_equal(rows["rgb"], colors)
    assert (faces["k"] == m.arity).all() and np.array_equal(faces["i"], m.faces)
