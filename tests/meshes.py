"""Mesh constructions shared by the tests: platonic solids, spheres, tori.

All meshes are closed, consistently outward-oriented, and centered so
orientation can be checked via the sign of normal . position. Also the
per-vertex topology queries the tests walk meshes with (:func:`one_ring`,
:func:`valence`), read from the half-edge arrays.
"""

import math

import numpy as np

from pnpsubdiv import Mesh, naive_normals

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def one_ring(mesh: Mesh, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered one-ring of vertex ``v``: (neighbor vertices, wedge faces).

    The ring starts at the smallest neighbor; face ``i`` of the ring
    spans neighbors ``i`` and ``(i + 1) % k``.
    """
    out = np.flatnonzero(mesh.origin == v)
    walk = [out[np.argmin(mesh.dest(out))]]
    for _ in out[1:]:
        walk.append(mesh.around(walk[-1]))
    walk = np.array(walk)
    return mesh.dest(walk), walk // mesh.arity


def valence(mesh: Mesh, v: int) -> int:
    return int(np.count_nonzero(mesh.origin == v))


def tetrahedron() -> Mesh:
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    faces = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
    return Mesh(verts, faces)


def cube() -> Mesh:
    verts = np.array(
        [
            [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
        ],
        dtype=float,
    )
    faces = [
        [0, 3, 2, 1],  # bottom (z = -1), outward = -z
        [4, 5, 6, 7],  # top
        [0, 1, 5, 4],  # y = -1
        [1, 2, 6, 5],  # x = +1
        [2, 3, 7, 6],  # y = +1
        [3, 0, 4, 7],  # x = -1
    ]
    return Mesh(verts, faces)


def octahedron() -> Mesh:
    verts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    faces = [
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ]
    return Mesh(verts, faces)


def icosahedron() -> Mesh:
    a, b = 1.0, GOLDEN
    verts = np.array(
        [
            [-a, b, 0], [a, b, 0], [-a, -b, 0], [a, -b, 0],
            [0, -a, b], [0, a, b], [0, -a, -b], [0, a, -b],
            [b, 0, -a], [b, 0, a], [-b, 0, -a], [-b, 0, a],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    return Mesh(verts, faces)


def split_tri_midpoints(mesh: Mesh) -> Mesh:
    """1-to-4 topological split with edge midpoints (keeps flat faces flat)."""
    v = mesh.vertex_count
    edges, edge = mesh.edges, mesh.edge  # both built on access: once, not per face
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    faces = []
    for fi, face in enumerate(mesh.faces):
        a, b, c = (int(x) for x in face)
        eab, ebc, eca = (v + int(k) for k in edge[3 * fi : 3 * fi + 3])
        faces += [[a, eab, eca], [b, ebc, eab], [c, eca, ebc], [eab, ebc, eca]]
    return Mesh(np.vstack([mesh.vertices, mids]), faces)


def split_quad_midpoints(mesh: Mesh) -> Mesh:
    """1-to-4 quad split with edge midpoints and face centroids."""
    v = mesh.vertex_count
    e = mesh.edge_count
    edges, edge = mesh.edges, mesh.edge  # both built on access: once, not per face
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    centers = mesh.vertices[mesh.faces].mean(axis=1)
    faces = []
    for fi, face in enumerate(mesh.faces):
        corners = [int(x) for x in face]
        eids = [v + int(k) for k in edge[4 * fi : 4 * fi + 4]]
        center = v + e + fi
        for j in range(4):
            faces.append([corners[j], eids[j], center, eids[j - 1]])
    return Mesh(np.vstack([mesh.vertices, mids, centers]), faces)


def _project_unit(mesh: Mesh) -> Mesh:
    verts = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    return Mesh(verts, mesh.faces)


def tri_sphere(splits: int = 1) -> Mesh:
    """Icosahedron split ``splits`` times, projected to the unit sphere."""
    m = icosahedron()
    for _ in range(splits):
        m = _project_unit(split_tri_midpoints(m))
    return m


def quad_sphere(splits: int = 1) -> Mesh:
    """Cube split ``splits`` times, projected to the unit sphere."""
    m = _project_unit(cube())
    for _ in range(splits):
        m = _project_unit(split_quad_midpoints(m))
    return m


def with_outward_unit_normals(mesh: Mesh) -> Mesh:
    """Attach radial normals (valid for meshes sampled on the unit sphere)."""
    return mesh.with_normals(mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None])


def flat_cube(splits: int = 2) -> Mesh:
    """Axis-aligned cube with each side midpoint-split into a planar grid.

    Vertices interior to a side sit in flat surroundings: wedge angles sum
    to 2 pi, curvature vanishes, incident dihedral angles are zero.
    """
    m = cube()
    for _ in range(splits):
        m = split_quad_midpoints(m)
    return m


def flat_cube_interior_vertices(mesh: Mesh) -> np.ndarray:
    """Indices of vertices strictly inside one face of an axis-aligned cube."""
    v = np.abs(mesh.vertices)
    on_face = np.isclose(v, 1.0)
    return np.where(on_face.sum(axis=1) == 1)[0]


def flat_tri_octa(splits: int = 2) -> Mesh:
    """Octahedron with midpoint-split faces: flat triangular patches."""
    m = octahedron()
    for _ in range(splits):
        m = split_tri_midpoints(m)
    return m


def torus_quad(nu: int = 30, nv: int = 10, big: float = 3.0, small: float = 1.0) -> Mesh:
    verts = np.empty((nu * nv, 3))
    for i in range(nu):
        u = 2.0 * math.pi * i / nu
        for j in range(nv):
            v = 2.0 * math.pi * j / nv
            w = big + small * math.cos(v)
            verts[i * nv + j] = (w * math.cos(u), w * math.sin(u), small * math.sin(v))
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            faces.append([a, b, c, d])
    mesh = Mesh(verts, faces)
    # orientation check: naive normal at an outer-equator vertex points away from the axis
    n = naive_normals(mesh)[0]
    if float(n @ np.array([1.0, 0.0, 0.0])) < 0.0:
        mesh = Mesh(verts, [list(reversed(f)) for f in faces])
    return mesh


def torus_tri(nu: int = 30, nv: int = 10, big: float = 3.0, small: float = 1.0) -> Mesh:
    quad = torus_quad(nu, nv, big, small)
    faces = []
    for a, b, c, d in quad.faces:
        faces.append([int(a), int(b), int(c)])
        faces.append([int(a), int(c), int(d)])
    return Mesh(quad.vertices, faces)


def lumpy_tube(n_rings: int = 24, n_around: int = 6, big: float = 8.0, small: float = 0.4) -> Mesh:
    """Closed triangulated tube (torus topology) with strongly uneven rings.

    Ring positions around the big circle alternate between tight clusters
    and wide gaps, giving adjacent longitudinal edges length ratios above
    ten; interpolatory four-point-style schemes overshoot on such data.
    """
    angles = []
    u = 0.0
    short, long = 0.03, 2.0 * math.pi / n_rings * 2.0 - 0.03
    for i in range(n_rings):
        angles.append(u)
        u += short if i % 2 == 0 else long
    angles = np.array(angles) * (2.0 * math.pi / u)
    verts = np.empty((n_rings * n_around, 3))
    for i, uu in enumerate(angles):
        for j in range(n_around):
            v = 2.0 * math.pi * j / n_around
            w = big + small * math.cos(v)
            verts[i * n_around + j] = (w * math.cos(uu), w * math.sin(uu), small * math.sin(v))
    faces = []
    for i in range(n_rings):
        for j in range(n_around):
            a = i * n_around + j
            b = ((i + 1) % n_rings) * n_around + j
            c = ((i + 1) % n_rings) * n_around + (j + 1) % n_around
            d = i * n_around + (j + 1) % n_around
            faces.append([a, b, c])
            faces.append([a, c, d])
    mesh = Mesh(verts, faces)
    n = naive_normals(mesh)[0]
    if float(n @ np.array([1.0, 0.0, 0.0])) < 0.0:
        mesh = Mesh(verts, [list(reversed(f)) for f in faces])
    return mesh


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation matrix from a random quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_pnp_pair(rng, max_theta: float = 3.0, spread: float = 1.0):
    """Random pair of point-normal pairs with normal angle in (0, max_theta]."""
    from pnpsubdiv import Pnp

    p0 = rng.normal(size=3) * spread
    p1 = rng.normal(size=3) * spread
    n0 = random_unit(rng)
    axis = np.cross(n0, random_unit(rng))
    axis /= np.linalg.norm(axis)
    ang = rng.uniform(1e-4, max_theta)
    n1 = n0 * math.cos(ang) + np.cross(axis, n0) * math.sin(ang)
    n1 /= np.linalg.norm(n1)
    return Pnp(p0, n0), Pnp(p1, n1)
