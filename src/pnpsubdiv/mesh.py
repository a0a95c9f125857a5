"""Closed-manifold meshes of uniform face arity with optional vertex normals.

A :class:`Mesh` is immutable after construction. Constructing one, with
``Mesh(...)`` or :func:`load_obj`, validates the full topology contract:
every face is a triangle or every face is a quad, every edge has exactly
two incident faces with opposite orientations, and the faces around each
vertex close into a single umbrella. Only constructed meshes are validated.
A refined level inherits its topology from its parent: the 1-to-4 split of
a valid mesh is valid by construction, and its half-edge arrays follow from
the parent's by index arithmetic, with no sort and no search
(:meth:`Mesh._split_topology`). Its vertices are still checked to be finite and
its normals to be unit length.

Topology is held as flat half-edge arrays (Botsch et al., *Polygon Mesh
Processing*, ch. 2). With ``a`` the face arity, corner ``h = a * f + j`` is
the half-edge from ``faces[f, j]`` to ``faces[f, (j + 1) % a]``. Its origin,
its successor and predecessor in the face, and its face are arithmetic on
``h`` (:attr:`Mesh.origin`, :meth:`Mesh.next_half`, :meth:`Mesh.prev_half`,
``h // a``). Two arrays are stored, one entry per half-edge: ``twin[h]``,
the opposite half-edge in the neighbouring face, and ``edge[h]``, the
undirected edge ``h`` runs along. Edges are numbered by their ``u < v``
half-edges in corner order; ``edges[e]`` is ``(u, v)`` and
``edge_faces[e]`` the faces of that half-edge and of its twin.
``twin[prev(h)]`` is the next half-edge out of the same vertex, so one-rings
are walks around a vertex (:meth:`Mesh.around`).

Each face corner is exactly one wedge of its vertex's one-ring (for quads
the wedge spans the two face edges at the corner, not the diagonal), so
wedge count equals valence for both arities, and per-vertex sums over
wedges are sums over corners. The naive vertex normal is the angle-weighted
average of the wedge normals.

File formats: a small OBJ subset (``v``, ``vn``, ``f`` with ``v``, ``v/t``,
``v//n`` and ``v/t/n`` references, 1-based or negative relative indices,
one normal per vertex) and PLY export with optional per-vertex colors.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from .errors import (
    DegenerateCornerError,
    MeshParseError,
    MixedFaceArityError,
    NonManifoldError,
    OpenBoundaryError,
    VanishingNormalError,
)
from .geom import _COINCIDENT, _CROSS, _UNIT_NORM

__all__ = ["Mesh", "load_obj", "save_obj", "save_ply", "naive_normals"]

# a stored normal may be off unit length by this much before it is rejected
_NORMAL_SLACK = 1e-6


class Mesh:
    """Indexed closed 2-manifold mesh, all triangles or all quads."""

    __slots__ = ("vertices", "normals", "faces", "edges", "edge_faces", "twin", "edge")

    def __init__(self, vertices, faces, normals=None):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must have shape (n, 3), got {verts.shape}")
        if not np.isfinite(verts).all():
            raise ValueError("vertex coordinates must be finite")
        try:
            face_arr = np.array(faces, dtype=np.int64)
        except (ValueError, TypeError):
            raise MixedFaceArityError("faces must all have the same number of vertices") from None
        if face_arr.ndim != 2 or face_arr.shape[1] not in (3, 4):
            raise MixedFaceArityError(
                f"faces must be uniformly triangles or quads, got shape {face_arr.shape}"
            )
        if face_arr.size and (face_arr.min() < 0 or face_arr.max() >= len(verts)):
            raise ValueError("face index out of range")

        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", face_arr)
        object.__setattr__(self, "normals", self._checked_normals(normals, len(verts)))
        self._build_half_edges()
        verts.setflags(write=False)
        face_arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Mesh is immutable")

    @staticmethod
    def _checked_normals(normals, n_vertices) -> Optional[np.ndarray]:
        """Read-only normals; rows off unit length by more than ``unit_norm`` are rescaled."""
        if normals is None:
            return None
        arr = np.array(normals, dtype=float)
        if arr.shape != (n_vertices, 3):
            raise ValueError(f"normals must have shape ({n_vertices}, 3), got {arr.shape}")
        lengths = np.linalg.norm(arr, axis=1)
        if not np.isfinite(lengths).all() or np.abs(lengths - 1.0).max() > _NORMAL_SLACK:
            raise ValueError("normals must be unit length (within 1e-6)")
        off = np.abs(lengths - 1.0) > _UNIT_NORM
        arr[off] /= lengths[off, None]
        arr.setflags(write=False)
        return arr

    def _build_half_edges(self):
        """Validate the topology and store ``twin``, ``edge``, ``edges`` and ``edge_faces``.

        Each error names the first face, half-edge or vertex at fault. Faces
        are checked first (a repeated vertex, a directed edge used twice),
        then twins, then vertices (in no face, more than one face fan).
        """
        n_verts = len(self.vertices)
        faces = self.faces
        arity = faces.shape[1]
        origin = faces.reshape(-1)
        h = np.arange(len(origin))
        dest = origin[self.next_half(h)]

        sorted_corners = np.sort(faces, axis=1)
        repeats = np.flatnonzero((sorted_corners[:, 1:] == sorted_corners[:, :-1]).any(axis=1))
        key = origin * n_verts + dest
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        dup = np.flatnonzero(key_sorted[1:] == key_sorted[:-1])
        g = order[dup + 1].min(initial=len(h))  # first half-edge repeating an earlier one
        if repeats.min(initial=len(faces) + 1) <= g // arity:
            raise NonManifoldError(f"face {repeats[0]} repeats a vertex")
        if len(dup):
            first = order[np.searchsorted(key_sorted, key[g])]
            raise NonManifoldError(
                f"directed edge ({origin[g]}, {dest[g]}) appears in faces "
                f"{first // arity} and {g // arity}"
            )

        pos = np.minimum(np.searchsorted(key_sorted, dest * n_verts + origin), len(h) - 1)
        open_halves = np.flatnonzero(key_sorted[pos] != dest * n_verts + origin)
        if len(open_halves):
            g = open_halves[0]
            raise OpenBoundaryError(f"edge ({origin[g]}, {dest[g]}) has only one incident face")
        twin = order[pos]

        valence = np.bincount(origin, minlength=n_verts)
        # label every half-edge with the smallest half-edge of its fan by
        # pointer doubling over the rotation around its origin
        label, step = h, twin[self.prev_half(h)]
        span = 1
        while span < valence.max(initial=0):
            label = np.minimum(label, label[step])
            step = step[step]
            span *= 2
        fans = np.bincount(origin[label == h], minlength=n_verts)
        p = np.flatnonzero(fans != 1).min(initial=n_verts)
        if p < n_verts:
            fault = "belongs to no face" if valence[p] == 0 else "has more than one face fan"
            raise NonManifoldError(f"vertex {p} {fault}")

        for name, arr in _half_edge_arrays(faces, twin, dest).items():
            object.__setattr__(self, name, arr)

    # -- the 1-to-4 split ------------------------------------------------------

    def _split_faces(self) -> np.ndarray:
        """The faces of the 1-to-4 split, numbering new points as the stencil rows do.

        Points are numbered vertices first, then the point of every edge
        (``edges`` order), then for quads the point of every face. Piece
        ``s`` of face ``f`` is child face ``4 f + s``. Triangle ``(a, b, c)``
        with edge points ``ab, bc, ca`` becomes ``(a, ab, ca), (b, bc, ab),
        (c, ca, bc), (ab, bc, ca)``. Quad corner ``c_j`` becomes ``(c_j, e_j,
        center, e_{j-1})``, where ``e_j`` is the point of the edge from
        ``c_j`` to ``c_{j+1}``.
        """
        cols = [self.faces, self.vertex_count + self.edge.reshape(self.faces.shape)]
        if self.arity == 3:
            pattern = [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]
        else:
            cols.append(self.vertex_count + self.edge_count + np.arange(self.face_count)[:, None])
            pattern = [[0, 4, 8, 7], [1, 5, 8, 4], [2, 6, 8, 5], [3, 7, 8, 6]]
        return np.concatenate(cols, axis=1)[:, pattern].reshape(-1, self.arity)

    def _split_topology(self) -> dict:
        """Faces and half-edge arrays of the 1-to-4 split, read-only, by slot name.

        The split of a valid closed manifold is one, so nothing is validated:
        the faces are :meth:`_split_faces` and the twins follow from this
        mesh's by index arithmetic (:meth:`_split_twins`). The arrays depend
        on the faces only; :meth:`_on_topology` puts vertices on them.
        """
        faces = self._split_faces()
        return _half_edge_arrays(faces, self._split_twins(), np.roll(faces, -1, axis=1).reshape(-1))

    @staticmethod
    def _on_topology(topology: dict, vertices, normals=None) -> "Mesh":
        """The mesh with ``vertices`` and optional ``normals`` on ``topology``
        (:meth:`_split_topology` of its parent), which it shares.

        The topology is not validated again. Vertices must still be finite,
        and normals unit length.
        """
        verts = np.asarray(vertices, dtype=float)
        if not np.isfinite(verts).all():
            raise ValueError("vertex coordinates must be finite")
        child = object.__new__(Mesh)
        object.__setattr__(child, "vertices", verts)
        object.__setattr__(child, "normals", Mesh._checked_normals(normals, len(verts)))
        for name, arr in topology.items():
            object.__setattr__(child, name, arr)
        verts.setflags(write=False)
        return child

    def _split_twins(self) -> np.ndarray:
        """``twin`` of :meth:`_split_faces`, from this mesh's ``twin``.

        Child half-edge ``jj`` of piece ``s`` of face ``f`` is numbered
        ``4 a f + a s + jj``. Piece ``j`` starts with the first half of the
        parent half-edge ``(f, j)`` and ends with the second half of
        ``(f, j - 1)``; with ``(f', j')`` the twin of ``(f, j)``:

        * exterior: ``(f, j, 0)`` and ``(f', (j' + 1) % a, a - 1)``;
        * interior, triangles: ``(f, j, 1)`` and ``(f, 3, (j - 1) % 3)``;
        * interior, quads: ``(f, j, 1)`` and ``(f, (j + 1) % 4, 2)``.
        """
        a = self.arity
        n = self.face_count
        twin_face, twin_corner = np.divmod(self.twin.reshape(n, a), a)
        base = 4 * a * np.arange(n)[:, None]
        twin = np.empty((n, 4, a), dtype=np.int64)
        twin[:, :a, 0] = 4 * a * twin_face + a * ((twin_corner + 1) % a) + a - 1
        twin[:, :a, a - 1] = np.roll(a * (4 * twin_face + twin_corner), 1, axis=1)
        if a == 3:
            twin[:, :3, 1] = base + [11, 9, 10]
            twin[:, 3] = base + [4, 7, 1]
        else:
            twin[:, :, 1] = base + [6, 10, 14, 2]
            twin[:, :, 2] = base + [13, 1, 5, 9]
        return twin.reshape(-1)

    # -- half-edge arithmetic ---------------------------------------------------

    @property
    def origin(self) -> np.ndarray:
        """Origin vertex of every half-edge (a view of ``faces``)."""
        return self.faces.reshape(-1)

    def next_half(self, h):
        """The half-edge after ``h`` in its face."""
        a = self.arity
        return h - h % a + (h + 1) % a

    def prev_half(self, h):
        """The half-edge before ``h`` in its face."""
        a = self.arity
        return h - h % a + (h - 1) % a

    def dest(self, h):
        """Destination vertex of half-edge ``h``."""
        return self.origin[self.next_half(h)]

    def around(self, h):
        """The half-edge out of ``h``'s origin that follows ``h`` in the one-ring."""
        return self.twin[self.prev_half(h)]

    def edge_halves(self) -> np.ndarray:
        """The ``u < v`` half-edge of every edge, aligned with ``edges``."""
        return np.flatnonzero(self.origin < self.dest(np.arange(len(self.origin))))

    # -- queries ------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def arity(self) -> int:
        """3 for triangle meshes, 4 for quad meshes."""
        return self.faces.shape[1]

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def with_normals(self, normals) -> "Mesh":
        """Copy of this mesh with ``normals`` attached; adjacency is shared."""
        checked = self._checked_normals(normals, self.vertex_count)
        other = object.__new__(Mesh)
        for slot in Mesh.__slots__:
            object.__setattr__(other, slot, getattr(self, slot))
        object.__setattr__(other, "normals", checked)
        return other


def _half_edge_arrays(faces: np.ndarray, twin: np.ndarray, dest: np.ndarray) -> dict:
    """``faces``, ``twin``, and the edges numbered by their ``u < v`` half-edges
    in corner order (``edge``, ``edges``, ``edge_faces``), read-only, by slot name.
    """
    origin = faces.reshape(-1)
    arity = faces.shape[1]
    halves = np.flatnonzero(origin < dest)
    edge = np.empty(len(origin), dtype=np.int64)
    edge[halves] = np.arange(len(halves))
    edge[twin[halves]] = np.arange(len(halves))
    edges = np.stack([origin[halves], dest[halves]], axis=1)
    edge_faces = np.stack([halves // arity, twin[halves] // arity], axis=1)
    stored = {"faces": faces, "twin": twin, "edge": edge, "edges": edges, "edge_faces": edge_faces}
    for arr in stored.values():
        arr.setflags(write=False)
    return stored


# ---------------------------------------------------------------------------
# naive normals
# ---------------------------------------------------------------------------

def _unit_scaled(vertices: np.ndarray) -> tuple[np.ndarray, int]:
    """``vertices`` times ``2**-e`` and ``e``, with the largest |coordinate| scaled into [0.5, 1).

    A power-of-two scaling is exact, so ratios and angles computed from the
    scaled coordinates are the same floats, while products of coordinates
    no longer overflow or underflow at extreme scales.
    """
    e = int(np.frexp(np.abs(vertices).max(initial=0.0))[1])
    return np.ldexp(vertices, -e), e


def _corner_wedges(mesh: Mesh):
    """Per corner: the cross product of the edges to the next and the previous
    corner, its norm, the product of the two edge lengths, and the wedge angle.

    Lengths are in units of ``2**e`` for the returned ``e`` (see
    :func:`_unit_scaled`); the angles do not depend on it.
    """
    verts, scale = _unit_scaled(mesh.vertices)
    e = (verts[np.roll(mesh.faces, -1, axis=1)] - verts[mesh.faces]).reshape(-1, 3)
    e_next = (verts[np.roll(mesh.faces, 1, axis=1)] - verts[mesh.faces]).reshape(-1, 3)
    cross = np.cross(e, e_next)
    cross_norms = np.linalg.norm(cross, axis=1)
    extent = np.linalg.norm(e, axis=1) * np.linalg.norm(e_next, axis=1)
    gammas = np.arctan2(cross_norms, np.einsum("ij,ij->i", e, e_next))
    return cross, cross_norms, extent, gammas, scale


def naive_normals(mesh: Mesh) -> np.ndarray:
    """Angle-weighted wedge normals at every vertex, shape ``(n, 3)``.

    At a vertex ``p``, each wedge (face corner at ``p``, spanned by the edge
    vectors ``e`` to the next and ``e'`` to the previous corner) contributes
    the unit normal of ``e x e'`` weighted by the wedge angle at ``p``; the
    weighted sum is normalized. For an outward-oriented mesh the result
    points outward. Rotation-equivariant by construction. Raises for the
    lowest-numbered vertex with a collinear wedge or cancelling wedge normals.
    """
    n = mesh.vertex_count
    corner = mesh.origin
    cross, cross_norms, extent, gammas, _ = _corner_wedges(mesh)
    collinear = cross_norms <= _CROSS * extent
    weights = gammas / np.bincount(corner, gammas, n)[corner]
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = weights[:, None] * (cross / cross_norms[:, None])
    a = np.stack([np.bincount(corner, unit[:, i], n) for i in range(3)], axis=1)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    p_collinear = corner[collinear].min(initial=n)
    p_cancel = np.flatnonzero(norms <= _COINCIDENT).min(initial=n)
    if p_collinear < n and p_collinear <= p_cancel:
        raise DegenerateCornerError(f"collinear wedge at vertex {p_collinear}")
    if p_cancel < n:
        raise VanishingNormalError(f"wedge normals cancel at vertex {p_cancel}")
    return a / norms[:, None]


# ---------------------------------------------------------------------------
# OBJ input / output
# ---------------------------------------------------------------------------

def _finite_triple(fields) -> tuple[float, float, float]:
    """The three numbers after an OBJ record's tag; ``nan`` and ``inf`` are refused."""
    x, y, z = float(fields[1]), float(fields[2]), float(fields[3])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("non-finite coordinate")
    return x, y, z


def _resolve_index(index: int, count: int, what: str, lineno: int) -> int:
    """0-based position of an OBJ reference: 1-based, or negative counting back from ``count``."""
    resolved = index - 1 if index > 0 else count + index
    if index == 0 or not 0 <= resolved < count:
        raise MeshParseError(f"{what} index {index} out of range", lineno)
    return resolved


def load_obj(path) -> Mesh:
    """Read a mesh from an OBJ file.

    Supports ``v x y z``, ``vn x y z`` and ``f`` records whose vertex
    references may be ``i``, ``i/t``, ``i//n`` or ``i/t/n`` (texture indices
    are ignored). Indices are 1-based; a negative index ``-i`` is relative and
    names the ``i``-th last ``v`` or ``vn`` record read so far. When normal
    references are present, every reference of a vertex must name the same
    normal, which becomes the vertex normal; normals may be off unit length
    by at most 1e-6 and are renormalized. Raises :class:`MeshParseError` with
    the offending line number for malformed input and the topology errors of
    :class:`Mesh` for bad connectivity.
    """
    verts: list[tuple[float, float, float]] = []
    vns: list[tuple[float, float, float]] = []
    faces: list[list[int]] = []
    vertex_normal: dict[int, int] = {}
    saw_normal_ref = False

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            tag = fields[0]
            if tag == "v":
                if len(fields) != 4:
                    raise MeshParseError("'v' record needs exactly 3 coordinates", lineno)
                try:
                    verts.append(_finite_triple(fields))
                except ValueError:
                    raise MeshParseError("bad vertex coordinate", lineno) from None
            elif tag == "vn":
                if len(fields) != 4:
                    raise MeshParseError("'vn' record needs exactly 3 coordinates", lineno)
                try:
                    vns.append(_finite_triple(fields))
                except ValueError:
                    raise MeshParseError("bad normal coordinate", lineno) from None
            elif tag == "f":
                refs = fields[1:]
                if len(refs) < 3:
                    raise MeshParseError("face needs at least 3 vertices", lineno)
                face = []
                for ref in refs:
                    parts = ref.split("/")
                    if len(parts) > 3 or parts[0] == "":
                        raise MeshParseError(f"bad face reference {ref!r}", lineno)
                    try:
                        vi = int(parts[0])
                    except ValueError:
                        raise MeshParseError(f"bad face reference {ref!r}", lineno) from None
                    vi = _resolve_index(vi, len(verts), "vertex", lineno)
                    if len(parts) == 3 and parts[2] != "":
                        try:
                            ni = int(parts[2])
                        except ValueError:
                            raise MeshParseError(f"bad face reference {ref!r}", lineno) from None
                        ni = _resolve_index(ni, len(vns), "normal", lineno)
                        saw_normal_ref = True
                        prev = vertex_normal.setdefault(vi, ni)
                        if prev != ni and vns[prev] != vns[ni]:
                            raise MeshParseError(
                                f"vertex {vi + 1} references two different normals", lineno
                            )
                    face.append(vi)
                faces.append(face)
            # other records (vt, o, g, s, usemtl, mtllib, ...) are ignored

    if not faces:
        raise MeshParseError("no faces found", 0)

    arities = {len(f) for f in faces}
    if len(arities) > 1:
        raise MixedFaceArityError(f"mixed face arities {sorted(arities)}")

    normals = None
    if saw_normal_ref:
        if len(vertex_normal) != len(verts):
            missing = len(verts) - len(vertex_normal)
            raise MeshParseError(f"{missing} vertices have no normal reference", 0)
        normals = np.array([vns[vertex_normal[i]] for i in range(len(verts))])
        lengths = np.linalg.norm(normals, axis=1)
        if np.abs(lengths - 1.0).max() > _NORMAL_SLACK:
            raise MeshParseError("normal deviates from unit length by more than 1e-6", 0)

    return Mesh(verts, faces, normals=normals)


def _atomic_write(path, data: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _records(fmt: str, rows: np.ndarray) -> str:
    """``fmt`` applied to every row of ``rows``, with one ``%`` over the whole array.

    ``%.9g`` formats a float with the same routine as ``{:.9g}``, and ``%d``
    a Python int as ``{}`` does.
    """
    return (fmt * len(rows)) % tuple(rows.ravel().tolist())


def save_obj(mesh: Mesh, path) -> None:
    """Write ``mesh`` as an OBJ file (9 significant digits, atomic replace).

    Normals, when present, are written as ``vn`` records parallel to the
    vertex list and referenced as ``f v//vn``; a save/load round trip
    preserves the mesh to better than 1e-9 relative.
    """
    blocks = [_records("v %.9g %.9g %.9g\n", mesh.vertices)]
    faces = mesh.faces + 1
    if mesh.normals is not None:
        blocks.append(_records("vn %.9g %.9g %.9g\n", mesh.normals))
        blocks.append(_records("f" + " %d//%d" * mesh.arity + "\n", np.repeat(faces, 2, axis=1)))
    else:
        blocks.append(_records("f" + " %d" * mesh.arity + "\n", faces))
    _atomic_write(path, "".join(blocks).encode("utf-8"))


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------

def save_ply(mesh: Mesh, path, colors=None, binary: bool = False) -> None:
    """Write ``mesh`` as a PLY file, optionally with per-vertex RGB colors.

    ``colors`` is an ``(n, 3)`` uint8 array. ``binary`` selects binary
    little-endian output instead of ASCII.
    """
    n = mesh.vertex_count
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != (n, 3):
            raise ValueError(f"colors must have shape ({n}, 3)")
        colors = colors.astype(np.uint8)

    fmt = "binary_little_endian" if binary else "ascii"
    header = ["ply", f"format {fmt} 1.0", f"element vertex {n}"]
    header += ["property float x", "property float y", "property float z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [
        f"element face {mesh.face_count}",
        "property list uchar int vertex_indices",
        "end_header",
    ]

    if binary:
        vertex_fields = [("xyz", "<f4", 3)] + ([("rgb", "u1", 3)] if colors is not None else [])
        vertex_rows = np.empty(n, dtype=vertex_fields)
        vertex_rows["xyz"] = mesh.vertices
        if colors is not None:
            vertex_rows["rgb"] = colors
        face_rows = np.empty(mesh.face_count, dtype=[("k", "u1"), ("corners", "<i4", mesh.arity)])
        face_rows["k"] = mesh.arity
        face_rows["corners"] = mesh.faces
        body = vertex_rows.tobytes() + face_rows.tobytes()
        data = ("\n".join(header) + "\n").encode("ascii") + body
    else:
        vertex = "%.9g %.9g %.9g\n"
        rows = mesh.vertices
        if colors is not None:
            vertex = "%.9g %.9g %.9g %d %d %d\n"
            rows = np.empty((n, 6), dtype=object)  # floats and ints, as Python numbers
            rows[:, :3] = mesh.vertices
            rows[:, 3:] = colors
        face = f"{mesh.arity}" + " %d" * mesh.arity + "\n"
        body = _records(vertex, rows) + _records(face, mesh.faces)
        data = ("\n".join(header) + "\n" + body).encode("ascii")
    _atomic_write(path, data)
