"""Closed-manifold meshes of uniform face arity with optional vertex normals.

A :class:`Mesh` is immutable after construction. Building one validates the
full topology contract: every face is a triangle or every face is a quad,
every edge has exactly two incident faces with opposite orientations, and
the faces around each vertex close into a single umbrella. The ordered
one-ring of every vertex and the two faces of every edge are precomputed, so
reads are cheap and safe to share across threads.

One-rings are ordered consistently with the face orientation: for an
outward-oriented mesh the ring runs counterclockwise seen from outside, and
``ring_faces[i]`` sits between ``ring_vertices[i]`` and
``ring_vertices[i + 1]``. Each face contributes exactly one wedge at each of
its corners (for quads the wedge spans the two face edges at the corner, not
the diagonal), so wedge count equals valence for both arities. The naive
vertex normal is the angle-weighted average of the wedge normals.

File formats: a small OBJ subset (``v``, ``vn``, ``f`` with ``v``, ``v/t``,
``v//n`` and ``v/t/n`` references, 1-based indices, one normal per vertex)
and PLY export with optional per-vertex colors.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateCornerError,
    MeshParseError,
    MixedFaceArityError,
    NonManifoldError,
    OpenBoundaryError,
    VanishingNormalError,
)
from .geom import get_tolerances

__all__ = ["Mesh", "load_obj", "save_obj", "save_ply", "naive_normals"]

# a stored normal may be off unit length by this much before it is rejected
_NORMAL_SLACK = 1e-6


class Mesh:
    """Indexed closed 2-manifold mesh, all triangles or all quads."""

    __slots__ = (
        "vertices",
        "normals",
        "faces",
        "edges",
        "edge_faces",
        "_edge_index",
        "_ring_vertices",
        "_ring_faces",
    )

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
        self._build_adjacency()
        verts.setflags(write=False)
        face_arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Mesh is immutable")

    @staticmethod
    def _checked_normals(normals, n_vertices) -> Optional[np.ndarray]:
        if normals is None:
            return None
        arr = np.array(normals, dtype=float)
        if arr.shape != (n_vertices, 3):
            raise ValueError(f"normals must have shape ({n_vertices}, 3), got {arr.shape}")
        lengths = np.linalg.norm(arr, axis=1)
        if not np.isfinite(lengths).all() or np.abs(lengths - 1.0).max() > _NORMAL_SLACK:
            raise ValueError("normals must be unit length (within 1e-6)")
        arr /= lengths[:, None]
        arr.setflags(write=False)
        return arr

    def _build_adjacency(self):
        n_verts = len(self.vertices)
        arity = self.faces.shape[1]

        directed = {}
        for fi, face in enumerate(self.faces):
            f = face.tolist()
            if len(set(f)) != arity:
                raise NonManifoldError(f"face {fi} repeats a vertex")
            for j in range(arity):
                key = (f[j], f[(j + 1) % arity])
                if key in directed:
                    raise NonManifoldError(
                        f"directed edge {key} appears in faces {directed[key]} and {fi}"
                    )
                directed[key] = fi

        edge_index = {}
        edges = []
        edge_faces = []
        for (u, v), fi in directed.items():
            if (v, u) not in directed:
                raise OpenBoundaryError(f"edge ({u}, {v}) has only one incident face")
            if u < v:
                edge_index[(u, v)] = len(edges)
                edges.append((u, v))
                edge_faces.append((fi, directed[(v, u)]))

        # wedge map per vertex: successor neighbor -> (face, predecessor neighbor)
        wedges = [dict() for _ in range(n_verts)]
        for fi, face in enumerate(self.faces):
            f = face.tolist()
            for j in range(arity):
                p = f[j]
                succ = f[(j + 1) % arity]
                pred = f[(j - 1) % arity]
                wedges[p][succ] = (fi, pred)

        ring_vertices = []
        ring_faces = []
        for p in range(n_verts):
            fan = wedges[p]
            if not fan:
                raise NonManifoldError(f"vertex {p} belongs to no face")
            start = min(fan)
            rv = [start]
            rf = []
            cur = start
            while True:
                fi, nxt = fan.pop(cur)
                rf.append(fi)
                if nxt == start:
                    break
                if nxt not in fan:
                    raise NonManifoldError(f"faces around vertex {p} do not close")
                rv.append(nxt)
                cur = nxt
            if fan:
                raise NonManifoldError(f"vertex {p} has more than one face fan")
            ring_vertices.append(np.array(rv, dtype=np.int64))
            ring_faces.append(np.array(rf, dtype=np.int64))

        edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        edge_face_arr = np.array(edge_faces, dtype=np.int64).reshape(-1, 2)
        edge_arr.setflags(write=False)
        edge_face_arr.setflags(write=False)
        object.__setattr__(self, "edges", edge_arr)
        object.__setattr__(self, "edge_faces", edge_face_arr)
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_ring_vertices", ring_vertices)
        object.__setattr__(self, "_ring_faces", ring_faces)

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

    def edge_id(self, u: int, v: int) -> int:
        """Index of the undirected edge between vertices ``u`` and ``v``."""
        key = (u, v) if u < v else (v, u)
        return self._edge_index[key]

    def ring(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Ordered one-ring of vertex ``v``: (neighbor vertices, wedge faces).

        Face ``i`` of the ring spans neighbors ``i`` and ``(i + 1) % k``.
        """
        return self._ring_vertices[v], self._ring_faces[v]

    def valence(self, v: int) -> int:
        return len(self._ring_vertices[v])

    def with_normals(self, normals) -> "Mesh":
        """Copy of this mesh with ``normals`` attached; adjacency is shared."""
        checked = self._checked_normals(normals, self.vertex_count)
        other = object.__new__(Mesh)
        for slot in Mesh.__slots__:
            object.__setattr__(other, slot, getattr(self, slot))
        object.__setattr__(other, "normals", checked)
        return other


# ---------------------------------------------------------------------------
# naive normals
# ---------------------------------------------------------------------------

def naive_normals(mesh: Mesh) -> np.ndarray:
    """Angle-weighted wedge normals at every vertex, shape ``(n, 3)``.

    At a vertex ``p`` with ordered ring ``v_0 .. v_{k-1}``, each wedge
    contributes the unit normal of ``(v_i - p) x (v_{i+1} - p)`` weighted by
    the wedge angle at ``p``; the weighted sum is normalized. For an
    outward-oriented mesh the result points outward. Rotation-equivariant by
    construction.
    """
    tol = get_tolerances()
    verts = mesh.vertices
    out = np.empty((mesh.vertex_count, 3))
    for p in range(mesh.vertex_count):
        ring, _ = mesh.ring(p)
        e = verts[ring] - verts[p]
        e_next = np.roll(e, -1, axis=0)
        crosses = np.cross(e, e_next)
        cross_norms = np.linalg.norm(crosses, axis=1)
        lens = np.linalg.norm(e, axis=1)
        floor = tol.cross * lens * np.roll(lens, -1)
        if (cross_norms <= floor).any():
            raise DegenerateCornerError(f"collinear wedge at vertex {p}")
        gammas = np.arctan2(cross_norms, np.einsum("ij,ij->i", e, e_next))
        weights = gammas / gammas.sum()
        a = (weights[:, None] * (crosses / cross_norms[:, None])).sum(axis=0)
        norm = math.sqrt(float(a @ a))
        if norm <= tol.coincident:
            raise VanishingNormalError(f"wedge normals cancel at vertex {p}")
        out[p] = a / norm
    return out


# ---------------------------------------------------------------------------
# OBJ input / output
# ---------------------------------------------------------------------------

def _finite_triple(fields) -> tuple[float, float, float]:
    """The three numbers after an OBJ record's tag; ``nan`` and ``inf`` are refused."""
    x, y, z = float(fields[1]), float(fields[2]), float(fields[3])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("non-finite coordinate")
    return x, y, z


def load_obj(path) -> Mesh:
    """Read a mesh from an OBJ file.

    Supports ``v x y z``, ``vn x y z`` and ``f`` records whose vertex
    references may be ``i``, ``i/t``, ``i//n`` or ``i/t/n`` (texture indices
    are ignored, indices are 1-based). When normal references are present,
    every reference of a vertex must name the same normal, which becomes the
    vertex normal; normals may be off unit length by at most 1e-6 and are
    renormalized. Raises :class:`MeshParseError` with the offending line
    number for malformed input and the topology errors of :class:`Mesh` for
    bad connectivity.
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
                    if vi < 1 or vi > len(verts):
                        raise MeshParseError(f"vertex index {vi} out of range", lineno)
                    vi -= 1
                    if len(parts) == 3 and parts[2] != "":
                        try:
                            ni = int(parts[2])
                        except ValueError:
                            raise MeshParseError(f"bad face reference {ref!r}", lineno) from None
                        if ni < 1 or ni > len(vns):
                            raise MeshParseError(f"normal index {ni} out of range", lineno)
                        saw_normal_ref = True
                        ni -= 1
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


def save_obj(mesh: Mesh, path) -> None:
    """Write ``mesh`` as an OBJ file (9 significant digits, atomic replace).

    Normals, when present, are written as ``vn`` records parallel to the
    vertex list and referenced as ``f v//vn``; a save/load round trip
    preserves the mesh to better than 1e-9 relative.
    """
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
    _atomic_write(path, "\n".join(lines).encode("utf-8"))


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
        body = bytearray()
        pts = mesh.vertices.astype("<f4")
        for i in range(n):
            body += pts[i].tobytes()
            if colors is not None:
                body += colors[i].tobytes()
        arity = np.uint8(mesh.arity).tobytes()
        for face in mesh.faces.astype("<i4"):
            body += arity + face.tobytes()
        data = ("\n".join(header) + "\n").encode("ascii") + bytes(body)
    else:
        lines = list(header)
        for i in range(n):
            x, y, z = mesh.vertices[i]
            row = f"{x:.9g} {y:.9g} {z:.9g}"
            if colors is not None:
                r, g, b = colors[i]
                row += f" {r} {g} {b}"
            lines.append(row)
        for face in mesh.faces:
            lines.append(f"{mesh.arity} " + " ".join(str(i) for i in face))
        lines.append("")
        data = "\n".join(lines).encode("ascii")
    _atomic_write(path, data)
