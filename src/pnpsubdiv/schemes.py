"""Four classical subdivision schemes and their point-normal-pair variants.

Each scheme is expressed as a :class:`RefinementStep`: one affine stencil
over the input vertices per output vertex, plus the refined face list. The
same stencils drive both modes:

* ``linear``: the stencil sums are applied to the vertex positions (the
  classical scheme); naive normals of the refined mesh are attached for
  display.
* ``modified``: every stencil is compiled into a chain of weighted binary
  averages and evaluated with the 3D circle average, refining full
  point-normal pairs. A level is folded at once: step ``k`` of every chain
  is one array evaluation of the circle average, with the same floats as
  evaluating each chain on its own with :func:`~pnpsubdiv.circle3d.circle_avg_3d`.

Catalog (quad schemes require quad meshes, triangle schemes triangle
meshes):

* ``cc``  Catmull-Clark: face centroids, edge points ``(a + b + f1 + f2)/4``,
  vertex points ``(Q + 2R + (k - 3)P)/k``.
* ``lp``  Loop: edge points ``3/8 (a + b) + 1/8 (c + d)``, vertex points with
  the original Loop valence weight.
* ``by``  Butterfly (interpolatory): the eight-point template with weights
  ``1/2, 1/8, -1/16`` assembled from the actual neighborhood; on small or
  irregular neighborhoods coinciding template taps simply merge.
* ``k4``  Kobbelt four-point (interpolatory): univariate taps
  ``(-1/16, 9/16, 9/16, -1/16)`` along grid lines for edge points and their
  tensor product for face points; wherever a valence differs from four the
  rule degrades to the midpoint / centroid obtained by zeroing the negative
  taps.

Stencil generation and per-vertex evaluation are independent given the
input mesh, and results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle3d import _circle_avg_rows, circle_avg_3d
from .errors import AntipodalNormalsError, ArityMismatchError, MissingNormalsError
from .geom import Pnp, _invalid_pnp_rows
from .mesh import Mesh, naive_normals
from .stencil import Stencil, compile_plan, compile_table, evaluate_plan

__all__ = ["SchemeKind", "RefinementStep", "refinement_step", "refine_once", "refine"]

_ARITY = {"cc": 4, "lp": 3, "by": 3, "k4": 4}
_INTERPOLATORY = frozenset({"by", "k4"})


@dataclass(frozen=True)
class SchemeKind:
    """A scheme selection: base rule plus linear / modified mode."""

    base: str
    modified: bool = False

    def __post_init__(self):
        if self.base not in _ARITY:
            raise ValueError(f"unknown scheme {self.base!r}, expected one of {sorted(_ARITY)}")

    @property
    def arity(self) -> int:
        return _ARITY[self.base]

    @property
    def interpolatory(self) -> bool:
        return self.base in _INTERPOLATORY

    @property
    def name(self) -> str:
        return ("m" if self.modified else "") + self.base


@dataclass(frozen=True)
class RefinementStep:
    """One topological refinement: per-output-vertex stencils and new faces."""

    stencils: tuple[Stencil, ...]
    faces: np.ndarray


# ---------------------------------------------------------------------------
# shared topology helpers
# ---------------------------------------------------------------------------

def _opposite_vertex(mesh: Mesh, face_idx: int, a: int, b: int) -> int:
    """The triangle corner that is neither ``a`` nor ``b``."""
    for v in mesh.faces[face_idx]:
        if v != a and v != b:
            return int(v)
    raise AssertionError("degenerate triangle")


def _other_face(mesh: Mesh, edge_id: int, face_idx: int) -> int:
    fl, fr = mesh.edge_faces[edge_id]
    return int(fr) if fl == face_idx else int(fl)


def _split_tri_faces(mesh: Mesh, edge_base: int) -> np.ndarray:
    """1-to-4 triangle split; edge point ids start at ``edge_base``."""
    out = np.empty((4 * mesh.face_count, 3), dtype=np.int64)
    row = 0
    for face in mesh.faces:
        a, b, c = (int(v) for v in face)
        eab = edge_base + mesh.edge_id(a, b)
        ebc = edge_base + mesh.edge_id(b, c)
        eca = edge_base + mesh.edge_id(c, a)
        out[row] = (a, eab, eca)
        out[row + 1] = (b, ebc, eab)
        out[row + 2] = (c, eca, ebc)
        out[row + 3] = (eab, ebc, eca)
        row += 4
    return out


def _split_quad_faces(mesh: Mesh, edge_base: int, face_base: int) -> np.ndarray:
    """1-to-4 quad split around the new face point of every quad."""
    out = np.empty((4 * mesh.face_count, 4), dtype=np.int64)
    row = 0
    for fi, face in enumerate(mesh.faces):
        center = face_base + fi
        corners = [int(v) for v in face]
        eids = [
            edge_base + mesh.edge_id(corners[j], corners[(j + 1) % 4]) for j in range(4)
        ]
        for j in range(4):
            out[row] = (corners[j], eids[j], center, eids[j - 1])
            row += 1
    return out


# ---------------------------------------------------------------------------
# stencil catalogs
# ---------------------------------------------------------------------------

def _step_loop(mesh: Mesh) -> RefinementStep:
    v_count = mesh.vertex_count
    stencils = []
    for p in range(v_count):
        ring, _ = mesh.ring(p)
        k = len(ring)
        beta = (0.625 - (0.375 + 0.25 * math.cos(2.0 * math.pi / k)) ** 2) / k
        terms = [(p, 1.0 - k * beta)]
        terms += [(int(v), beta) for v in ring]
        stencils.append(Stencil.merged(terms))
    for eid in range(mesh.edge_count):
        a, b = (int(v) for v in mesh.edges[eid])
        fl, fr = mesh.edge_faces[eid]
        c = _opposite_vertex(mesh, int(fl), a, b)
        d = _opposite_vertex(mesh, int(fr), a, b)
        stencils.append(Stencil.merged([(a, 0.375), (b, 0.375), (c, 0.125), (d, 0.125)]))
    return RefinementStep(tuple(stencils), _split_tri_faces(mesh, v_count))


def _step_butterfly(mesh: Mesh) -> RefinementStep:
    v_count = mesh.vertex_count
    stencils = [Stencil(((p, 1.0),)) for p in range(v_count)]
    for eid in range(mesh.edge_count):
        a, b = (int(v) for v in mesh.edges[eid])
        fl, fr = (int(f) for f in mesh.edge_faces[eid])
        c = _opposite_vertex(mesh, fl, a, b)
        d = _opposite_vertex(mesh, fr, a, b)
        terms = [(a, 0.5), (b, 0.5), (c, 0.125), (d, 0.125)]
        for x, y, f in ((a, c, fl), (c, b, fl), (a, d, fr), (d, b, fr)):
            side = mesh.edge_id(x, y)
            wing_face = _other_face(mesh, side, f)
            terms.append((_opposite_vertex(mesh, wing_face, x, y), -0.0625))
        stencils.append(Stencil.merged(terms))
    return RefinementStep(tuple(stencils), _split_tri_faces(mesh, v_count))


def _step_cc(mesh: Mesh) -> RefinementStep:
    v_count = mesh.vertex_count
    e_count = mesh.edge_count
    stencils = []
    for p in range(v_count):
        ring, rfaces = mesh.ring(p)
        k = len(ring)
        # (Q + 2R + (k - 3) P) / k expanded over the one-ring
        terms = [(p, (k - 1.75) / k)]
        terms += [(int(v), 1.5 / (k * k)) for v in ring]
        for fi in rfaces:
            face = mesh.faces[fi]
            j = int(np.where(face == p)[0][0])
            terms.append((int(face[(j + 2) % 4]), 0.25 / (k * k)))
        stencils.append(Stencil.merged(terms))
    for eid in range(e_count):
        a, b = (int(v) for v in mesh.edges[eid])
        terms = [(a, 0.375), (b, 0.375)]
        for fi in mesh.edge_faces[eid]:
            for v in mesh.faces[fi]:
                v = int(v)
                if v != a and v != b:
                    terms.append((v, 0.0625))
        stencils.append(Stencil.merged(terms))
    for face in mesh.faces:
        stencils.append(Stencil.merged([(int(v), 0.25) for v in face]))
    return RefinementStep(tuple(stencils), _split_quad_faces(mesh, v_count, v_count + e_count))


def _k4_edge_terms(mesh: Mesh, eid: int):
    """Univariate four-point terms for an edge, or the midpoint fallback.

    Returns ``(terms, regular)``; regular edges extend to the opposite ring
    neighbors of both endpoints, which requires valence four at both ends.
    """
    a, b = (int(v) for v in mesh.edges[eid])
    ring_a, _ = mesh.ring(a)
    ring_b, _ = mesh.ring(b)
    if len(ring_a) == 4 and len(ring_b) == 4:
        ia = int(np.where(ring_a == b)[0][0])
        ib = int(np.where(ring_b == a)[0][0])
        xa = int(ring_a[(ia + 2) % 4])
        xb = int(ring_b[(ib + 2) % 4])
        return [(xa, -0.0625), (a, 0.5625), (b, 0.5625), (xb, -0.0625)], True
    return [(a, 0.5), (b, 0.5)], False


def _k4_outer_edge(mesh: Mesh, face_idx: int, u: int, v: int) -> int:
    """Edge id of the edge opposite to ``(u, v)`` in the face across it."""
    other = _other_face(mesh, mesh.edge_id(u, v), face_idx)
    face = [int(x) for x in mesh.faces[other]]
    for j in range(4):
        if {face[j], face[(j + 1) % 4]} == {u, v}:
            return mesh.edge_id(face[(j + 2) % 4], face[(j + 3) % 4])
    raise AssertionError("edge not found in its incident face")


def _step_k4(mesh: Mesh) -> RefinementStep:
    v_count = mesh.vertex_count
    e_count = mesh.edge_count
    stencils = [Stencil(((p, 1.0),)) for p in range(v_count)]
    edge_terms = []
    edge_regular = []
    for eid in range(e_count):
        terms, regular = _k4_edge_terms(mesh, eid)
        edge_terms.append(terms)
        edge_regular.append(regular)
        stencils.append(Stencil.merged(terms))
    for fi, face in enumerate(mesh.faces):
        c0, c1, c2, c3 = (int(v) for v in face)
        el = mesh.edge_id(c0, c3)
        er = mesh.edge_id(c1, c2)
        ell = _k4_outer_edge(mesh, fi, c0, c3)
        err = _k4_outer_edge(mesh, fi, c1, c2)
        if all(edge_regular[e] for e in (el, er, ell, err)):
            combo = []
            for e, coef in ((ell, -0.0625), (el, 0.5625), (er, 0.5625), (err, -0.0625)):
                combo += [(idx, coef * w) for idx, w in edge_terms[e]]
            stencils.append(Stencil.merged(combo))
        else:
            stencils.append(Stencil.merged([(c, 0.25) for c in (c0, c1, c2, c3)]))
    return RefinementStep(tuple(stencils), _split_quad_faces(mesh, v_count, v_count + e_count))


_STEPS = {"cc": _step_cc, "lp": _step_loop, "by": _step_butterfly, "k4": _step_k4}


def refinement_step(mesh: Mesh, base: str) -> RefinementStep:
    """Stencils and refined faces for one application of scheme ``base``."""
    if _ARITY[base] != mesh.arity:
        raise ArityMismatchError(
            f"scheme {base!r} refines arity-{_ARITY[base]} meshes, this mesh has arity {mesh.arity}"
        )
    return _STEPS[base](mesh)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _affine_positions(stencils, vertices) -> np.ndarray:
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


def _average_one(mesh: Mesh, stencils, i: int) -> Pnp:
    """Output vertex ``i`` by the scalar path: its plan folded with :func:`circle_avg_3d`."""
    st = stencils[i]
    pnps = {j: Pnp(mesh.vertices[j], mesh.normals[j]) for j, _ in st.terms}
    try:
        return evaluate_plan(compile_plan(st), pnps, circle_avg_3d)
    except AntipodalNormalsError as exc:
        raise AntipodalNormalsError(
            f"antipodal normals while averaging output vertex {i} "
            f"(stencil over {[t[0] for t in st.terms]}): {exc}"
        ) from exc


def _circle_fold(mesh: Mesh, stencils) -> tuple[np.ndarray, np.ndarray]:
    """Points and normals of every stencil, folded with the circle average.

    Step ``k`` of every plan is one call of the row-wise circle average.
    When rows fail, the lowest-numbered output vertex among them is
    evaluated again by the scalar path, which raises the error the scalar
    path would have raised first.
    """
    points = np.ascontiguousarray(mesh.vertices.T)
    normals = np.ascontiguousarray(mesh.normals.T)
    bad = np.flatnonzero(_invalid_pnp_rows(points, normals))
    if len(bad):
        Pnp(mesh.vertices[bad[0]], mesh.normals[bad[0]])  # raises the constructor's error
    table = compile_table(stencils)
    pts = points[:, table.first]
    nms = normals[:, table.first]
    failed = np.zeros(len(stencils), dtype=bool)
    for index, w in table.steps:
        m = len(index)
        pts[:, :m], nms[:, :m], step_failed = _circle_avg_rows(
            pts[:, :m], nms[:, :m], points[:, index], normals[:, index], w
        )
        failed[:m] |= step_failed
    if failed.any():
        i = int(table.rows[failed].min())
        _average_one(mesh, stencils, i)
        raise AssertionError(f"output vertex {i} failed the fold but not the scalar average")
    out_points = np.empty((len(stencils), 3))
    out_normals = np.empty((len(stencils), 3))
    out_points[table.rows] = pts.T
    out_normals[table.rows] = nms.T
    return out_points, out_normals


def refine_once(mesh: Mesh, scheme: SchemeKind) -> Mesh:
    """Apply one refinement step of ``scheme`` to ``mesh``.

    Linear mode refines positions only and attaches naive normals of the
    output mesh for display. Modified mode requires input normals and
    evaluates every stencil as a chain of circle averages, producing both
    refined points and refined normals.
    """
    step = refinement_step(mesh, scheme.base)
    if not scheme.modified:
        points = _affine_positions(step.stencils, mesh.vertices)
        out = Mesh(points, step.faces)
        return out.with_normals(naive_normals(out))

    if mesh.normals is None:
        raise MissingNormalsError("modified schemes refine point-normal pairs; attach normals")
    points, normals = _circle_fold(mesh, step.stencils)
    return Mesh(points, step.faces, normals=normals)


def refine(mesh: Mesh, scheme: SchemeKind, iters: int) -> Mesh:
    """Apply ``iters`` refinement steps (``iters = 0`` returns the input)."""
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    for _ in range(iters):
        mesh = refine_once(mesh, scheme)
    return mesh
