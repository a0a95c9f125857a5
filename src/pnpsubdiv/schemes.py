"""Four classical subdivision schemes and their point-normal-pair variants.

Each scheme is expressed as a :class:`RefinementStep`: one CSR table of
affine stencils over the input vertices, a row per output vertex, plus the
refined face list. The same table drives both modes:

* ``linear``: the stencil sums are applied to the vertex positions (the
  classical scheme), one ``np.bincount`` per coordinate. Naive normals of
  the returned mesh are attached for display; the levels in between get
  none, so a degenerate corner is reported only where it is on the
  returned mesh.
* ``modified``: every row is compiled into a chain of weighted binary
  averages and evaluated with the 3D circle average, refining full
  point-normal pairs. A level is folded at once: step ``k`` of every chain
  is one array evaluation of the circle average, with the same floats as
  the scalar reference in the test suite (``tests/oracle.py``), which
  folds one row at a time with its own scalar circle average.
  The array evaluation also flags the rows the scalar average rejects, so
  a failing level raises the scalar reference's error, naming the output
  vertex, the fold step, its input vertex and the cause, without running
  the scalar reference.

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

Stencils read only local topology: one-rings, the two faces of an edge and
the corners of a face. They are gathered for all output vertices at once
from the mesh's half-edge arrays (see :mod:`pnpsubdiv.mesh`), and results
are deterministic. The refined faces are the parent's 1-to-4 split
(:meth:`Mesh._split_faces`), and each refined level takes its half-edge
arrays from its parent's through that split (:meth:`Mesh._split_topology`);
it is not validated again.

A level's stencil table, refined topology and plans depend on the parent's
faces only, never on its vertices or normals. A :class:`Refiner` builds
them once per level and evaluates them on any number of vertex and normal
sets, which is how normals edit a fixed mesh; :func:`refine` walks the same
levels and keeps only the current one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

from .circle3d import _circle_avg_rows
from .errors import AntipodalNormalsError, ArityMismatchError, MissingNormalsError
from .geom import Pnp, _invalid_pnp_rows
from .mesh import Mesh, naive_normals
from .stencil import PlanTable, StencilTable, compile_table

__all__ = ["SchemeKind", "RefinementStep", "Refiner", "refinement_step", "refine"]

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
    """One topological refinement: the stencil table of the output vertices and
    the refined mesh's topology (:meth:`Mesh._split_topology`).

    Both depend on the parent's faces only, and so do the plans of the table,
    compiled the first time a modified evaluation needs them.
    """

    table: StencilTable
    topology: dict

    @property
    def faces(self) -> np.ndarray:
        return self.topology["faces"]

    @cached_property
    def plans(self) -> PlanTable:
        return compile_table(self.table)


# ---------------------------------------------------------------------------
# stencil catalogs
# ---------------------------------------------------------------------------
# Each catalog lists the terms of every output stencil as groups
# ``(rows, index, weight)``: one term ``(index[i], weight[i])`` of stencil
# ``rows[i]`` per entry, ``weight`` a scalar or an array. Output rows are the
# vertex points, then the edge points (``edges`` order), then for quads the
# face points. ``g`` is the ``u < v`` half-edge of each edge ``(u, v)``, lying
# in ``edge_faces[:, 0]``, and ``t`` its twin.

def _rows_and_halves(mesh: Mesh):
    """Rows of the vertex and edge points, each edge's ``u < v`` half-edge and its twin."""
    g = mesh.edge_halves()
    p = np.arange(mesh.vertex_count)
    return p, mesh.vertex_count + np.arange(mesh.edge_count), g, mesh.twin[g]


def _loop_terms(mesh: Mesh) -> list:
    p, e, g, t = _rows_and_halves(mesh)
    origin = mesh.origin
    valences, at = np.unique(np.bincount(origin, minlength=len(p)), return_inverse=True)
    beta = np.array(
        [(0.625 - (0.375 + 0.25 * math.cos(2.0 * math.pi / n)) ** 2) / n for n in valences.tolist()]
    )[at]
    return [
        (p, p, 1.0 - valences[at] * beta),
        (origin, mesh.dest(np.arange(len(origin))), beta[origin]),
        (e, mesh.edges[:, 0], 0.375),
        (e, mesh.edges[:, 1], 0.375),
        (e, origin[mesh.prev_half(g)], 0.125),
        (e, origin[mesh.prev_half(t)], 0.125),
    ]


def _butterfly_terms(mesh: Mesh) -> list:
    p, e, g, t = _rows_and_halves(mesh)
    origin = mesh.origin
    groups = [
        (p, p, 1.0),
        (e, mesh.edges[:, 0], 0.5),
        (e, mesh.edges[:, 1], 0.5),
        (e, origin[mesh.prev_half(g)], 0.125),
        (e, origin[mesh.prev_half(t)], 0.125),
    ]
    # the wings: opposite vertices across the sides (a, c), (c, b), (a, d), (d, b)
    for side in (mesh.prev_half(g), mesh.next_half(g), mesh.next_half(t), mesh.prev_half(t)):
        groups.append((e, origin[mesh.prev_half(mesh.twin[side])], -0.0625))
    return groups


def _cc_terms(mesh: Mesh) -> list:
    p, e, g, t = _rows_and_halves(mesh)
    h = np.arange(len(mesh.origin))
    origin = mesh.origin
    k = np.bincount(origin, minlength=len(p))
    # (Q + 2R + (k - 3) P) / k expanded over the one-ring and the face diagonals
    groups = [
        (p, p, (k - 1.75) / k),
        (origin, mesh.dest(h), (1.5 / (k * k))[origin]),
        (origin, origin[mesh.next_half(mesh.next_half(h))], (0.25 / (k * k))[origin]),
        (e, mesh.edges[:, 0], 0.375),
        (e, mesh.edges[:, 1], 0.375),
    ]
    for half in (g, t):
        groups.append((e, origin[mesh.next_half(mesh.next_half(half))], 0.0625))
        groups.append((e, origin[mesh.prev_half(half)], 0.0625))
    f = len(p) + len(e) + np.arange(mesh.face_count)
    return groups + [(f, mesh.faces[:, j], 0.25) for j in range(4)]


def _k4_terms(mesh: Mesh) -> list:
    """Kobbelt four-point: edge taps along grid lines, their tensor product on faces.

    An edge is regular when both ends have valence four; its outer taps are
    the ring neighbours opposite to it, two steps around each end. A face
    uses the tensor product when its two opposite edges ``(c3, c0)``,
    ``(c1, c2)`` and the edges parallel to them across those are regular.
    """
    p, e, g, t = _rows_and_halves(mesh)
    k = np.bincount(mesh.origin, minlength=len(p))
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    regular = (k[a] == 4) & (k[b] == 4)
    xa = mesh.dest(mesh.around(mesh.around(g)))
    xb = mesh.dest(mesh.around(mesh.around(t)))
    mid = np.where(regular, 0.5625, 0.5)
    groups = [
        (p, p, 1.0),
        (e[regular], xa[regular], -0.0625),
        (e, a, mid),
        (e, b, mid),
        (e[regular], xb[regular], -0.0625),
    ]

    face_h = 4 * np.arange(mesh.face_count)
    el = mesh.edge[face_h + 3]
    er = mesh.edge[face_h + 1]
    ell = mesh.edge[mesh.next_half(mesh.next_half(mesh.twin[face_h + 3]))]
    err = mesh.edge[mesh.next_half(mesh.next_half(mesh.twin[face_h + 1]))]
    tensor = regular[el] & regular[er] & regular[ell] & regular[err]
    f = len(p) + len(e) + np.arange(mesh.face_count)
    for edge_ids, coef in ((ell, -0.0625), (el, 0.5625), (er, 0.5625), (err, -0.0625)):
        at = edge_ids[tensor]
        for taps, w in ((xa, -0.0625), (a, 0.5625), (b, 0.5625), (xb, -0.0625)):
            groups.append((f[tensor], taps[at], coef * w))
    return groups + [(f[~tensor], mesh.faces[~tensor, j], 0.25) for j in range(4)]


_TERMS = {"cc": _cc_terms, "lp": _loop_terms, "by": _butterfly_terms, "k4": _k4_terms}


def _merged_table(count: int, groups) -> StencilTable:
    """The stencil table of rows ``0 .. count - 1``, repeats summed in the rule's order."""
    rows = np.concatenate([r for r, _, _ in groups])
    index = np.concatenate([i for _, i, _ in groups])
    weight = np.concatenate([np.broadcast_to(np.asarray(w, float), len(r)) for r, _, w in groups])
    return StencilTable.merged(count, rows, index, weight)


def refinement_step(mesh: Mesh, base: str) -> RefinementStep:
    """Stencils and refined faces for one application of scheme ``base``."""
    if _ARITY[base] != mesh.arity:
        raise ArityMismatchError(
            f"scheme {base!r} refines arity-{_ARITY[base]} meshes, this mesh has arity {mesh.arity}"
        )
    count = mesh.vertex_count + mesh.edge_count + (mesh.face_count if mesh.arity == 4 else 0)
    return RefinementStep(_merged_table(count, _TERMS[base](mesh)), mesh._split_topology())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _circle_fold(mesh: Mesh, table: StencilTable, plans: PlanTable) -> tuple[np.ndarray, np.ndarray]:
    """Points and normals of every row of ``table``, folded with the circle
    average along ``plans``, its :func:`compile_table`.

    Step ``k`` of every plan is one call of the row-wise circle average,
    whose masks give the fold step each plan first fails on and why. When
    plans fail, the error is the one the scalar path raises first: that of
    the lowest-numbered output vertex among them (see :func:`_raise_fold_error`).
    """
    points = np.ascontiguousarray(mesh.vertices.T)
    normals = np.ascontiguousarray(mesh.normals.T)
    bad = np.flatnonzero(_invalid_pnp_rows(points, normals))
    if len(bad):
        Pnp(mesh.vertices[bad[0]], mesh.normals[bad[0]])  # raises the constructor's error
    pts = points[:, plans.first]
    nms = normals[:, plans.first]
    failed_at = np.zeros(len(table), dtype=np.int64)  # fold step of each plan's first failure
    failures = {}  # fold step -> positions first failing there, their antipodal mask and results
    for k, (index, w) in enumerate(plans.steps, start=1):
        m = len(index)
        pts[:, :m], nms[:, :m], antipodal, invalid = _circle_avg_rows(
            pts[:, :m], nms[:, :m], points[:, index], normals[:, index], w
        )
        new = np.flatnonzero((antipodal | invalid) & (failed_at[:m] == 0))
        if len(new):
            failed_at[new] = k
            failures[k] = (new, antipodal[new], pts[:, new], nms[:, new])
    if failures:
        _raise_fold_error(table, plans, failed_at, failures)
    out_points = np.empty((len(table), 3))
    out_normals = np.empty((len(table), 3))
    out_points[plans.rows] = pts.T
    out_normals[plans.rows] = nms.T
    return out_points, out_normals


def _raise_fold_error(
    table: StencilTable, plans: PlanTable, failed_at: np.ndarray, failures: dict
) -> NoReturn:
    """Raise the error of the lowest-numbered output vertex whose plan failed.

    The scalar path folds the output vertices in order and stops at the
    first error, and its steps equal the fold's bit for bit, so it fails
    first on this vertex, at the same step and for the same cause. The
    message starts as the scalar path's does and then names the fold step,
    the input vertex averaged in at that step and the cause.
    """
    failed = np.flatnonzero(failed_at)
    r = failed[np.argmin(plans.rows[failed])]
    i, k = int(plans.rows[r]), int(failed_at[r])
    positions, antipodal, pts, nms = failures[k]
    at = int(np.searchsorted(positions, r))
    terms = table.index[table.indptr[i] : table.indptr[i + 1]].tolist()
    where = f"while averaging output vertex {i} (stencil over {terms})"
    step = f"fold step {k} averages in input vertex {int(plans.steps[k - 1][0][r])}"
    if antipodal[at]:
        raise AntipodalNormalsError(
            f"antipodal normals {where}: circle average undefined for antipodal normals; "
            f"{step}: its normal is opposite the running normal"
        )
    try:
        Pnp(pts[:, at], nms[:, at])  # the invalid mask holds the constructor's checks
    except ValueError as exc:
        raise ValueError(
            f"{exc} {where}; {step}: the average is not a finite point with a unit normal"
        ) from exc
    raise AssertionError(f"output vertex {i} failed the fold but Pnp accepts its average")


def _refined_level(mesh: Mesh, step: RefinementStep, modified: bool) -> Mesh:
    """``step`` evaluated on ``mesh``'s geometry; linear levels carry no normals."""
    table = step.table
    if not modified:
        # bincount adds each row's terms to 0.0 one at a time in table order:
        # the floats of a term-by-term sum
        terms = table.weight[:, None] * mesh.vertices[table.index]
        rows = np.repeat(np.arange(len(table)), np.diff(table.indptr))
        points = np.stack([np.bincount(rows, terms[:, c], len(table)) for c in range(3)], axis=1)
        return Mesh._on_topology(step.topology, points)
    if mesh.normals is None:
        raise MissingNormalsError("modified schemes refine point-normal pairs; attach normals")
    points, normals = _circle_fold(mesh, table, step.plans)
    return Mesh._on_topology(step.topology, points, normals)


def _walk(mesh: Mesh, iters: int, modified: bool, step_at) -> Mesh:
    """``iters`` levels of ``mesh``, level ``k``'s step being ``step_at(k, parent)``.

    In linear mode the returned mesh carries its naive normals.
    """
    for level in range(iters):
        mesh = _refined_level(mesh, step_at(level, mesh), modified)
    if iters and not modified:
        mesh = mesh.with_normals(naive_normals(mesh))
    return mesh


class Refiner:
    """``iters`` levels of scheme ``base`` on the topology of ``mesh``, built
    once and evaluated on any number of vertex and normal sets.

    Per level it keeps the :class:`RefinementStep`: the stencil table, the
    refined faces and half-edge arrays, and the plans once a modified
    evaluation has compiled them. They depend on the faces only. The first
    level is built from ``mesh``, so a wrong arity raises here; each deeper
    level the first time an evaluation reaches it, from that evaluation's
    parent level.
    """

    def __init__(self, mesh: Mesh, base: str, iters: int):
        if iters < 0:
            raise ValueError("iters must be nonnegative")
        self.base = SchemeKind(base).base
        self.iters = iters
        self._vertex_count = mesh.vertex_count
        self._faces = mesh.faces
        self._steps = [refinement_step(mesh, base)] if iters else []

    def evaluate(self, mesh: Mesh, modified: bool) -> Mesh:
        """``refine(mesh, SchemeKind(base, modified), iters)``, bit for bit,
        on the stored topology; ``mesh`` must have this refiner's vertex count
        and faces.
        """
        if mesh.vertex_count != self._vertex_count or not np.array_equal(mesh.faces, self._faces):
            raise ValueError(
                f"mesh has {mesh.vertex_count} vertices and {mesh.face_count} faces; this refiner "
                f"refines {self._vertex_count} vertices on its own {len(self._faces)} faces"
            )
        return _walk(mesh, self.iters, modified, self._step_at)

    def _step_at(self, level: int, parent: Mesh) -> RefinementStep:
        if level == len(self._steps):
            self._steps.append(refinement_step(parent, self.base))
        return self._steps[level]


def refine(mesh: Mesh, scheme: SchemeKind, iters: int) -> Mesh:
    """Apply ``iters`` refinement steps (``iters = 0`` returns the input).

    Linear mode refines positions only and attaches naive normals of the
    returned mesh for display; the levels in between carry none. Modified
    mode requires input normals and evaluates every stencil as a chain of
    circle averages, producing both refined points and refined normals.
    The levels are those of a :class:`Refiner`, each built from its parent
    and dropped once the next is refined.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    return _walk(mesh, iters, scheme.modified, lambda _, parent: refinement_step(parent, scheme.base))
