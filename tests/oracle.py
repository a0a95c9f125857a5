"""The scalar references the tests hold the library's array code to.

:func:`circle_avg_3d`, :func:`circle_avg_2d` and :func:`geodesic_avg` are
the circle average and its steps written one pair at a time on Python
floats. The library writes each step once, as a row kernel over arrays of
components (``pnpsubdiv.geom._angle_rows``, ``_slerp_rows``,
``_arc_point_rows`` and ``pnpsubdiv.circle3d._circle_avg_rows``), and its
public averages are one-row calls of those kernels. The tests require the
same floats and the same errors from both. Angles are taken with
:func:`_atan2`, the library's fdlibm ``atan2`` on floats, so that agreement
does not rest on the host's ``atan2``.

A :class:`Stencil` is one affine combination, :func:`compile_plan` turns it
into its chain of weighted binary averages and :func:`evaluate_plan` folds
that chain with any binary average: :func:`affine_average` gives the
classical scheme, :func:`circle_avg_3d` the modified one. The library folds
a whole level at once from a CSR :class:`~pnpsubdiv.stencil.StencilTable`
(:func:`~pnpsubdiv.stencil.compile_table` and ``schemes._circle_fold``);
these functions do the same one stencil and one average at a time, in the
term order described in :mod:`pnpsubdiv.stencil`, and the tests require the
same floats and errors.

:func:`chord_point` and :func:`helix_trace` are the straight-chord and
swept-weight views of the library's circle average that the circle-average
tests use, :func:`z_dir` the direction the 3D average projects along, and
:func:`deviation_from_chord` the closed-form distance between the averaged
point and the chord point, an analytic check of the construction. Each of
the last two raises an error class of its own, defined here:
:class:`DegenerateCrossError` and :class:`ParallelNormalsError`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

import pnpsubdiv
from pnpsubdiv import Plane, Pnp, angle_between
from pnpsubdiv.errors import (
    AffineWeightError,
    AntipodalNormalsError,
    NotInCarrierError,
    NumericDegeneracyError,
    StencilError,
)
from pnpsubdiv.geom import (
    _ANTIPODAL,
    _ATAN_BIG,
    _ATAN_EDGES,
    _ATAN_HI,
    _ATAN_LO,
    _ATAN_P,
    _ATAN_Q,
    _ATAN_T,
    _CARRIER,
    _CROSS,
    _PI_LO,
    _THETA_LINEAR,
)
from pnpsubdiv.stencil import _SUM_TOL, StencilTable


# ---------------------------------------------------------------------------
# the circle average, one pair at a time on floats
# ---------------------------------------------------------------------------

def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _atan2(y, x):
    """``pnpsubdiv.geom._atan2_rows`` for one pair of floats with ``y >= 0``.

    fdlibm's ``atan2`` with the library's constants and the same operations
    in the same order, on Python floats: the same bits as the row kernel.
    """
    if y == 0.0 and x == 0.0:
        return math.pi if math.copysign(1.0, x) < 0.0 else 0.0
    if math.isinf(y) and math.isinf(x):
        t = 1.0
    else:
        t = y / abs(x) if x != 0.0 else y * math.inf
    if t > _ATAN_BIG:
        t = _ATAN_BIG
    k = bisect.bisect_right(_ATAN_EDGES, t)
    p, q = _ATAN_P[k], _ATAN_Q[k]
    a = (p * t - q) / (p + q * t)
    z = a * a
    w = z * z
    T = _ATAN_T
    s1 = z * (T[0] + w * (T[2] + w * (T[4] + w * (T[6] + w * (T[8] + w * T[10])))))
    s2 = w * (T[1] + w * (T[3] + w * (T[5] + w * (T[7] + w * T[9]))))
    r = _ATAN_HI[k] - ((a * (s1 + s2) - _ATAN_LO[k]) - a)
    return math.pi - (r - _PI_LO) if x < 0.0 else r


def _angle(a, b):
    """Angle in [0, pi] between two nonzero vectors, accurate for tiny angles."""
    return _atan2(_norm(_cross(a, b)), _dot(a, b))


def _as_triple(v, what="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{what} must have shape (3,), got {a.shape}")
    return a[0], a[1], a[2]


def _slerp(n0, n1, w, theta):
    """Rotate ``n0`` by ``w * theta`` toward ``n1`` in their common plane.

    ``theta`` is the precomputed angle between the unit vectors, already
    checked to be below pi. Works for every real ``w``.
    """
    if w == 0.0:
        return n0
    if w == 1.0:
        return n1
    if theta < 1e-12:
        # parallel normals: any combination renormalizes back to n0
        x = (1.0 - w) * n0[0] + w * n1[0]
        y = (1.0 - w) * n0[1] + w * n1[1]
        z = (1.0 - w) * n0[2] + w * n1[2]
    else:
        s = math.sin(theta)
        a = math.sin((1.0 - w) * theta) / s
        b = math.sin(w * theta) / s
        x = a * n0[0] + b * n1[0]
        y = a * n0[1] + b * n1[1]
        z = a * n0[2] + b * n1[2]
    r = math.sqrt(x * x + y * y + z * z)
    return (x / r, y / r, z / r)


def _arc_point(p0, p1, w, theta, n0, n1, nz):
    """Point at arc fraction ``w`` on the auxiliary circle through p0 and p1.

    All arguments are float triples; ``nz`` is the unit normal of the carrier
    plane containing both points and both normals, and ``theta`` in (0, pi)
    is the angle between the normals. The arc bulges to the side that turns
    the radial direction the way ``n0`` rotates to ``n1``; a chord of length
    exactly zero returns ``p0``.
    """
    cx = p1[0] - p0[0]
    cy = p1[1] - p0[1]
    cz = p1[2] - p0[2]
    d = math.sqrt(cx * cx + cy * cy + cz * cz)
    if d == 0.0:
        return p0
    tx, ty, tz = cx / d, cy / d, cz / d
    # orientation carrying n0 to n1, as seen from the carrier normal
    orient = _dot(_cross(n0, n1), nz)
    s = 1.0 if orient > 0.0 else -1.0
    # bulge direction: rotate the chord direction by -90 deg in that orientation
    qx, qy, qz = _cross(nz, (tx, ty, tz))
    bx, by, bz = -s * qx, -s * qy, -s * qz
    sh = math.sin(0.5 * theta)
    along_b = d * math.sin(0.5 * w * theta) * math.sin(0.5 * (1.0 - w) * theta) / sh
    along_t = d * math.sin((w - 0.5) * theta) / (2.0 * sh)
    mx = 0.5 * (p0[0] + p1[0])
    my = 0.5 * (p0[1] + p1[1])
    mz = 0.5 * (p0[2] + p1[2])
    return (
        mx + along_b * bx + along_t * tx,
        my + along_b * by + along_t * ty,
        mz + along_b * bz + along_t * tz,
    )


def _avg_in_plane(p0, n0, p1, n1, w, nz, theta):
    """Shared planar core: returns (point triple, normal triple).

    Inputs are float triples lying in the plane with unit normal ``nz``
    (normals orthogonal to ``nz``); ``theta`` is the precomputed angle
    between the normals, below the antipodal threshold.
    """
    nm = _slerp(n0, n1, w, theta)
    if theta < _THETA_LINEAR:
        pt = (
            (1.0 - w) * p0[0] + w * p1[0],
            (1.0 - w) * p0[1] + w * p1[1],
            (1.0 - w) * p0[2] + w * p1[2],
        )
    else:
        pt = _arc_point(p0, p1, w, theta, n0, n1, nz)
    return pt, nm


def geodesic_avg(n0, n1, w: float) -> np.ndarray:
    """:func:`pnpsubdiv.geodesic_avg`, one pair at a time."""
    t0 = _as_triple(n0, "n0")
    t1 = _as_triple(n1, "n1")
    theta = _angle(t0, t1)
    if theta >= math.pi - _ANTIPODAL:
        raise AntipodalNormalsError("geodesic average undefined for antipodal normals")
    return np.array(_slerp(t0, t1, w, theta))


def circle_avg_2d(P0: Pnp, P1: Pnp, w: float, carrier: Plane) -> Pnp:
    """:func:`pnpsubdiv.circle_avg_2d`, one pair at a time."""
    nz = (carrier.normal[0], carrier.normal[1], carrier.normal[2])
    org = (carrier.origin[0], carrier.origin[1], carrier.origin[2])
    pairs = ((P0.point, P0.normal, "P0"), (P1.point, P1.normal, "P1"))
    for pt, nm, label in pairs:
        rel = (pt[0] - org[0], pt[1] - org[1], pt[2] - org[2])
        off = _dot(rel, nz)
        if abs(off) > _CARRIER * _norm(rel):
            raise NotInCarrierError(f"{label} point is {off:g} off the carrier plane")
        tilt = _dot((nm[0], nm[1], nm[2]), nz)
        if abs(tilt) > _CARRIER:
            raise NotInCarrierError(f"{label} normal tilts {tilt:g} out of the carrier plane")

    p0 = (P0.point[0], P0.point[1], P0.point[2])
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    p1 = (P1.point[0], P1.point[1], P1.point[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = _angle(n0, n1)
    if theta >= math.pi - _ANTIPODAL:
        raise AntipodalNormalsError("circle average undefined for antipodal normals")
    if w == 0.0:
        return P0
    if w == 1.0:
        return P1
    pt, nm = _avg_in_plane(p0, n0, p1, n1, w, nz, theta)
    return Pnp(pt, nm)


def circle_avg_3d(P0: Pnp, P1: Pnp, w: float) -> Pnp:
    """:func:`pnpsubdiv.circle_avg_3d`, one pair at a time.

    The pair ``P1`` is projected along ``z_dir(n0, n1)`` into the plane
    through ``p0``, averaged there by :func:`_avg_in_plane`, and the point is
    shifted back by ``w`` times the signed plane offset. Parallel normals
    take the straight chord.
    """
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = _angle(n0, n1)
    if theta >= math.pi - _ANTIPODAL:
        raise AntipodalNormalsError("circle average undefined for antipodal normals")
    if w == 0.0:
        return P0
    if w == 1.0:
        return P1
    p0 = (P0.point[0], P0.point[1], P0.point[2])
    p1 = (P1.point[0], P1.point[1], P1.point[2])
    if theta < _THETA_LINEAR:
        # z is numerically meaningless; take the straight-chord limit
        pt = (
            (1.0 - w) * p0[0] + w * p1[0],
            (1.0 - w) * p0[1] + w * p1[1],
            (1.0 - w) * p0[2] + w * p1[2],
        )
        return Pnp(pt, _slerp(n0, n1, w, theta))
    c = _cross(n0, n1)
    cn = _norm(c)
    zt = (c[0] / cn, c[1] / cn, c[2] / cn)
    h = _dot((p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]), zt)
    p1s = (p1[0] - h * zt[0], p1[1] - h * zt[1], p1[2] - h * zt[2])
    pt, nm = _avg_in_plane(p0, n0, p1s, n1, w, zt, theta)
    wh = w * h
    return Pnp((pt[0] + wh * zt[0], pt[1] + wh * zt[1], pt[2] + wh * zt[2]), nm)


# ---------------------------------------------------------------------------
# stencils and their chains of binary averages
# ---------------------------------------------------------------------------

class ZeroWeightError(StencilError):
    """A stencil contains a zero weight."""


@dataclass(frozen=True)
class Stencil:
    """An affine combination: ``terms`` maps element indices to weights.

    Weights must be nonzero, indices distinct and nonnegative, and the
    weights must sum to one within 1e-12.
    """

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise AffineWeightError("stencil must have at least one term")
        seen = set()
        total = 0.0
        for idx, weight in self.terms:
            if idx < 0:
                raise ValueError(f"negative element index {idx}")
            if idx in seen:
                raise ValueError(f"duplicate element index {idx}")
            seen.add(idx)
            if weight == 0.0:
                raise ZeroWeightError(f"zero weight at element {idx}")
            total += weight
        if not abs(total - 1.0) <= _SUM_TOL:  # also refuses a nan weight
            raise AffineWeightError(f"weights sum to {total!r}, expected 1")


def as_stencils(table: StencilTable) -> list[Stencil]:
    """Every row of ``table`` as a :class:`Stencil`."""
    return [
        Stencil(tuple(zip(table.index[s:e].tolist(), table.weight[s:e].tolist())))
        for s, e in zip(table.indptr[:-1], table.indptr[1:])
    ]


def as_table(stencils) -> StencilTable:
    """The StencilTable with ``stencils`` as its rows, bypassing :meth:`StencilTable.merged`."""
    terms = [t for st in stencils for t in sorted(st.terms)]
    return StencilTable(
        np.cumsum([0] + [len(st.terms) for st in stencils]),
        np.array([i for i, _ in terms], dtype=np.intp),
        np.array([w for _, w in terms], dtype=float),
    )


@dataclass(frozen=True)
class AvgPlan:
    """A stencil compiled to repeated binary averages.

    Evaluation starts from element ``first`` and folds ``steps`` left to
    right; each step averages the running value with element ``index`` using
    binary weight ``w`` (meaning ``(1 - w) * acc + w * element`` under the
    affine operator). A single-term stencil compiles to an empty plan and
    evaluates to the input element itself, which is what keeps interpolatory
    schemes exact on their original vertices.
    """

    first: int
    steps: tuple[tuple[int, float], ...]


def compile_plan(stencil: Stencil) -> AvgPlan:
    """Compile ``stencil`` into its canonical chain of binary averages.

    Positive-weight terms are consumed first, so every intermediate partial
    weight stays strictly positive; that is asserted during compilation.
    """
    pos = sorted((t for t in stencil.terms if t[1] > 0.0), key=lambda t: (-abs(t[1]), t[0]))
    neg = sorted((t for t in stencil.terms if t[1] < 0.0), key=lambda t: (-abs(t[1]), t[0]))
    if not pos:
        raise AffineWeightError("stencil has no positive weight")
    ordered = pos + neg
    first_idx, sigma = ordered[0]
    steps = []
    for idx, alpha in ordered[1:]:
        denom = sigma + alpha
        if denom <= 0.0:
            raise AffineWeightError(f"non-positive partial weight sum {denom!r}")
        steps.append((idx, alpha / denom))
        sigma = denom
    return AvgPlan(first=first_idx, steps=tuple(steps))


def evaluate_plan(plan: AvgPlan, elements: Sequence, binop: Callable) -> object:
    """Fold ``plan`` over ``elements`` with the binary average ``binop``.

    ``binop(a, b, w)`` must return the weighted average of ``a`` and ``b``.
    With :func:`affine_average` the result equals the direct weighted sum of
    the stencil; with the circle average it is the modified-scheme value.
    """
    acc = elements[plan.first]
    for idx, w in plan.steps:
        acc = binop(acc, elements[idx], w)
    return acc


def affine_average(a, b, w: float):
    """The plain weighted average ``(1 - w) * a + w * b``."""
    return (1.0 - w) * a + w * b


# ---------------------------------------------------------------------------
# views of the library's circle average
# ---------------------------------------------------------------------------

def chord_point(p0, p1, w: float) -> np.ndarray:
    """Affine average ``(1 - w) p0 + w p1``.

    This is the intersection of the segment ``[p0, p1]`` with the plane at
    offset fraction ``w`` between the two working planes, and the limit of
    the averaged point as the normals align.
    """
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)
    return (1.0 - w) * a + w * b


def helix_trace(P0: Pnp, P1: Pnp, samples: int) -> np.ndarray:
    """Points of the average at equally spaced weights from 0 to 1.

    Returns an array of shape ``(samples, 3)``; the first and last rows are
    exactly ``p0`` and ``p1``. In a generic configuration the points lie on
    a helix around ``z_dir(n0, n1)`` whose projection onto the working plane
    is the planar auxiliary arc.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    out = np.empty((samples, 3))
    last = samples - 1
    for i in range(samples):
        out[i] = pnpsubdiv.circle_avg_3d(P0, P1, i / last).point
    return out


# ---------------------------------------------------------------------------
# closed forms of the 3D circle average
# ---------------------------------------------------------------------------

class DegenerateCrossError(NumericDegeneracyError):
    """A cross product of (near-)parallel vectors has no usable direction."""


class ParallelNormalsError(NumericDegeneracyError):
    """Two normals coincide; the requested quantity exists only as a limit."""


def z_dir(u, v) -> np.ndarray:
    """Unit vector in the direction of ``u x v``.

    Raises :class:`DegenerateCrossError` when the cross product norm falls
    below ``cross * |u| * |v|``, i.e. when the inputs are parallel or one of
    them vanishes.
    """
    ut = _as_triple(u, "u")
    vt = _as_triple(v, "v")
    c = _cross(ut, vt)
    cn = _norm(c)
    if cn <= _CROSS * _norm(ut) * _norm(vt) or cn == 0.0:
        raise DegenerateCrossError("cross product direction undefined for (near-)parallel vectors")
    return np.array((c[0] / cn, c[1] / cn, c[2] / cn))


def deviation_from_chord(P0: Pnp, P1: Pnp, w: float) -> float:
    """Closed-form distance between the averaged point and the chord point.

    With ``g = |p1 - p0| sin(phi)`` the in-plane chord length, the squared
    distance follows from the cosine rule in the triangle spanned by the
    projected start point, the averaged point and the chord point::

        g^2 * [ (w - R)^2 + 4 w R sin^2(theta (1 - w) / 4) ],
        R = sin(theta w / 2) / sin(theta / 2)

    which matches ``|circle_avg_3d(P0, P1, w).point - ((1 - w) p0 + w p1)|``
    to rounding. Raises :class:`ParallelNormalsError` for ``theta = 0`` where
    the ratio ``R`` exists only as a limit, and
    :class:`AntipodalNormalsError` for opposite normals.
    """
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = angle_between(P0.normal, P1.normal)
    if theta < _THETA_LINEAR:
        raise ParallelNormalsError("deviation is defined only as a limit for parallel normals")
    if theta >= math.pi - _ANTIPODAL:
        raise AntipodalNormalsError("deviation undefined for antipodal normals")
    chord = (
        P1.point[0] - P0.point[0],
        P1.point[1] - P0.point[1],
        P1.point[2] - P0.point[2],
    )
    # phi, the angle between n0 x n1 and the chord, is 0 for a zero chord
    g = _norm(chord) * math.sin(angle_between(_cross(n0, n1), chord))
    r = math.sin(0.5 * w * theta) / math.sin(0.5 * theta)
    ssq = math.sin(0.25 * theta * (1.0 - w))
    dev2 = (w - r) ** 2 + 4.0 * w * r * ssq * ssq
    return g * math.sqrt(max(dev2, 0.0))
