"""The 3D circle average of two point-normal pairs.

The construction reduces the 3D case to the planar one. Both normals are
orthogonal to ``z = z_dir(n0, n1)``, so the second pair is projected along
``z`` into the plane through ``p0`` with normal ``z``, averaged there with
:func:`~pnpsubdiv.geom.circle_avg_2d` semantics, and the resulting point is
then offset along ``z`` by the weighted plane distance. Sweeping the weight
traces a helix whose projection onto the working plane is the planar
auxiliary arc.

Also provided are the straight-chord quantities used as analytic oracles:
:func:`chord_point` (the affine average, which is where the averaged point
ends up in the limits of parallel normals or of a chord parallel /
antiparallel to ``z``) and :func:`deviation_from_chord` (the closed-form
distance between the averaged point and the chord point).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AntipodalNormalsError, ParallelNormalsError
from .geom import (
    Pnp,
    _angle,
    _arc_point_rows,
    _avg_in_plane,
    _cross,
    _dot,
    _invalid_pnp_rows,
    _norm,
    _slerp,
    _slerp_rows,
    get_tolerances,
)

__all__ = [
    "circle_avg_3d",
    "chord_point",
    "deviation_from_chord",
    "helix_trace",
]


def circle_avg_3d(P0: Pnp, P1: Pnp, w: float) -> Pnp:
    """Circle average of two 3D point-normal pairs with weight ``w``.

    For weight 0 or 1 the corresponding input is returned exactly. For
    (near-)parallel normals the point is the affine average; this is the
    continuity limit of the construction. Otherwise the pair ``P1`` is
    projected along ``z_dir(n0, n1)`` into the working plane through ``p0``,
    averaged in-plane, and the point is shifted back by ``w`` times the
    signed plane offset, so weight 1 lands exactly on the plane through
    ``p1``. The returned normal is the geodesic average and lies in the
    working plane. Any real ``w`` is accepted.

    Raises :class:`AntipodalNormalsError` when the normals are opposite.
    """
    tol = get_tolerances()
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = _angle(n0, n1)
    if theta >= math.pi - tol.antipodal:
        raise AntipodalNormalsError("circle average undefined for antipodal normals")
    if w == 0.0:
        return P0
    if w == 1.0:
        return P1
    p0 = (P0.point[0], P0.point[1], P0.point[2])
    p1 = (P1.point[0], P1.point[1], P1.point[2])
    if theta < tol.theta_linear:
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


def _circle_avg_rows(p0, n0, p1, n1, w):
    """:func:`circle_avg_3d` over rows.

    ``p0, n0, p1, n1`` are ``(3, m)`` arrays of components and ``w`` has
    shape ``(m,)``. Returns the averaged points and normals as ``(3, m)``
    arrays and the mask of rows on which :func:`circle_avg_3d` raises:
    antipodal normals, or a result that :class:`Pnp` rejects. Every other
    row equals the scalar result bit for bit: the arithmetic repeats the
    scalar operations in the same order, and the scalar branches (endpoint
    weights, linear limit, helix) become masks.
    """
    tol = get_tolerances()
    # every branch runs on every row, and the rows a branch is not taken on
    # may divide by zero there; rows that really fail are in the mask
    with np.errstate(all="ignore"):
        c = _cross(n0, n1)
        cn = np.sqrt(_dot(c, c))
        # math.atan2, not np.arctan2: numpy's SIMD atan2 can differ in the last bit
        theta = np.fromiter(map(math.atan2, cn.tolist(), _dot(n0, n1).tolist()), float, len(w))
        failed = theta >= math.pi - tol.antipodal

        nm = _slerp_rows(n0, n1, w, theta)
        linear = (
            (1.0 - w) * p0[0] + w * p1[0],
            (1.0 - w) * p0[1] + w * p1[1],
            (1.0 - w) * p0[2] + w * p1[2],
        )
        zt = (c[0] / cn, c[1] / cn, c[2] / cn)
        h = _dot((p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]), zt)
        p1s = (p1[0] - h * zt[0], p1[1] - h * zt[1], p1[2] - h * zt[2])
        arc = _arc_point_rows(p0, p1s, w, theta, c, zt)
        wh = w * h
        helix = (arc[0] + wh * zt[0], arc[1] + wh * zt[1], arc[2] + wh * zt[2])

        pt = np.where(theta < tol.theta_linear, linear, helix)
        start, end = w == 0.0, w == 1.0
        pt = np.where(start, p0, np.where(end, p1, pt))
        nm = np.where(start, n0, np.where(end, n1, nm))
        failed |= _invalid_pnp_rows(pt, nm)
    return pt, nm, failed


def chord_point(p0, p1, w: float) -> np.ndarray:
    """Affine average ``(1 - w) p0 + w p1``.

    This is the intersection of the segment ``[p0, p1]`` with the plane at
    offset fraction ``w`` between the two working planes, and the limit of
    the averaged point as the normals align.
    """
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)
    return (1.0 - w) * a + w * b


def deviation_from_chord(P0: Pnp, P1: Pnp, w: float) -> float:
    """Closed-form distance between the averaged point and the chord point.

    With ``g = |p1 - p0| sin(phi)`` the in-plane chord length, the squared
    distance follows from the cosine rule in the triangle spanned by the
    projected start point, the averaged point and the chord point::

        g^2 * [ (w - R)^2 + 4 w R sin^2(theta (1 - w) / 4) ],
        R = sin(theta w / 2) / sin(theta / 2)

    which matches ``|circle_avg_3d(P0, P1, w).point - chord_point(...)|`` to
    rounding. Raises :class:`ParallelNormalsError` for ``theta = 0`` where
    the ratio ``R`` exists only as a limit, and
    :class:`AntipodalNormalsError` for opposite normals.
    """
    tol = get_tolerances()
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = _angle(n0, n1)
    if theta < tol.theta_linear:
        raise ParallelNormalsError("deviation is defined only as a limit for parallel normals")
    if theta >= math.pi - tol.antipodal:
        raise AntipodalNormalsError("deviation undefined for antipodal normals")
    chord = (
        P1.point[0] - P0.point[0],
        P1.point[1] - P0.point[1],
        P1.point[2] - P0.point[2],
    )
    # phi, the angle between n0 x n1 and the chord, is 0 for a zero chord
    g = _norm(chord) * math.sin(_angle(_cross(n0, n1), chord))
    r = math.sin(0.5 * w * theta) / math.sin(0.5 * theta)
    ssq = math.sin(0.25 * theta * (1.0 - w))
    dev2 = (w - r) ** 2 + 4.0 * w * r * ssq * ssq
    return g * math.sqrt(max(dev2, 0.0))


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
        out[i] = circle_avg_3d(P0, P1, i / last).point
    return out
