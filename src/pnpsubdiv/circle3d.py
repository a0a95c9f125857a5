"""The 3D circle average of two point-normal pairs.

The construction reduces the 3D case to the planar one. Both normals are
orthogonal to ``z = z_dir(n0, n1)``, so the second pair is projected along
``z`` into the plane through ``p0`` with normal ``z``, averaged there with
:func:`~pnpsubdiv.geom.circle_avg_2d` semantics, and the resulting point is
then offset along ``z`` by the weighted plane distance. Sweeping the weight
traces a helix whose projection onto the working plane is the planar
auxiliary arc.

The construction is written once, as the row kernel ``_circle_avg_rows``
that refines whole mesh levels; :func:`circle_avg_3d` is one row of it. The
scalar reference the tests hold the kernel to lives in ``tests/oracle.py``.
The kernel has no Python loop over rows: the normal angle is fdlibm's
``atan2`` written in array arithmetic (``geom._atan2_rows``), the same
formula the reference evaluates on floats.

Also provided is :func:`deviation_from_chord`, the closed-form distance
between the averaged point and the chord point ``(1 - w) p0 + w p1`` (where
the averaged point ends up in the limits of parallel normals or of a chord
parallel / antiparallel to ``z``), an analytic oracle for the construction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AntipodalNormalsError, ParallelNormalsError
from .geom import (
    _ANTIPODAL,
    _THETA_LINEAR,
    Pnp,
    _angle_rows,
    _arc_point_rows,
    _cross,
    _dot,
    _invalid_pnp_rows,
    _norm,
    _slerp_rows,
    angle_between,
)

__all__ = ["circle_avg_3d", "deviation_from_chord"]


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

    This is one row of the kernel that refines whole levels. Raises
    :class:`AntipodalNormalsError` when the normals are opposite, and
    ``ValueError`` when the averaged point overflows.
    """
    pt, nm, antipodal, _ = _circle_avg_rows(
        P0.point[:, None], P0.normal[:, None], P1.point[:, None], P1.normal[:, None],
        np.array([w], dtype=float),
    )
    if antipodal[0]:
        raise AntipodalNormalsError("circle average undefined for antipodal normals")
    if w == 0.0:
        return P0
    if w == 1.0:
        return P1
    return Pnp(pt[:, 0], nm[:, 0])


def _circle_avg_rows(p0, n0, p1, n1, w):
    """:func:`circle_avg_3d` over rows.

    ``p0, n0, p1, n1`` are ``(3, m)`` arrays of components and ``w`` has
    shape ``(m,)``. Returns the averaged points and normals as ``(3, m)``
    arrays and two masks of the rows on which :func:`circle_avg_3d` raises:
    the rows with antipodal normals, where it raises
    :class:`AntipodalNormalsError`, and the rows whose result :class:`Pnp`
    rejects. :func:`circle_avg_3d` checks the normals first, so a row in both
    masks raises the antipodal error. The branches of the construction
    (endpoint weights, linear limit, helix) are masks, each merged only when
    some row takes it, and every row equals the scalar reference of the test
    suite bit for bit.
    """
    # the helix runs on every row, and may divide by zero on the rows a branch
    # replaces; a branch is merged only when its mask has a row, and rows
    # that really fail are in the masks returned
    with np.errstate(all="ignore"):
        theta, antipodal, c, cn = _angle_rows(n0, n1)

        nm = _slerp_rows(n0, n1, w, theta)
        zt = (c[0] / cn, c[1] / cn, c[2] / cn)
        h = _dot((p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]), zt)
        p1s = (p1[0] - h * zt[0], p1[1] - h * zt[1], p1[2] - h * zt[2])
        arc = _arc_point_rows(p0, p1s, w, theta, c, zt)
        wh = w * h
        pt = np.array((arc[0] + wh * zt[0], arc[1] + wh * zt[1], arc[2] + wh * zt[2]))

        linear = theta < _THETA_LINEAR
        if linear.any():
            pt = np.where(linear, (1.0 - w) * p0 + w * p1, pt)
        start, end = w == 0.0, w == 1.0
        if start.any() or end.any():
            pt = np.where(start, p0, np.where(end, p1, pt))
            nm = np.where(start, n0, np.where(end, n1, nm))
        invalid = _invalid_pnp_rows(pt, nm)
    return pt, nm, antipodal, invalid


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
