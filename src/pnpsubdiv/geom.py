"""Points, unit normals, planes, and the planar circle average of point-normal pairs.

A point-normal pair (:class:`Pnp`) is the element every modified subdivision
scheme refines: a 3D position plus a unit normal. This module provides the
elementary vector operations those schemes are built from:

* :func:`z_dir` -- normalized cross product direction,
* :func:`geodesic_avg` -- rotate one unit vector toward another by a weighted
  fraction of the angle between them (defined for every real weight),
* :func:`circle_avg_2d` -- the in-plane circle average: the normal is the
  geodesic average and the point travels along an auxiliary circular arc.

Everything here is a pure function of immutable values, so results may be
shared freely across threads.

Vectors are ``numpy`` arrays of shape ``(3,)`` at the API surface; the inner
arithmetic runs on plain floats, which keeps a single average cheap. Mesh
refinement evaluates whole levels with the private ``*_rows`` twins of these
kernels, which repeat the scalar arithmetic operation for operation on
arrays of components, so both give the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalNormalsError,
    DegenerateCrossError,
    NotInCarrierError,
)

__all__ = [
    "Tolerances",
    "get_tolerances",
    "Pnp",
    "Plane",
    "angle_between",
    "z_dir",
    "geodesic_avg",
    "circle_avg_2d",
]


@dataclass(frozen=True)
class Tolerances:
    """The fixed numeric thresholds shared by the whole toolkit.

    Every field is an angle or a ratio, never a length, so no check depends
    on the scale of the coordinates and a refinement commutes with scaling.
    """

    unit_norm: float = 1e-9       # |norm - 1| allowed for unit vectors
    cross: float = 1e-12          # relative cross-product norm below which z_dir fails
    antipodal: float = 1e-9       # pi - angle below which normals count as opposite
    theta_linear: float = 1e-9    # normal angle below which averaging is linear
    coincident: float = 1e-12     # norm of a sum of unit wedge normals that counts as cancelled
    carrier: float = 1e-9         # out-of-plane tilt of a point or normal off the carrier plane


_TOL = Tolerances()


def get_tolerances() -> Tolerances:
    """The toolkit's thresholds: one shared, immutable instance."""
    return _TOL


# ---------------------------------------------------------------------------
# scalar kernels (plain floats, numpy only at the boundaries); the private
# helpers _dot and _cross also take triples of component arrays
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


def _angle(a, b):
    """Angle in [0, pi] between two nonzero vectors, accurate for tiny angles."""
    return math.atan2(_norm(_cross(a, b)), _dot(a, b))


def _as_triple(v, what="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{what} must have shape (3,), got {a.shape}")
    return a[0], a[1], a[2]


def _check_unit(t, what):
    n = _norm(t)
    if not math.isfinite(n) or abs(n - 1.0) > _TOL.unit_norm:
        raise ValueError(f"{what} must be a unit vector (norm {n!r})")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

class Pnp:
    """A 3D point paired with a unit normal.

    Treat instances as immutable; the stored arrays are read-only copies.
    """

    __slots__ = ("point", "normal")

    def __init__(self, point, normal):
        p = np.array(point, dtype=float)
        n = np.array(normal, dtype=float)
        if p.shape != (3,) or n.shape != (3,):
            raise ValueError("point and normal must have shape (3,)")
        if not (math.isfinite(p[0]) and math.isfinite(p[1]) and math.isfinite(p[2])):
            raise ValueError("point components must be finite")
        _check_unit((n[0], n[1], n[2]), "normal")
        p.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n)

    def __setattr__(self, name, value):
        raise AttributeError("Pnp is immutable")

    def __repr__(self):
        return f"Pnp(point={tuple(self.point)}, normal={tuple(self.normal)})"


def _invalid_pnp_rows(points, normals) -> np.ndarray:
    """Mask of the rows :class:`Pnp` rejects, by the constructor's own checks.

    ``points`` and ``normals`` are ``(3, m)`` arrays or triples of component
    arrays.
    """
    n = np.sqrt(_dot(normals, normals))
    finite = np.isfinite(points[0]) & np.isfinite(points[1]) & np.isfinite(points[2])
    return ~finite | ~np.isfinite(n) | (np.abs(n - 1.0) > _TOL.unit_norm)


class Plane:
    """A plane given by a point on it and its unit normal."""

    __slots__ = ("origin", "normal")

    def __init__(self, origin, normal):
        o = np.array(origin, dtype=float)
        n = np.array(normal, dtype=float)
        if o.shape != (3,) or n.shape != (3,):
            raise ValueError("origin and normal must have shape (3,)")
        _check_unit((n[0], n[1], n[2]), "plane normal")
        o.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "normal", n)

    def __setattr__(self, name, value):
        raise AttributeError("Plane is immutable")

    def __repr__(self):
        return f"Plane(origin={tuple(self.origin)}, normal={tuple(self.normal)})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    return _angle(_as_triple(u, "u"), _as_triple(v, "v"))


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
    if cn <= _TOL.cross * _norm(ut) * _norm(vt) or cn == 0.0:
        raise DegenerateCrossError("cross product direction undefined for (near-)parallel vectors")
    return np.array((c[0] / cn, c[1] / cn, c[2] / cn))


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


def _slerp_rows(n0, n1, w, theta):
    """:func:`_slerp` over rows, for weights other than 0 and 1.

    ``n0`` and ``n1`` are triples of component arrays, ``w`` and ``theta``
    arrays of the same length. Each row equals the scalar result bit for bit.
    """
    s = np.sin(theta)
    a = np.sin((1.0 - w) * theta) / s
    b = np.sin(w * theta) / s
    # parallel normals: the scalar code's (1 - w) * n0 + w * n1
    tiny = theta < 1e-12
    a = np.where(tiny, 1.0 - w, a)
    b = np.where(tiny, w, b)
    x = a * n0[0] + b * n1[0]
    y = a * n0[1] + b * n1[1]
    z = a * n0[2] + b * n1[2]
    r = np.sqrt(x * x + y * y + z * z)
    return (x / r, y / r, z / r)


def geodesic_avg(n0, n1, w: float) -> np.ndarray:
    """Geodesic average of two unit vectors with weight ``w``.

    Returns ``n0`` rotated by ``w * theta`` toward ``n1`` inside the plane the
    two vectors span (``theta`` being the angle between them). ``w`` may be
    any real number; values outside [0, 1] extrapolate along the same great
    circle, which the negative-weight subdivision stencils rely on.

    Raises :class:`AntipodalNormalsError` for opposite normals, where the
    rotation plane is ambiguous.
    """
    t0 = _as_triple(n0, "n0")
    t1 = _as_triple(n1, "n1")
    theta = _angle(t0, t1)
    if theta >= math.pi - _TOL.antipodal:
        raise AntipodalNormalsError("geodesic average undefined for antipodal normals")
    return np.array(_slerp(t0, t1, w, theta))


def _arc_point(p0, p1, w, theta, n0, n1, nz):
    """Point at arc fraction ``w`` on the auxiliary circle through p0 and p1.

    All arguments are float triples; ``nz`` is the unit normal of the carrier
    plane containing both points and both normals, and ``theta`` in
    (0, pi) is the angle between the normals, which equals the central angle
    of the arc from p0 to p1.

    The circle is fixed by two requirements: its radius is
    ``|p1 - p0| / (2 sin(theta / 2))``, and walking from p0 to p1 along it
    turns the radial direction in the same orientation in which ``n0``
    rotates to ``n1``. The latter pins the side of the chord the arc bulges
    to; it is what makes repeated averages of the same pair land on one
    common circle, and for pairs sampled from a circle with outward normals
    it reproduces that circle.

    Only a chord of length exactly zero returns ``p0``: it is the one chord
    without a direction, and both arc offsets scale with ``d``, so the
    result tends to ``p0`` continuously as the chord shrinks, at any scale.
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
    # p(w) = M + along_b * b + along_t * t, written without cancellation so the
    # huge-radius regime theta -> 0 degrades gracefully into the chord
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


def _arc_point_rows(p0, p1, w, theta, orient, nz):
    """:func:`_arc_point` over rows.

    Points and ``nz`` are triples of component arrays; ``orient`` is the
    array of ``_cross(n0, n1)`` components, the only use the scalar code
    makes of the normals. Each row equals the scalar result bit for bit.
    """
    cx = p1[0] - p0[0]
    cy = p1[1] - p0[1]
    cz = p1[2] - p0[2]
    d = np.sqrt(cx * cx + cy * cy + cz * cz)
    t = (cx / d, cy / d, cz / d)
    s = np.where(_dot(orient, nz) > 0.0, 1.0, -1.0)
    q = _cross(nz, t)
    b = (-s * q[0], -s * q[1], -s * q[2])
    sh = np.sin(0.5 * theta)
    along_b = d * np.sin(0.5 * w * theta) * np.sin(0.5 * (1.0 - w) * theta) / sh
    along_t = d * np.sin((w - 0.5) * theta) / (2.0 * sh)
    pt = (
        0.5 * (p0[0] + p1[0]) + along_b * b[0] + along_t * t[0],
        0.5 * (p0[1] + p1[1]) + along_b * b[1] + along_t * t[1],
        0.5 * (p0[2] + p1[2]) + along_b * b[2] + along_t * t[2],
    )
    return tuple(np.where(d == 0.0, start, arc) for start, arc in zip(p0, pt))


def _avg_in_plane(p0, n0, p1, n1, w, nz, theta):
    """Shared planar core: returns (point triple, normal triple).

    Inputs are float triples lying in the plane with unit normal ``nz``
    (normals orthogonal to ``nz``); ``theta`` is the precomputed angle
    between the normals, below the antipodal threshold.
    """
    nm = _slerp(n0, n1, w, theta)
    if theta < _TOL.theta_linear:
        pt = (
            (1.0 - w) * p0[0] + w * p1[0],
            (1.0 - w) * p0[1] + w * p1[1],
            (1.0 - w) * p0[2] + w * p1[2],
        )
    else:
        pt = _arc_point(p0, p1, w, theta, n0, n1, nz)
    return pt, nm


def circle_avg_2d(P0: Pnp, P1: Pnp, w: float, carrier: Plane) -> Pnp:
    """Circle average of two point-normal pairs lying in ``carrier``.

    The returned normal is ``geodesic_avg(n0, n1, w)``. The returned point
    sits at arc fraction ``w`` (central angle ``w * theta`` from ``p0``) on
    the auxiliary circular arc through ``p0`` and ``p1`` whose total central
    angle is the angle ``theta`` between the normals. For parallel normals or
    coincident points the point degenerates to the straight chord. Any real
    ``w`` is accepted; outside [0, 1] the same circle is extrapolated.

    Raises :class:`NotInCarrierError` if a point or a normal tilts out of
    the plane (the point as seen from the carrier origin) and
    :class:`AntipodalNormalsError` when ``theta`` is flat.
    """
    nz = (carrier.normal[0], carrier.normal[1], carrier.normal[2])
    org = (carrier.origin[0], carrier.origin[1], carrier.origin[2])
    pairs = ((P0.point, P0.normal, "P0"), (P1.point, P1.normal, "P1"))
    for pt, nm, label in pairs:
        rel = (pt[0] - org[0], pt[1] - org[1], pt[2] - org[2])
        off = _dot(rel, nz)
        if abs(off) > _TOL.carrier * _norm(rel):
            raise NotInCarrierError(f"{label} point is {off:g} off the carrier plane")
        tilt = _dot((nm[0], nm[1], nm[2]), nz)
        if abs(tilt) > _TOL.carrier:
            raise NotInCarrierError(f"{label} normal tilts {tilt:g} out of the carrier plane")

    p0 = (P0.point[0], P0.point[1], P0.point[2])
    n0 = (P0.normal[0], P0.normal[1], P0.normal[2])
    p1 = (P1.point[0], P1.point[1], P1.point[2])
    n1 = (P1.normal[0], P1.normal[1], P1.normal[2])
    theta = _angle(n0, n1)
    if theta >= math.pi - _TOL.antipodal:
        raise AntipodalNormalsError("circle average undefined for antipodal normals")
    if w == 0.0:
        return P0
    if w == 1.0:
        return P1
    pt, nm = _avg_in_plane(p0, n0, p1, n1, w, nz, theta)
    return Pnp(pt, nm)
