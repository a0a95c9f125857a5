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

Vectors are ``numpy`` arrays of shape ``(3,)`` at the API surface. Each step
of the circle average is written once, as a row kernel (``_angle_rows``,
``_slerp_rows``, ``_arc_point_rows``) over triples of component arrays: mesh
refinement runs them on whole levels, and the public functions run them on
one row. The scalar reference the tests hold these kernels to lives in
``tests/oracle.py``. Angles come from ``_atan2_rows``, fdlibm's ``atan2``
written with ``+ - * /`` and comparisons only; the reference evaluates the
same formula on Python floats, so the two agree bit for bit without
relying on the host's ``atan2``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AntipodalNormalsError,
    DegenerateCrossError,
    NotInCarrierError,
)

__all__ = [
    "Pnp",
    "Plane",
    "angle_between",
    "z_dir",
    "geodesic_avg",
    "circle_avg_2d",
]


# The fixed numeric thresholds shared by the whole toolkit. Each is an angle or
# a ratio, never a length, so no check depends on the scale of the coordinates
# and a refinement commutes with scaling.
_UNIT_NORM = 1e-9       # |norm - 1| allowed for unit vectors
_CROSS = 1e-12          # relative cross-product norm below which z_dir fails
_ANTIPODAL = 1e-9       # pi - angle below which normals count as opposite
_THETA_LINEAR = 1e-9    # normal angle below which averaging is linear
_COINCIDENT = 1e-12     # norm of a sum of unit wedge normals that counts as cancelled
_CARRIER = 1e-9         # out-of-plane tilt of a point or normal off the carrier plane

# atan2 after fdlibm's e_atan2.c and s_atan.c. The ratio t = y / |x| falls in
# one of five intervals, split at _ATAN_EDGES. On interval k, with
# P, Q = _ATAN_P[k], _ATAN_Q[k], the reduced argument a = (P t - Q) / (P + Q t)
# is t, (2t - 1) / (2 + t), (t - 1) / (t + 1), (t - 1.5) / (1 + 1.5t) or -1/t,
# each as fdlibm computes it, and atan(t) = _ATAN_HI[k] + _ATAN_LO[k] + atan(a)
# with atan(a) an odd polynomial of degree 23 whose coefficients are _ATAN_T.
# Only + - * / and comparisons are used, which IEEE 754 rounds alike on
# NumPy arrays and Python floats.
_ATAN_EDGES = (0.4375, 0.6875, 1.1875, 2.4375)
_ATAN_P = (1.0, 2.0, 1.0, 1.0, 0.0)
_ATAN_Q = (0.0, 1.0, 1.0, 1.5, 1.0)
_ATAN_HI = (  # atan(0), atan(0.5), atan(1), atan(1.5), atan(inf): leading part
    0.0,
    4.63647609000806093515e-01,
    7.85398163397448278999e-01,
    9.82793723247329054082e-01,
    1.57079632679489655800e+00,
)
_ATAN_LO = (  # and the rest
    0.0,
    2.26987774529616870924e-17,
    3.06161699786838301793e-17,
    1.39033110312309984516e-17,
    6.12323399573676603587e-17,
)
_ATAN_T = (
    3.33333333333329318027e-01,
    -1.99999999998764832476e-01,
    1.42857142725034663711e-01,
    -1.11111104054623557880e-01,
    9.09088713343650656196e-02,
    -7.69187620504482999495e-02,
    6.66107313738753120669e-02,
    -5.83357013379057348645e-02,
    4.97687799461593236017e-02,
    -3.65315727442169155270e-02,
    1.62858201153657823623e-02,
)
_ATAN_BIG = 2.0 ** 66   # cap on t: atan(t) is _ATAN_HI[4] beyond it, and 0 * t stays finite
_PI_LO = 1.2246467991473531772e-16  # pi - math.pi
_ATAN_ARRAYS = tuple(np.array(c) for c in (_ATAN_P, _ATAN_Q, _ATAN_HI, _ATAN_LO))


# ---------------------------------------------------------------------------
# vector helpers on float triples; _dot and _cross also take triples of
# component arrays
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


def _as_vector(v, what="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{what} must have shape (3,), got {a.shape}")
    return a


def _check_unit(t, what):
    n = _norm(t)
    if not math.isfinite(n) or abs(n - 1.0) > _UNIT_NORM:
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
    return ~finite | ~np.isfinite(n) | (np.abs(n - 1.0) > _UNIT_NORM)


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
    """Angle in [0, pi] between two nonzero vectors, accurate for tiny angles."""
    with np.errstate(all="ignore"):
        theta = _angle_rows(_as_vector(u, "u")[:, None], _as_vector(v, "v")[:, None])[0]
    return float(theta[0])


def z_dir(u, v) -> np.ndarray:
    """Unit vector in the direction of ``u x v``.

    Raises :class:`DegenerateCrossError` when the cross product norm falls
    below ``cross * |u| * |v|``, i.e. when the inputs are parallel or one of
    them vanishes.
    """
    ut = tuple(_as_vector(u, "u"))
    vt = tuple(_as_vector(v, "v"))
    c = _cross(ut, vt)
    cn = _norm(c)
    if cn <= _CROSS * _norm(ut) * _norm(vt) or cn == 0.0:
        raise DegenerateCrossError("cross product direction undefined for (near-)parallel vectors")
    return np.array((c[0] / cn, c[1] / cn, c[2] / cn))


def _atan2_rows(y, x):
    """``atan2(y, x)`` over arrays of one shape with ``y >= 0``, after
    fdlibm (see ``_ATAN_T``).

    Within 1 ulp of ``math.atan2``, and equal to it where ``y`` is 0, ``x``
    is 0 or infinite, or an argument is nan. Like fdlibm, it rounds
    ``pi/2 + |x|/y`` for ``x < 0`` and ``|x| << y`` one ulp up. The scalar
    reference of the tests computes the same floats.
    """
    with np.errstate(all="ignore"):
        t = y / np.abs(x)
        np.minimum(t, _ATAN_BIG, out=t)
        nan = np.flatnonzero(np.isnan(t))  # 0/0, inf/inf or a nan argument
        if len(nan):
            t[nan[np.isinf(y[nan]) & np.isinf(x[nan])]] = 1.0  # atan2(inf, +-inf) = atan2(1, +-1)
        # interval index: the number of edges at or below t
        k = (t >= _ATAN_EDGES[0]).view(np.int8)
        for edge in _ATAN_EDGES[1:]:
            k += t >= edge
        p, q, hi, lo = (c.take(k) for c in _ATAN_ARRAYS)
        a = p * t
        a -= q
        q *= t
        q += p
        a /= q
        z = a * a
        w = z * z
        # s1 = z (T0 + w (T2 + ... + w T10)), s2 = w (T1 + w (T3 + ... + w T9)), by Horner
        s1 = w * _ATAN_T[10]
        for c in _ATAN_T[8:0:-2]:
            s1 += c
            s1 *= w
        s1 += _ATAN_T[0]
        s1 *= z
        s2 = w * _ATAN_T[9]
        for c in _ATAN_T[7::-2]:
            s2 += c
            s2 *= w
        # atan(t) = hi - ((a (s1 + s2) - lo) - a)
        s1 += s2
        s1 *= a
        s1 -= lo
        s1 -= a
        hi -= s1
        # x < 0: atan2 = pi - (atan(t) - pi_lo)
        np.subtract(hi, _PI_LO, out=s1)
        np.subtract(math.pi, s1, out=s1)
        np.copyto(hi, s1, where=x < 0.0)
        if len(nan):
            zero = nan[(y[nan] == 0.0) & (x[nan] == 0.0)]
            hi[zero] = np.where(np.signbit(x[zero]), math.pi, 0.0)
    return hi


def _angle_rows(n0, n1):
    """Angles in [0, pi] between rows of vectors, with the antipodal mask.

    ``n0`` and ``n1`` are triples of component arrays (either may be one
    vector broadcast over the other's rows). Returns ``theta``, the mask of
    the rows :func:`geodesic_avg` rejects as antipodal, and the cross
    products ``n0 x n1`` with their norms, which the circle average reuses.
    ``theta`` is ``atan2(|n0 x n1|, n0 . n1)``, accurate for tiny angles,
    taken with :func:`_atan2_rows`. That is fdlibm's formula in ``+ - * /``
    alone, so the scalar reference of the tests, which evaluates the same
    formula on Python floats, gets the same bits on any IEEE host.
    """
    c = _cross(n0, n1)
    cn = np.sqrt(_dot(c, c))
    theta = _atan2_rows(cn, _dot(n0, n1))
    return theta, theta >= math.pi - _ANTIPODAL, c, cn


def _slerp_rows(n0, n1, w, theta):
    """Rotate ``n0`` by ``w * theta`` toward ``n1`` in their common plane.

    ``n0`` and ``n1`` are triples of component arrays, ``w`` and ``theta``
    arrays of the same length; ``theta`` is the angle between the unit
    vectors, already checked to be below pi. Works for every real ``w``
    other than 0 and 1, which the callers return as ``n0`` and ``n1``.
    Returns the rotated vectors as a ``(3, m)`` array.
    """
    s = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 on rows taking the tiny branch
        a = np.sin((1.0 - w) * theta) / s
        b = np.sin(w * theta) / s
    # parallel normals: any combination renormalizes back to n0
    tiny = theta < 1e-12
    if tiny.any():
        a = np.where(tiny, 1.0 - w, a)
        b = np.where(tiny, w, b)
    v = np.array((a * n0[0] + b * n1[0], a * n0[1] + b * n1[1], a * n0[2] + b * n1[2]))
    v /= np.sqrt(_dot(v, v))
    return v


def geodesic_avg(n0, n1, w: float) -> np.ndarray:
    """Geodesic average of two unit vectors with weight ``w``.

    Returns ``n0`` rotated by ``w * theta`` toward ``n1`` inside the plane the
    two vectors span (``theta`` being the angle between them). ``w`` may be
    any real number; values outside [0, 1] extrapolate along the same great
    circle, which the negative-weight subdivision stencils rely on.

    Raises :class:`AntipodalNormalsError` for opposite normals, where the
    rotation plane is ambiguous.
    """
    a0 = _as_vector(n0, "n0")
    a1 = _as_vector(n1, "n1")
    with np.errstate(all="ignore"):
        theta, antipodal, _, _ = _angle_rows(a0[:, None], a1[:, None])
        if antipodal[0]:
            raise AntipodalNormalsError("geodesic average undefined for antipodal normals")
        if w == 0.0:
            return a0.copy()
        if w == 1.0:
            return a1.copy()
        nm = _slerp_rows(a0[:, None], a1[:, None], np.array([w], dtype=float), theta)
    return np.concatenate(nm)


def _arc_point_rows(p0, p1, w, theta, orient, nz):
    """Point at arc fraction ``w`` on the auxiliary circle through p0 and p1.

    Points and ``nz`` are triples of component arrays; ``nz`` is the unit
    normal of the carrier plane containing both points and both normals.
    ``theta`` in (0, pi) is the angle between the normals, which equals the
    central angle of the arc from p0 to p1, and ``orient`` holds the
    components of ``n0 x n1``, the only use the arc makes of the normals.

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
    d = np.sqrt(cx * cx + cy * cy + cz * cz)
    t = (cx / d, cy / d, cz / d)
    # bulge direction: rotate the chord direction by -90 deg in the orientation
    # carrying n0 to n1, as seen from the carrier normal
    s = np.where(_dot(orient, nz) > 0.0, 1.0, -1.0)
    q = _cross(nz, t)
    b = (-s * q[0], -s * q[1], -s * q[2])
    sh = np.sin(0.5 * theta)
    # p(w) = M + along_b * b + along_t * t, written without cancellation so the
    # huge-radius regime theta -> 0 degrades gracefully into the chord
    along_b = d * np.sin(0.5 * w * theta) * np.sin(0.5 * (1.0 - w) * theta) / sh
    along_t = d * np.sin((w - 0.5) * theta) / (2.0 * sh)
    pt = (
        0.5 * (p0[0] + p1[0]) + along_b * b[0] + along_t * t[0],
        0.5 * (p0[1] + p1[1]) + along_b * b[1] + along_t * t[1],
        0.5 * (p0[2] + p1[2]) + along_b * b[2] + along_t * t[2],
    )
    zero = d == 0.0
    if zero.any():
        pt = tuple(np.where(zero, start, arc) for start, arc in zip(p0, pt))
    return pt


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
        if abs(off) > _CARRIER * _norm(rel):
            raise NotInCarrierError(f"{label} point is {off:g} off the carrier plane")
        tilt = _dot((nm[0], nm[1], nm[2]), nz)
        if abs(tilt) > _CARRIER:
            raise NotInCarrierError(f"{label} normal tilts {tilt:g} out of the carrier plane")

    p0, n0, p1, n1 = (a[:, None] for a in (P0.point, P0.normal, P1.point, P1.normal))
    with np.errstate(all="ignore"):
        theta, antipodal, c, _ = _angle_rows(n0, n1)
        if antipodal[0]:
            raise AntipodalNormalsError("circle average undefined for antipodal normals")
        if w == 0.0:
            return P0
        if w == 1.0:
            return P1
        wr = np.array([w], dtype=float)
        nm = _slerp_rows(n0, n1, wr, theta)
        arc = _arc_point_rows(p0, p1, wr, theta, c, carrier.normal[:, None])
        pt = np.where(theta < _THETA_LINEAR, (1.0 - wr) * p0 + wr * p1, arc)
    return Pnp(pt[:, 0], np.concatenate(nm))
