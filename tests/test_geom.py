import math

import numpy as np
import pytest

from meshes import random_rotation, random_unit
import oracle
from pnpsubdiv import (
    Plane,
    Pnp,
    angle_between,
    circle_avg_2d,
    geodesic_avg,
    z_dir,
)
from pnpsubdiv.errors import (
    AntipodalNormalsError,
    DegenerateCrossError,
    NotInCarrierError,
)
from pnpsubdiv.geom import _atan2_rows

XY = Plane((0, 0, 0), (0, 0, 1))

SQ2 = math.sqrt(0.5)


def rotation_about(axis, angle):
    """Independent rotation-matrix oracle (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_pnp_requires_unit_normal():
    with pytest.raises(ValueError):
        Pnp((0, 0, 0), (0, 0, 2))
    with pytest.raises(ValueError):
        Pnp((0, 0, float("nan")), (0, 0, 1))


def test_pnp_is_immutable():
    p = Pnp((0, 0, 0), (0, 0, 1))
    with pytest.raises(AttributeError):
        p.point = np.zeros(3)
    with pytest.raises(ValueError):
        p.point[0] = 1.0


def test_plane_requires_unit_normal():
    with pytest.raises(ValueError):
        Plane((0, 0, 0), (1, 1, 0))


# ---------------------------------------------------------------------------
# z_dir
# ---------------------------------------------------------------------------

def test_z_dir_canonical_basis():
    assert np.allclose(z_dir((1, 0, 0), (0, 1, 0)), (0, 0, 1))


def test_z_dir_sign_flips_with_negative_determinant():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    # (2u + 3v) x (u - v) = -5 (u x v): same line, flipped sign
    got = z_dir(2 * u + 3 * v, u - v)
    assert np.allclose(got, (0, 0, -1))
    assert np.allclose(got, -z_dir(u, v))


def test_z_dir_invariant_under_positive_combinations(rng):
    for _ in range(50):
        u, v = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(np.cross(u, v)) < 1e-6:
            continue
        a, b, c, d = rng.uniform(0.1, 2.0, size=4)
        # positive determinant keeps the orientation
        assert np.allclose(z_dir(a * u + b * v, -c * u + d * v), z_dir(u, v), atol=1e-12)


def test_z_dir_degenerate():
    with pytest.raises(DegenerateCrossError):
        z_dir((1, 0, 0), (2, 0, 0))
    with pytest.raises(DegenerateCrossError):
        z_dir((0, 0, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# geodesic average
# ---------------------------------------------------------------------------

def test_geodesic_endpoints():
    n0, n1 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    assert np.array_equal(geodesic_avg(n0, n1, 0.0), n0)
    assert np.array_equal(geodesic_avg(n0, n1, 1.0), n1)


def test_geodesic_midpoint_symmetry():
    got = geodesic_avg((1, 0, 0), (0, 1, 0), 0.5)
    assert np.allclose(got, (SQ2, SQ2, 0))


def test_geodesic_extrapolation_matches_rotation_matrix():
    # w = -1 rotates a quarter turn away from n1
    got = geodesic_avg((1, 0, 0), (0, 1, 0), -1.0)
    expect = rotation_about((0, 0, 1), -math.pi / 2) @ np.array([1.0, 0, 0])
    assert np.allclose(got, expect, atol=1e-12)
    assert np.allclose(got, (0, -1, 0), atol=1e-12)


def test_geodesic_matches_rotation_matrix_randomly(rng):
    for _ in range(200):
        n0 = random_unit(rng)
        axis = np.cross(n0, random_unit(rng))
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(1e-3, 3.0)
        n1 = rotation_about(axis, theta) @ n0
        w = rng.uniform(-2.0, 2.0)
        got = geodesic_avg(n0, n1, w)
        expect = rotation_about(axis, w * theta) @ n0
        assert np.allclose(got, expect, atol=1e-10)


def test_geodesic_equal_normals_returns_first():
    n = np.array([0.0, 0.0, 1.0])
    assert np.allclose(geodesic_avg(n, n, 0.37), n)


def test_geodesic_antipodal_raises():
    with pytest.raises(AntipodalNormalsError):
        geodesic_avg((1, 0, 0), (-1, 0, 0), 0.5)


def test_geodesic_consistency(rng):
    for _ in range(300):
        n0 = random_unit(rng)
        axis = np.cross(n0, random_unit(rng))
        axis /= np.linalg.norm(axis)
        n1 = rotation_about(axis, rng.uniform(1e-3, 3.0)) @ n0
        t, s, k = rng.uniform(size=3)
        inner_t = geodesic_avg(n0, n1, t)
        inner_s = geodesic_avg(n0, n1, s)
        composed = geodesic_avg(inner_t, inner_s, k)
        direct = geodesic_avg(n0, n1, k * s + (1 - k) * t)
        assert angle_between(composed, direct) < 1e-9


# ---------------------------------------------------------------------------
# planar circle average
# ---------------------------------------------------------------------------

def _pnp2(px, py, nx, ny):
    return Pnp((px, py, 0.0), (nx, ny, 0.0))


def test_circle_avg_2d_endpoints():
    p0 = _pnp2(0, 0, 1, 0)
    p1 = _pnp2(0, 2, 0, 1)
    assert np.array_equal(circle_avg_2d(p0, p1, 0.0, XY).point, p0.point)
    assert np.array_equal(circle_avg_2d(p0, p1, 1.0, XY).point, p1.point)


def test_circle_avg_2d_unit_circle_sample():
    p0 = _pnp2(1, 0, 1, 0)
    p1 = _pnp2(0, 1, 0, 1)
    mid = circle_avg_2d(p0, p1, 0.5, XY)
    assert np.allclose(mid.point, (SQ2, SQ2, 0), atol=1e-12)
    assert np.allclose(mid.normal, (SQ2, SQ2, 0), atol=1e-12)


def test_circle_avg_2d_equal_normals_is_linear():
    p0 = _pnp2(0, 0, 1, 0)
    p1 = _pnp2(0, 2, 1, 0)
    mid = circle_avg_2d(p0, p1, 0.5, XY)
    assert np.allclose(mid.point, (0, 1, 0), atol=1e-12)
    assert np.allclose(mid.normal, (1, 0, 0))


def test_circle_avg_2d_out_of_plane_normal_rejected():
    p0 = Pnp((0, 0, 0), (0, 0, 1))
    p1 = Pnp((1, 0, 0), (0, 0, 1))
    with pytest.raises(NotInCarrierError):
        circle_avg_2d(p0, p1, 0.5, XY)


def test_circle_avg_2d_off_plane_point_rejected():
    p0 = Pnp((0, 0, 0.1), (1, 0, 0))
    p1 = Pnp((1, 0, 0), (0, 1, 0))
    with pytest.raises(NotInCarrierError):
        circle_avg_2d(p0, p1, 0.5, XY)


def test_circle_avg_2d_antipodal_raises():
    p0 = _pnp2(0, 0, 1, 0)
    p1 = _pnp2(1, 0, -1, 0)
    with pytest.raises(AntipodalNormalsError):
        circle_avg_2d(p0, p1, 0.5, XY)


def test_circle_avg_2d_coincident_points_keep_point():
    p0 = _pnp2(1, 1, 1, 0)
    p1 = _pnp2(1, 1, 0, 1)
    got = circle_avg_2d(p0, p1, 0.5, XY)
    assert np.allclose(got.point, (1, 1, 0))
    assert np.allclose(got.normal, (SQ2, SQ2, 0))


def _random_circle_pair(rng):
    """Two samples of a random circle in the x-y plane, outward normals."""
    center = np.append(rng.normal(size=2), 0.0)
    radius = rng.uniform(0.2, 5.0)
    a0, a1 = rng.uniform(0.0, 2 * math.pi, size=2)
    pts = []
    for a in (a0, a1):
        n = np.array([math.cos(a), math.sin(a), 0.0])
        pts.append(Pnp(center + radius * n, n))
    return center, radius, pts[0], pts[1]


def test_circle_preservation_oracle(rng):
    kept = 0
    for _ in range(300):
        center, radius, p0, p1 = _random_circle_pair(rng)
        theta = angle_between(p0.normal, p1.normal)
        if theta < 1e-3 or theta > math.pi - 1e-3:
            continue
        kept += 1
        w = rng.uniform(-0.5, 1.5)
        got = circle_avg_2d(p0, p1, w, XY)
        assert abs(np.linalg.norm(got.point - center) - radius) < 1e-9 * radius
        # outward normal: aligned with the radial direction
        assert angle_between(got.normal, got.point - center) < 1e-9
    assert kept > 200


def test_circle_avg_2d_consistency(rng):
    for _ in range(200):
        p0 = Pnp(np.append(rng.normal(size=2), 0.0), np.append(random_unit_2d(rng), 0.0))
        p1 = Pnp(np.append(rng.normal(size=2), 0.0), np.append(random_unit_2d(rng), 0.0))
        theta = angle_between(p0.normal, p1.normal)
        if theta > math.pi - 1e-3:
            continue
        diam = np.linalg.norm(p1.point - p0.point)
        if diam < 1e-6:
            continue
        t, s, k = rng.uniform(size=3)
        pt = circle_avg_2d(p0, p1, t, XY)
        ps = circle_avg_2d(p0, p1, s, XY)
        composed = circle_avg_2d(pt, ps, k, XY)
        direct = circle_avg_2d(p0, p1, k * s + (1 - k) * t, XY)
        assert np.linalg.norm(composed.point - direct.point) < 1e-7 * diam
        assert angle_between(composed.normal, direct.normal) < 1e-9


def random_unit_2d(rng):
    a = rng.uniform(0.0, 2 * math.pi)
    return np.array([math.cos(a), math.sin(a)])


def test_circle_avg_2d_rigid_equivariance(rng):
    for _ in range(100):
        center, radius, p0, p1 = _random_circle_pair(rng)
        theta = angle_between(p0.normal, p1.normal)
        if theta < 1e-3 or theta > math.pi - 1e-3:
            continue
        w = rng.uniform(0.0, 1.0)
        base = circle_avg_2d(p0, p1, w, XY)
        # in-plane rigid motion: rotation about z plus translation
        rot = rotation_about((0, 0, 1), rng.uniform(0, 2 * math.pi))
        shift = np.append(rng.normal(size=2), 0.0)
        moved = circle_avg_2d(
            Pnp(rot @ p0.point + shift, rot @ p0.normal),
            Pnp(rot @ p1.point + shift, rot @ p1.normal),
            w,
            Plane(shift, (0, 0, 1)),
        )
        assert np.allclose(moved.point, rot @ base.point + shift, atol=1e-9)
        assert np.allclose(moved.normal, rot @ base.normal, atol=1e-9)


def test_np_sin_equals_math_sin_on_the_kernel_range():
    """The row kernels take ``np.sin`` where the scalar oracle takes ``math.sin``.

    Bit identity of the two rests on their agreeing on the kernel's
    arguments: theta in [0, pi) and w * theta for w in [-0.5, 1.5].
    """
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, math.pi, 50_000)
    args = np.concatenate([theta, rng.uniform(-0.5, 1.5, theta.size) * theta])
    got = np.sin(args)
    want = np.fromiter(map(math.sin, args.tolist()), float, args.size)
    differ = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
    assert differ == 0, f"np.sin differs from math.sin on {differ} of {args.size} inputs"


# ---------------------------------------------------------------------------
# atan2 without the host's libm
# ---------------------------------------------------------------------------

def _kernel_range_atan2_args():
    """``(|n0 x n1|, n0 . n1)`` over the kernel's angles, with theta near 0 and pi."""
    rng = np.random.default_rng(11)
    theta = np.concatenate([
        rng.uniform(0.0, math.pi, 80_000),
        10.0 ** rng.uniform(-16.0, -2.0, 10_000),
        math.pi - 10.0 ** rng.uniform(-15.0, -2.0, 10_000),
    ])
    # unit normals off by up to 1e-10 in norm, as the fold's inputs may be
    scale = 1.0 + rng.uniform(-1e-10, 1e-10, theta.size)
    return np.abs(np.sin(theta)) * scale, np.cos(theta) * scale


def _ulps(got, want):
    return np.abs(got.view(np.int64) - want.view(np.int64))


def test_atan2_rows_within_one_ulp_of_math_atan2_on_the_kernel_range():
    y, x = _kernel_range_atan2_args()
    got = _atan2_rows(y, x)
    want = np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, y.size)
    assert _ulps(got, want).max() <= 1


def test_atan2_rows_equals_math_atan2_on_special_values():
    tiny = 5e-324
    pairs = [
        (0.0, 0.0), (0.0, -0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (1.0, -0.0),
        (tiny, 1.0), (tiny, -1.0), (tiny, 0.0), (1.0, tiny),
        (math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf),
        (0.0, math.inf), (0.0, -math.inf), (math.inf, math.inf), (math.inf, -math.inf),
        (math.inf, 0.0), (1.0, 1.0), (1.0, -1.0), (1e300, 1e-300), (1e-300, 1e300),
        (math.nan, 1.0), (1.0, math.nan), (0.0, math.nan), (math.nan, 0.0), (math.nan, math.nan),
    ]
    y = np.array([p[0] for p in pairs])
    x = np.array([p[1] for p in pairs])
    with np.errstate(all="raise"):  # the function keeps its own floating-point state
        got = _atan2_rows(y, x)
    for (yi, xi), g in zip(pairs, got.tolist()):
        want = math.atan2(yi, xi)
        assert g == want or (math.isnan(g) and math.isnan(want)), (yi, xi, g, want)
        t = oracle._atan2(yi, xi)
        assert t == want or (math.isnan(t) and math.isnan(want)), (yi, xi, t, want)
    # fdlibm's pi - (atan(t) - pi_lo) for x < 0 rounds pi/2 + tiny one ulp up
    y, x = np.array([1.0, math.inf]), np.array([-tiny, -1.0])
    assert _ulps(_atan2_rows(y, x), np.full(2, math.pi / 2)).max() == 1


def test_atan2_rows_equals_the_scalar_reference_bit_for_bit():
    y, x = _kernel_range_atan2_args()
    y, x = y[::5], x[::5]
    got = _atan2_rows(y, x)
    want = np.fromiter(map(oracle._atan2, y.tolist(), x.tolist()), float, y.size)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
