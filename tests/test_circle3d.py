import math

import numpy as np
import pytest

from meshes import random_pnp_pair, random_rotation, random_unit
import oracle
from oracle import ParallelNormalsError, chord_point, deviation_from_chord, helix_trace, z_dir
from pnpsubdiv import (
    Plane,
    Pnp,
    angle_between,
    circle_avg_2d,
    circle_avg_3d,
    geodesic_avg,
)
from pnpsubdiv.circle3d import _circle_avg_rows
from pnpsubdiv.errors import AntipodalNormalsError, NotInCarrierError

SQ2 = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# independent oracle: explicit 2D frame + candidate-center rotation
# ---------------------------------------------------------------------------

def _rot2(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _avg_2d_coords(p0, n0, p1, n1, w):
    """Planar circle average on 2D coordinates, formulated independently.

    The circle center is found among the two perpendicular-bisector
    candidates by requiring that rotating p0 around it by the signed normal
    angle lands on p1; the averaged point then comes from an explicit
    rotation matrix.
    """
    cross = n0[0] * n1[1] - n0[1] * n1[0]
    dot = float(n0 @ n1)
    theta = math.atan2(abs(cross), dot)
    sign = 1.0 if cross > 0 else -1.0
    normal = _rot2(sign * w * theta) @ n0
    d = float(np.linalg.norm(p1 - p0))
    if theta < 1e-9 or d < 1e-12:
        return (1 - w) * p0 + w * p1, normal
    radius = d / (2 * math.sin(theta / 2))
    mid = 0.5 * (p0 + p1)
    tang = (p1 - p0) / d
    perp = np.array([-tang[1], tang[0]])
    h = math.sqrt(max(radius * radius - 0.25 * d * d, 0.0))
    center = None
    for cand in (mid + h * perp, mid - h * perp):
        landed = cand + _rot2(sign * theta) @ (p0 - cand)
        if np.linalg.norm(landed - p1) < 1e-6 * max(d, 1.0):
            center = cand
            break
    assert center is not None, "no center reproduces the normal rotation"
    point = center + _rot2(sign * w * theta) @ (p0 - center)
    return point, normal


def avg_3d_in_frame(P0, P1, w, e1, e2):
    """3D circle average computed through an explicit in-plane frame."""
    z = np.cross(e1, e2)
    h = float((P1.point - P0.point) @ z)
    p1s = P1.point - h * z
    a1 = np.array([(p1s - P0.point) @ e1, (p1s - P0.point) @ e2])
    m0 = np.array([P0.normal @ e1, P0.normal @ e2])
    m1 = np.array([P1.normal @ e1, P1.normal @ e2])
    pt2, nm2 = _avg_2d_coords(np.zeros(2), m0, a1, m1, w)
    point = P0.point + pt2[0] * e1 + pt2[1] * e2 + (w * h) * z
    normal = nm2[0] * e1 + nm2[1] * e2
    return point, normal / np.linalg.norm(normal)


def random_frame(rng, z):
    """Random orthonormal in-plane frame for the plane normal ``z``."""
    v = random_unit(rng)
    e1 = v - (v @ z) * z
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(z, e1)
    if rng.uniform() < 0.5:
        e1, e2 = e2, e1  # exercise both handednesses
    return e1, e2


# ---------------------------------------------------------------------------
# circle_avg_3d
# ---------------------------------------------------------------------------

def test_endpoints_exact(rng):
    for _ in range(20):
        p0, p1 = random_pnp_pair(rng)
        assert np.array_equal(circle_avg_3d(p0, p1, 0.0).point, p0.point)
        assert np.array_equal(circle_avg_3d(p0, p1, 0.0).normal, p0.normal)
        assert np.array_equal(circle_avg_3d(p0, p1, 1.0).point, p1.point)
        assert np.array_equal(circle_avg_3d(p0, p1, 1.0).normal, p1.normal)


def test_antipodal_raises():
    p0 = Pnp((0, 0, 0), (0, 0, 1))
    p1 = Pnp((1, 0, 0), (0, 0, -1))
    with pytest.raises(AntipodalNormalsError):
        circle_avg_3d(p0, p1, 0.5)


def test_reduces_to_2d_for_coplanar_pairs(rng):
    carrier = Plane((0, 0, 0), (0, 0, 1))
    for _ in range(100):
        a = rng.uniform(0, 2 * math.pi, size=2)
        p0 = Pnp(np.append(rng.normal(size=2), 0.0), (math.cos(a[0]), math.sin(a[0]), 0.0))
        p1 = Pnp(np.append(rng.normal(size=2), 0.0), (math.cos(a[1]), math.sin(a[1]), 0.0))
        if angle_between(p0.normal, p1.normal) > math.pi - 1e-3:
            continue
        w = rng.uniform(-0.5, 1.5)
        flat = circle_avg_2d(p0, p1, w, carrier)
        spatial = circle_avg_3d(p0, p1, w)
        assert np.allclose(spatial.point, flat.point, atol=1e-12)
        assert np.allclose(spatial.normal, flat.normal, atol=1e-12)


def test_unit_sphere_sample():
    p0 = Pnp((1, 0, 0), (1, 0, 0))
    p1 = Pnp((0, 1, 0), (0, 1, 0))
    mid = circle_avg_3d(p0, p1, 0.5)
    assert np.allclose(mid.point, (SQ2, SQ2, 0), atol=1e-12)
    assert np.allclose(mid.normal, (SQ2, SQ2, 0), atol=1e-12)


def test_cylinder_helix_sample():
    # samples of (cos t, sin t, t) at t = 0 and t = pi/2, surface normals
    p0 = Pnp((1, 0, 0), (1, 0, 0))
    p1 = Pnp((0, 1, math.pi / 2), (0, 1, 0))
    mid = circle_avg_3d(p0, p1, 0.5)
    c4 = math.cos(math.pi / 4)
    assert np.allclose(mid.point, (c4, c4, math.pi / 4), atol=1e-12)
    assert np.allclose(mid.normal, (c4, c4, 0), atol=1e-12)


def test_equal_normals_linear():
    n = np.array([0.0, 0.0, 1.0])
    p0 = Pnp((0, 0, 0), n)
    p1 = Pnp((2, 4, 6), n)
    got = circle_avg_3d(p0, p1, 0.25)
    assert np.allclose(got.point, (0.5, 1.0, 1.5), atol=1e-15)
    assert np.allclose(got.normal, n)


def test_consistency(rng):
    for _ in range(400):
        p0, p1 = random_pnp_pair(rng)
        t, s, k = rng.uniform(size=3)
        pt = circle_avg_3d(p0, p1, t)
        ps = circle_avg_3d(p0, p1, s)
        composed = circle_avg_3d(pt, ps, k)
        direct = circle_avg_3d(p0, p1, k * s + (1 - k) * t)
        scale = np.linalg.norm(p1.point - p0.point)
        assert np.linalg.norm(composed.point - direct.point) < 1e-7 * scale
        assert angle_between(composed.normal, direct.normal) < 1e-7


def test_consistency_outside_unit_interval_recorded(rng):
    """Behavior for weights outside [0, 1] is recorded, not asserted.

    The construction stays consistent as long as the spanned normal angle
    |s - t| * theta stays below pi; beyond that the composed pair wraps
    around. This test documents the observed error for moderate
    extrapolation.
    """
    worst = 0.0
    for _ in range(100):
        p0, p1 = random_pnp_pair(rng, max_theta=1.5)
        t, s, k = rng.uniform(-0.5, 1.5, size=3)
        pt = circle_avg_3d(p0, p1, t)
        ps = circle_avg_3d(p0, p1, s)
        composed = circle_avg_3d(pt, ps, k)
        direct = circle_avg_3d(p0, p1, k * s + (1 - k) * t)
        scale = np.linalg.norm(p1.point - p0.point)
        worst = max(worst, np.linalg.norm(composed.point - direct.point) / scale)
    print(f"\nrecorded: worst extrapolated-consistency error = {worst:.3e}")
    assert math.isfinite(worst)


def test_frame_invariance(rng):
    for _ in range(60):
        p0, p1 = random_pnp_pair(rng)
        w = rng.uniform(0.0, 1.0)
        got = circle_avg_3d(p0, p1, w)
        z = z_dir(p0.normal, p1.normal)
        for _ in range(3):
            e1, e2 = random_frame(rng, z)
            pt, nm = avg_3d_in_frame(p0, p1, w, e1, e2)
            assert np.linalg.norm(pt - got.point) < 1e-10 * max(
                1.0, np.linalg.norm(p1.point - p0.point)
            )
            assert angle_between(nm, got.normal) < 1e-10


def test_rigid_equivariance(rng):
    for _ in range(100):
        p0, p1 = random_pnp_pair(rng)
        w = rng.uniform(-0.5, 1.5)
        base = circle_avg_3d(p0, p1, w)
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        moved = circle_avg_3d(
            Pnp(rot @ p0.point + shift, rot @ p0.normal),
            Pnp(rot @ p1.point + shift, rot @ p1.normal),
            w,
        )
        assert np.allclose(moved.point, rot @ base.point + shift, atol=1e-9)
        assert np.allclose(moved.normal, rot @ base.normal, atol=1e-9)


def test_sphere_preservation_single_average(rng):
    for _ in range(200):
        n0, n1 = random_unit(rng), random_unit(rng)
        if angle_between(n0, n1) > math.pi - 1e-3:
            continue
        radius = rng.uniform(0.5, 3.0)
        center = rng.normal(size=3)
        p0 = Pnp(center + radius * n0, n0)
        p1 = Pnp(center + radius * n1, n1)
        w = rng.uniform(0.0, 1.0)
        got = circle_avg_3d(p0, p1, w)
        assert abs(np.linalg.norm(got.point - center) - radius) < 1e-9 * radius
        assert angle_between(got.normal, got.point - center) < 1e-9


# ---------------------------------------------------------------------------
# chord point and deviation
# ---------------------------------------------------------------------------

def test_chord_point_values():
    assert np.allclose(chord_point((0, 0, 0), (2, 0, 2), 0.5), (1, 0, 1))
    assert np.allclose(chord_point((1, 2, 3), (5, 5, 5), 0.0), (1, 2, 3))
    assert np.allclose(chord_point((0, 0, 0), (4, 2, 0), 0.25), (1, 0.5, 0))


def _pair_with_angles(theta, phi, dist=1.0):
    """Pair with prescribed normal angle theta and chord angle phi to z."""
    n0 = np.array([math.cos(-theta / 2), math.sin(-theta / 2), 0.0])
    n1 = np.array([math.cos(theta / 2), math.sin(theta / 2), 0.0])
    # z_dir(n0, n1) = +z; chord at angle phi from z
    chord = dist * np.array([math.sin(phi), 0.0, math.cos(phi)])
    return Pnp((0, 0, 0), n0), Pnp(chord, n1)


def test_deviation_zero_when_chord_parallel_to_z():
    p0, p1 = _pair_with_angles(theta=1.0, phi=0.0)
    assert deviation_from_chord(p0, p1, 0.5) < 1e-15
    got = circle_avg_3d(p0, p1, 0.5)
    assert np.allclose(got.point, chord_point(p0.point, p1.point, 0.5), atol=1e-12)


def test_deviation_zero_at_endpoints():
    p0, p1 = _pair_with_angles(theta=1.2, phi=0.8)
    assert deviation_from_chord(p0, p1, 0.0) == 0.0
    assert deviation_from_chord(p0, p1, 1.0) < 1e-15


def test_deviation_example_value():
    # theta = pi/2, phi = pi/2, unit chord, w = 1/2: direct evaluation of the
    # cosine-rule expression
    ratio = math.sin(math.pi / 8) / math.sin(math.pi / 4)
    expect = math.sqrt(0.25 + ratio * ratio - ratio * math.cos(math.pi / 8))
    p0, p1 = _pair_with_angles(theta=math.pi / 2, phi=math.pi / 2)
    got = deviation_from_chord(p0, p1, 0.5)
    assert abs(got - expect) < 1e-12
    geometric = np.linalg.norm(
        circle_avg_3d(p0, p1, 0.5).point - chord_point(p0.point, p1.point, 0.5)
    )
    assert abs(geometric - expect) < 1e-12


def test_deviation_matches_construction_randomly(rng):
    for _ in range(300):
        p0, p1 = random_pnp_pair(rng)
        w = rng.uniform(0.0, 1.0)
        dev = deviation_from_chord(p0, p1, w)
        geo = np.linalg.norm(circle_avg_3d(p0, p1, w).point - chord_point(p0.point, p1.point, w))
        assert abs(dev - geo) < 1e-9 * np.linalg.norm(p1.point - p0.point)


def test_deviation_parallel_normals_raises():
    n = (0.0, 0.0, 1.0)
    with pytest.raises(ParallelNormalsError):
        deviation_from_chord(Pnp((0, 0, 0), n), Pnp((1, 0, 0), n), 0.5)
    with pytest.raises(AntipodalNormalsError):
        deviation_from_chord(Pnp((0, 0, 0), n), Pnp((1, 0, 0), (0.0, 0.0, -1.0)), 0.5)


def test_deviation_monotone_in_theta_and_phi():
    w = 0.37
    prev = math.inf
    for k in range(3, 10):
        p0, p1 = _pair_with_angles(theta=10.0 ** -k, phi=1.0)
        dev = deviation_from_chord(p0, p1, w)
        assert dev < prev
        prev = dev
    assert prev < 1e-9
    prev = math.inf
    for k in range(3, 10):
        p0, p1 = _pair_with_angles(theta=1.0, phi=10.0 ** -k)
        dev = deviation_from_chord(p0, p1, w)
        assert dev < prev
        prev = dev
    assert prev < 1e-9


# ---------------------------------------------------------------------------
# helix trace
# ---------------------------------------------------------------------------

def test_helix_trace_two_samples(rng):
    p0, p1 = random_pnp_pair(rng)
    pts = helix_trace(p0, p1, 2)
    assert np.array_equal(pts[0], p0.point)
    assert np.array_equal(pts[1], p1.point)


def test_helix_trace_stays_on_cylinder():
    p0 = Pnp((1, 0, 0), (1, 0, 0))
    p1 = Pnp((0, 1, math.pi / 2), (0, 1, 0))
    pts = helix_trace(p0, p1, 33)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(radii - 1.0).max() < 1e-9
    # projection onto the working plane z = 0 lies on the planar arc
    flat = [circle_avg_3d(p0, Pnp((0, 1, 0), (0, 1, 0)), i / 32).point for i in range(33)]
    assert np.allclose(pts[:, :2], np.array(flat)[:, :2], atol=1e-9)


def test_helix_trace_coplanar_inputs_stay_coplanar(rng):
    p0 = Pnp((0, 0, 0), (1, 0, 0))
    p1 = Pnp((1, 2, 0), (0, 1, 0))
    pts = helix_trace(p0, p1, 17)
    assert np.abs(pts[:, 2]).max() < 1e-15


def test_helix_trace_needs_two_samples(rng):
    p0, p1 = random_pnp_pair(rng)
    with pytest.raises(ValueError):
        helix_trace(p0, p1, 1)


# ---------------------------------------------------------------------------
# scale: the averages commute with scaling the points
# ---------------------------------------------------------------------------

def _tilted_carrier_pairs(s):
    """A tilted carrier through ``s * (0.3, -0.7, 1.1)`` and two pairs in it."""
    nz = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    e1 = np.array([2.0, -1.0, 0.0]) / math.sqrt(5.0)
    e2 = np.cross(nz, e1)
    origin = s * np.array([0.3, -0.7, 1.1])

    def pair(a, b, angle):
        return Pnp(origin + s * (a * e1 + b * e2), math.cos(angle) * e1 + math.sin(angle) * e2)

    return Plane(origin, nz), pair(0.2, -0.4, 0.3), pair(1.1, 0.5, 1.4)


@pytest.mark.parametrize("s", [1e-14, 1e-12, 1e-10, 1e-6, 1e6, 1e8, 1e12])
def test_averages_commute_with_scaling(s, rng):
    carrier, p0, p1 = _tilted_carrier_pairs(1.0)
    carrier_s, q0, q1 = _tilted_carrier_pairs(s)
    g0, g1 = random_pnp_pair(rng)
    h0, h1 = Pnp(s * g0.point, g0.normal), Pnp(s * g1.point, g1.normal)
    for w in (-0.25, 0.3, 0.5, 1.25):
        for want, got in (
            (circle_avg_2d(p0, p1, w, carrier), circle_avg_2d(q0, q1, w, carrier_s)),
            (circle_avg_3d(p0, p1, w), circle_avg_3d(q0, q1, w)),
            (circle_avg_3d(g0, g1, w), circle_avg_3d(h0, h1, w)),
        ):
            assert np.abs(got.point - s * want.point).max() < 1e-12 * s
            assert np.array_equal(got.normal, want.normal)


# ---------------------------------------------------------------------------
# the row kernel used by mesh refinement: bit-identical to the scalar oracle
# ---------------------------------------------------------------------------

def _rows(pairs, weights):
    """The row kernel on ``pairs``, stacked as ``(3, m)`` component arrays."""
    p0 = np.array([a.point for a, _ in pairs]).T
    n0 = np.array([a.normal for a, _ in pairs]).T
    p1 = np.array([b.point for _, b in pairs]).T
    n1 = np.array([b.normal for _, b in pairs]).T
    return _circle_avg_rows(p0, n0, p1, n1, np.array(weights, dtype=float))


def _rows_vs_scalar(pairs, weights):
    got = _rows(pairs, weights)
    want = [oracle.circle_avg_3d(a, b, w) for (a, b), w in zip(pairs, weights)]
    return got, want


def _assert_rows_equal(got, want):
    pt, nm, antipodal, invalid = got
    assert not (antipodal | invalid).any()
    assert np.array_equal(pt.T, np.array([r.point for r in want]))
    assert np.array_equal(nm.T, np.array([r.normal for r in want]))


def test_rows_match_scalar_bit_for_bit(rng):
    pairs, weights = [], []
    for _ in range(400):
        pairs.append(random_pnp_pair(rng, spread=float(rng.uniform(0.01, 100.0))))
        weights.append(float(rng.choice([rng.uniform(-0.5, 1.5), 0.0, 1.0, 0.375, -0.0625])))
    _assert_rows_equal(*_rows_vs_scalar(pairs, weights))


@pytest.mark.parametrize("angle", [0.0, 1e-13, 1e-10, 2e-9])
def test_rows_match_scalar_near_parallel_normals(rng, angle):
    n0 = random_unit(rng)
    axis = np.cross(n0, random_unit(rng))
    axis /= np.linalg.norm(axis)
    n1 = n0 * math.cos(angle) + np.cross(axis, n0) * math.sin(angle)
    pairs = [(Pnp(rng.normal(size=3), n0), Pnp(rng.normal(size=3), n1)) for _ in range(20)]
    weights = list(rng.uniform(-0.5, 1.5, size=20))
    _assert_rows_equal(*_rows_vs_scalar(pairs, weights))


def test_rows_match_scalar_on_coincident_chord():
    # chord p0 -> p1 parallel to z_dir(n0, n1): the projected chord vanishes
    n0 = np.array([1.0, 0.0, 0.0])
    n1 = np.array([SQ2, SQ2, 0.0])
    p0 = np.array([0.5, -1.0, 2.0])
    pairs = [(Pnp(p0, n0), Pnp(p0 + np.array([0.0, 0.0, h]), n1)) for h in (1.0, -3.0, 1e-3)]
    weights = [0.25, 0.5, 1.25]
    got, want = _rows_vs_scalar(pairs, weights)
    _assert_rows_equal(got, want)
    # the point moves straight along z, as the scalar coincident branch does
    assert np.array_equal(got[0][:2], np.tile(p0[:2, None], (1, 3)))


def test_rows_flag_exactly_the_pairs_the_scalar_average_rejects():
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    side = np.array([1.0, 0.0, 0.0])
    big = 1e308
    pairs = [
        (Pnp((0, 0, 0), up), Pnp((1, 0, 0), down)),  # antipodal
        (Pnp((0, 0, 0), up), Pnp((1, 0, 0), side)),
        (Pnp((-big, 0, 0), up), Pnp((big, 0, 0), side)),  # the chord overflows
        (Pnp((0, 0, 0), up), Pnp((1, 0, 0), down)),  # antipodal at an endpoint weight
    ]
    weights = [0.5, 0.5, 0.5, 0.0]
    rejected = []
    for (a, b), w in zip(pairs, weights):
        try:
            with np.errstate(all="ignore"):
                oracle.circle_avg_3d(a, b, w)
        except (AntipodalNormalsError, ValueError):
            rejected.append(True)
        else:
            rejected.append(False)
    assert rejected == [True, False, True, True]
    _, _, antipodal, invalid = _rows(pairs, weights)
    assert antipodal.tolist() == [True, False, False, True]
    assert (antipodal | invalid).tolist() == rejected


def _rotated(rng, n0, angle):
    axis = np.cross(n0, random_unit(rng))
    axis /= np.linalg.norm(axis)
    n1 = n0 * math.cos(angle) + np.cross(axis, n0) * math.sin(angle)
    return n1 / np.linalg.norm(n1)


def test_rows_merge_each_branch_only_where_a_row_takes_it(rng):
    """The kernel merges a branch only when some row takes it: a batch that
    takes none and a batch that mixes every branch into the same ordinary
    rows both equal the scalar oracle, and so each other, bit for bit."""
    ordinary = [random_pnp_pair(rng, spread=float(rng.uniform(0.1, 10.0))) for _ in range(12)]
    weights = [float(rng.uniform(-0.5, 1.5)) for _ in ordinary]
    branch, branch_weights = [], []
    for _ in range(3):
        a, b = random_pnp_pair(rng)
        n0 = a.normal
        branch += [
            (a, Pnp(b.point, n0)),  # equal normals: linear limit and tiny-theta slerp
            (a, Pnp(b.point, _rotated(rng, n0, 1e-13))),  # theta < 1e-12
            (a, Pnp(b.point, _rotated(rng, n0, 1e-10))),  # linear limit only
            (a, Pnp(a.point, b.normal)),  # duplicate points: zero chord
            (a, b),  # w = 0
            (a, b),  # w = 1
        ]
        branch_weights += [0.375, 1.25, -0.0625, 0.625, 0.0, 1.0]
    none = _rows(ordinary, weights)
    _assert_rows_equal(none, [oracle.circle_avg_3d(a, b, w) for (a, b), w in zip(ordinary, weights)])
    order = rng.permutation(len(ordinary) + len(branch))
    pairs = [(ordinary + branch)[i] for i in order]
    mixed_weights = [(weights + branch_weights)[i] for i in order]
    _assert_rows_equal(*_rows_vs_scalar(pairs, mixed_weights))
    mixed = _rows(pairs, mixed_weights)
    at = np.argsort(order)[: len(ordinary)]  # where the ordinary rows went
    assert np.array_equal(mixed[0][:, at], none[0])
    assert np.array_equal(mixed[1][:, at], none[1])


# ---------------------------------------------------------------------------
# the public averages are one-row kernel calls: bit-identical to the scalar oracle
# ---------------------------------------------------------------------------

def _outcome(average, *args):
    """The value of ``average(*args)``, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):  # the oracle's numpy floats warn where chords overflow
            return average(*args)
    except (AntipodalNormalsError, NotInCarrierError, ValueError) as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    elif isinstance(want, Pnp):
        assert got.point.tobytes() == want.point.tobytes()
        assert got.normal.tobytes() == want.normal.tobytes()
    else:
        assert got.tobytes() == want.tobytes()


WEIGHTS = (0.0, 1.0, -1 / 16, 9 / 16, 0.375, 1.25)


def _weight(rng):
    return float(rng.choice([rng.uniform(-0.5, 1.5), *WEIGHTS]))


def test_public_3d_and_geodesic_averages_equal_the_oracle(rng):
    cases = []
    for _ in range(200):  # random pairs
        pair = random_pnp_pair(rng, spread=float(rng.uniform(0.01, 100.0)))
        cases.append((*pair, _weight(rng)))
    for angle in (0.0, 1e-13, 1e-10, 2e-9, 1e-6):  # near-parallel normals
        n0 = random_unit(rng)
        axis = np.cross(n0, random_unit(rng))
        axis /= np.linalg.norm(axis)
        n1 = n0 * math.cos(angle) + np.cross(axis, n0) * math.sin(angle)
        n1 /= np.linalg.norm(n1)
        for _ in range(10):
            cases.append((Pnp(rng.normal(size=3), n0), Pnp(rng.normal(size=3), n1), _weight(rng)))
    n0, n1 = np.array([1.0, 0.0, 0.0]), np.array([SQ2, SQ2, 0.0])
    for h in (1.0, -3.0, 1e-3, 0.0):  # the chord parallel to z_dir(n0, n1), or no chord
        p0 = rng.normal(size=3)
        for w in WEIGHTS:
            cases.append((Pnp(p0, n0), Pnp(p0 + np.array([0.0, 0.0, h]), n1), w))
    for a, b, w in cases:
        _assert_same_outcome(circle_avg_3d(a, b, w), oracle.circle_avg_3d(a, b, w))
        n0, n1 = a.normal, b.normal
        _assert_same_outcome(geodesic_avg(n0, n1, w), oracle.geodesic_avg(n0, n1, w))


@pytest.mark.parametrize("tilted", [False, True], ids=["xy", "tilted"])
def test_public_2d_average_equals_the_oracle(rng, tilted):
    for _ in range(30):
        frame = random_rotation(rng) if tilted else np.eye(3)
        e1, e2, nz = frame.T
        carrier = Plane(rng.normal(size=3) if tilted else np.zeros(3), nz)

        def pnp(xy, phi):
            point = carrier.origin + xy[0] * e1 + xy[1] * e2
            return Pnp(point, math.cos(phi) * e1 + math.sin(phi) * e2)

        phi = rng.uniform(-math.pi, math.pi)
        p0 = rng.normal(size=2) * rng.uniform(0.01, 100.0)
        for dphi in (rng.uniform(-3.0, 3.0), 0.0, 1e-13, 2e-9, 1e-6):
            for p1 in (rng.normal(size=2) * 10.0, p0):  # distinct and coincident points
                a, b, w = pnp(p0, phi), pnp(p1, phi + dphi), _weight(rng)
                want = oracle.circle_avg_2d(a, b, w, carrier)
                _assert_same_outcome(circle_avg_2d(a, b, w, carrier), want)


def test_public_averages_raise_as_the_oracle():
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    side = np.array([1.0, 0.0, 0.0])
    big = 1e308
    xz = Plane((0, 0, 0), (0, 1, 0))
    xy = Plane((0, 0, 0), (0, 0, 1))
    cases = [
        (Pnp((0, 0, 0), up), Pnp((1, 0, 0), down), w, xz)  # antipodal, also at the endpoints
        for w in (0.5, 0.0, 1.0)
    ] + [
        (Pnp((-big, 0, 0), up), Pnp((big, 0, 0), side), 0.5, xz),  # the chord overflows
        (Pnp((0, 0, 0), up), Pnp((1, 0, 0), side), 0.5, xy),  # a normal out of the carrier
        (Pnp((0, 0, 1), side), Pnp((1, 0, 0), side), 0.5, xy),  # a point out of the carrier
    ]
    for a, b, w, carrier in cases:
        want_3d = _outcome(oracle.circle_avg_3d, a, b, w)
        want_2d = _outcome(oracle.circle_avg_2d, a, b, w, carrier)
        want_geo = _outcome(oracle.geodesic_avg, a.normal, b.normal, w)
        _assert_same_outcome(_outcome(circle_avg_3d, a, b, w), want_3d)
        _assert_same_outcome(_outcome(circle_avg_2d, a, b, w, carrier), want_2d)
        _assert_same_outcome(_outcome(geodesic_avg, a.normal, b.normal, w), want_geo)
    assert isinstance(_outcome(circle_avg_3d, *cases[3][:3]), ValueError)
    assert isinstance(_outcome(circle_avg_2d, *cases[3]), ValueError)
    for c in cases[:3]:
        assert isinstance(_outcome(circle_avg_3d, *c[:3]), AntipodalNormalsError)
    assert all(isinstance(_outcome(circle_avg_2d, *c), NotInCarrierError) for c in cases[4:])


def test_public_averages_return_their_inputs_at_the_endpoints(rng):
    p0, p1 = random_pnp_pair(rng)
    assert circle_avg_3d(p0, p1, 0.0) is p0
    assert circle_avg_3d(p0, p1, 1.0) is p1
    flat = Plane((0, 0, 0), (0, 0, 1))
    q0, q1 = Pnp((1, 0, 0), (1, 0, 0)), Pnp((0, 1, 0), (0, 1, 0))
    assert circle_avg_2d(q0, q1, 0.0, flat) is q0
    assert circle_avg_2d(q0, q1, 1.0, flat) is q1
