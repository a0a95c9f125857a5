import math

import numpy as np
import pytest

import oracle
from oracle import (
    AvgPlan,
    Stencil,
    ZeroWeightError,
    affine_average,
    as_stencils,
    as_table,
    compile_plan,
    evaluate_plan,
)
from pnpsubdiv import Pnp
from pnpsubdiv.errors import AffineWeightError
from pnpsubdiv.stencil import StencilTable, compile_table


def test_stencil_rejects_bad_weights():
    with pytest.raises(AffineWeightError):
        Stencil(((0, 0.5), (1, 0.6)))
    with pytest.raises(ZeroWeightError):
        Stencil(((0, 0.0), (1, 1.0)))
    with pytest.raises(ValueError):
        Stencil(((0, 0.5), (0, 0.5)))
    with pytest.raises(AffineWeightError):
        Stencil(())
    with pytest.raises(AffineWeightError):
        Stencil(((0, math.nan), (1, 1.0)))


def _merged(count, terms):
    """``StencilTable.merged`` of ``(row, index, weight)`` triples."""
    rows, index, weight = zip(*terms)
    return StencilTable.merged(count, np.array(rows), np.array(index), np.array(weight))


def test_merged_collapses_duplicates_and_zeros():
    table = _merged(1, [(0, 0, 0.5), (0, 1, 0.75), (0, 1, -0.25), (0, 2, 0.125), (0, 2, -0.125)])
    assert as_stencils(table)[0].terms == ((0, 0.5), (1, 0.5))


def test_merged_sorts_rows_and_sums_repeats_in_the_given_order():
    # three repeats of index 4, whose sum depends on the order of addition
    weights = [0.1, 0.7, 0.2]
    assert (0.1 + 0.7) + 0.2 != (0.2 + 0.7) + 0.1
    terms = [(1, 4, w) for w in weights] + [(0, 9, 0.25), (0, 2, 0.75), (1, 3, 0.0)]
    table = _merged(2, terms)
    assert as_stencils(table)[0].terms == ((2, 0.75), (9, 0.25))
    assert as_stencils(table)[1].terms == ((4, (0.1 + 0.7) + 0.2),)
    assert np.array_equal(table.indptr, [0, 2, 3])


@pytest.mark.parametrize(
    "terms,message",
    [
        ([(0, 0, 1.0), (1, 2, 0.5), (1, 2, -0.5)], "row 1: stencil must have at least one term"),
        ([(0, 0, 1.0), (2, 1, 1.0)], "row 1: stencil must have at least one term"),
        ([(0, 0, 1.0), (1, 0, 0.5), (1, 1, 0.6)], "row 1: weights sum to 1.1, expected 1"),
        (
            [(0, 0, 0.5), (0, 1, 0.5), (1, 0, math.nan), (1, 1, 1.0)],
            "row 1: weights sum to nan, expected 1",
        ),
    ],
)
def test_merged_rejects_invalid_rows(terms, message):
    with pytest.raises(AffineWeightError) as err:
        _merged(3, terms)
    assert str(err.value) == message


def test_compile_two_terms():
    plan = compile_plan(Stencil(((0, 0.5), (1, 0.5))))
    assert plan == AvgPlan(first=0, steps=((1, 0.5),))


def test_compile_four_point_stencil():
    # positives first, then the two negative taps; binary weights follow the
    # running-sum recursion: partial sums 9/8, 17/16, 1
    st = Stencil(((0, 9 / 16), (1, 9 / 16), (2, -1 / 16), (3, -1 / 16)))
    plan = compile_plan(st)
    assert plan.first == 0
    (i1, w1), (i2, w2), (i3, w3) = plan.steps
    assert (i1, i2, i3) == (1, 2, 3)
    assert w1 == pytest.approx(0.5, abs=1e-15)
    assert w2 == pytest.approx(-1 / 17, abs=1e-15)
    assert w3 == pytest.approx(-1 / 16, abs=1e-15)


def test_compile_reorders_positives_first():
    plan = compile_plan(Stencil(((0, -1 / 8), (1, 9 / 8))))
    assert plan.first == 1
    assert plan.steps == ((0, -1 / 8),)


def test_identity_stencil_evaluates_to_the_element():
    plan = compile_plan(Stencil(((3, 1.0),)))
    assert plan.steps == ()
    marker = object()
    assert evaluate_plan(plan, [None, None, None, marker], affine_average) is marker


def test_affine_evaluation_midpoint():
    plan = compile_plan(Stencil(((0, 0.5), (1, 0.5))))
    pts = [np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])]
    assert np.allclose(evaluate_plan(plan, pts, affine_average), (1, 0, 0))


def test_affine_evaluation_four_point_insertion():
    # elements: index 2 -> -1, index 0 -> 0, index 1 -> 1, index 3 -> 2
    st = Stencil(((0, 9 / 16), (1, 9 / 16), (2, -1 / 16), (3, -1 / 16)))
    pts = [np.array([0.0]), np.array([1.0]), np.array([-1.0]), np.array([2.0])]
    got = evaluate_plan(compile_plan(st), pts, affine_average)
    assert got[0] == pytest.approx(0.5, abs=1e-15)


def test_circle_average_with_equal_normals_matches_affine(rng):
    n = np.array([0.0, 0.0, 1.0])
    pts = [rng.normal(size=3) for _ in range(5)]
    pnps = [Pnp(p, n) for p in pts]
    weights = np.array([0.4, 0.3, 0.5, -0.1, -0.1])
    st = Stencil(tuple((i, w) for i, w in enumerate(weights)))
    plan = compile_plan(st)
    direct = sum(w * p for w, p in zip(weights, pts))
    via_circle = evaluate_plan(plan, pnps, oracle.circle_avg_3d)
    assert np.allclose(via_circle.point, direct, atol=1e-12)
    assert np.allclose(via_circle.normal, n)


def test_index_out_of_range():
    plan = compile_plan(Stencil(((0, 0.5), (5, 0.5))))
    with pytest.raises(IndexError):
        evaluate_plan(plan, [np.zeros(3), np.zeros(3)], affine_average)


def _random_affine_stencil(rng, max_terms=10):
    k = int(rng.integers(2, max_terms + 1))
    while True:
        weights = rng.uniform(-1.0, 1.0, size=k)
        if (np.abs(weights) > 1e-3).all() and abs(weights.sum()) > 0.3 and (weights > 0).any():
            break
    weights /= weights.sum()
    return Stencil(tuple((i, float(w)) for i, w in enumerate(weights)))


def test_affine_equivalence_random(rng):
    for _ in range(500):
        st = _random_affine_stencil(rng)
        pts = rng.normal(size=(len(st.terms), 3))
        weights = np.array([w for _, w in st.terms])
        direct = (weights[:, None] * pts).sum(axis=0)
        plan = compile_plan(st)
        # compiled partial sums stay strictly positive by the reordering
        sigma = dict(st.terms)[plan.first]
        for idx, w in plan.steps:
            sigma += dict(st.terms)[idx]
            assert sigma > 0.0
        got = evaluate_plan(plan, list(pts), affine_average)
        scale = max(1.0, float(np.abs(pts).max()) * float(np.abs(weights).sum()))
        assert np.linalg.norm(got - direct) < 1e-12 * scale


def test_order_insensitivity_recorded(rng):
    """Affine results are order-exact; the circle-average spread is recorded.

    Chains evaluated in different positives-first orders agree exactly under
    the affine operator. The nonlinear circle average is only nearly
    order-independent; the observed spread is printed for the record.
    """
    st = Stencil(((0, 9 / 16), (1, 9 / 16), (2, -1 / 16), (3, -1 / 16)))
    alt = Stencil(((1, 9 / 16), (0, 9 / 16), (3, -1 / 16), (2, -1 / 16)))
    pts = [rng.normal(size=3) for _ in range(4)]
    a = evaluate_plan(compile_plan(st), pts, affine_average)
    b = evaluate_plan(compile_plan(alt), pts, affine_average)
    assert np.allclose(a, b, atol=1e-13)

    spread = 0.0
    for _ in range(50):
        pnps = []
        base = rng.normal(size=3)
        for _ in range(4):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            n = n if n[2] > 0 else -n  # keep angles well away from pi
            pnps.append(Pnp(base + rng.normal(size=3), n))
        a = evaluate_plan(compile_plan(st), pnps, oracle.circle_avg_3d)
        b = evaluate_plan(compile_plan(alt), pnps, oracle.circle_avg_3d)
        spread = max(spread, float(np.linalg.norm(a.point - b.point)))
    print(f"\nrecorded: circle-average spread across summand orders = {spread:.3e}")
    assert math.isfinite(spread)


# ---------------------------------------------------------------------------
# whole-level compilation
# ---------------------------------------------------------------------------

def _table_plans(table):
    """The AvgPlan of every stencil, read back from a PlanTable."""
    plans = {}
    for r, row in enumerate(table.rows):
        steps = tuple((int(idx[r]), float(w[r])) for idx, w in table.steps if r < len(idx))
        plans[int(row)] = AvgPlan(first=int(table.first[r]), steps=steps)
    return [plans[i] for i in range(len(plans))]


def test_compile_table_equals_compile_plan(rng):
    stencils = [_random_affine_stencil(rng, max_terms=12) for _ in range(300)]
    # equal weights tie-broken by index, an identity stencil, negative taps
    stencils += [Stencil(((7, 0.25), (3, 0.25), (5, 0.25), (1, 0.25))), Stencil(((4, 1.0),))]
    stencils += [Stencil(((2, 9 / 16), (0, 9 / 16), (9, -1 / 16), (6, -1 / 16)))]
    assert _table_plans(compile_table(as_table(stencils))) == [compile_plan(st) for st in stencils]


def _unchecked(terms):
    """A Stencil that skips validation, as a caller bypassing it could build."""
    st = object.__new__(Stencil)
    object.__setattr__(st, "terms", terms)
    return st


@pytest.mark.parametrize(
    "terms,message",
    [
        (((0, -0.5), (1, -0.5)), "no positive weight"),
        (((0, 0.5), (1, -0.7)), "non-positive partial weight sum"),
    ],
)
def test_compile_rejects_non_positive_partial_sums(terms, message):
    good = Stencil(((0, 0.5), (1, 0.5)))
    with pytest.raises(AffineWeightError, match=message):
        compile_plan(_unchecked(terms))
    with pytest.raises(AffineWeightError, match=message):
        compile_table(as_table([good, _unchecked(terms)]))
