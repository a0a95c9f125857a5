"""The scalar references the tests hold the library's array code to.

A :class:`Stencil` is one affine combination, :func:`compile_plan` turns it
into its chain of weighted binary averages and :func:`evaluate_plan` folds
that chain with any binary average: :func:`affine_average` gives the
classical scheme, :func:`~pnpsubdiv.circle3d.circle_avg_3d` the modified
one. The library folds a whole level at once from a CSR
:class:`~pnpsubdiv.stencil.StencilTable` (:func:`~pnpsubdiv.stencil.compile_table`
and ``schemes._circle_fold``); these functions do the same one stencil and
one average at a time, in the term order described in
:mod:`pnpsubdiv.stencil`, and the tests require the same floats and errors.

:func:`chord_point` and :func:`helix_trace` are the straight-chord and
swept-weight views of one circle average that the circle-average tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pnpsubdiv import Pnp, circle_avg_3d
from pnpsubdiv.errors import AffineWeightError, StencilError
from pnpsubdiv.stencil import _SUM_TOL, StencilTable


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
        out[i] = circle_avg_3d(P0, P1, i / last).point
    return out
