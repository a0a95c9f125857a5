"""Affine stencils and their compilation into chains of binary averages.

A subdivision rule computes an output element as an affine combination of
``k`` input elements. Rewriting that combination as ``k - 1`` weighted
binary averages lets the same rule run with *any* binary average operator:
the plain affine one reproduces the linear scheme exactly, and the circle
average of point-normal pairs yields the modified scheme.

Compilation reorders the terms so that all positive weights come first.
Because the weights sum to one, every partial sum is then strictly positive
and no binary weight ever divides by zero. Within each sign group terms are
ordered by descending absolute weight, ties by ascending element index, so
plans are identical across runs and platforms. (Observed nonlinear results
are nearly independent of the order, so any fixed order does; the recorded
spread across orders is checked in the test suite, not asserted.)

:class:`Stencil`, :func:`compile_plan` and :func:`evaluate_plan` handle one
stencil and are the scalar reference. Mesh refinement keeps a whole level
in one CSR :class:`StencilTable`, and :func:`compile_table` yields the same
element order and binary weights for every row as arrays, so a level is
folded as a few vector steps. Nothing is cached: stencils hold absolute
vertex indices, so almost none repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AffineWeightError, ZeroWeightError

__all__ = [
    "Stencil",
    "StencilTable",
    "AvgPlan",
    "PlanTable",
    "compile_plan",
    "compile_table",
    "evaluate_plan",
    "affine_average",
]

_SUM_TOL = 1e-12


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


@dataclass(frozen=True)
class StencilTable:
    """Many stencils as one CSR table: row ``i`` has the terms ``(index[k],
    weight[k])`` for ``k`` in ``indptr[i]:indptr[i + 1]``, indices ascending.
    """

    indptr: np.ndarray
    index: np.ndarray
    weight: np.ndarray

    @classmethod
    def merged(cls, count: int, rows, index, weight) -> "StencilTable":
        """The table of rows ``0 .. count - 1`` with term ``(index[k], weight[k])`` in row ``rows[k]``.

        Rules assembled from overlapping templates (butterfly wings on small
        meshes, tensor-product grids that wrap around) can hit an element
        more than once in a row or cancel it out. Repeats are summed one by
        one in the order given, and zero sums dropped. Every row must then
        be a valid :class:`Stencil`; the lowest row that is not raises
        :class:`AffineWeightError`. Indices must be nonnegative.
        """
        n = int(index.max(initial=-1)) + 1
        keys, slot = np.unique(rows * n + index, return_inverse=True)
        summed = np.zeros(len(keys))
        np.add.at(summed, slot, weight)
        keep = summed != 0.0
        rows, index, weight = keys[keep] // n, keys[keep] % n, summed[keep]

        total = np.zeros(count)
        np.add.at(total, rows, weight)
        bad = np.flatnonzero(~(np.abs(total - 1.0) <= _SUM_TOL))  # also refuses a nan weight
        lengths = np.bincount(rows, minlength=count)
        if len(bad):
            i = int(bad[0])
            if lengths[i] == 0:
                raise AffineWeightError(f"row {i}: stencil must have at least one term")
            raise AffineWeightError(f"row {i}: weights sum to {float(total[i])!r}, expected 1")
        return cls(np.concatenate(([0], np.cumsum(lengths))), index, weight)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def stencil(self, i: int) -> Stencil:
        """Row ``i`` as a :class:`Stencil`, the input of the scalar reference."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return Stencil(tuple(zip(self.index[s:e].tolist(), self.weight[s:e].tolist())))


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


@dataclass(frozen=True)
class PlanTable:
    """The plans of many stencils, step by step as arrays.

    ``rows`` lists the stencil numbers with the longest plan first; position
    ``r`` of every other array refers to stencil ``rows[r]``. ``first`` holds
    each plan's first element. ``steps[k - 1]`` is the pair ``(index, w)``
    of element indices and binary weights of fold step ``k``, for the first
    ``len(index)`` positions, which are the plans that have a step ``k``.
    Stencil ``rows[r]`` compiles to the :class:`AvgPlan` with ``first[r]``
    and the steps ``(index[r], w[r])`` for which ``r < len(index)``.
    """

    rows: np.ndarray
    first: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]


def compile_table(table: StencilTable) -> PlanTable:
    """Compile every row of ``table`` at once, as :func:`compile_plan` would one by one.

    The terms are put in plan order by a single sort: by row, positive
    weights first, then descending absolute weight, then ascending index.
    The binary weights are computed from the same running sums, so they are
    the same floats. Raises :class:`AffineWeightError` like
    :func:`compile_plan`.
    """
    lengths = np.diff(table.indptr)
    index, weight = table.index, table.weight
    stencil_of = np.repeat(np.arange(len(table)), lengths)
    order = np.lexsort((index, -np.abs(weight), weight < 0.0, stencil_of))
    index, weight = index[order], weight[order]

    rows = np.argsort(-lengths, kind="stable")
    starts = table.indptr[rows]
    lengths = lengths[rows]
    sigma = weight[starts]
    if not (sigma > 0.0).all():
        raise AffineWeightError("stencil has no positive weight")
    steps = []
    for k in range(1, int(lengths.max(initial=0))):
        at = starts[: np.count_nonzero(lengths > k)] + k
        alpha = weight[at]
        denom = sigma[: len(at)] + alpha
        bad = np.flatnonzero(denom <= 0.0)
        if len(bad):
            raise AffineWeightError(f"non-positive partial weight sum {float(denom[bad[0]])!r}")
        steps.append((index[at], alpha / denom))
        sigma[: len(at)] = denom
    return PlanTable(rows=rows, first=index[starts], steps=tuple(steps))


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
