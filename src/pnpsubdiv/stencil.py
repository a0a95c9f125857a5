"""Affine stencil tables and their compilation into chains of binary averages.

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

Mesh refinement keeps a whole level in one CSR :class:`StencilTable`, and
:func:`compile_table` yields every row's element order and binary weights as
arrays, so a level is folded as a few vector steps. The scalar reference,
which compiles and folds one stencil at a time, lives in the test suite
(``tests/oracle.py``); the tests require the same floats from both. No
stencil or plan is cached by its content: stencils hold absolute vertex
indices, so almost none repeat. A level's table and its plans depend on
topology only, so :class:`~pnpsubdiv.schemes.Refiner` builds them once per
level and evaluates them on any number of vertex and normal sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AffineWeightError

__all__ = ["StencilTable", "PlanTable", "compile_table"]

_SUM_TOL = 1e-12


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
        have at least one term and weights summing to one within 1e-12; the
        lowest row that does not raises :class:`AffineWeightError`. Indices
        must be nonnegative.
        """
        n = int(index.max(initial=-1)) + 1
        # bincount adds each bin's weights to 0.0 one at a time in input order
        keys, slot = np.unique(rows * n + index, return_inverse=True)
        summed = np.bincount(slot, weight, len(keys))
        keep = summed != 0.0
        rows, index, weight = keys[keep] // n, keys[keep] % n, summed[keep]

        total = np.bincount(rows, weight, count)
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


@dataclass(frozen=True)
class PlanTable:
    """The plans of many stencils, step by step as arrays.

    ``rows`` lists the stencil numbers with the longest plan first; position
    ``r`` of every other array refers to stencil ``rows[r]``. ``first`` holds
    each plan's first element. ``steps[k - 1]`` is the pair ``(index, w)``
    of element indices and binary weights of fold step ``k``, for the first
    ``len(index)`` positions, which are the plans that have a step ``k``.
    The plan of stencil ``rows[r]`` starts from element ``first[r]`` and
    takes the steps ``(index[r], w[r])`` for which ``r < len(index)``; the
    scalar reference in ``tests/oracle.py`` compiles each row to the same
    plan.
    """

    rows: np.ndarray
    first: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]


def compile_table(table: StencilTable) -> PlanTable:
    """Compile every row of ``table`` at once into its chain of binary averages.

    The terms are put in plan order by a single sort: by row, positive
    weights first, then descending absolute weight, then ascending index.
    Each binary weight is the term's weight over the running weight sum, the
    same floats as the scalar reference in ``tests/oracle.py`` computes one
    row at a time. Raises :class:`AffineWeightError` for a row without a
    positive weight or with a non-positive partial weight sum.
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
