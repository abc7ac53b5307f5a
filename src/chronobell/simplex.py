"""Dense phase-1 simplex for tiny feasibility problems, in plain floats.

Answers one question: does ``A x = b`` admit an ``x >= 0``? The systems this
package solves are fixed and small (17 equations, 16 unknowns for local
polytope membership), so a dense tableau with Bland's smallest-index pivot
rule is the whole story; Bland's rule cannot cycle, so no perturbation or
anti-degeneracy machinery is needed. Ratio ties are exact: a fixed tie width
would pick a row whose ratio is larger by up to that width and read tiny
phase-1 residuals low. The tableau is rows of floats, and every sum and row
operation is numpy's, in numpy's order, so residuals keep their last bits.
"""

from __future__ import annotations

import math

MAX_PIVOTS = 10_000


def _pairwise_sum(values: list[float]) -> float:
    """numpy's sum of a float64 vector before it adds 0.0: under 8 values left to right
    from -0.0; up to 128, 8 running sums as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest;
    longer, two halves split at a multiple of 8. Never the (compensated) builtin sum."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total = -0.0
    if n >= 8:
        acc = values[:8]
        for i in range(8, n - n % 8, 8):
            acc = [a + x for a, x in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        values = values[n - n % 8:]
    for x in values:
        total += x
    return total


def _column_sums(rows: list[list[float]]) -> list[float]:
    """numpy's ``A.sum(axis=0)``: the rows added in order, but one column summed as a vector."""
    if rows and len(rows[0]) == 1:
        return [0.0 + _pairwise_sum([row[0] for row in rows])]
    sums = [0.0] * (len(rows[0]) if rows else 0)
    for row in rows:
        sums = [total + x for total, x in zip(sums, row)]
    return sums


def solve_feasibility(
    A, b, tol: float = 1e-9, *, residual_tol: float | None = None
) -> list[float] | None:
    """Find x >= 0 with A x = b, or None if no such x exists (within tol).

    `A` is m rows of n numbers and `b` m numbers (nested lists or arrays).
    Minimizes the sum of artificial variables; feasible iff that optimum is
    at most `residual_tol` (default `tol`, which also bounds the pivots).
    Entering variable: smallest index with a negative reduced cost.
    Leaving variable: among minimal-ratio rows, the one whose basic variable
    has the smallest index (Bland), if any: else phase 1 ends as at optimality.
    """
    rows, rhs = [[float(x) for x in row] for row in A], [float(x) for x in b]
    m, n = len(rhs), len(rows[0]) if rows else 0
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ValueError("A must be (m, n) and b length m")

    for i in range(m):
        if rhs[i] < 0.0:
            rows[i], rhs[i] = [-x for x in rows[i]], -rhs[i]

    # columns: n structural, m artificial, rhs; last row = phase-1 reduced costs
    tableau = [rows[i] + [float(i == k) for k in range(m)] + [rhs[i]] for i in range(m)]
    tableau.append([-t for t in _column_sums(rows)] + [0.0] * m + [-(0.0 + _pairwise_sum(rhs))])
    basis = list(range(n, n + m))

    for _ in range(MAX_PIVOTS):
        entering = next((j for j in range(n + m) if tableau[m][j] < -tol), -1)
        if entering < 0:
            break

        leaving, best_ratio = -1, math.inf
        for i in range(m):
            coef = tableau[i][entering]
            if coef > tol:
                ratio = tableau[i][-1] / coef
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:  # the phase-1 objective is bounded below by 0: as optimal, judge it
            break
        divisor = tableau[leaving][entering]
        pivot = tableau[leaving] = [x / divisor for x in tableau[leaving]]
        for i, row in enumerate(tableau):
            if i != leaving and (factor := row[entering]) != 0.0:
                tableau[i] = [x - factor * y for x, y in zip(row, pivot)]
        basis[leaving] = entering
    else:
        raise ArithmeticError(f"simplex did not converge in {MAX_PIVOTS} pivots")

    residual = -tableau[m][-1]  # value of sum-of-artificials at the optimum
    if not residual <= (tol if residual_tol is None else residual_tol):  # NaN too
        return None
    x = [0.0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i][-1], 0.0)
    return x
