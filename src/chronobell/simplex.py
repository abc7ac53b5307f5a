"""Dense phase-1 simplex for tiny feasibility problems.

Answers one question: does ``A x = b`` admit an ``x >= 0``? The systems this
package solves are fixed and small (17 equations, 16 unknowns for local
polytope membership), so a dense tableau with Bland's smallest-index pivot
rule is the whole story; Bland's rule cannot cycle, so no perturbation or
anti-degeneracy machinery is needed. Ratio ties are exact: a fixed tie width
would pick a row whose ratio is larger by up to that width and read tiny
phase-1 residuals low.
"""

from __future__ import annotations

import numpy as np

MAX_PIVOTS = 10_000


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]


def solve_feasibility(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    *,
    residual_tol: float | None = None,
) -> np.ndarray | None:
    """Find x >= 0 with A x = b, or None if no such x exists (within tol).

    Minimizes the sum of artificial variables; feasible iff that optimum is
    at most `residual_tol` (default `tol`, which also bounds the pivots).
    Entering variable: smallest index with a negative reduced cost.
    Leaving variable: among minimal-ratio rows, the one whose basic variable
    has the smallest index (Bland).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (m, n) and b length m")
    m, n = A.shape

    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0

    # columns: n structural, m artificial, rhs; last row = phase-1 reduced costs
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    for _ in range(MAX_PIVOTS):
        entering = -1
        for j in range(n + m):
            if tableau[m, j] < -tol:
                entering = j
                break
        if entering < 0:
            break

        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coef = tableau[i, entering]
            if coef > tol:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leaving]):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise ArithmeticError("phase-1 simplex reported an unbounded direction")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    else:
        raise ArithmeticError(f"simplex did not converge in {MAX_PIVOTS} pivots")

    residual = -tableau[m, -1]  # value of sum-of-artificials at the optimum
    if residual > (tol if residual_tol is None else residual_tol):
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    return x
