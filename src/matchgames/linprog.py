"""One-phase dense simplex for the packing LP of a matrix game.

A game with payoffs shifted into [1, 3] reduces to one packing LP
(Dantzig 1951): maximize 1^T w subject to B w <= 1, w >= 0. The origin is a
feasible basis and the optimum is bounded, so the solve needs no phase 1,
no artificial or free variables and no status: it pivots by Bland's rule
until no reduced cost is negative.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9


def solve_lp(B) -> tuple[np.ndarray, np.ndarray]:
    """Primal optimum w and dual optimum u of max 1^T w s.t. B w <= 1, w >= 0.

    B is an m x k matrix with entries in [1, 3]. Bland's rule picks the
    lowest-index entering column and breaks minimum-ratio ties by the lowest
    basis index. The slack columns' reduced costs give u, which solves
    min 1^T u s.t. B^T u >= 1, u >= 0 with 1^T u = 1^T w.
    """
    m, k = B.shape
    T = np.zeros((m + 1, k + m + 1))
    T[:m, :k] = B
    T[:m, k:-1] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :k] = -1.0
    basis = np.arange(k, k + m)
    while True:
        negative = np.flatnonzero(T[m, :-1] < -PIVOT_TOL)
        if negative.size == 0:
            break
        enter = negative[0]
        rows = np.flatnonzero(T[:m, enter] > PIVOT_TOL)
        if rows.size == 0:
            raise RuntimeError(f"entering column {enter} has no positive entry")
        ratios = T[rows, -1] / T[rows, enter]
        tied = rows[ratios <= ratios.min() + 1e-12]
        leave = tied[np.argmin(basis[tied])]
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        basis[leave] = enter
    x = np.zeros(k + m)
    x[basis] = T[:m, -1]
    return x[:k], T[m, k:-1].copy()
