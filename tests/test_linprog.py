"""Packing-LP kernel tests against a brute-force vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

from matchgames.linprog import solve_lp

TOL = 1e-9


def vertex_oracle(B: np.ndarray) -> float:
    """Maximum of 1^T w over all basic feasible points of B w <= 1, w >= 0.

    Enumerates every k-subset of the constraint and sign hyperplanes, solves
    the square system, and keeps points satisfying all constraints. The
    region is a polytope, so its maximum sits at one of these vertices.
    Completely independent of the simplex code path.
    """
    m, k = B.shape
    G_all = np.vstack([B, np.eye(k)])
    h_all = np.concatenate([np.ones(m), np.zeros(k)])
    best = None
    for subset in itertools.combinations(range(m + k), k):
        try:
            w = np.linalg.solve(G_all[list(subset)], h_all[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if (w >= -TOL).all() and (B @ w <= 1.0 + TOL).all():
            value = float(w.sum())
            if best is None or value > best:
                best = value
    return best


def check_optimal_pair(B: np.ndarray, w: np.ndarray, u: np.ndarray) -> None:
    m, k = B.shape
    assert w.shape == (k,) and u.shape == (m,)
    # primal feasibility
    assert (w >= -TOL).all()
    assert (B @ w <= 1.0 + TOL).all()
    # dual feasibility
    assert (u >= -TOL).all()
    assert (B.T @ u >= 1.0 - TOL).all()
    # equal objectives certify that both are optimal
    assert u.sum() == pytest.approx(w.sum(), abs=TOL)


def test_two_variable_hand_case():
    # max w0 + w1 s.t. 2 w0 + w1 <= 1, w0 + 2 w1 <= 1: optimum (1/3, 1/3)
    B = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, u = solve_lp(B)
    assert w == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=TOL)
    assert u == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=TOL)
    check_optimal_pair(B, w, u)


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        B = rng.uniform(1.0, 3.0, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        w, u = solve_lp(B)
        assert w.sum() == pytest.approx(vertex_oracle(B), abs=TOL)
        check_optimal_pair(B, w, u)


DEGENERATE = (
    np.full((1, 1), 2.0),
    np.full((3, 3), 2.0),
    np.full((4, 2), 1.0),
    np.array([[1.0, 3.0, 1.0], [3.0, 1.0, 3.0], [1.0, 3.0, 1.0]]),
    np.array([[2.0, 2.0, 3.0, 3.0], [2.0, 2.0, 3.0, 3.0], [3.0, 3.0, 1.0, 1.0]]),
    np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [3.0, 3.0, 3.0]]),
    np.array([[3.0, 1.0], [1.0, 1.0]]),
)


def test_degenerate_pivoting_terminates():
    # all-equal entries, repeated rows and columns: ties in the ratio test
    # everywhere, and Bland's rule must not cycle
    rng = np.random.default_rng(31)
    random_cases = []
    for _ in range(100):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        B = rng.integers(1, 4, size=(m, k)).astype(float)
        B = np.vstack([B, B[rng.integers(m)]])
        random_cases.append(np.column_stack([B, B[:, rng.integers(k)]]))
    for B in (*DEGENERATE, *random_cases):
        w, u = solve_lp(B)
        assert w.sum() == pytest.approx(vertex_oracle(B), abs=TOL)
        check_optimal_pair(B, w, u)


def test_unbounded_detected():
    # outside the kernel's contract: a column with no positive entry can grow forever
    with pytest.raises(RuntimeError, match="no positive entry"):
        solve_lp(np.array([[1.0, 0.0], [2.0, -1.0]]))


def test_solver_is_deterministic():
    rng = np.random.default_rng(7)
    B = rng.uniform(1.0, 3.0, size=(4, 3))
    first = solve_lp(B)
    second = solve_lp(B)
    assert (first[0] == second[0]).all()
    assert (first[1] == second[1]).all()
