"""Optimality certificates for games beyond the oracle's reach.

oracle_solve_game stops at ORACLE_MAX_SIDE actions a side, and the kernels
are otherwise only compared with one another. Here every answer is checked
against its own game: a row strategy x guarantees its value v (A^T x >= v)
and a column strategy y holds the row player to it (A y <= v), both within
1e-9 * max|A|, with x and y probability vectors. Together they pin v to the
game's value, whatever solved it. On integer and tenths games an exact
simplex on fractions, written apart from the kernels, gives the value itself.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from matchgames import games
from matchgames.errors import SolverError
from matchgames.games import maximin, solve_game

SIDES = range(1, 13)
SCALES = (1e-300, 1e-6, 1.0, 1e6, 1e300)
KINDS = ("gaussian", "integer", "tenths", "near-tie")


def draw(rng, kind: str, shape: tuple) -> np.ndarray:
    entries = rng.standard_normal(shape)
    if kind == "integer":
        return np.round(3.0 * entries)
    if kind == "tenths":
        return np.round(entries, 1)
    if kind == "near-tie":
        # integer ties pulled apart by rounding-sized gaps, far below the
        # kernel's pivot tolerance; gaps near it fail (see the last test)
        return np.round(entries) + 1e-12 * rng.integers(-2, 3, shape)
    return entries


def assert_strategy(s: np.ndarray) -> None:
    assert (s >= 0.0).all(), s
    assert abs(s.sum() - 1.0) <= 1e-12, s


def assert_certificate(A: np.ndarray, v: float, x: np.ndarray, y: np.ndarray) -> None:
    eps = 1e-9 * np.abs(A).max()
    assert_strategy(x)
    assert_strategy(y)
    assert (A.T @ x >= v - eps).all(), (A, v, x)
    assert (A @ y <= v + eps).all(), (A, v, y)


@pytest.mark.parametrize("scale", SCALES)
def test_single_games_carry_certificates(scale):
    rng = np.random.default_rng([31, SCALES.index(scale)])
    for (m, k), kind in itertools.product(itertools.product(SIDES, repeat=2), KINDS):
        A = draw(rng, kind, (m, k)) * scale
        solution = solve_game(A)
        assert_certificate(A, solution.value, solution.row_strategy, solution.column_strategy)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("side", ("below", "at"))
def test_stacked_games_carry_certificates(scale, side):
    # a stack one game short of the crossover is solved game by game, one
    # of _STACK_MIN_GAMES games as one stacked tableau
    size = games._STACK_MIN_GAMES - (side == "below")
    rng = np.random.default_rng([32, SCALES.index(scale), size])
    for m, k in itertools.product(SIDES, repeat=2):
        if m != k and (m + k) % 3:
            continue  # every square and a third of the other shapes keep this to seconds
        stack = np.stack([draw(rng, KINDS[g % len(KINDS)], (m, k)) for g in range(size)]) * scale
        values, xs = maximin(stack)
        _, ys = maximin(-np.swapaxes(stack, 1, 2))
        for A, v, x, y in zip(stack, values, xs, ys):
            assert_certificate(A, v, x, y)


def exact_game(A: np.ndarray) -> tuple[Fraction, list, list]:
    """The value of A (rows maximize) and optimal x and y, in exact arithmetic.

    Every float entry is read as the rational it is. B = A - min(A) + 1 has
    positive entries, so max sum(w) s.t. B w <= 1, w >= 0 is bounded and
    starts feasible at w = 0; at its optimum v_B = 1/sum(w), y = v_B w and
    x = v_B u, with u the duals of its rows. Bland's rule pivots: the
    lowest-indexed column with positive reduced profit enters, and among
    the rows of least ratio the one whose basic variable has the lowest
    index leaves, so the method cannot cycle.
    """
    rows = [[Fraction(a) for a in row] for row in A.tolist()]
    m, k = len(rows), len(rows[0])
    shift = 1 - min(map(min, rows))
    # columns: w_0..w_{k-1}, then the row slacks, then the right-hand side
    tableau = [
        [a + shift for a in row] + [Fraction(r == i) for i in range(m)] + [Fraction(1)]
        for r, row in enumerate(rows)
    ]
    profit = [Fraction(1)] * k + [Fraction(0)] * (m + 1)  # its last entry is -sum(w)
    basis = list(range(k, k + m))
    while (enter := next((c for c in range(k + m) if profit[c] > 0), None)) is not None:
        _, _, leave = min(
            (row[-1] / row[enter], basis[r], r) for r, row in enumerate(tableau) if row[enter] > 0
        )
        pivot = tableau[leave]
        pivot[:] = [t / pivot[enter] for t in pivot]
        for row in (*tableau[:leave], *tableau[leave + 1:], profit):
            if row[enter]:
                row[:] = [t - row[enter] * p for t, p in zip(row, pivot)]
        basis[leave] = enter
    v_b = 1 / -profit[-1]
    w = [0] * k
    for r, var in enumerate(basis):
        if var < k:
            w[var] = tableau[r][-1]
    return v_b - shift, [-u * v_b for u in profit[k:-1]], [t * v_b for t in w]


def assert_exact_certificate(A: np.ndarray, v, x: list, y: list, eps) -> None:
    """A^T x >= v - eps and A y <= v + eps in exact arithmetic, x and y
    nonnegative and summing to 1 within 1e-12."""
    rows = [[Fraction(a) for a in row] for row in A.tolist()]
    for s in (x, y):
        assert min(s) >= 0 and abs(sum(s) - 1) <= Fraction(1e-12), s
    assert min(sum(a * xi for a, xi in zip(col, x)) for col in zip(*rows)) >= v - eps, (A, v, x)
    assert max(sum(a * yj for a, yj in zip(row, y)) for row in rows) <= v + eps, (A, v, y)


@pytest.mark.parametrize("kind", ("integer", "tenths"))
def test_values_match_an_exact_simplex(kind):
    rng = np.random.default_rng([33, KINDS.index(kind)])
    for m, k in itertools.product(range(1, 11), repeat=2):
        A = draw(rng, kind, (m, k))
        value, x, y = exact_game(A)
        assert_exact_certificate(A, value, x, y, 0)  # the reference is exactly optimal
        eps = Fraction(1e-12) * Fraction(np.abs(A).max())
        solution = solve_game(A)
        assert abs(Fraction(solution.value) - value) <= eps, (A, solution.value, value)
        x, y = ([Fraction(t) for t in s.tolist()] for s in (solution.row_strategy, solution.column_strategy))
        assert_exact_certificate(A, value, x, y, eps)


# Known defect: where payoffs differ by about 1e-9 to 1e-8 of max|A|, near
# the pivot tolerance, the tableau can pivot on an entry barely above it.
# The first game then gets strategies a third of max|A| from optimal, and
# the second an "entering column has no positive entry" SolverError.
# A fix makes these pass, and strict turns that into a failure to notice.
@pytest.mark.xfail(strict=True, raises=(AssertionError, SolverError), reason="pivots near the tolerance")
@pytest.mark.parametrize("game", [
    [[-1e-08, -1e-08, 0.0], [1e-08, 0.0, 2.0], [1e-08, 1e-08, -1e-08], [1.00000001, 1.0, 2e-08]],
    [[0.999999994, -1.999999997, -3e-09, 3e-09, -6e-09], [0.999999994, 1.000000003, -3e-09, 1.0, 0.0],
     [0.999999994, -1.0, 0.0, -3.0, -0.999999994]],
])
def test_gaps_near_the_pivot_tolerance_keep_certificates(game):
    A = np.array(game)
    solution = solve_game(A)
    assert_certificate(A, solution.value, solution.row_strategy, solution.column_strategy)
