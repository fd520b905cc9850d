"""Exact solvers for two-player zero-sum matrix games.

Payoff matrices are plain float arrays holding the row player's payoff; the
column player receives the negation. The LP route (maximin, solve_game) is
the production path: it rescales the payoffs into [1, 3] and solves the
game's packing LP with ``linprog.solve_lp``, so results do not depend on the
payoffs' units. maximin takes one game or a stack of shape (..., m, k),
checks it once and picks its route by the number of games: a single game,
or a stack of fewer than _STACK_MIN_GAMES, is scaled, solved and read back
game by game on Python floats (one solve_lp call a game); a larger stack is
scaled, solved in one solve_lp call (2x2 games along their pivot paths on
arrays, other shapes as one stacked tableau) and read back with numpy's
ufuncs. 1x1 games read their lone entry. Both routes give every game the same bits.
oracle_solve_game is an independent enumeration-based checker kept for
cross-validation and must stay free of the LP machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DimensionError, InputError, SolverError, check_reals
from .linprog import solve_lp

ORACLE_MAX_SIDE = 5
_ORACLE_TOL = 1e-9
_STRATEGY_SUM_TOL = 1e-9


def _as_games(game, stack: bool = True) -> np.ndarray:
    """game as finite floats with m, k >= 1: one game of shape (m, k), or if stack a stack of shape (..., m, k)."""
    A = check_reals("payoff matrix", game)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-2] < 1 or A.shape[-1] < 1:
        raise DimensionError(f"payoff matrix must be 2-d and nonempty, got shape {A.shape}")
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise InputError("payoff matrix contains non-finite entries")
    return A


def check_strategy(strategy, n_actions: int) -> np.ndarray:
    """Validate a mixed strategy over n_actions pure actions."""
    x = check_reals("strategy", strategy)
    if x.shape != (n_actions,):
        raise DimensionError(f"strategy has shape {x.shape}, expected ({n_actions},)")
    # on Python floats, which is much cheaper than numpy calls on tiny arrays;
    # the chained comparison is false for NaN, -inf and +inf alike
    values = x.tolist()
    if not all(-_STRATEGY_SUM_TOL <= v < math.inf for v in values):
        raise InputError("strategy entries must be finite and nonnegative")
    if abs(sum(values) - 1.0) > _STRATEGY_SUM_TOL:
        raise InputError(f"strategy entries sum to {x.sum()!r}, not 1")
    return x


def _sum(values: list) -> float:
    """np.add.reduce on a 1-d float64 array, to the bit: a plain loop below 8
    entries, where numpy adds in order and the loop is cheaper; numpy itself
    from 8 up."""
    if len(values) < 8:
        return reduce(add, values, 0.0)
    return float(np.add.reduce(np.array(values)))


def _normalized(x: np.ndarray) -> np.ndarray:
    # np.clip(x, 0.0, None) / x.sum(-1, keepdims=True) without the Python wrappers, to the bit
    x = np.maximum(x, 0.0)
    return x / np.add.reduce(x, axis=-1, keepdims=True)


@dataclass(frozen=True)
class GameSolution:
    """Game value plus a maximin row strategy and minimax column strategy."""

    value: float
    row_strategy: np.ndarray
    column_strategy: np.ndarray


def _float_maximin(rows: list) -> tuple[float, list]:
    """maximin of one game given as nested lists of Python floats, its strategy as a list.

    Python floats round as numpy's do, and _sum adds in numpy's order, so the
    bits are those of the stacked route's numpy read-back.
    """
    if len(rows) == 1 == len(rows[0]):
        # the LP would only add rounding noise to the lone payoff entry
        return rows[0][0], [1.0]
    scale = max([abs(v) for row in rows for v in row]) or 1.0
    _, u = solve_lp([[v / scale + 2.0 for v in row] for row in rows])
    x = [0.0 if v <= 0.0 else v for v in u]  # np.maximum(u, 0.0): -0.0 becomes +0.0
    total = _sum(x)
    return (1.0 / _sum(u) - 2.0) * scale + 0.0, [v / total for v in x]


# A stack of fewer games than this is solved game by game; from here up, in
# one solve_lp call. Measured on random games on a 2-CPU Xeon VM (Python
# 3.11.7, numpy 2.4.6), a stacked tableau costs 0.06 to 0.09 ms for one game
# and 0.14 to 0.2 ms for 12 to 32, and a 2x2 stack on its pivot paths 0.06 to
# 0.07 ms for 1 to 32 games. Game by game, a 2x2 game costs about 7 us and a
# 3x3 game about 21 us, so a stack breaks even at about 9 games of either.
# At 12, stacks of 9 to 11 solved game by game lose 0.015 ms (2x2) or 0.05 ms (3x3) at most.
_STACK_MIN_GAMES = 12


def maximin(game) -> tuple[float | np.ndarray, np.ndarray]:
    """Value and one optimal mixed strategy for the row player.

    Rescales A by max|A| and shifts it by 2, so B = A/scale + 2 has entries
    in [1, 3] and value v_B in [1, 3]. The dual of the packing LP
    max 1^T w s.t. B w <= 1, w >= 0 is u = x / v_B, so x = u / sum(u) and
    v_B = 1 / sum(u), whatever the payoffs' units.

    A stack of games, shape (..., m, k), gives values of shape (...) and
    strategies of shape (..., m), each game's equal to its own maximin's.
    """
    A = _as_games(game)
    m, k = A.shape[-2:]
    try:
        if A.ndim == 2:
            value, x = _float_maximin(A.tolist())
            return value, np.array(x)
        if m == k == 1:
            return A[..., 0, 0].copy(), np.ones(A.shape[:-1])
        games = A.reshape(-1, m, k)
        if len(games) < _STACK_MIN_GAMES:
            solved = [_float_maximin(rows) for rows in games.tolist()]
            values = np.array([value for value, _ in solved]).reshape(A.shape[:-2])
            return values, np.array([x for _, x in solved]).reshape(A.shape[:-1])
        scale = np.maximum.reduce(np.abs(games), axis=(1, 2))
        scale = scale + (scale == 0)  # 0 becomes 1
        _, u = solve_lp(games / scale[:, None, None] + 2.0)
    except RuntimeError as exc:
        # reached when a pivot near PIVOT_TOL leaves an entering column with no entry above it
        # (ROADMAP item 11): the 3x5 game of test_certificates.py's strict xfail raises it
        raise SolverError(
            f"game solver failed ({exc}) on payoffs of magnitude up to {np.max(np.abs(A)):.3g}"
        ) from exc
    values = (1.0 / np.add.reduce(u, axis=-1) - 2.0) * scale + 0.0
    return values.reshape(A.shape[:-2]), _normalized(u).reshape(A.shape[:-1])


def solve_game(game) -> GameSolution:
    """Solve the game for both players.

    The column strategy comes from the mirrored game -A^T, where the column
    player is the maximizing row player.
    """
    A = _as_games(game, stack=False)
    value, x = maximin(A)
    _, y = maximin(-A.T)
    return GameSolution(value=value, row_strategy=x, column_strategy=y)


def best_response(game, opponent_strategy) -> np.ndarray:
    """Pure best response of the row player to a mixed column strategy.

    Ties break toward the lowest action index; the result is one-hot.
    """
    A = _as_games(game, stack=False)
    y = check_strategy(opponent_strategy, A.shape[1])
    response = np.zeros(A.shape[0])
    response[int(np.argmax(A @ y))] = 1.0
    return response


def oracle_solve_game(game) -> GameSolution:
    """Solve by enumerating square support pairs; independent of the LP path.

    For each pair of equal-size supports, solve the bordered linear systems
    that equalize payoffs on the support, then verify the candidate against
    the full matrix. Every matrix game has at least one such square kernel.
    Refuses games larger than ORACLE_MAX_SIDE per side.
    """
    A = _as_games(game, stack=False)
    m, k = A.shape
    if m > ORACLE_MAX_SIDE or k > ORACLE_MAX_SIDE:
        raise InputError(f"oracle accepts at most {ORACLE_MAX_SIDE} actions per side, got {m}x{k}")
    for size in range(1, min(m, k) + 1):
        bordered = np.zeros((size + 1, size + 1))
        bordered[size, :size] = 1.0
        rhs = np.zeros(size + 1)
        rhs[size] = 1.0
        for I in itertools.combinations(range(m), size):
            for J in itertools.combinations(range(k), size):
                B = A[np.ix_(I, J)]
                bordered[:size, :size] = B.T
                bordered[:size, size] = -1.0
                try:
                    x_sys = np.linalg.solve(bordered, rhs)
                    bordered[:size, :size] = B
                    y_sys = np.linalg.solve(bordered, rhs)
                except np.linalg.LinAlgError:
                    continue
                if (x_sys[:size] < -_ORACLE_TOL).any() or (y_sys[:size] < -_ORACLE_TOL).any():
                    continue
                x = np.zeros(m)
                x[list(I)] = np.clip(x_sys[:size], 0.0, None)
                y = np.zeros(k)
                y[list(J)] = np.clip(y_sys[:size], 0.0, None)
                x /= x.sum()
                y /= y.sum()
                value = float(x @ A @ y)
                if (A.T @ x >= value - _ORACLE_TOL).all() and (A @ y <= value + _ORACLE_TOL).all():
                    return GameSolution(value=value, row_strategy=x, column_strategy=y)
    raise RuntimeError("support enumeration found no verified kernel")
