"""Exact solvers for two-player zero-sum matrix games.

Payoff matrices are plain float arrays holding the row player's payoff; the
column player receives the negation. The LP route (maximin, solve_game) is
the production path: it rescales the payoffs into [1, 3] and solves the
game's packing LP with ``linprog.solve_lp``, so results do not depend on the
payoffs' units. maximin takes one game or a stack of shape (..., m, k) and
gives both one check, one scale by each game's max|A|, one solve_lp call
and one read-back; 1x1 games read their lone entry. A single 2x2 game is
scaled, solved and read back on Python floats, any other single game runs
the numpy tableau, and a stack one stacked tableau, so every game in a
stack gets the bits it would get alone. A stacked call costs about as much
as 15 single 2x2 games on floats, or 2 larger ones, so learning solves a
round's few refreshed games singly and its many as a stack.
oracle_solve_game is an independent enumeration-based checker kept for
cross-validation and must stay free of the LP machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, SolverError
from .linprog import solve_lp

ORACLE_MAX_SIDE = 5
_ORACLE_TOL = 1e-9
_STRATEGY_SUM_TOL = 1e-9


def _as_games(game) -> np.ndarray:
    """game, one game or a stack of shape (..., m, k), as finite floats with m, k >= 1."""
    A = np.asarray(game, dtype=float)
    if A.ndim < 2 or A.shape[-2] < 1 or A.shape[-1] < 1:
        raise DimensionError(f"payoff matrix must be 2-d and nonempty, got shape {A.shape}")
    if not np.logical_and.reduce(np.isfinite(A), axis=None):
        raise InputError("payoff matrix contains non-finite entries")
    return A


def as_payoff_matrix(game) -> np.ndarray:
    """Validate and return game as a float matrix (copy only when needed)."""
    A = np.asarray(game, dtype=float)
    if A.ndim > 2:
        raise DimensionError(f"payoff matrix must be 2-d and nonempty, got shape {A.shape}")
    return _as_games(A)


def check_strategy(strategy, n_actions: int) -> np.ndarray:
    """Validate a mixed strategy over n_actions pure actions."""
    x = np.asarray(strategy, dtype=float)
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


def maximin(game) -> tuple[float | np.ndarray, np.ndarray]:
    """Value and one optimal mixed strategy for the row player.

    Rescales A by max|A| and shifts it by 2, so B = A/scale + 2 has entries
    in [1, 3] and value v_B in [1, 3]. The dual of the packing LP
    max 1^T w s.t. B w <= 1, w >= 0 is u = x / v_B, so x = u / sum(u) and
    v_B = 1 / sum(u), whatever the payoffs' units. A 2x2 game is solved on
    Python floats, which round as numpy's do, so the bits are numpy's.

    A stack of games, shape (..., m, k), gives values of shape (...) and
    strategies of shape (..., m), each game's equal to its own maximin's.
    """
    rows = game if (type(game) is list and len(game) == 2 and type(game[0]) is list is type(game[1])
                    and len(game[0]) == 2 == len(game[1])
                    and all(type(v) is float and abs(v) < math.inf for v in game[0] + game[1])) else None
    if rows is None:
        A = _as_games(game)
        if A.shape[-2:] == (1, 1):
            # the LP would only add rounding noise to the lone payoff entry
            value, x = A[..., 0, 0].copy(), np.ones(A.shape[:-1])
            return (float(value), x) if A.ndim == 2 else (value, x)
        rows = A.tolist() if A.shape == (2, 2) else None
    if rows is None:
        scale = np.maximum.reduce(np.abs(A), axis=(-2, -1))
        scale = scale + (scale == 0)  # 0 becomes 1; unlike np.where, one game's stays a numpy scalar
        B = A / scale[..., None, None] + 2.0
        if A.ndim > 2:  # one (G, m, k) stack; a single game keeps the 2-d tableau
            B = B.reshape(-1, *A.shape[-2:])
    else:
        (a, b), (c, d) = rows
        scale = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
        B = [[a / scale + 2.0, b / scale + 2.0], [c / scale + 2.0, d / scale + 2.0]]
    try:
        _, u = solve_lp(B)
    except RuntimeError as exc:
        # unreachable for entries in [1, 3]: an entering column has a positive entry
        raise SolverError(
            f"game solver failed ({exc}) on payoffs of magnitude up to {np.max(scale):.3g}"
        ) from exc
    if rows is None:
        u = u.reshape(A.shape[:-1])
        value = (1.0 / np.add.reduce(u, axis=-1) - 2.0) * scale + 0.0
        return (float(value), _normalized(u)) if A.ndim == 2 else (value, _normalized(u))
    x0, x1 = (0.0 if v <= 0.0 else v for v in u)  # np.maximum(u, 0.0): -0.0 becomes +0.0
    return (1.0 / (u[0] + u[1]) - 2.0) * scale + 0.0, np.array([x0 / (x0 + x1), x1 / (x0 + x1)])


def solve_game(game) -> GameSolution:
    """Solve the game for both players.

    The column strategy comes from the mirrored game -A^T, where the column
    player is the maximizing row player.
    """
    A = as_payoff_matrix(game)
    value, x = maximin(A)
    _, y = maximin(-A.T)
    return GameSolution(value=value, row_strategy=x, column_strategy=y)


def best_response(game, opponent_strategy) -> np.ndarray:
    """Pure best response of the row player to a mixed column strategy.

    Ties break toward the lowest action index; the result is one-hot.
    """
    A = as_payoff_matrix(game)
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
    A = as_payoff_matrix(game)
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
