"""Matrix game solving, LP route against the support-enumeration oracle."""

import numpy as np
import pytest

from matchgames import games
from matchgames.errors import DimensionError, InputError
from matchgames.games import (
    best_response,
    check_strategy,
    maximin,
    oracle_solve_game,
    solve_game,
)

TOL = 1e-9


def test_matching_pennies_exact():
    game = np.array([[1.0, -1.0], [-1.0, 1.0]])
    sol = solve_game(game)
    assert sol.value == 0.0
    assert sol.row_strategy == pytest.approx([0.5, 0.5], abs=TOL)
    assert sol.column_strategy == pytest.approx([0.5, 0.5], abs=TOL)


def test_rock_paper_scissors():
    game = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    sol = solve_game(game)
    assert sol.value == pytest.approx(0.0, abs=TOL)
    third = np.full(3, 1.0 / 3.0)
    assert sol.row_strategy == pytest.approx(third, abs=TOL)
    assert sol.column_strategy == pytest.approx(third, abs=TOL)


def test_saddle_point_game():
    # row 0 / column 1 is a pure saddle at payoff 1
    game = np.array([[3.0, 1.0], [2.0, 0.0]])
    sol = solve_game(game)
    assert sol.value == pytest.approx(1.0, abs=TOL)
    assert sol.row_strategy == pytest.approx([1.0, 0.0], abs=TOL)
    assert sol.column_strategy == pytest.approx([0.0, 1.0], abs=TOL)


def test_value_with_nonunique_column_strategy():
    # every column mix holds the maximizer to 1, so only pin the value
    sol = solve_game(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert sol.value == pytest.approx(1.0, abs=TOL)
    assert maximin(np.array([[1.0, 1.0], [1.0, 0.0]]))[0] == pytest.approx(1.0, abs=TOL)


def test_antisymmetric_games_have_value_zero():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        B = rng.normal(size=(n, n))
        game = B - B.T
        assert abs(maximin(game)[0]) <= TOL


def test_value_shift_equivariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        game = rng.normal(size=(3, 2))
        shift = float(rng.normal())
        base = solve_game(game)
        shifted = solve_game(game + shift)
        assert shifted.value == pytest.approx(base.value + shift, abs=1e-8)
        assert shifted.row_strategy @ (game + shift) @ shifted.column_strategy == pytest.approx(
            shifted.value, abs=1e-8
        )


def test_maximin_guarantee_holds_row_and_column():
    rng = np.random.default_rng(13)
    for _ in range(50):
        game = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        sol = solve_game(game)
        # row strategy guarantees at least the value against every column
        assert (sol.row_strategy @ game >= sol.value - TOL).all()
        # column strategy caps the row player at the value
        assert (game @ sol.column_strategy <= sol.value + TOL).all()


def test_maximin_returns_value_and_strategy():
    value, strategy = maximin(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == 0.0
    assert strategy == pytest.approx([0.5, 0.5], abs=TOL)
    assert not np.signbit(value)


def test_best_response_picks_lowest_index_on_ties():
    game = np.array([[1.0, 0.0], [1.0, 0.0]])
    response = best_response(game, np.array([1.0, 0.0]))
    assert (response == np.array([1.0, 0.0])).all()


def test_best_response_is_one_hot_argmax():
    game = np.array([[0.0, 2.0], [1.0, 0.0]])
    response = best_response(game, np.array([0.0, 1.0]))
    assert (response == np.array([1.0, 0.0])).all()
    response = best_response(game, np.array([1.0, 0.0]))
    assert (response == np.array([0.0, 1.0])).all()


def test_lp_route_matches_oracle_on_random_games():
    rng = np.random.default_rng(14)
    for _ in range(60):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        game = rng.uniform(-1.0, 1.0, size=shape)
        lp_sol = solve_game(game)
        oracle_sol = oracle_solve_game(game)
        assert lp_sol.value == pytest.approx(oracle_sol.value, abs=1e-8)
        # oracle strategies must satisfy the same guarantee inequalities
        assert (oracle_sol.row_strategy @ game >= oracle_sol.value - 1e-8).all()
        assert (game @ oracle_sol.column_strategy <= oracle_sol.value + 1e-8).all()


def test_oracle_refuses_large_games():
    with pytest.raises(InputError):
        oracle_solve_game(np.zeros((6, 6)))


def test_payoff_matrix_validation():
    with pytest.raises(DimensionError):
        solve_game(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        solve_game(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_check_strategy_validation():
    assert check_strategy([0.25, 0.75], 2) == pytest.approx([0.25, 0.75])
    with pytest.raises(DimensionError):
        check_strategy([1.0], 2)
    with pytest.raises(InputError):
        check_strategy([0.7, 0.7], 2)
    with pytest.raises(InputError):
        check_strategy([-0.1, 1.1], 2)


def test_solve_game_deterministic():
    rng = np.random.default_rng(15)
    game = rng.normal(size=(4, 3))
    first = solve_game(game)
    second = solve_game(game)
    assert first.value == second.value
    assert (first.row_strategy == second.row_strategy).all()
    assert (first.column_strategy == second.column_strategy).all()


def test_solve_game_calls_the_kernel_twice(monkeypatch):
    # one solve_lp per maximin, on the closed-form 2x2 path and on the
    # tableau path alike: the benchmark's traced counts depend on it
    solve_lp, calls = games.solve_lp, []
    monkeypatch.setattr(games, "solve_lp", lambda B: calls.append(np.shape(B)) or solve_lp(B))
    for game in ([[3.0, -1.0], [0.0, 2.0]], [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.5]]):
        calls.clear()
        solve_game(game)
        assert calls == [np.shape(game)] * 2


SCALES = (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12)


def _scale_test_games(rng, count):
    # one third continuous, one third integer ties, one third repeated rows and columns
    for index in range(count):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if index % 3 == 0:
            yield rng.uniform(-1.0, 1.0, size=(m, k))
        elif index % 3 == 1:
            yield rng.integers(-2, 3, size=(m, k)).astype(float)
        else:
            A = rng.integers(-1, 2, size=(m, k)).astype(float)
            yield A[rng.integers(m, size=m)][:, rng.integers(k, size=k)]


def test_value_identities_hold_at_every_scale():
    # v(cA + d) = c v(A) + d and v(-A^T) = -v(A), whatever the payoffs' units
    rng = np.random.default_rng(16)
    for A in _scale_test_games(rng, 200):
        expected = oracle_solve_game(A).value
        for c in SCALES:
            d = c * float(rng.uniform(-2.0, 2.0))
            game = c * A + d
            tol = 1e-9 * float(np.abs(game).max())
            sol = solve_game(game)
            assert abs(sol.value - (c * expected + d)) <= tol, (A, c, d)
            for strategy in (sol.row_strategy, sol.column_strategy):
                assert (strategy >= 0.0).all() and abs(strategy.sum() - 1.0) <= TOL
            assert (game.T @ sol.row_strategy >= sol.value - tol).all(), (A, c, d)
            assert (game @ sol.column_strategy <= sol.value + tol).all(), (A, c, d)
            assert abs(maximin(-game.T)[0] + sol.value) <= tol, (A, c, d)


def test_wrapper_reductions_are_the_former_ones():
    # _normalized and a stack's maximin call numpy's ufuncs directly, and a
    # single game's maximin reads back on Python floats; the results must be
    # the bits of the np.clip / .sum() / .max() forms
    rng = np.random.default_rng(41)
    vectors = [
        np.array([-0.0, 0.5, 0.5]),
        np.array([0.0, -0.0, 1.0]),
        np.array([-1e-17, 0.25, 0.75]),
        np.array([0.3, -1.2e-17, -0.0, 0.0, 0.7]),
        np.array([1e-17, -1e-17]),
    ]
    for n in range(1, 6):
        tiny = rng.choice([-0.0, 0.0, -1e-17, 1e-17, 1e-300, *rng.uniform(0.0, 1.0, 3)], size=n)
        vectors.append(rng.permutation([*tiny, rng.uniform(0.1, 1.0)]))
    for u in vectors:
        clipped = np.clip(u, 0.0, None)
        assert games._normalized(u).tobytes() == (clipped / clipped.sum()).tobytes()
    # a stacked u of shape (G, m) normalizes each row as the 1-d form does
    for n in range(1, 6):
        U = rng.choice([-0.0, 0.0, -1e-17, 1e-17, 1e-300, 0.25, 0.5], size=(7, n))
        U[np.arange(7), rng.integers(0, n, size=7)] = rng.uniform(0.1, 1.0, size=7)
        clipped = np.clip(U, 0.0, None)
        assert games._normalized(U).tobytes() == (clipped / clipped.sum(axis=1, keepdims=True)).tobytes()
        assert games._normalized(U).tobytes() == np.concatenate([games._normalized(u) for u in U]).tobytes()
    for m in range(2, 6):
        for k in range(2, 6):
            for integer in (True, False):
                stack = rng.integers(-2, 3, size=(25, m, k)).astype(float) if integer else rng.normal(size=(25, m, k))
                for A in stack:
                    value, x = maximin(A)
                    assert type(value) is float  # a single game's value, as a stack's is an array
                    scale = float(np.abs(A).max()) or 1.0
                    _, u = games.solve_lp(A / scale + 2.0)
                    clipped = np.clip(u, 0.0, None)
                    assert value.hex() == ((1.0 / float(u.sum()) - 2.0) * scale + 0.0).hex()
                    assert x.tobytes() == (clipped / clipped.sum()).tobytes()
                values, X = maximin(stack)
                scale = np.abs(stack).max(axis=(1, 2))
                scale[scale == 0.0] = 1.0
                _, U = games.solve_lp(stack / scale[:, None, None] + 2.0)
                clipped = np.clip(U, 0.0, None)
                assert values.tobytes() == ((1.0 / U.sum(axis=1) - 2.0) * scale + 0.0).tobytes()
                assert X.tobytes() == (clipped / clipped.sum(axis=1, keepdims=True)).tobytes()
