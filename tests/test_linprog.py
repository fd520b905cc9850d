"""Packing-LP kernel tests against a brute-force vertex-enumeration oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import record_solve_lp_ranks

from matchgames import games, linprog
from matchgames.errors import DimensionError, InputError, SolverError
from matchgames.games import maximin
from matchgames.learning import ConfidenceState, auto_delta, ucb_matrix
from matchgames.linprog import solve_lp
from matchgames.market import Side

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


def count_hand_offs(monkeypatch) -> list:
    """The Bs that solve_lp hands to the list tableau from now on."""
    tableau, handed = linprog._list_tableau, []
    monkeypatch.setattr(linprog, "_list_tableau", lambda B: handed.append(B) or tableau(B))
    return handed


def assert_closed_form_matches_tableau(matrices, monkeypatch) -> int:
    """solve_lp, given each 2x2 in matrices as nested lists of Python floats,
    returns the list tableau's (w, u) bit for bit.

    Returns how many of them solve_lp handed to the list tableau."""
    tableau, handed = linprog._list_tableau, count_hand_offs(monkeypatch)
    for B in matrices:
        rows = np.asarray(B).tolist()
        got, expected = solve_lp(rows), tableau(rows)
        assert all(type(v) is float for vector in got for v in vector)
        assert vector_bytes(got) == vector_bytes(expected), (B, got, expected)
    return len(handed)


def vector_bytes(vectors) -> list:
    return [np.array(v).tobytes() for v in vectors]


def as_packing_lps(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the two LPs solve_game sets up for A
    scale = float(np.abs(A).max()) or 1.0
    return A / scale + 2.0, -A.T / scale + 2.0


def set_partitions(cells):
    if not cells:
        yield []
        return
    first, rest = cells[0], cells[1:]
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for index, block in enumerate(partition):
            yield [*partition[:index], [first, *block], *partition[index + 1:]]


def integer_games() -> list:
    return [np.array(cells, dtype=float).reshape(2, 2) for cells in itertools.product(range(-2, 3), repeat=4)]


def random_matrices() -> np.ndarray:
    return np.random.default_rng(41).uniform(1.0, 3.0, size=(20000, 2, 2))


def tie_pattern_matrices() -> list:
    rng = np.random.default_rng(42)
    partitions = list(set_partitions(list(range(4))))
    assert len(partitions) == 15
    matrices = []
    for partition in partitions:
        for _ in range(200):
            cells = np.empty(4)
            for block, value in zip(partition, rng.uniform(1.0, 3.0, size=len(partition))):
                cells[block] = value
            matrices.append(cells.reshape(2, 2))
    return matrices


def ucb_games() -> list:
    # unvisited cells share one confidence width and a zero mean, so early
    # optimistic matrices have several equal cells
    rng = np.random.default_rng(43)
    state = ConfidenceState.fresh(1, 1, 2, 2, delta=auto_delta(100, 2, 2, 2, 2))
    games = []
    for index in range(1000):
        state.counts[0, 0] = rng.integers(0, 4, size=(2, 2)) * rng.integers(0, 2, size=(2, 2))
        if index % 2:
            means = rng.integers(-1, 2, size=(2, 2)).astype(float)
        else:
            means = rng.normal(size=(2, 2))
        state.means[0, 0] = np.where(state.counts[0, 0] > 0, means, 0.0)
        games += [ucb_matrix(state, (0, 0), side) for side in Side]
    return games


def near_tie_matrices() -> list:
    # A constant column with the other column's entries a hair apart makes
    # the tableau's tie-break depend on rounding; unequal neighbours closer
    # than 1e-5 make its tolerance tests disagree with exact comparisons.
    rng = np.random.default_rng(44)
    matrices = []
    for gap in (*10.0 ** -np.arange(3, 13), *rng.uniform(1e-2, 2e-2, size=10)):
        for _ in range(20):
            c, b = rng.uniform(1.0, 2.98, size=2)
            B = np.array([[c + gap, b], [c, b]])
            matrices += [B, B[::-1].copy(), B[:, ::-1].copy(), B[::-1, ::-1].copy()]
    for gap in (*10.0 ** -np.arange(6, 13), *rng.uniform(1e-5, 1e-4, size=10)):
        for _ in range(20):
            B = rng.uniform(1.0, 2.9, size=(2, 2))
            B[1, 0] = B[0, 0] + gap
            matrices += [B, B.T.copy()]
    return matrices


def test_closed_form_matches_tableau_on_integer_games(monkeypatch):
    matrices = [B for A in integer_games() for B in as_packing_lps(A)]
    assert len(matrices) == 1250
    assert assert_closed_form_matches_tableau(matrices, monkeypatch) == 0


def test_closed_form_matches_tableau_on_random_matrices(monkeypatch):
    assert assert_closed_form_matches_tableau(random_matrices(), monkeypatch) <= 200


def test_closed_form_matches_tableau_on_every_tie_pattern(monkeypatch):
    assert assert_closed_form_matches_tableau(tie_pattern_matrices(), monkeypatch) <= 30


def test_closed_form_matches_tableau_on_ucb_matrices(monkeypatch):
    matrices = [as_packing_lps(A)[0] for A in ucb_games()]
    assert assert_closed_form_matches_tableau(matrices, monkeypatch) <= 20


def test_near_ties_match_tableau(monkeypatch):
    # Both near-tie bands go to the tableau. Just outside them the closed form holds.
    assert assert_closed_form_matches_tableau(near_tie_matrices(), monkeypatch) >= 500


def spaced_cells(rng) -> list:
    """Four entries in [1.05, 2.95], each pair more than 0.05 apart."""
    while True:
        cells = rng.uniform(1.05, 2.95, size=4)
        if np.abs(cells[:, None] - cells[None, :])[np.triu_indices(4, 1)].min() > 0.05:
            return cells.tolist()


def band_edge_lps() -> tuple[list, int]:
    """2x2 packing LPs at the edges of the closed form's guard, and how many
    of them lie inside a band, by exact rational arithmetic.

    One pair of neighbours, (a, b), (c, d), (a, c) or (b, d), sits near 1e-5
    apart, or b == d with a and c near 1e-2 apart; the other entries are more
    than 0.05 from each other. Near means the float nearest x ± band and one
    math.nextafter step either side of it, or x ± 2^-17, 2^-16, 2^-7 and 2^-6.
    """
    rng = np.random.default_rng(60)
    lps, inside = [], 0
    for band, pairs in ((1e-5, ((0, 1), (2, 3), (0, 2), (1, 3))), (1e-2, ((0, 2),))):
        for (first, second), sign, _ in itertools.product(pairs, (-1.0, 1.0), range(6)):
            cells = spaced_cells(rng)
            x = cells[first]
            edge = x + sign * band
            for y in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf),
                      *(x + sign * 2.0**-e for e in (17, 16, 7, 6))):
                cells[second] = y
                if band == 1e-2:
                    cells[3] = cells[1]
                inside += abs(Fraction(y) - Fraction(x)) < Fraction(band)
                B = np.array(cells).reshape(2, 2)
                lps += [B, B[::-1]]
    return lps, 2 * inside


def test_closed_form_matches_tableau_at_the_guards_band_edges(monkeypatch):
    # exactly the LPs inside a band go to the tableau; at the edges outside them the closed form holds
    lps, inside = band_edge_lps()
    assert len(lps) == 840 and inside == 294
    assert assert_closed_form_matches_tableau(lps, monkeypatch) == inside


def numpy_maximin(A: np.ndarray) -> tuple[float, np.ndarray]:
    """maximin's numpy form, restated: the packing LP of A/scale + 2 as a
    one-game stack, its value and clipped, normalised strategy read back
    with numpy's ufuncs."""
    scale = float(np.maximum.reduce(np.abs(A), axis=None)) or 1.0
    _, (u,) = solve_lp((A / scale + 2.0)[None])
    x = np.maximum(u, 0.0)
    return (1.0 / float(np.add.reduce(u)) - 2.0) * scale + 0.0, x / np.add.reduce(x)


def as_bytes(solution: tuple[float, np.ndarray]) -> tuple:
    value, x = solution
    return type(value), repr(value), x.dtype.str, x.shape, x.tobytes()


def signed_zero_games() -> list:
    # every zero of the integer games as -0.0, then only the zeros in odd cells
    games = []
    for A in integer_games():
        games.append(np.where(A == 0.0, -0.0, A))
        games.append(np.where((A == 0.0) & (np.arange(4).reshape(2, 2) % 2 == 1), -0.0, A))
    return games


def test_float_maximin_matches_numpy_form(monkeypatch):
    # 2x2 games in [-1, 1] from the packing-LP corpora, the integer games at
    # payoff scales down to the subnormals (where a value can round to -0.0),
    # signed zeros, and optimistic matrices with unvisited cells
    lp_games = [B - 2.0 for B in (*random_matrices()[:5000], *tie_pattern_matrices(), *near_tie_matrices())]
    scaled = [A * factor for factor in (5e-324, 1e-310, 1e-300, 1e-6, 1e6, 1e300) for A in integer_games()]
    corpus = [*integer_games(), *lp_games, *scaled, *signed_zero_games(), *ucb_games()]
    handed, refused = count_hand_offs(monkeypatch), 0
    for A in corpus:
        for game in (A, -A.T):
            expected = as_bytes(numpy_maximin(game))
            handed.clear()
            assert as_bytes(maximin(game.tolist())) == expected, game
            refused += bool(handed)
            assert as_bytes(maximin(game)) == expected, game
    # the near-tie bands reach the list tableau through the float path, too
    assert refused >= 500


def test_float_maximin_takes_lists_and_arrays_alike():
    for A in integer_games():
        expected = as_bytes(maximin(A))
        assert as_bytes(maximin(A.tolist())) == expected
        assert as_bytes(maximin(A.astype(int).tolist())) == expected
        assert as_bytes(maximin([list(row) for row in A.astype(np.float32)])) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", range(4))
def test_float_maximin_refuses_non_finite_entries(bad, cell):
    game = [[0.5, -1.0], [2.0, 0.0]]
    game[cell // 2][cell % 2] = bad
    for form in (game, np.array(game)):
        with pytest.raises(InputError, match=r"^payoff matrix contains non-finite entries$"):
            maximin(form)


def shaped_games(seed: int, count: int = 30, sides=range(1, 6)) -> list:
    """Stacks of games of every m x k with m and k in sides (1x1 to 5x5 by
    default): integer and tenths entries (ties), near-ties, standard normals
    and one all-zero game each."""
    rng = np.random.default_rng(seed)
    stacks = []
    for m, k in itertools.product(sides, repeat=2):
        integer = rng.integers(-2, 3, size=(count, m, k)).astype(float)
        gaps = 10.0 ** -rng.integers(3, 13, size=(count, 1, 1))
        near = integer + gaps * rng.integers(0, 2, size=(count, m, k))
        stacks.append(np.concatenate([
            integer, near, np.round(rng.uniform(-1.0, 1.0, size=(count, m, k)), 1),
            rng.normal(size=(count, m, k)), np.zeros((1, m, k)),
        ]))
    return stacks


def two_by_two_games() -> np.ndarray:
    lp_games = [B - 2.0 for B in (*random_matrices()[:2000], *tie_pattern_matrices(), *near_tie_matrices())]
    return np.array([*integer_games(), *lp_games, *ucb_games()])


def nine_by_nine_games() -> np.ndarray:
    # numpy's add.reduce sums pairwise from 8 elements on, so a 9-action
    # strategy's normalisation is summed in another order than a short one's
    rng = np.random.default_rng(45)
    return np.concatenate([rng.normal(size=(20, 9, 9)), rng.integers(-2, 3, size=(20, 9, 9)).astype(float)])


def mixed_pivot_games() -> np.ndarray:
    # a saddle point, a dominated column, matching pennies on two actions and
    # rock-paper-scissors on three: optimal bases with one, two and three
    # structural columns, so the games leave the stacked tableau at different pivots
    return np.array([
        [[3.0, 2.0, 4.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.0]],
        [[1.0, -1.0, 2.0], [-1.0, 1.0, 2.0], [-2.0, -2.0, -2.0]],
        [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]],
        np.zeros((3, 3)),
    ])


def assert_stack_matches_tableau(stack: np.ndarray) -> None:
    """solve_lp on a (G, m, k) stack gives the list tableau's (w, u) for each game, to the bit."""
    w, u = solve_lp(stack)
    assert w.shape == (stack.shape[0], stack.shape[2]) and u.shape == stack.shape[:2]
    for B, w_game, u_game in zip(stack, w, u):
        assert vector_bytes((w_game, u_game)) == vector_bytes(linprog._list_tableau(B.tolist())), B


def packing_stacks(games: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the two LPs solve_game sets up for each game, stacked
    return tuple(np.array(lps) for lps in zip(*map(as_packing_lps, games)))


def test_stacked_lp_matches_tableau_on_the_2x2_corpora():
    for stack in packing_stacks(two_by_two_games()):
        assert_stack_matches_tableau(stack)


def test_stacked_lp_matches_tableau_from_1x1_to_5x5():
    for games in shaped_games(46):
        for stack in packing_stacks(games):
            assert_stack_matches_tableau(stack)


def test_stacked_lp_matches_tableau_on_9x9_and_mixed_pivot_counts():
    for games in (nine_by_nine_games(), mixed_pivot_games()):
        for stack in packing_stacks(games):
            assert_stack_matches_tableau(stack)
    w, _ = solve_lp(packing_stacks(mixed_pivot_games())[0])
    assert sorted(np.count_nonzero(w, axis=1).tolist()) == [1, 1, 2, 3]


def test_list_tableau_matches_one_game_stacks_from_1x1_to_9x9():
    # _stacked on a one-game stack is the numpy tableau: the list tableau
    # must give its (w, u) to the byte, rounded ties and near-ties included
    for games in shaped_games(50, count=3, sides=range(1, 10)):
        for stack in packing_stacks(games):
            for B in stack:
                (w,), (u,) = linprog._stacked(B[None])  # solve_lp would take a 2x2 stack past the tableau
                assert vector_bytes(linprog._list_tableau(B.tolist())) == vector_bytes((w, u)), B


def test_stacked_lp_on_an_empty_stack():
    w, u = solve_lp(np.empty((0, 3, 2)))
    assert w.shape == (0, 2) and u.shape == (0, 3)


def test_stacked_lp_reports_an_unbounded_game_as_the_tableau_does():
    unbounded = np.array([[1.0, 0.0], [2.0, -1.0]])
    with pytest.raises(RuntimeError) as single:
        linprog._list_tableau(unbounded.tolist())
    with pytest.raises(RuntimeError) as stacked:
        solve_lp(np.array([[[1.0, 2.0], [2.0, 1.0]], unbounded]))
    assert str(stacked.value) == str(single.value) == "entering column 3 has no positive entry"


def assert_stacked_maximin_matches_per_game(stack: np.ndarray) -> None:
    """maximin on a (..., m, k) stack gives each game's own maximin, on the
    game as an array and as lists, to the bit."""
    values, strategies = maximin(stack)
    assert values.shape == stack.shape[:-2] and strategies.shape == stack.shape[:-1]
    for index in np.ndindex(*stack.shape[:-2]):
        expected = as_bytes((float(values[index]), strategies[index]))
        for game in (stack[index], stack[index].tolist()):
            assert as_bytes(maximin(game)) == expected, stack[index]


SCALES = (5e-324, 1e-310, 1e-300, 1e-6, 1.0, 1e6, 1e300)


def test_stacked_maximin_matches_per_game_calls():
    stacks = [*shaped_games(47, count=12), nine_by_nine_games(), mixed_pivot_games()]
    for stack in stacks:
        for scale in SCALES:
            assert_stacked_maximin_matches_per_game(stack * scale)
            assert_stacked_maximin_matches_per_game(-np.swapaxes(stack, 1, 2) * scale)
    assert_stacked_maximin_matches_per_game(two_by_two_games())


def test_single_game_read_back_matches_the_stack_from_1x1_to_9x9():
    # numpy's add.reduce sums 8 entries or more in eight accumulators, so 8-
    # and 9-action strategies pin the float read-back's summation order
    for games in shaped_games(49, count=3, sides=range(1, 10)):
        for scale in (1e-9, 1.0, 1e9):
            assert_stacked_maximin_matches_per_game(games * scale)
            assert_stacked_maximin_matches_per_game(-np.swapaxes(games, 1, 2) * scale)


def test_stacked_maximin_keeps_leading_axes():
    games = np.random.default_rng(48).normal(size=(2, 3, 4, 3, 2))
    assert_stacked_maximin_matches_per_game(games)
    for m, k in ((1, 1), (2, 2), (3, 2)):
        values, strategies = maximin(games[..., :m, :k].tolist())
        assert values.shape == (2, 3, 4) and strategies.shape == (2, 3, 4, m)
        values, strategies = maximin(np.empty((0, 3, m, k)))
        assert values.shape == (0, 3) and strategies.shape == (0, 3, m)


@pytest.mark.parametrize("size", [0, 1, 11, 12, 13])
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 3)], ids=["1x1", "2x2", "2x3", "3x3"])
def test_stacked_maximin_matches_per_game_either_side_of_the_crossover(monkeypatch, size, shape):
    # fewer than _STACK_MIN_GAMES games are solved one by one and more as one
    # stacked tableau (1x1 games always read their lone entry), whatever the
    # leading axes; either way each game gets its own maximin's bits
    assert games._STACK_MIN_GAMES == 12
    rng = np.random.default_rng(52)
    stack = rng.standard_normal((size, *shape))
    stack[::2] = np.round(stack[::2])  # ties
    ranks = record_solve_lp_ranks(monkeypatch)
    expected = [] if shape == (1, 1) else [3] if size >= 12 else [2] * size
    for form in (stack, stack[None], stack.reshape(size, 1, *shape)):
        ranks.clear()
        values, strategies = maximin(form)
        assert ranks == expected
        assert values.shape == form.shape[:-2] and strategies.shape == form.shape[:-1]
        assert_stacked_maximin_matches_per_game(form)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 1, 1), (3, 2, 2), (2, 2, 3, 4)])
def test_stacked_maximin_refuses_non_finite_entries(bad, shape):
    for cell in (0, int(np.prod(shape)) // 2, -1):
        stack = np.ones(shape)
        stack.flat[cell] = bad
        with pytest.raises(InputError, match=r"^payoff matrix contains non-finite entries$"):
            maximin(stack)


def test_stacked_maximin_refuses_empty_games():
    with pytest.raises(DimensionError):
        maximin(np.empty((3, 0, 2)))


def bland_pivots(B: np.ndarray) -> int:
    """Pivots Bland's rule takes on max 1^T w s.t. B w <= 1, w >= 0 from the
    origin, on a plain float tableau, or minus the pivots made before an
    entering column has no positive entry. It only picks test games."""
    m, k = B.shape
    T = np.block([[B, np.eye(m), np.ones((m, 1))], [-np.ones((1, k)), np.zeros((1, m + 1))]])
    basis = list(range(k, k + m))
    pivots = 0
    while (T[m, :-1] < -linprog.PIVOT_TOL).any():
        enter = int(np.argmax(T[m, :-1] < -linprog.PIVOT_TOL))
        rows = [i for i in range(m) if T[i, enter] > linprog.PIVOT_TOL]
        if not rows:
            return -pivots
        leave = min(rows, key=lambda i: (T[i, -1] / T[i, enter], basis[i]))
        T[leave] /= T[leave, enter]
        T -= np.outer(np.where(np.arange(m + 1) == leave, 0.0, T[:, enter]), T[leave])
        basis[leave] = enter
        pivots += 1
    return pivots


def mixed_length_stack(rng, size: int, shape: tuple) -> np.ndarray:
    """size games of the given shape: a third saddle points, which leave
    maximin's packing LP after one pivot, a third the longest Bland paths of
    300 Gaussian games, and the rest in between, in random order."""
    pool = rng.standard_normal((300, *shape))
    by_length = pool[np.argsort([bland_pivots(A / np.abs(A).max() + 2.0) for A in pool], kind="stable")]
    third = size // 3
    middle = np.linspace(third, len(pool) - third - 1, size - 2 * third).astype(int)
    stack = np.concatenate([by_length[:third], by_length[middle], by_length[-third:]])
    assert bland_pivots(stack[0] / np.abs(stack[0]).max() + 2.0) == 1
    return stack[rng.permutation(size)]


@pytest.mark.parametrize("size", [12, 13, 24, 64])
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 5), (5, 3)], ids=["2x2", "3x3", "3x5", "5x3"])
def test_finished_games_ride_the_stack_unchanged(size, shape):
    # the stack drops finished games only once they are half of it, so
    # saddle points pivot as no-ops beside the longest paths until then
    stack = mixed_length_stack(np.random.default_rng([54, size, *shape]), size, shape)
    values, strategies = maximin(stack)
    for game, value, x in zip(stack, values, strategies):
        expected_value, expected_x = games._float_maximin(game.tolist())
        assert as_bytes((float(value), x)) == as_bytes((expected_value, np.array(expected_x))), game
    for lps in packing_stacks(stack):
        assert_stack_matches_tableau(lps)


# the 3x5 game of test_certificates.py's strict xfail, whose pivots near the
# tolerance leave an entering column with no entry above it
STUCK_3X5 = np.array([
    [0.999999994, -1.999999997, -3e-09, 3e-09, -6e-09],
    [0.999999994, 1.000000003, -3e-09, 1.0, 0.0],
    [0.999999994, -1.0, 0.0, -3.0, -0.999999994],
])


@pytest.mark.parametrize("position", [0, 6, 12])
def test_a_stuck_game_gives_its_own_reason_from_a_stack(position):
    reason = "entering column 7 has no positive entry"
    with pytest.raises(SolverError, match=rf"^game solver failed \({reason}\) on payoffs of magnitude up to 3$"):
        maximin(STUCK_3X5)
    others = mixed_length_stack(np.random.default_rng(55), 12, (3, 5)) * 5.0
    stack = np.insert(others, position, STUCK_3X5, axis=0)
    magnitude = f"{np.abs(stack).max():.3g}"
    with pytest.raises(SolverError, match=rf"^game solver failed \({reason}\) on payoffs of magnitude up to {magnitude}$"):
        maximin(stack)


def tied_2x2_games(rng, size: int) -> list:
    """Stacks of size 2x2 games: Gaussian, integer and tenths entries, and
    Gaussian games with one pair of equal entries, along a row, a column or
    a diagonal, where Bland's pivot path and the closed form's guard tie."""
    stacks = [
        rng.standard_normal((size, 2, 2)),
        rng.integers(-2, 3, size=(size, 2, 2)).astype(float),
        rng.integers(-10, 11, size=(size, 2, 2)) / 10.0,
    ]
    for first, second in itertools.combinations(range(4), 2):  # cells of the flattened game
        tied = rng.standard_normal((size, 4))
        tied[:, second] = tied[:, first]
        stacks.append(tied.reshape(size, 2, 2))
    return stacks


@pytest.mark.parametrize("size", [1, 2, 5, 11, 12, 13, 32, 100, 600])
def test_2x2_stack_kernel_gives_the_stacked_tableaus_bits(monkeypatch, size):
    # solve_lp takes every (G, 2, 2) stack along the closed form's four pivot
    # paths, never through _stacked; each game keeps _stacked's (w, u), zeros' signs included
    stacked = linprog._stacked
    lps = [lp for games in tied_2x2_games(np.random.default_rng([56, size]), size) for lp in packing_stacks(games)]
    lps += [B.astype(np.float32) for B in lps[:2]]  # _stacked's tableau holds float64 whatever B's dtype
    expected = [vector_bytes(stacked(B)) for B in lps]
    monkeypatch.setattr(linprog, "_stacked", None)
    assert [vector_bytes(solve_lp(B)) for B in lps] == expected


@pytest.mark.parametrize("size", [12, 13, 32, 600])
def test_maximin_on_2x2_stacks_gives_the_stacked_tableaus_bits_at_every_scale(monkeypatch, size):
    stacks = tied_2x2_games(np.random.default_rng([57, size]), size)
    games = [form * scale for stack in stacks for form in (stack, -np.swapaxes(stack, 1, 2)) for scale in SCALES]

    def solved() -> list:
        return [(values.tobytes(), strategies.tobytes()) for values, strategies in map(maximin, games)]

    got = solved()
    monkeypatch.setattr(linprog, "_stacked_2x2", linprog._stacked)
    assert got == solved()


def guard_edge_lps(rng) -> np.ndarray:
    """2x2 packing LPs with entries at and just past the closed form's range
    [1, 3], and with neighbours 2**-17 and 2**-16 apart (either side of its
    1e-5 band) or, beside an equal pair in column 2, 2**-7 and 2**-6 apart
    (either side of its 1e-2 band)."""
    lps = [rng.choice([1.0, 3.0, 1.0 - 2**-52, 3.0 + 2**-51, 2.0], size=(400, 2, 2))]
    for gap in (2**-17, 2**-16, 2**-7, 2**-6):
        for first, second in itertools.permutations(range(4), 2):
            B = rng.uniform(1.1, 2.9, size=(20, 4))
            B[:, second] = B[:, first] + gap * rng.choice([-1.0, 1.0], size=20)
            lps.append(B.reshape(20, 2, 2))
        B = rng.uniform(1.1, 2.9, size=(40, 2, 2))
        B[:, 1, 1] = B[:, 0, 1]
        B[:, 1, 0] = B[:, 0, 0] + gap * rng.choice([-1.0, 1.0], size=40)
        lps.append(B)
    return np.concatenate(lps)


def test_2x2_stack_kernel_refuses_exactly_what_the_closed_form_refuses(monkeypatch):
    rng = np.random.default_rng(58)
    lps = np.concatenate([
        random_matrices()[:2000], tie_pattern_matrices(), near_tie_matrices(),
        rng.uniform(0.5, 3.5, size=(500, 2, 2)), guard_edge_lps(rng),
    ])
    refused = [B for B in lps.tolist() if linprog._solve_2x2(*B[0], *B[1]) is None]
    assert 1000 < len(refused) < len(lps) // 2
    handed = count_hand_offs(monkeypatch)
    solve_lp(lps)
    assert handed == refused


def test_2x2_stack_kernel_on_a_stack_of_admitted_and_refused_games(monkeypatch):
    rng = np.random.default_rng(59)
    lps = np.concatenate([random_matrices()[:300], near_tie_matrices()[:300]])[rng.permutation(600)]
    refused = sum(linprog._solve_2x2(*B[0], *B[1]) is None for B in lps.tolist())
    expected = vector_bytes(linprog._stacked(lps))
    handed = count_hand_offs(monkeypatch)
    assert vector_bytes(solve_lp(lps)) == expected
    assert 100 < len(handed) == refused < 500
