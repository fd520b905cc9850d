"""Shared fixtures: a tiny worked market whose equilibria are known by hand."""

import itertools

import numpy as np
import pytest

from matchgames import games
from matchgames.market import AgentId, MarketInstance, Matching

# (number, name, passed) tuples filled in by the acceptance suite; printed
# after the run so each criterion gets one visible pass/fail line
ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {name}")

# Single-action pair games, so the game value of pair (i, j) is just this
# entry and every strategy is the trivial [1.0]. Outside options of -0.5
# make exactly the (L0, R1) pair mutually acceptable:
#   L0 values R0 at 1.0 and R1 at 0.0; rights see the negated column.
EXAMPLE_VALUES = np.array([[1.0, 0.0], [1.0, 1.0]])
EXAMPLE_OUTSIDE = -0.5


def build_example_market() -> MarketInstance:
    return MarketInstance(
        p=2,
        a=2,
        m=1,
        k=1,
        games=EXAMPLE_VALUES.reshape(2, 2, 1, 1),
        left_outside=(EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
        right_outside=(EXAMPLE_OUTSIDE, EXAMPLE_OUTSIDE),
    )


def build_example_profile() -> dict:
    one = np.array([1.0])
    return {
        AgentId.left(0): one,
        AgentId.left(1): one,
        AgentId.right(0): one,
        AgentId.right(1): one,
    }


@pytest.fixture
def example_market() -> MarketInstance:
    return build_example_market()


@pytest.fixture
def example_profile() -> dict:
    return build_example_profile()


def realized_payoffs(instance: MarketInstance, matching: Matching, strategies: dict) -> dict:
    """Every agent's expected payoff, by its own loop rather than the audit's:
    x @ games[i, j] @ y for a matched left agent, its negation for the right
    one, and the outside option for an unmatched agent."""
    payoffs = {AgentId.left(i): float(v) for i, v in enumerate(instance.left_outside)}
    payoffs.update({AgentId.right(j): float(v) for j, v in enumerate(instance.right_outside)})
    for i, j in matching.pairs:
        left, right = AgentId.left(i), AgentId.right(j)
        value = float(np.asarray(strategies[left]) @ instance.games[i, j] @ np.asarray(strategies[right]))
        payoffs[left], payoffs[right] = value, -value
    return payoffs


def all_matchings(p: int, a: int) -> list[Matching]:
    """Every injective partial assignment of lefts to rights."""
    out = []
    for size in range(min(p, a) + 1):
        for lefts in itertools.combinations(range(p), size):
            for rights in itertools.permutations(range(a), size):
                out.append(Matching(tuple(zip(lefts, rights))))
    return out


def record_solve_lp_ranks(monkeypatch) -> list:
    """The rank of every B that maximin hands solve_lp from now on: 3 for a
    stacked tableau, 2 for a game solved on its own."""
    solve_lp, ranks = games.solve_lp, []
    monkeypatch.setattr(games, "solve_lp", lambda B: ranks.append(np.ndim(B)) or solve_lp(B))
    return ranks
