"""Instability metrics: minimum total subsidy that stabilizes an outcome.

Both metrics minimize the sum of per-agent subsidies subject to three
families of constraints: no agent is worse off than its outside option
(participation), no agent can gain by deviating inside its current match
(value rationality, strategy-aware metric only), and no cross pair can
jointly deviate (blocking cover). Subsidies are nonnegative.

The exact solver works on lists, with left agent i numbered i and right
agent j numbered p + j; AgentIds are built only for the report. It takes
per-agent lower bounds (floors), then covers the cross pairs whose
constraints bind. Each such pair needs its left or its right member raised
to its gap; with every agent's subsidy written as threshold indicators
over its candidate levels, the cheapest cover is a minimum-weight closure
(Picard 1976), found by one s-t minimum cut in polynomial time. Among
optimal covers the solver returns the one that raises left agents least,
so the result does not depend on the order of the pairs or on agent
labels. oracle_mi is an independent brute-force route over candidate
subsidy grids and must not share the cover machinery.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .games import check_strategy, game_value, oracle_solve_game
from .market import AgentId, Matching, MarketInstance, Side, UtilityTable

DEFAULT_TOL = 1e-9

ORACLE_MAX_AGENTS_PER_SIDE = 3

# Binding-constraint tags reported per agent.
TAG_NONE = "none"
TAG_PARTICIPATION = "C2"
TAG_VALUE_GAP = "C3"
TAG_COVER = "C1-cover"


@dataclass(frozen=True)
class SubsidyVector:
    amounts: dict
    total: float

    @classmethod
    def of(cls, amounts: dict) -> SubsidyVector:
        return cls(amounts=dict(amounts), total=float(sum(amounts.values())))


@dataclass(frozen=True)
class InstabilityReport:
    value: float
    subsidies: SubsidyVector
    active_pairs: tuple[tuple[int, int], ...]
    binding: dict

    def to_record(self) -> dict:
        return {
            "format": "instability-report",
            "version": 1,
            "value": self.value,
            "subsidies": {str(agent): amount for agent, amount in self.subsidies.amounts.items()},
            "active_pairs": [list(pair) for pair in self.active_pairs],
            "binding": {str(agent): tag for agent, tag in self.binding.items()},
        }


def _realized(
    instance: MarketInstance, matching: Matching, strategies: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right realized utilities as arrays; see realized_utilities."""
    matching.validate_for(instance.p, instance.a)
    ids = [(AgentId.left(i), AgentId.right(j)) for i, j in matching.pairs]
    expected = {agent for pair in ids for agent in pair}
    if set(strategies) != expected:
        missing = sorted(expected - set(strategies))
        extra = sorted(set(strategies) - expected)
        raise InputError(
            f"strategy profile must cover matched agents exactly "
            f"(missing {[str(x) for x in missing]}, extra {[str(x) for x in extra]})"
        )
    left = instance.left_outside.copy()
    right = instance.right_outside.copy()
    for (i, j), (left_id, right_id) in zip(matching.pairs, ids):
        try:
            x = check_strategy(strategies[left_id], instance.m)
            y = check_strategy(strategies[right_id], instance.k)
        except InputError as exc:
            raise type(exc)(f"pair {(i, j)}: {exc}") from exc
        left[i] = x @ instance.games[i, j] @ y
        right[j] = -left[i]
    return left, right


def realized_utilities(instance: MarketInstance, matching: Matching, strategies: dict) -> dict:
    """Expected payoff of every agent under the matching and strategy profile.

    Matched agents get the bilinear payoff of their pair's game; unmatched
    agents sit at their outside option. The profile must contain exactly the
    matched agents, each with a mixed strategy over its side's actions.
    """
    left, right = _realized(instance, matching, strategies)
    return dict(zip(instance.agents(), left.tolist() + right.tolist()))


def _solve_cover(floors: list, pairs: list, tol: float) -> list:
    """Minimize total subsidy over the active pairs' covers by one min cut.

    Agents are integers indexing floors (left agent i is i and right agent
    j is p + j), and the returned subsidies are indexed alike. pairs entries
    are (left agent, right agent, left gap, right gap); each pair needs one
    member raised to within tol of its gap. An agent's candidate levels are
    its floor and its gaps. Each level above the floor is a node: for a left
    agent it means [s >= level] and pays its step on an edge to the sink,
    for a right agent it means [s < level] and pays its step on an edge from
    the source; infinite chain edges keep both ladders monotone. A pair
    forbids leaving both members below their covering levels (the lowest
    level >= gap - tol) with one infinite edge from the right member's node
    to the left member's. Dinic's algorithm finds a maximum flow, and the
    nodes still reachable from the source, the smallest minimum cut's source
    side, give the subsidies: among optimal covers, the one that raises left
    agents least, whatever the order of the pairs or the agents' labels.
    """
    subsidies = list(floors)
    if not pairs:
        return subsidies
    left_gaps: dict = {}
    right_gaps: dict = {}
    for left, right, gap_left, gap_right in pairs:
        left_gaps.setdefault(left, set()).add(gap_left)
        right_gaps.setdefault(right, set()).add(gap_right)

    # Node 0 is the source and node 1 the sink. Edge e runs to to[e] with
    # residual capacity res[e]; e ^ 1 is its reverse.
    adjacency: list = [[], []]
    to: list = []
    res: list = []

    def link(u: int, v: int, capacity: float) -> None:
        adjacency[u].append(len(to))
        to.append(v)
        res.append(capacity)
        adjacency[v].append(len(to))
        to.append(u)
        res.append(0.0)

    # ladders[agent] = (first node, levels): node first + t stands for
    # levels[t + 1], and levels[0] is the agent's floor.
    ladders: dict = {}
    for gaps, is_left in ((left_gaps, True), (right_gaps, False)):
        for agent, agent_gaps in gaps.items():
            levels = [floors[agent], *sorted(agent_gaps)]
            ladders[agent] = (len(adjacency), levels)
            for t in range(1, len(levels)):
                node = len(adjacency)
                adjacency.append([])
                step = levels[t] - levels[t - 1]
                if is_left:
                    link(node, 1, step)
                    if t > 1:
                        link(node, node - 1, math.inf)
                else:
                    link(0, node, step)
                    if t > 1:
                        link(node - 1, node, math.inf)
    for left, right, gap_left, gap_right in pairs:
        first_left, levels_left = ladders[left]
        first_right, levels_right = ladders[right]
        link(
            first_right + bisect.bisect_left(levels_right, gap_right - tol) - 1,
            first_left + bisect.bisect_left(levels_left, gap_left - tol) - 1,
            math.inf,
        )

    count = len(adjacency)
    while True:
        level = [-1] * count
        level[0] = 0
        queue = [0]
        for u in queue:
            next_level = level[u] + 1
            for e in adjacency[u]:
                v = to[e]
                if level[v] < 0 and res[e] > 0.0:
                    level[v] = next_level
                    queue.append(v)
        if level[1] < 0:
            break
        # blocking flow: iterative depth-first search with per-node cursors
        cursor = [0] * count
        path: list = []
        u = 0
        while True:
            if u == 1:
                push = min(res[e] for e in path)
                for e in path:
                    res[e] -= push
                    res[e ^ 1] += push
                saturated = next(idx for idx, e in enumerate(path) if res[e] == 0.0)
                u = to[path[saturated] ^ 1]
                del path[saturated:]
                continue
            edges = adjacency[u]
            i = cursor[u]
            next_level = level[u] + 1
            while i < len(edges):
                e = edges[i]
                if res[e] > 0.0 and level[to[e]] == next_level:
                    break
                i += 1
            cursor[u] = i
            if i < len(edges):
                path.append(e)
                u = to[e]
            elif path:
                u = to[path.pop() ^ 1]
                cursor[u] += 1
            else:
                break

    # level[node] >= 0 marks the source side of the smallest minimum cut: a
    # left agent is raised through its reachable nodes, a right agent
    # through its unreachable ones.
    for agent, (first, levels) in ladders.items():
        raised = agent in left_gaps
        t = 0
        while t + 1 < len(levels) and (level[first + t] >= 0) == raised:
            t += 1
        subsidies[agent] = levels[t]
    return subsidies


def _audit(
    left_gain: np.ndarray,
    right_gain: np.ndarray,
    matching: Matching,
    current: tuple,
    outside: tuple,
    tol: float,
) -> InstabilityReport:
    """Per-agent floors, then the cheapest cover of the active cross pairs.

    left_gain[i, j] is what left agent i gets with right agent j and
    right_gain[j, i] the mirror; current and outside are (left, right)
    pairs of arrays holding each agent's current utility and outside
    option. A floor is the larger of the participation term and the
    value-gap term, each taken as zero within tol so that exact equilibria
    report exactly zero; a tie is tagged as participation. A matched
    agent's value-gap term compares its own pair's gain with its current
    utility, so it is zero when that utility is read from the gain tables
    themselves. tol must be nonnegative: the cover's covering levels assume
    gap - tol never exceeds the gap.
    """
    if not tol >= 0.0:
        raise InputError(f"tol must be a nonnegative number, got {tol!r}")
    # numpy's rules on Python floats: a term within tol is 0.0, a tied floor keeps participation
    p, a = left_gain.shape
    current_left, current_right = current[0].tolist(), current[1].tolist()
    gap_left = [[g - c for g in row] for row, c in zip(left_gain.tolist(), current_left)]
    gap_right = [[g - c for g, c in zip(row, current_right)] for row in right_gain.T.tolist()]
    outside_all = outside[0].tolist() + outside[1].tolist()
    participation = [o - c for o, c in zip(outside_all, current_left + current_right)]
    value_gap = [0.0] * (p + a)
    for i, j in matching.pairs:
        value_gap[i], value_gap[p + j] = gap_left[i][j], gap_right[i][j]
    participation = [0.0 if v <= tol else v for v in participation]
    value_gap = [0.0 if v <= tol else v for v in value_gap]
    floors = [v if v >= g else g for v, g in zip(participation, value_gap)]

    bar = [floor + tol for floor in floors]
    matched = set(matching.pairs)  # covered by the pair's own value-gap terms
    pairs = [
        (i, p + j, g, h)
        for i, (row_left, row_right, bar_left) in enumerate(zip(gap_left, gap_right, bar))
        for j, (g, h, bar_j) in enumerate(zip(row_left, row_right, bar[p:]))
        if g > bar_left and h > bar_j and (i, j) not in matched
    ]
    final = _solve_cover(floors, pairs, tol)
    agents = [AgentId.left(i) for i in range(p)] + [AgentId.right(j) for j in range(a)]
    terms = zip(agents, final, floors, participation, value_gap)
    binding = {
        agent: TAG_NONE if amount <= 0.0 else TAG_COVER if amount > floor
        else TAG_PARTICIPATION if term >= gap else TAG_VALUE_GAP
        for agent, amount, floor, term, gap in terms
    }
    subsidies = SubsidyVector.of(dict(zip(agents, final)))
    return InstabilityReport(
        value=subsidies.total,
        subsidies=subsidies,
        active_pairs=tuple((i, j - p) for i, j, _, _ in pairs),
        binding=binding,
    )


def matching_instability(
    instance: MarketInstance,
    matching: Matching,
    strategies: dict,
    *,
    game_values: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> InstabilityReport:
    """Minimum total subsidy making (matching, strategies) a stable outcome.

    Cross-pair deviations are valued at the pair game's minimax value, so an
    agent's temptation toward a partner ignores what the partner would lose.
    game_values may carry precomputed left-view values (shape p x a, all
    finite) so repeated audits of one instance can skip re-solving the games.
    """
    if game_values is None:
        values = np.array([[game_value(game) for game in row] for row in instance.games])
    else:
        values = np.asarray(game_values, dtype=float)
        if values.shape != (instance.p, instance.a):
            raise DimensionError(
                f"game_values shape {values.shape} does not match ({instance.p}, {instance.a})"
            )
        if not np.isfinite(values).all():
            raise InputError("game_values contains non-finite entries")
    realized = _realized(instance, matching, strategies)
    outside = (instance.left_outside, instance.right_outside)
    return _audit(values, -values.T, matching, realized, outside, tol)


def subset_instability(
    utilities: UtilityTable, matching: Matching, tol: float = DEFAULT_TOL
) -> InstabilityReport:
    """Minimum total subsidy for fixed per-partner utilities (no strategies).

    This is the single-action specialization: deviations are valued by the
    utility table directly and there is no value-rationality constraint.
    """
    current = utilities.current(matching)
    outside = (utilities.left_outside, utilities.right_outside)
    return _audit(utilities.left, utilities.right, matching, current, outside, tol)


def oracle_mi(instance: MarketInstance, matching: Matching, strategies: dict) -> float:
    """Exact instability by exhaustive search, without the min-cut cover solver.

    Builds per-agent candidate subsidy grids (the agent's own lower bound
    plus every cross-pair gap it appears in) and checks every combination
    against the constraint system directly. Game values come from the
    enumeration-based game oracle, keeping the whole route off the LP path.
    Only the total is returned, so the min cut's choice among tied optimal
    covers (the one raising left agents least) cannot show here. Only
    desk-scale markets are accepted.
    """
    if instance.p > ORACLE_MAX_AGENTS_PER_SIDE or instance.a > ORACLE_MAX_AGENTS_PER_SIDE:
        raise InputError(
            f"oracle accepts at most {ORACLE_MAX_AGENTS_PER_SIDE} agents per side, "
            f"got {instance.p}x{instance.a}"
        )
    tol = DEFAULT_TOL
    values = np.array(
        [
            [oracle_solve_game(instance.games[i, j]).value for j in range(instance.a)]
            for i in range(instance.p)
        ]
    )
    realized = realized_utilities(instance, matching, strategies)
    agents = instance.agents()

    outside = instance.left_outside.tolist() + instance.right_outside.tolist()
    lower = {agent: max(0.0, o - realized[agent]) for agent, o in zip(agents, outside)}
    for i, j in matching.pairs:
        value, left, right = float(values[i, j]), AgentId.left(i), AgentId.right(j)
        lower[left] = max(lower[left], value - realized[left])
        lower[right] = max(lower[right], -value - realized[right])

    candidates: dict = {}
    for agent in agents:
        grid = {lower[agent]}
        if agent.side is Side.LEFT:
            gaps = [float(values[agent.index, j]) - realized[agent] for j in range(instance.a)]
        else:
            gaps = [-float(values[i, agent.index]) - realized[agent] for i in range(instance.p)]
        grid.update(g for g in gaps if g > lower[agent])
        candidates[agent] = sorted(grid)

    cross = [
        (
            AgentId.left(i),
            AgentId.right(j),
            float(values[i, j]) - realized[AgentId.left(i)],
            -float(values[i, j]) - realized[AgentId.right(j)],
        )
        for i in range(instance.p)
        for j in range(instance.a)
    ]

    best = math.inf
    for combo in itertools.product(*(candidates[agent] for agent in agents)):
        assignment = dict(zip(agents, combo))
        total = sum(combo)
        if total >= best:
            continue
        if all(
            min(gap_left - assignment[left], gap_right - assignment[right]) <= tol
            for left, right, gap_left, gap_right in cross
        ):
            best = total
    assert math.isfinite(best)
    return best
