"""Instability metrics: minimum total subsidy that stabilizes an outcome.

Both metrics minimize the sum of per-agent subsidies subject to three
families of constraints: no agent is worse off than its outside option
(participation), no agent can gain by deviating inside its current match
(value rationality, strategy-aware metric only), and no cross pair can
jointly deviate (blocking cover). Subsidies are nonnegative. A report's
value is its one total, its subsidies added left to right in a plain loop.

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

from .errors import InputError, check_real
from .games import check_strategy, oracle_solve_game
from .market import AgentId, Matching, MarketInstance, Side, UtilityTable, _agents

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
    """Left and right realized utilities: a matched pair's bilinear game payoff
    under the profile, an unmatched agent's outside option. The profile must
    hold exactly the matched agents (as many entries, each present), each a
    mixed strategy over its actions."""
    matching.validate_for(instance.p, instance.a)
    agents = instance.agents()
    ids = [(agents[i], agents[instance.p + j]) for i, j in matching.pairs]
    if len(strategies) != 2 * len(ids) or not all(x in strategies and y in strategies for x, y in ids):
        expected = {agent for pair in ids for agent in pair}
        missing = sorted(expected - set(strategies), key=str)
        extra = sorted(set(strategies) - expected, key=str)
        raise InputError(
            f"strategy profile must cover matched agents exactly "
            f"(missing {[str(x) for x in missing]}, extra {[str(x) for x in extra]})"
        )
    left, right = instance.left_outside.copy(), instance.right_outside.copy()
    for (i, j), (left_id, right_id) in zip(matching.pairs, ids):
        try:
            x = check_strategy(strategies[left_id], instance.m)
            y = check_strategy(strategies[right_id], instance.k)
        except InputError as exc:
            raise type(exc)(f"pair {(i, j)}: {exc}") from exc
        left[i] = x @ instance.games[i, j] @ y
        right[j] = -left[i]
    return left, right


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
    to the left member's. The graph is laid down in one pass over the
    ladders, then one over the pairs. Dinic's first two phases are loops
    over the pairs: a length-3 path runs source, right node, left node,
    sink, and a length-4 path adds a chain edge below either end. Each push
    empties a step edge and none refills one, so each pass is a blocking
    flow. Dinic's loop then finishes the maximum flow: each augmenting path
    takes its bottleneck and is cut back to its first saturated edge. The
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
    # residual capacity res[e], and e ^ 1 is its reverse, kept out of
    # adjacency if it would enter the source or leave the sink, as no path
    # does. ladders[agent] = (first node, levels): node first + t stands for
    # levels[t + 1], and levels[0] is the agent's floor.
    adjacency: list = [[], []]
    step: list = [-1, -1]  # each node's step edge; its chain edge, if any, is step + 2
    to: list = []
    res: list = []
    inf = math.inf
    ladders: dict = {}
    for gaps, is_left in ((left_gaps, True), (right_gaps, False)):
        for agent, agent_gaps in gaps.items():
            levels = [floors[agent], *sorted(agent_gaps)]
            first = len(adjacency)
            ladders[agent] = (first, levels)
            for node, low, high in zip(itertools.count(first), levels, levels[1:]):
                e = len(to)  # the step edge: node -> sink on the left, source -> node on the right
                adjacency.append([])
                step.append(e)
                adjacency[node if is_left else 0].append(e)
                to += (1, node) if is_left else (node, 0)
                res += (high - low, 0.0)
                if node > first:  # the chain edge: node -> node - 1 on the left, node - 1 -> node on the right
                    tail, head = (node, node - 1) if is_left else (node - 1, node)
                    adjacency[tail].append(e + 2)
                    adjacency[head].append(e + 3)
                    to += (head, tail)
                    res += (inf, 0.0)
    short, bent = [], []  # paths of length 3 and 4: (first step edge, last step edge, reverse edges)
    for left, right, gap_left, gap_right in pairs:  # the right member's node -> the left member's
        first_left, levels_left = ladders[left]
        first_right, levels_right = ladders[right]
        tail = first_right + bisect.bisect_left(levels_right, gap_right - tol) - 1
        head = first_left + bisect.bisect_left(levels_left, gap_left - tol) - 1
        e = len(to)
        adjacency[tail].append(e)
        adjacency[head].append(e + 1)
        to += (head, tail)
        res += (inf, 0.0)
        short.append((step[tail], step[head], (e + 1,)))
        if tail > first_right:  # source -> tail - 1 -> tail -> head -> sink
            bent.append((step[tail - 1], step[head], (step[tail] + 3, e + 1)))
        if head > first_left:  # source -> tail -> head -> head - 1 -> sink
            bent.append((step[tail], step[head - 1], (e + 1, step[head] + 3)))
    for first, last, backs in short + bent:
        push = res[first] if res[first] < res[last] else res[last]
        if push > 0.0:
            res[first] -= push
            res[last] -= push
            for e in backs:
                res[e] += push

    count = len(adjacency)
    while True:
        level = [-1] * count
        level[0] = 0
        queue = [0]
        for u in queue:
            if u == 1:
                break
            next_level = level[u] + 1
            for e in adjacency[u]:
                v = to[e]
                if level[v] < 0 and res[e] > 0.0:
                    level[v] = next_level
                    queue.append(v)
        if level[1] < 0:
            break
        depth = level[1]  # unlabel the dead ends beside the sink at its level
        level = [-1 if d == depth else d for d in level]
        level[1] = depth
        # blocking flow: iterative depth-first search with per-node cursors
        cursor = [0] * count
        path: list = []
        u = 0
        while True:
            if u == 1:
                push = inf
                for e in path:
                    if res[e] < push:
                        push = res[e]
                saturated = -1  # the first edge the push empties; no path holds an edge and its reverse
                for idx, e in enumerate(path):
                    res[e] -= push
                    res[e ^ 1] += push
                    if saturated < 0 and res[e] == 0.0:
                        saturated = idx
                u = to[path[saturated] ^ 1]
                del path[saturated:]
                continue
            edges = adjacency[u]
            size = len(edges)
            i = cursor[u]
            next_level = level[u] + 1
            while i < size:
                e = edges[i]
                if res[e] > 0.0 and level[to[e]] == next_level:
                    break
                i += 1
            cursor[u] = i
            if i < size:
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

    left_gain[i, j] and right_gain[i, j] are what left agent i and right
    agent j get with each other; current and outside are (left, right)
    pairs of arrays holding each agent's current utility and outside
    option. A floor is the larger of the participation term and the
    value-gap term, each taken as zero within tol so that exact equilibria
    report exactly zero; a tie is tagged as participation. A matched
    agent's value-gap term compares its own pair's gain with its current
    utility, so it is zero when that utility is read from the gain tables
    themselves. tol must be nonnegative: the cover's covering levels assume
    gap - tol never exceeds the gap.
    """
    tol = check_real("tol", tol)
    if tol < 0.0:
        raise InputError(f"tol must be a nonnegative number, got {tol!r}")
    # numpy's rules on Python floats: a term within tol is 0.0, a tied floor keeps participation
    p, a = left_gain.shape
    gap_left = (left_gain - current[0][:, None]).tolist()
    gap_right = (right_gain - current[1]).tolist()  # [i][j]: right agent j's gap toward left agent i
    participation = (np.concatenate(outside) - np.concatenate(current)).tolist()
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
    agents = _agents(p, a)
    terms = zip(agents, final, floors, participation, value_gap)
    binding = {
        agent: TAG_NONE if amount <= 0.0 else TAG_COVER if amount > floor
        else TAG_PARTICIPATION if term >= gap else TAG_VALUE_GAP
        for agent, amount, floor, term, gap in terms
    }
    total = 0.0
    for amount in final:  # left to right; sum() compensates from Python 3.12 on
        total += amount
    return InstabilityReport(
        value=total,
        subsidies=SubsidyVector(dict(zip(agents, final))),
        active_pairs=tuple((i, j - p) for i, j, _, _ in pairs),
        binding=binding,
    )


def matching_instability(
    instance: MarketInstance, matching: Matching, strategies: dict, *, tol: float = DEFAULT_TOL
) -> InstabilityReport:
    """Minimum total subsidy making (matching, strategies) a stable outcome.

    Cross-pair deviations are valued at the pair game's minimax value, so an
    agent's temptation toward a partner ignores what the partner would lose.
    The values are the instance's game_values, read only once the matching
    and the profile have passed their checks; an instance solves them once.
    """
    realized = _realized(instance, matching, strategies)
    values = instance.game_values
    outside = (instance.left_outside, instance.right_outside)
    return _audit(values, -values, matching, realized, outside, tol)


def subset_instability(
    utilities: UtilityTable, matching: Matching, tol: float = DEFAULT_TOL
) -> InstabilityReport:
    """Minimum total subsidy for fixed per-partner utilities (no strategies).

    This is the single-action specialization: deviations are valued by the
    utility table directly and there is no value-rationality constraint.
    """
    current = utilities.current(matching)
    outside = (utilities.left_outside, utilities.right_outside)
    return _audit(utilities.left, utilities.right.T, matching, current, outside, tol)


def oracle_mi(instance: MarketInstance, matching: Matching, strategies: dict) -> float:
    """Exact instability by exhaustive search, without the min-cut cover solver.

    Builds per-agent candidate subsidy grids (the agent's own lower bound
    plus every cross-pair gap it appears in) and checks every combination
    against the constraint system directly. Game values come from the
    enumeration-based game oracle and realized payoffs from a loop of its
    own, keeping the route off the LP path and off the audit's checks. Only
    the total is returned, so the min cut's choice among tied optimal covers
    (the one raising left agents least) cannot show here. Only desk-scale
    markets are accepted.
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
    agents = instance.agents()

    outside = instance.left_outside.tolist() + instance.right_outside.tolist()
    realized = dict(zip(agents, outside))
    for i, j in matching.pairs:
        payoff = float(strategies[AgentId.left(i)] @ instance.games[i, j] @ strategies[AgentId.right(j)])
        realized[AgentId.left(i)], realized[AgentId.right(j)] = payoff, -payoff
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
