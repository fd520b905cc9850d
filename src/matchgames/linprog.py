"""One-phase dense simplex for the packing LP of a matrix game.

A game with payoffs shifted into [1, 3] reduces to one packing LP
(Dantzig 1951): maximize 1^T w subject to B w <= 1, w >= 0. The origin is a
feasible basis and the optimum is bounded, so the solve needs no phase 1,
no artificial or free variables and no status: it pivots by Bland's rule
until no reduced cost is negative. solve_lp reaches four kernels that
share that pivot rule and its arithmetic: a single B comes as nested lists
of Python floats, and a 2x2 one takes the closed form of its Bland pivot
path, one of four, picked by `if` on those floats without a tableau
(_solve_2x2), any other shape a list tableau of the nonbasic columns
(_list_tableau); a (G, 2, 2) stack runs the same four paths on arrays, each
picked by masks (_stacked_2x2), and a (G, m, k) stack of any other shape
_stacked, one full numpy tableau that drops finished games in batches. Each
gives every game the same bits. games.maximin picks the form: one call per
game it solves on its own, or one call for a whole stack.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9


def solve_lp(B):
    """Primal optimum w and dual optimum u of max 1^T w s.t. B w <= 1, w >= 0.

    B is an m x k matrix with entries in [1, 3]. Bland's rule picks the
    lowest-index entering column and breaks minimum-ratio ties by the lowest
    basis index. The slack columns' reduced costs give u, which solves
    min 1^T u s.t. B^T u >= 1, u >= 0 with 1^T u = 1^T w. B given as nested
    lists of Python floats gets lists back; a 2x2 B is solved by _solve_2x2
    where it admits B. An m x k array B gets arrays back, by the same route.
    A (G, m, k) array B is G games, solved together: w is (G, k) and u (G, m),
    a stack of 2x2 games along _solve_2x2's pivot paths where it admits them.
    """
    if type(B) is not list:
        if B.ndim == 3:
            return _stacked_2x2(B) if B.shape[1:] == (2, 2) else _stacked(B)
        return tuple(np.array(v) for v in solve_lp(B.tolist()))
    return len(B) == 2 == len(B[0]) and _solve_2x2(*B[0], *B[1]) or _list_tableau(B)


def _solve_2x2(a: float, b: float, c: float, d: float) -> tuple[list, list] | None:
    """_list_tableau on B = [[a, b], [c, d]], or None where the guard refuses B.

    Bland's rule enters w_1 on row hi = [p, q], the one with the larger
    first entry, then stops at a saddle point or goes on to the mixed
    solution of von Neumann and Morgenstern, along one of four pivot paths
    (_stacked_2x2 lists them and names their terms). Each path's (w, u) are
    the tableau's entries in its arithmetic and order, so values equal in
    exact arithmetic (games' values at cells sharing one confidence bound)
    stay equal in the order deferred acceptance reads. Each path computes
    only its own terms: off its path a term may divide by zero.
    """
    # Unequal neighbours 1e-5 apart make the tableau's tolerance tests agree with exact
    # comparisons; but if b == d, rounding of order 1e-15 / |a - c| breaks its ratio tie.
    if not (1.0 <= a <= 3.0 and 1.0 <= b <= 3.0 and 1.0 <= c <= 3.0 and 1.0 <= d <= 3.0
            and min(abs(a - b) or 1.0, abs(c - d) or 1.0, abs(a - c) or 1.0, abs(b - d) or 1.0) >= 1e-5
            and (b != d or a == c or abs(a - c) >= 1e-2)):
        return None
    p, q, r, s = (a, b, c, d) if a >= c else (c, d, a, b)
    inv, ratio = 1.0 / p, q / p
    cost = ratio - 1.0
    if q >= p:
        w, u_hi, u_lo = [inv, 0.0], inv, 0.0
    elif s <= q:
        w_hi = inv / ratio
        w, u_hi, u_lo = [0.0, w_hi], inv - cost * w_hi, 0.0
    else:
        gap = s - r * ratio
        lo_hs, lo_ls, lo_rhs = (0.0 - r * inv) / gap, 1.0 / gap, (1.0 - r * inv) / gap
        hi_rhs, u_hs, u_ls = inv - ratio * lo_rhs, inv - cost * lo_hs, 0.0 - cost * lo_ls
        if s >= r:
            w, u_hi, u_lo = [hi_rhs, lo_rhs], u_hs, u_ls
        else:
            hi_hs, hi_ls = inv - ratio * lo_hs, 0.0 - ratio * lo_ls
            w, u_hi, u_lo = [0.0, lo_rhs - lo_hs * (hi_rhs / hi_hs)], 0.0, u_ls - u_hs * (hi_ls / hi_hs)
    return w, [u_hi, u_lo] if a >= c else [u_lo, u_hi]


def _list_tableau(B: list) -> tuple[list, list]:
    """solve_lp on one B as nested lists of Python floats: a condensed tableau from the origin basis.

    Rows hold the nonbasic columns, named by free as rows are by basis, and
    the right-hand side. The full tableau's basic columns are exact unit
    vectors with +0.0 reduced cost: they never enter, win a ratio test or
    read off as nonzero, so leaving them out changes no step. A pivot writes
    the leaving variable's unit column over the entering one, divides the
    leaving row by the pivot and takes every other row t to t - g * p, so
    each kept entry is the full tableau's (_stacked's) and has its bits.
    """
    m, k = len(B), len(B[0])
    T = [[*row, 1.0] for row in B]
    T.append([*[-1.0] * k, 0.0])
    free, basis = list(range(k)), list(range(k, k + m))
    while entering := [j for j, cost in zip(free, T[m]) if cost < -PIVOT_TOL]:
        enter = min(entering)
        c = free.index(enter)
        ratios = [row[-1] / row[c] if row[c] > PIVOT_TOL else np.inf for row in T]  # inf for the cost row
        least, runner_up = sorted(ratios)[:2]
        if least == np.inf:
            raise RuntimeError(f"entering column {enter} has no positive entry")
        # ratios within 1e-12 of the least tie, and the lowest basis label among them leaves
        tied = runner_up <= least + 1e-12 and [j for j, ratio in zip(basis, ratios) if ratio <= least + 1e-12]
        leave = basis.index(min(tied)) if tied else ratios.index(least)
        pivot, T[leave][c] = T[leave][c], 1.0
        row = [t / pivot for t in T[leave]]
        for i, old in enumerate(T):
            if i != leave:
                g, old[c] = old[c], 0.0
                T[i] = [t - g * p for t, p in zip(old, row)]
        T[leave], basis[leave], free[c] = row, enter, basis[leave]
    return ([T[basis.index(j)][-1] if j in basis else 0.0 for j in range(k)],
            [T[m][free.index(j)] if j in free else 0.0 for j in range(k, k + m)])


def _stacked(B) -> tuple[np.ndarray, np.ndarray]:
    """_list_tableau on each game of a (G, m, k) stack, as one full (G, m+1, k+m+1) numpy tableau.

    Each pivot repeats _list_tableau's elementwise steps on every game in
    the stack, on the basic columns too, so each game's (w, u) are
    _list_tableau's bits. Finished games, whose reduced costs are all
    nonnegative, are read off and leave once they are half the stack. Until
    then each pivots its leaving variable back in on that variable's unit
    column: pivot 1.0, factors +0.0, basis unchanged. Every entry t becomes
    t - 0 * p, which is t unless t is -0.0, and the tableau starts without
    -0.0 and never makes one.
    """
    G, m, k = B.shape
    T = np.zeros((G, m + 1, k + m + 1))
    T[:, :m, :k] = B
    T[:, :m, k:-1] = np.eye(m)
    T[:, :m, -1] = 1.0
    T[:, m, :k] = -1.0
    basis = np.broadcast_to(np.arange(k, k + m), (G, m)).copy()
    games = rows = np.arange(G)
    x, u = np.zeros((G, k + m)), np.zeros((G, m))
    while games.size:
        negative = T[:, m, :-1] < -PIVOT_TOL
        done = ~negative.any(axis=1)
        finished = np.count_nonzero(done)
        if 2 * finished >= games.size:
            live = ~done
            x[games[done][:, None], basis[done]] = T[done, :m, -1]
            u[games[done]] = T[done, m, k:-1]
            T, basis, games, negative, done = T[live], basis[live], games[live], negative[live], done[live]
            if not games.size:
                break
            rows, finished = np.arange(games.size), 0
        enter = negative.argmax(axis=1)
        column = T[rows, :m, enter]
        positive = column > PIVOT_TOL
        ratios = np.divide(T[:, :m, -1], column, out=np.full((games.size, m), np.inf), where=positive)
        least = ratios.min(axis=1, keepdims=True)
        # a column with no positive entry has no finite ratio; a finished game's column does not count
        if (least == np.inf).any() and (stuck := ~(positive.any(axis=1) | done)).any():
            raise RuntimeError(f"entering column {enter[stuck.argmax()]} has no positive entry")
        leave = np.where(ratios <= least + 1e-12, basis, k + m).argmin(axis=1)
        if finished:  # a finished game's leaving variable enters again, on its own unit column
            enter = np.where(done, basis[rows, leave], enter)
        row = T[rows, leave] / T[rows, leave, enter][:, None]
        T[rows, leave] = row
        factors = T[rows, :, enter]
        factors[rows, leave] = 0.0
        T -= factors[:, :, None] * row[:, None, :]
        basis[rows, leave] = enter
    return x[:, :k], u


def _stacked_2x2(B) -> tuple[np.ndarray, np.ndarray]:
    """_stacked on a (G, 2, 2) stack: _solve_2x2 on every game at once, along its four pivot paths.

    Rows are reordered so that hi, the row with the larger first entry,
    comes first: [[p, q], [r, s]]. Each path's (w, u) are elementwise
    expressions that repeat _solve_2x2's arithmetic in its order, and masks
    pick each game's path: q >= p stops at the first pivot; else s <= q
    pivots on the hi row; else s >= r on the lo row; else on the lo row,
    then on the hi row at the hi slack. Refused games go to _list_tableau.
    """
    G, B = len(B), B.astype(float, copy=False)
    with np.errstate(all="ignore"):  # every path is computed for every game, off its own path too
        # _solve_2x2's guard on |a - b|, |c - d|, |a - c| and |b - d|
        near = np.abs(np.concatenate((B[:, :, 0] - B[:, :, 1], B[:, 0] - B[:, 1]), axis=1))
        admitted = (((B >= 1.0) & (B <= 3.0)).all(axis=(1, 2)) & ~((near > 0.0) & (near < 1e-5)).any(axis=1)
                    & ((near[:, 3] != 0.0) | (near[:, 2] == 0.0) | (near[:, 2] >= 1e-2)))
        swap = B[:, 0, 0] < B[:, 1, 0]
        p, q, r, s = np.where(swap[:, None, None], B[:, ::-1], B).reshape(G, 4).T
        # pivot 1, on p: the hi row is [1, ratio, inv, 0, inv] and the cost row [0, cost, inv, 0, inv]
        inv, ratio = 1.0 / p, q / p
        cost, gap = ratio - 1.0, s - r * ratio  # -1 - (-1) * ratio, and the lo row's entry at w_2
        # pivot 2 at w_2 on the lo row: its row (lo_), the hi row (hi_) and the cost row (u_) at the
        # hi slack (hs), the lo slack (ls) and the right-hand side (rhs); or on the hi row (w_hi)
        lo_hs, lo_ls, lo_rhs = (0.0 - r * inv) / gap, 1.0 / gap, (1.0 - r * inv) / gap
        hi_hs, hi_ls, hi_rhs = inv - ratio * lo_hs, 0.0 - ratio * lo_ls, inv - ratio * lo_rhs
        u_hs, u_ls, w_hi = inv - cost * lo_hs, 0.0 - cost * lo_ls, inv / ratio
        # pivot 3 at the hi slack on the hi row, where u_hs ends as u_hs - u_hs * 1.0, that is +0.0
        last_w, last_u = lo_rhs - lo_hs * (hi_rhs / hi_hs), u_ls - u_hs * (hi_ls / hi_hs)
        first, hi_row, lo_row = q >= p, s <= q, s >= r
        w = np.empty((G, 2))
        w[:, 0] = np.where(first, inv, np.where(hi_row | ~lo_row, 0.0, hi_rhs))
        w[:, 1] = np.where(first, 0.0, np.where(hi_row, w_hi, np.where(lo_row, lo_rhs, last_w)))
        u_hi = np.where(first, inv, np.where(hi_row, inv - cost * w_hi, np.where(lo_row, u_hs, 0.0)))
        u_lo = np.where(first | hi_row, 0.0, np.where(lo_row, u_ls, last_u))
    u = np.empty((G, 2))
    u[:, 0], u[:, 1] = np.where(swap, u_lo, u_hi), np.where(swap, u_hi, u_lo)
    for game in (~admitted).nonzero()[0]:
        w[game], u[game] = _list_tableau(B[game].tolist())
    return w, u
