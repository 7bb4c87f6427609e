"""Graph mover's distance: optimal transport between two ordered geometric graphs.

Every real vertex supplies (or demands) one unit; a dummy supplier and a dummy
consumer absorb deletions, weighted so the instance balances at m + n units.
The distance is the optimal transportation objective under the ground cost
matrix, computable in O(n^3) time, which makes it a tractable stand-in for the
exact geometric graph distance.

Deletions are priced per vertex: routing a vertex to the dummy pays the total
length of its incident edges, so an edge whose endpoints are both deleted is
charged once per endpoint. The exact distance charges such an edge only once,
which is one of the ways the two distances differ.

The transport instance is solved as an assignment on reduced costs. An
integral optimal flow sends each real vertex either to one partner or to a
dummy, so it is a partial injection pi between the vertex index sets, and its
cost is the sum of all deletion prices plus the sum over pi of

    red[i, j] = c[i, j] - c[i, n] - c[m, j].

With m <= n (else the graphs swap roles), the least such sum equals the
optimum of the full assignment of rows to columns under min(red, 0): a partial
injection extends to a full assignment by adding pairs whose min(red, 0) is
at most 0, so the full optimum is no larger; and dropping the pairs with
red >= 0 from a full assignment leaves a partial injection whose red sum is
the assignment's cost, so it is no smaller. `_solve_stack` does
this for a stack of ground cost matrices of one shape, so that `gmd` (a stack
of one) and the letter ranker (one query against each group of same-size
prototypes) share every step: the reduced costs and their finiteness check,
min(red, 0) and the swap, the assignment, the red < 0 filter and the value.
It keeps the assigned pairs with red < 0 and sends every other vertex to its
dummy. The value sums a zero matrix filled with the ground costs on the
flow's support; that matrix equals flow * costs term by term (the flow is
0/1 off the corner, whose cost is 0), so its sum is the flow's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph
from .ground_cost import GroundCostMatrix, ground_cost_matrix
from .transport import Flow, _assign_rows

_OVERFLOW = "the graph mover's distance overflows a float"


@dataclass(frozen=True, eq=False)
class GmdResult:
    value: float
    flow: Flow
    matrix: GroundCostMatrix


def gmd(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> GmdResult:
    """Graph mover's distance with the optimal flow and cost matrix behind it.

    ValueError when the distance is not finite: the costs overflow a float.
    """
    matrix = ground_cost_matrix(g, h, params)
    values, (_, rows, cols) = _solve_stack(matrix.entries[None])
    value = float(values[0])
    m, n = matrix.m, matrix.n
    flow = np.zeros((m + 1, n + 1))
    flow[rows, cols] = 1.0
    # every vertex without a partner goes to its dummy
    flow[:m, n] = 1.0
    flow[rows, n] = 0.0
    flow[m, :n] = 1.0
    flow[m, cols] = 0.0
    flow[m, n] = len(rows)
    flow.flags.writeable = False
    return GmdResult(value, Flow(flow, value), matrix)


def _solve_stack(entries: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Distances of a stack (k, m+1, n+1) of ground cost matrices, and the
    (stack index, row, column) arrays of the matched pairs of all k flows.

    ValueError(_OVERFLOW) when a reduced cost or a distance is not finite.
    """
    k, m, n = entries.shape[0], entries.shape[1] - 1, entries.shape[2] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        red = entries[:, :m, :n] - entries[:, :m, n:] - entries[:, m:, :n]
        if not np.isfinite(red).all():
            raise ValueError(_OVERFLOW)
        low = np.minimum(red if m <= n else red.transpose(0, 2, 1), 0.0)
        # (stack index, row, column) of every kept pair; with m > n the
        # assignment's rows are the columns of red
        picks: tuple[list[int], list[int], list[int]] = ([], [], [])
        ts, rows, cols = picks if m <= n else (picks[0], picks[2], picks[1])
        for t, cost_rows in enumerate(low.tolist()):
            for r, c in enumerate(_assign_rows(cost_rows, max(m, n))):
                if cost_rows[r][c] < 0.0:  # min(red, 0) < 0 exactly where red < 0
                    ts.append(t)
                    rows.append(r)
                    cols.append(c)
        t, i, j = (np.array(a, dtype=np.intp) for a in picks)
        tab = np.zeros_like(entries)
        tab[:, :m, n] = entries[:, :m, n]
        tab[:, m, :n] = entries[:, m, :n]
        tab[t, i, j] = entries[t, i, j]
        tab[t, i, n] = 0.0
        tab[t, m, j] = 0.0
        values = tab.reshape(k, -1).sum(axis=1)
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOW)
    return values, (t, i, j)
