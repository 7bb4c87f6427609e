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
the assignment's cost, so it is no smaller.

Often no assignment needs to run. When the entries with red < 0 lie in
distinct rows and distinct columns, those entries are the optimal partial
injection: each row's least min(red, 0) is its negative entry (or 0 when it
has none), no two rows want the same column, so the pairs reach the lower
bound sum over rows of min(red, 0), and dropping any of them raises the cost.
The flow is then written directly, and only the other matrices go to the
assignment. `_solve_stack` does this for a stack of ground cost matrices of
one shape, so that `gmd` (a stack of one) and the letter ranker (a group of
same-size drawings against a group of same-size prototypes) share every
step: the reduced costs and their finiteness check, the direct pairs, the
assignment with min(red, 0) and the swap, the red < 0 filter, the flow and
the value. It is the one place that builds the flow: it matches the pairs
found and routes every other vertex to its dummy. The value is that flow's
objective, sum(flow * costs).
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
    values, flows = _solve_stack(matrix.entries[None])
    value = float(values[0])
    flow = flows[0]
    flow.flags.writeable = False
    return GmdResult(value, Flow(flow, value), matrix)


def _solve_stack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances of a stack (k, m+1, n+1) of ground cost matrices, and the
    stack (k, m+1, n+1) of their optimal 0/1 flows (the corner counts the
    matched pairs).

    ValueError(_OVERFLOW) when a reduced cost or a distance is not finite.
    """
    m, n = entries.shape[1] - 1, entries.shape[2] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        red = entries[:, :m, :n] - entries[:, :m, n:] - entries[:, m:, :n]
        if not np.isfinite(red).all():
            raise ValueError(_OVERFLOW)
        # the matched pairs: every red < 0 where those lie in distinct rows and
        # columns, else the assigned pairs with red < 0
        pairs = red < 0.0
        per_row = pairs.sum(axis=2)
        per_col = pairs.sum(axis=1)
        crowded = (per_row > 1).any(axis=1) | (per_col > 1).any(axis=1)
        if crowded.any():
            for t in np.flatnonzero(crowded).tolist():
                # with m > n the assignment's rows are the columns of red
                match = pairs[t] if m <= n else pairs[t].T
                cost_rows = np.minimum(red[t] if m <= n else red[t].T, 0.0).tolist()
                match[:] = False
                for r, c in enumerate(_assign_rows(cost_rows, max(m, n))):
                    if cost_rows[r][c] < 0.0:  # min(red, 0) < 0 exactly where red < 0
                        match[r, c] = True
            per_row = pairs.sum(axis=2)
            per_col = pairs.sum(axis=1)
        # a vertex in no pair goes to its dummy
        flows = np.empty_like(entries)
        flows[:, :m, :n] = pairs
        flows[:, :m, n] = 1 - per_row
        flows[:, m, :n] = 1 - per_col
        flows[:, m, n] = per_row.sum(axis=1)
        # no 0 * inf: with m, n >= 1 a finite red means finite entries, and
        # with m or n = 0 every entry off the corner carries flow 1
        values = (flows * entries).reshape(len(entries), -1).sum(axis=1)
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOW)
    return values, flows
