"""Exact solver for the balanced transportation problem, and its flow checker.

`solve_transport` minimizes sum_ij f_ij * c_ij over flows f >= 0 whose row
sums equal the supplies and whose column sums equal the demands. It runs
successive shortest augmenting paths with node potentials (Dijkstra on the
residual bipartite network), which is exact for non-negative costs and
returns an integral flow whenever all supplies and demands are integers.
Tie-breaking is by lowest index, so the returned flow is deterministic for a
fixed instance. It is the generic solver and the oracle the faster paths are
tested against, and `check_flow` reports every constraint a flow breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmd import Flow

BALANCE_TOL = 1e-9


class InfeasibleInstanceError(ValueError):
    """Total supply and total demand differ beyond tolerance."""


@dataclass(frozen=True, eq=False)
class TransportInstance:
    supplies: np.ndarray
    demands: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        s = np.array(self.supplies, dtype=float)
        d = np.array(self.demands, dtype=float)
        c = np.array(self.costs, dtype=float)
        if s.ndim != 1 or d.ndim != 1:
            raise ValueError("supplies and demands must be one-dimensional")
        if c.shape != (s.size, d.size):
            raise ValueError(f"costs shape {c.shape} does not match "
                             f"{s.size} suppliers x {d.size} consumers")
        for name, arr in (("supplies", s), ("demands", d), ("costs", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contain a non-finite entry")
            if arr.size and arr.min() < 0:
                raise ValueError(f"{name} contain a negative entry")
        if abs(s.sum() - d.sum()) > BALANCE_TOL:
            raise InfeasibleInstanceError(
                f"total supply {s.sum()!r} != total demand {d.sum()!r}")
        if (s.size == 0 or d.size == 0) and (s.sum() > BALANCE_TOL or d.sum() > BALANCE_TOL):
            raise InfeasibleInstanceError("empty instance with nonzero totals")
        for arr in (s, d, c):
            arr.flags.writeable = False
        object.__setattr__(self, "supplies", s)
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "costs", c)


def solve_transport(inst: TransportInstance) -> Flow:
    """Return a cost-minimal feasible flow for the instance."""
    s, d, costs = inst.supplies, inst.demands, inst.costs
    m, n = costs.shape
    flow = np.zeros((m, n))
    total = 0.5 * float(s.sum() + d.sum())
    if total <= BALANCE_TOL:
        flow.flags.writeable = False
        return Flow(flow, 0.0)

    eps = 1e-12 * max(1.0, total)
    rem_s = np.array(s)
    rem_d = np.array(d)
    pot_s = np.zeros(m)  # invariant: costs[i,j] + pot_s[i] - pot_c[j] >= 0,
    pot_c = np.zeros(n)  # with equality on every arc carrying flow
    inf = np.inf
    max_rounds = 64 + 16 * (m + n) + int(min(total, 1e7))

    for _ in range(max_rounds):
        if not (rem_s > eps).any():
            break
        dist_s = np.where(rem_s > eps, 0.0, inf)
        dist_c = np.full(n, inf)
        done_s = np.zeros(m, dtype=bool)
        done_c = np.zeros(n, dtype=bool)
        par_c = np.full(n, -1, dtype=np.int64)  # supplier that reached consumer j
        par_s = np.full(m, -1, dtype=np.int64)  # consumer that reached supplier i
        target = -1
        while True:
            open_s = np.where(done_s, inf, dist_s)
            open_c = np.where(done_c, inf, dist_c)
            i = int(open_s.argmin()) if m else 0
            j = int(open_c.argmin()) if n else 0
            best_s = open_s[i] if m else inf
            best_c = open_c[j] if n else inf
            if best_c <= best_s:
                if best_c == inf:
                    raise InfeasibleInstanceError(
                        "supply remains but no consumer is reachable")
                if rem_d[j] > eps:
                    target = j
                    reached = dist_c[j]
                    break
                done_c[j] = True
                back = np.maximum(pot_c[j] - costs[:, j] - pot_s, 0.0)
                cand = dist_c[j] + back
                upd = (flow[:, j] > 0.0) & ~done_s & (cand < dist_s)
                dist_s[upd] = cand[upd]
                par_s[upd] = j
            else:
                done_s[i] = True
                fwd = np.maximum(costs[i] + pot_s[i] - pot_c, 0.0)
                cand = dist_s[i] + fwd
                upd = ~done_c & (cand < dist_c)
                dist_c[upd] = cand[upd]
                par_c[upd] = i

        pot_s += np.minimum(dist_s, reached)
        pot_c += np.minimum(dist_c, reached)

        # walk the augmenting path back from the target consumer
        forward: list[tuple[int, int]] = []
        backward: list[tuple[int, int]] = []
        j = target
        while True:
            i = int(par_c[j])
            forward.append((i, j))
            jj = int(par_s[i])
            if jj < 0:
                source = i
                break
            backward.append((i, jj))
            j = jj
        amount = min(rem_s[source], rem_d[target])
        for i, j in backward:
            amount = min(amount, flow[i, j])
        if amount <= 0:
            raise RuntimeError("augmenting path with no capacity; numerical breakdown")
        for i, j in forward:
            flow[i, j] += amount
        for i, j in backward:
            flow[i, j] -= amount
        rem_s[source] -= amount
        rem_d[target] -= amount
    else:
        raise RuntimeError(f"no convergence after {max_rounds} augmentations")

    flow.flags.writeable = False
    return Flow(flow, float((flow * costs).sum()))


def check_flow(inst: TransportInstance, flow: Flow, tol: float = 1e-9) -> list[str]:
    """Report every violated flow constraint with its index and residual."""
    f = np.asarray(flow.values, dtype=float)
    if f.shape != inst.costs.shape:
        raise ValueError(f"flow shape {f.shape} does not match instance {inst.costs.shape}")
    problems = []
    for i, j in zip(*np.where(f < -tol)):
        problems.append(f"flow[{i},{j}] is negative: {f[i, j]!r}")
    rows = f.sum(axis=1)
    for i in np.where(np.abs(rows - inst.supplies) > tol)[0]:
        problems.append(f"supplier {i} ships {rows[i]!r} instead of "
                        f"{inst.supplies[i]!r} (residual {rows[i] - inst.supplies[i]!r})")
    cols = f.sum(axis=0)
    for j in np.where(np.abs(cols - inst.demands) > tol)[0]:
        problems.append(f"consumer {j} receives {cols[j]!r} instead of "
                        f"{inst.demands[j]!r} (residual {cols[j] - inst.demands[j]!r})")
    recomputed = float((f * inst.costs).sum())
    if abs(recomputed - flow.objective) > tol:
        problems.append(f"objective {flow.objective!r} does not match flow cost "
                        f"{recomputed!r} (residual {recomputed - flow.objective!r})")
    return problems
