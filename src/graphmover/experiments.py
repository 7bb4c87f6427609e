"""Experiment harnesses: prototype retrieval, stability trials, benchmarks.

All harnesses are deterministic for a fixed seed and emit CSV so repeated runs
can be diffed byte for byte.
"""

from __future__ import annotations

import copy
import io
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .dataset import LETTER_LABELS, LetterRecord
from .geometry import CostParams, GeometricGraph, perturb, translate
from .ggd import ggd_exact
from .gmd import _solve_stack, gmd
from .ground_cost import _cost_stack, _stack

# the cost setting of the stability trials and the scaling benchmark
UNIT_COSTS = CostParams(1.0, 1.0)

# ---------------------------------------------------------------------------
# prototype retrieval


@dataclass(frozen=True, eq=False)
class RetrievalReport:
    distortion: str
    ks: tuple[int, ...]
    accuracy: dict[int, float]
    confusion: np.ndarray  # rows: true letter, cols: top-1 prediction
    n_tests: int
    runtime_seconds: float


def _stack_prototypes(proto_graphs: Sequence[GeometricGraph]) -> tuple:
    """The prototypes grouped by vertex count, each group as (its indices into
    proto_graphs, its `ground_cost._stack`): plain arrays, so it pickles."""
    groups: dict[int, list[int]] = {}
    for index, proto in enumerate(proto_graphs):
        groups.setdefault(proto.n_vertices, []).append(index)
    return tuple((tuple(indices), _stack([proto_graphs[a] for a in indices]))
                 for indices in groups.values())


def _letter_distances(graph: GeometricGraph, stacks, params) -> list[float]:
    """gmd(graph, proto, params).value for every prototype of `_stack_prototypes`,
    one batched ground cost and one stack solve per group.

    It prices a shallow copy of graph, so the coordinate and adjacency arrays
    cached while pricing go with the call instead of staying on every drawing
    the caller holds (a whole distortion level in `graphmover classify`).
    """
    query = copy.copy(graph)
    distances = [0.0] * sum(len(indices) for indices, _ in stacks)
    for indices, stack in stacks:
        values, _ = _solve_stack(_cost_stack(query, stack, params))
        for a, value in zip(indices, values.tolist()):
            distances[a] = value
    return distances


def _rank_letters(graph: GeometricGraph, stacks, params) -> list[int]:
    distances = _letter_distances(graph, stacks, params)
    # ties broken by alphabetical letter order: the stacks index label-ordered prototypes
    return sorted(range(len(distances)), key=lambda a: (distances[a], a))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def classify_topk(tests: Sequence[LetterRecord], prototypes: dict[str, GeometricGraph],
                  params: CostParams, ks: Iterable[int] = (1, 3, 5)) -> RetrievalReport:
    """Rank the 15 prototypes by distance for each test drawing.

    A test counts as a hit at k when its true letter is among the k closest
    prototypes. The prototypes are stacked once per call, grouped by vertex
    count, and each drawing is priced against a whole group at once, with the
    same distances as `gmd`. The drawings are scored by a pool with one worker
    per usable CPU, at most one per drawing; with one worker they are scored
    in-process.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    if set(prototypes) != set(LETTER_LABELS):
        raise ValueError(f"prototypes must cover exactly the letters {LETTER_LABELS}")
    proto_graphs = tuple(prototypes[label] for label in LETTER_LABELS)
    dims = {g.dim for g in proto_graphs} | {r.graph.dim for r in tests}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in tests/prototypes: {sorted(dims)}")
    levels = {r.distortion for r in tests}
    distortion = levels.pop() if len(levels) == 1 else "MIXED"

    start = time.perf_counter()
    stacks = _stack_prototypes(proto_graphs)
    workers = min(_usable_cpus(), len(tests))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # the serial path never loads it

        rank = partial(_rank_letters, stacks=stacks, params=params)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tests) // (8 * workers))
            orders = list(pool.map(rank, [r.graph for r in tests], chunksize=chunk))
    else:
        orders = [_rank_letters(r.graph, stacks, params) for r in tests]

    hits = {k: 0 for k in ks}
    confusion = np.zeros((len(LETTER_LABELS), len(LETTER_LABELS)), dtype=int)
    for record, order in zip(tests, orders):
        true_idx = LETTER_LABELS.index(record.label)
        rank = order.index(true_idx)
        for k in ks:
            if rank < k:
                hits[k] += 1
        confusion[true_idx, order[0]] += 1
    n = len(tests)
    accuracy = {k: (hits[k] / n if n else 0.0) for k in ks}
    return RetrievalReport(distortion, ks, accuracy, confusion, n,
                           time.perf_counter() - start)


def retrieval_csv(reports: Sequence[RetrievalReport]) -> str:
    buf = io.StringIO()
    buf.write("distortion,k,accuracy\n")
    for report in reports:
        for k in report.ks:
            buf.write(f"{report.distortion},{k},{report.accuracy[k]:.9f}\n")
    return buf.getvalue()


def confusion_csv(report: RetrievalReport) -> str:
    buf = io.StringIO()
    buf.write("true/predicted," + ",".join(LETTER_LABELS) + "\n")
    for i, label in enumerate(LETTER_LABELS):
        buf.write(label + "," + ",".join(str(int(c)) for c in report.confusion[i]) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# random graphs for trials and benchmarks


def random_graph(rng: np.random.Generator, n_vertices: int) -> GeometricGraph:
    """Random ordered 2D graph: uniform vertices in the box [0, 10)^2, one
    random distinct edge per vertex (capped by the number of vertex pairs)."""
    pts = rng.uniform(0.0, 10.0, size=(n_vertices, 2))
    pairs = list(combinations(range(n_vertices), 2))
    n_edges = min(len(pairs), n_vertices)
    edges = []
    if n_edges:
        chosen = rng.choice(len(pairs), size=n_edges, replace=False)
        edges = [pairs[i] for i in sorted(chosen)]
    return GeometricGraph.build(pts, edges, dim=2)


# ---------------------------------------------------------------------------
# stability trials


@dataclass(frozen=True, eq=False)
class StabilityReport:
    bound: str
    trials: int
    violations: int
    max_ratio: float  # largest observed distance / bound (0 if no positive bound)
    worst_excess: float  # largest observed distance - bound


def gmd_translation_trial(g: GeometricGraph, t: Sequence[float],
                          params: CostParams) -> tuple[float, float]:
    """(distance, bound) for a rigid shift: bound = vertex_cost * |V| * |t|."""
    value = gmd(g, translate(g, t), params).value
    bound = params.vertex_cost * g.n_vertices * float(np.linalg.norm(np.asarray(t, float)))
    return value, bound


def ggd_translation_trial(g: GeometricGraph, t: Sequence[float],
                          params: CostParams) -> tuple[float, float]:
    """(distance, bound) for the exact distance under a rigid shift.

    A shift preserves every edge length, so matching vertices by index costs
    only the displacement term and the bound vertex_cost * |V| * |t| holds.
    """
    value, _ = ggd_exact(g, translate(g, t), params)
    bound = params.vertex_cost * g.n_vertices * float(np.linalg.norm(np.asarray(t, float)))
    return value, bound


def ggd_perturbation_trial(g: GeometricGraph, delta: float, seed: int,
                           params: CostParams) -> tuple[float, float]:
    """(distance, bound) for an arbitrary per-vertex displacement of size <= delta.

    Each edge length changes by at most 2*delta, so the identity matching
    certifies distance <= vertex_cost*|V|*delta + 2*edge_cost*|E|*delta.
    """
    value, _ = ggd_exact(g, perturb(g, delta, seed), params)
    bound = (params.vertex_cost * g.n_vertices * delta
             + 2.0 * params.edge_cost * g.n_edges * delta)
    return value, bound


def _stability_suite(name: str, trials: int, seed: int, max_vertices: int,
                     trial: Callable[[GeometricGraph, np.random.Generator, int],
                                     tuple[float, float]]) -> StabilityReport:
    """Count the trials whose distance exceeds its bound on random graphs.

    Each trial draws its graph size and graph from one stream seeded by
    `seed`; `trial(g, rng, index)` draws what else it needs from the same
    stream and returns (distance, bound).
    """
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    worst_excess = -np.inf
    for index in range(trials):
        g = random_graph(rng, int(rng.integers(1, max_vertices + 1)))
        value, bound = trial(g, rng, index)
        worst_excess = max(worst_excess, value - bound)
        if value > bound + 1e-9:
            violations += 1
        if bound > 1e-9:
            max_ratio = max(max_ratio, value / bound)
    return StabilityReport(name, trials, violations, max_ratio, float(worst_excess))


def run_gmd_translation_suite(trials: int = 100, seed: int = 0,
                              params: CostParams = UNIT_COSTS) -> StabilityReport:
    return _stability_suite(
        "gmd-translation", trials, seed, 8,
        lambda g, rng, index: gmd_translation_trial(g, rng.uniform(-5.0, 5.0, size=2), params))


def run_ggd_translation_suite(trials: int = 100, seed: int = 0,
                              params: CostParams = UNIT_COSTS) -> StabilityReport:
    return _stability_suite(
        "ggd-translation-literal", trials, seed, 5,
        lambda g, rng, index: ggd_translation_trial(g, rng.uniform(-5.0, 5.0, size=2), params))


def run_ggd_perturbation_suite(trials: int = 100, seed: int = 0,
                               params: CostParams = UNIT_COSTS) -> StabilityReport:
    return _stability_suite(
        "ggd-perturbation-corrected", trials, seed, 5,
        lambda g, rng, index: ggd_perturbation_trial(
            g, float(rng.uniform(0.0, 1.0)), seed * 100003 + index, params))


def stability_csv(reports: Sequence[StabilityReport]) -> str:
    buf = io.StringIO()
    buf.write("bound,trials,violations,max_ratio\n")
    for r in reports:
        buf.write(f"{r.bound},{r.trials},{r.violations},{r.max_ratio:.9f}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# metric-property survey


def triangle_inequality_survey(trials: int = 100, seed: int = 0,
                               params: CostParams = UNIT_COSTS) -> StabilityReport:
    """Empirical check of d(a,c) <= d(a,b) + d(b,c) on triples of 1-6 vertex graphs.

    The survey reports violations instead of asserting: with graphs of
    different sizes, the adjacency vectors are truncated differently per pair,
    so the claimed inequality is not obviously inherited from the cost matrix.
    Each trial's excess d(a,c) - d(a,b) - d(b,c) is its distance over a zero
    bound, so `worst_excess` is the largest excess.
    """
    def trial(a, rng, index):
        b, c = (random_graph(rng, int(rng.integers(1, 7))) for _ in range(2))
        d_ab = gmd(a, b, params).value
        d_bc = gmd(b, c, params).value
        d_ac = gmd(a, c, params).value
        return d_ac - d_ab - d_bc, 0.0

    return _stability_suite("triangle-inequality", trials, seed, 6, trial)


# ---------------------------------------------------------------------------
# scaling benchmark


@dataclass(frozen=True, eq=False)
class BenchRow:
    n_vertices: int
    median_seconds: float


def scaling_benchmark(sizes: Sequence[int] = (50, 100, 200), trials: int = 3,
                      seed: int = 0,
                      params: CostParams = UNIT_COSTS) -> list[BenchRow]:
    """Median wall time of the distance on random graph pairs per size.

    Trials run one after another in this process, so no other trial competes
    with a solve for the CPU while it is timed.
    """
    rng = np.random.default_rng(seed)
    warm = random_graph(rng, 8)
    gmd(warm, warm, params)
    rows = []
    for n in sizes:
        times = []
        for _ in range(trials):
            g, h = random_graph(rng, n), random_graph(rng, n)
            start = time.perf_counter()
            gmd(g, h, params)
            times.append(time.perf_counter() - start)
        rows.append(BenchRow(int(n), float(np.median(times))))
    return rows


def bench_csv(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    buf.write("n_vertices,median_seconds\n")
    for row in rows:
        buf.write(f"{row.n_vertices},{row.median_seconds:.9f}\n")
    return buf.getvalue()
