"""The benchmark's workloads, each a closed loop with one client.

A workload generates its inputs from the seed in `setup`; the runner then
calls `step`, one op each, until the run's time is up and a pass of `cycle`
ops is complete. `steps` counts the ops taken; resetting it to 0 replays the
same inputs from the start. `step` times only the library calls and checks
their outputs after the clock has stopped; `check` runs the checks that are
too costly to run on every op. Library functions are looked up on their
modules at call time, so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphmover
from graphmover import dataset, experiments, letters
from graphmover.geometry import CostParams, GeometricGraph
from graphmover.transport import TransportInstance, check_flow, solve_transport

LETTER_COSTS = CostParams(4.5, 1.0)  # the costs of the letter experiments
KS = (1, 3, 5)
TOL = 1e-9


def report(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


def gmd_problems(result) -> list[str]:
    """Flow feasibility and integrality of a gmd result, and its agreement
    with `solve_transport` re-run on the result's cost matrix."""
    m, n = result.matrix.m, result.matrix.n
    supplies = np.ones(m + 1)
    supplies[m] = n
    demands = np.ones(n + 1)
    demands[n] = m
    inst = TransportInstance(supplies, demands, result.matrix.entries)
    tol = TOL * max(1.0, abs(result.value))
    problems = check_flow(inst, result.flow, tol)
    values = np.asarray(result.flow.values)
    if values.size and np.abs(values - np.rint(values)).max() > TOL:
        problems.append("flow is not integral")
    if abs(result.flow.objective - result.value) > tol:
        problems.append(f"value {result.value!r} is not the flow objective")
    ref = solve_transport(inst).objective
    if abs(ref - result.value) > tol:
        problems.append(f"value {result.value!r} differs from solve_transport {ref!r}")
    return problems


def prefix_problems(graph: GeometricGraph, planar: GeometricGraph) -> list[str]:
    if planar.vertices[:graph.n_vertices] != graph.vertices:
        return ["planarize did not keep the input vertices as an ordered prefix"]
    return []


def rank_problems(graph: GeometricGraph, prototypes, top1: int) -> list[str]:
    """Recompute the prototype distances in-process and check the top-1 letter
    (ties go to the alphabetically first letter, as in classify_topk)."""
    problems = []
    values = []
    for proto in prototypes:
        result = graphmover.gmd(graph, proto, LETTER_COSTS)
        problems += gmd_problems(result)
        values.append(result.value)
    best = min(range(len(values)), key=lambda a: (values[a], a))
    if best != top1:
        problems.append(f"top-1 prototype {top1} but the nearest is {best}")
    return problems


def report_problems(rep) -> list[str]:
    """Consistency of a retrieval report on one drawing."""
    problems = []
    if rep.n_tests != 1 or int(rep.confusion.sum()) != 1:
        problems.append(f"{rep.n_tests} tests and {int(rep.confusion.sum())} "
                        f"confusion entries for one drawing")
    if any(rep.accuracy[a] > rep.accuracy[b] for a, b in zip(KS, KS[1:])):
        problems.append(f"accuracy not monotone in k: {rep.accuracy}")
    if rep.accuracy[1] != np.trace(rep.confusion):
        problems.append("top-1 accuracy disagrees with the confusion matrix")
    return problems


@dataclass(frozen=True)
class Query:
    data: bytes
    label: str
    level: str
    source_id: str


class LettersQuery:
    """One client ranking one drawing at a time: parse, planarize, then rank
    the 15 prototypes in-process."""

    PER_LETTER = 30  # 1,350 distinct queries: a run rarely repeats one
    RANK_SAMPLE = 3  # queries whose ranking is recomputed by `check`
    cycle = 1

    def setup(self, seed: int, workdir: Path) -> None:
        root = workdir / "letters"
        letters.write_letter_dataset(root, per_letter=self.PER_LETTER, seed=seed)
        self.queries = []
        for level in dataset.DISTORTION_LEVELS:
            mapping = json.loads((root / level / "labels.json").read_text())
            for fname in sorted(mapping):
                self.queries.append(Query((root / level / fname).read_bytes(),
                                          mapping[fname], level, Path(fname).stem))
        self.order = np.random.default_rng(seed).permutation(len(self.queries))
        self.prototypes = dataset.load_prototypes()
        self.steps = 0
        self.seen: dict[int, tuple[int, GeometricGraph]] = {}
        self.query(self.queries[-1])

    def query(self, q: Query):
        graph = dataset.read_json_graph(q.data)
        planar = dataset.planarize(graph)
        record = dataset.LetterRecord(planar, q.label, q.level, q.source_id)
        return graph, planar, experiments.classify_topk([record], self.prototypes,
                                                        LETTER_COSTS, ks=KS)

    def step(self) -> tuple[float, int]:
        index = int(self.order[self.steps % len(self.order)])
        self.steps += 1
        start = time.perf_counter()
        graph, planar, rep = self.query(self.queries[index])
        elapsed = time.perf_counter() - start

        problems = prefix_problems(graph, planar) + report_problems(rep)
        top1 = int(np.argmax(rep.confusion.sum(axis=0)))
        earlier = self.seen.setdefault(index, (top1, planar))
        if earlier != (top1, planar):
            problems.append(f"query {index} answered differently when repeated")
        for p in problems:
            report(p)
        return elapsed, 1 if problems else 0

    def check(self) -> int:
        failed = 0
        protos = [self.prototypes[label] for label in dataset.LETTER_LABELS]
        for index in list(self.seen)[:self.RANK_SAMPLE]:
            top1, planar = self.seen[index]
            problems = rank_problems(planar, protos, top1)
            for p in problems:
                report(f"query {index}: {p}")
            failed += bool(problems)
        return failed


def random_drawing(rng: np.random.Generator, n_edges: int, length: float = 6.5,
                   box: float = 10.0) -> GeometricGraph:
    """Segments of one length, centred uniformly in a box and uniformly oriented.

    Fixed-length segments keep each drawing's crossing count close to its
    expectation (about 340 at 60 edges and 2,200 at 150), so drawings of one
    edge count cost about the same on every seed.
    """
    centres = rng.uniform(0.0, box, size=(n_edges, 2))
    angles = rng.uniform(0.0, np.pi, size=n_edges)
    half = 0.5 * length * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = np.empty((2 * n_edges, 2))
    points[0::2] = centres - half
    points[1::2] = centres + half
    return GeometricGraph.build(points, [(2 * i, 2 * i + 1) for i in range(n_edges)], dim=2)


class Drawings:
    """Parse and planarize random 2D drawings with 60 to 150 edges."""

    # one pass visits every edge count once, large and small interleaved; an
    # odd count puts the median op inside one edge count, not between two
    EDGE_COUNTS = (150, 60, 141, 69, 132, 78, 123, 87, 114, 96, 105)
    PASSES = 12  # distinct drawings per edge count; later passes reuse them
    cycle = len(EDGE_COUNTS)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.docs = [dataset.write_json_graph(random_drawing(rng, e)).encode()
                     for _ in range(self.PASSES) for e in self.EDGE_COUNTS]
        self.steps = 0
        self.seen: dict[int, int] = {}  # drawing -> hash of its planarization
        warm = random_drawing(rng, min(self.EDGE_COUNTS))
        dataset.planarize(dataset.read_json_graph(dataset.write_json_graph(warm)))

    def step(self) -> tuple[float, int]:
        index = self.steps % len(self.docs)
        self.steps += 1
        data = self.docs[index]
        start = time.perf_counter()
        graph = dataset.read_json_graph(data)
        planar = dataset.planarize(graph)
        elapsed = time.perf_counter() - start

        problems = prefix_problems(graph, planar)
        # random drawings are in general position: every new vertex is a
        # crossing of exactly two edges, each of which it splits in two
        added = planar.n_vertices - graph.n_vertices
        if planar.n_edges - graph.n_edges != 2 * added:
            problems.append(f"drawing {index}: {added} crossings but "
                            f"{planar.n_edges - graph.n_edges} new edges")
        if self.seen.setdefault(index, hash(planar)) != hash(planar):
            problems.append(f"drawing {index} planarized differently when repeated")
        for p in problems:
            report(p)
        return elapsed, 1 if problems else 0

    def check(self) -> int:
        return 0


WORKLOADS = {
    "letters-query": LettersQuery,
    "drawings": Drawings,
}
