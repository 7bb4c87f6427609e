"""Exact geometric graph distance by exhaustive search over inexact matchings.

An inexact matching pairs each vertex of one graph with a vertex of the other
or deletes it; its cost adds vertex displacements, length changes of matched
edges, and the full length of every edge that loses an endpoint or whose image
pair is not an edge of the other graph. The distance is the minimum cost over
all matchings, so the search is exponential and capped at 7 vertices per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Optional

import numpy as np

from .geometry import CostParams, GeometricGraph

MAX_EXACT_VERTICES = 7


class InstanceTooLargeError(ValueError):
    """Graph pair exceeds the exhaustive-search size cap."""


@dataclass(frozen=True)
class InexactMatching:
    """Assignment of every left vertex to a right vertex or to deletion (None).

    `targets[i]` is the right-graph index matched to left vertex i; right
    vertices that appear in no pair are deleted. Restricted to real pairs the
    matching is a bijection.
    """

    targets: tuple[Optional[int], ...]
    n_right: int

    def __post_init__(self):
        hit = [t for t in self.targets if t is not None]
        if len(set(hit)) != len(hit):
            raise ValueError("matching assigns one right vertex twice")
        if any(not 0 <= t < self.n_right for t in hit):
            raise ValueError("matching target out of range")

    @property
    def matched(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, t) for i, t in enumerate(self.targets) if t is not None)


def enumerate_matchings(g: GeometricGraph, h: GeometricGraph) -> Iterator[InexactMatching]:
    """Yield every inexact matching exactly once.

    Ordered by number of matched pairs, then lexicographically by the matched
    left set, right set, and the assignment, which makes downstream argmin
    tie-breaking reproducible.
    """
    m, n = g.n_vertices, h.n_vertices
    if m > MAX_EXACT_VERTICES or n > MAX_EXACT_VERTICES:
        raise InstanceTooLargeError(
            f"exhaustive matching enumeration is capped at {MAX_EXACT_VERTICES} "
            f"vertices per graph, got {m} and {n}")
    for k in range(min(m, n) + 1):
        for left in combinations(range(m), k):
            for right in combinations(range(n), k):
                for image in permutations(right):
                    targets: list[Optional[int]] = [None] * m
                    for i, j in zip(left, image):
                        targets[i] = j
                    yield InexactMatching(tuple(targets), n)


def matching_cost(g: GeometricGraph, h: GeometricGraph, pi: InexactMatching,
                  params: CostParams) -> float:
    """Cost of one inexact matching.

    Vertex displacement for matched vertices, absolute length difference for
    edges mapped onto edges, and full length for every deleted edge on either
    side. Deleting an isolated vertex is free.
    """
    if len(pi.targets) != g.n_vertices or pi.n_right != h.n_vertices:
        raise ValueError("matching does not fit this graph pair")
    cv, ce = params.vertex_cost, params.edge_cost
    targets = pi.targets
    total = 0.0
    for i, j in pi.matched:
        total += cv * float(np.linalg.norm(g.coords[i] - h.coords[j]))
    h_edges = h.edge_set
    kept = set()  # edges of h that are the image of an edge of g
    for a, b in g.edges:
        ta, tb = targets[a], targets[b]
        length = g.adjacency_length_matrix[a, b]
        if ta is not None and tb is not None:
            image = (ta, tb) if ta < tb else (tb, ta)
            if image in h_edges:
                kept.add(image)
                total += ce * abs(length - h.adjacency_length_matrix[image[0], image[1]])
                continue
        total += ce * length
    for c, d in h.edges:
        if (c, d) not in kept:
            total += ce * h.adjacency_length_matrix[c, d]
    return total


def ggd_exact(g: GeometricGraph, h: GeometricGraph,
              params: CostParams) -> tuple[float, InexactMatching]:
    """Minimum matching cost and a matching attaining it (first found wins ties).

    ValueError when every matching's cost overflows to inf.
    """
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    best_value = np.inf
    best_matching = None
    # an edge length or a cost term that overflows is inf; no matching wins with it
    with np.errstate(over="ignore", invalid="ignore"):
        for pi in enumerate_matchings(g, h):
            value = matching_cost(g, h, pi, params)
            if value < best_value:
                best_value = value
                best_matching = pi
    if best_matching is None:
        raise ValueError("no inexact matching has a finite cost: the costs overflow a float")
    return float(best_value), best_matching
