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

from .geometry import CostParams, GeometricGraph, adjacency_lengths

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


def _pair_table(g: GeometricGraph, h: GeometricGraph) -> tuple:
    """What `_priced` reads of a graph pair, as Python floats: the
    displacement of each vertex pair (i, j) as `moves[i][j]`, g's edges as
    (a, b, length) and h's edges as a dict from edge to length, both in edge
    order. A length or displacement that overflows is inf, with numpy's
    overflow warning unless the caller silences it. ValueError when the
    dimensions differ."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    gc, hc = (np.array(x.vertices, dtype=float).reshape(x.n_vertices, x.dim) for x in (g, h))
    moves = [[float(np.linalg.norm(p - q)) for q in hc] for p in gc]
    g_lengths = adjacency_lengths(gc[None], [g.edges])[0].tolist()
    h_lengths = adjacency_lengths(hc[None], [h.edges])[0].tolist()
    g_edges = [(a, b, g_lengths[a][b]) for a, b in g.edges]
    h_edges = {(c, d): h_lengths[c][d] for c, d in h.edges}
    return moves, g_edges, h_edges


def _target_tuples(m: int, n: int) -> Iterator[tuple[Optional[int], ...]]:
    """The targets of every inexact matching of an m- and an n-vertex graph,
    each once: ordered by number of matched pairs, then lexicographically by
    the matched left set, right set and image."""
    for k in range(min(m, n) + 1):
        for left in combinations(range(m), k):
            for right in combinations(range(n), k):
                for image in permutations(right):
                    targets: list[Optional[int]] = [None] * m
                    for i, j in zip(left, image):
                        targets[i] = j
                    yield tuple(targets)


def _priced(table: tuple, targets: tuple[Optional[int], ...], params: CostParams) -> float:
    """Cost of the matching with these targets, from the pair's
    `_pair_table`: the terms added one by one, in the order vertex moves,
    g's edges, h's deleted edges."""
    moves, g_edges, h_edges = table
    cv, ce = params.vertex_cost, params.edge_cost
    total = 0.0
    for i, j in enumerate(targets):
        if j is not None:
            total += cv * moves[i][j]
    kept = set()  # edges of h that are the image of an edge of g
    for a, b, length in g_edges:
        ta, tb = targets[a], targets[b]
        if ta is not None and tb is not None:
            image = (ta, tb) if ta < tb else (tb, ta)
            image_length = h_edges.get(image)
            if image_length is not None:
                kept.add(image)
                total += ce * abs(length - image_length)
                continue
        total += ce * length
    for edge, length in h_edges.items():
        if edge not in kept:
            total += ce * length
    return total


def ggd_exact(g: GeometricGraph, h: GeometricGraph,
              params: CostParams) -> tuple[float, InexactMatching]:
    """Minimum matching cost and a matching attaining it. Of matchings of
    equal cost the first wins, in the order of fewest matched pairs, then
    lexicographically by matched left set, right set and image.

    InstanceTooLargeError when either graph has more than MAX_EXACT_VERTICES
    vertices; ValueError when the dimensions differ or every matching's cost
    overflows to inf.
    """
    m, n = g.n_vertices, h.n_vertices
    if m > MAX_EXACT_VERTICES or n > MAX_EXACT_VERTICES:
        raise InstanceTooLargeError(f"exhaustive matching enumeration is capped at "
                                    f"{MAX_EXACT_VERTICES} vertices per graph, got {m} and {n}")
    best_value = np.inf
    best_targets = None
    # an edge length or a cost term that overflows is inf; no matching wins with it
    with np.errstate(over="ignore", invalid="ignore"):
        table = _pair_table(g, h)
        for targets in _target_tuples(m, n):
            value = _priced(table, targets, params)
            if value < best_value:
                best_value = value
                best_targets = targets
    if best_targets is None:
        raise ValueError("no inexact matching has a finite cost: the costs overflow a float")
    return float(best_value), InexactMatching(best_targets, n)
