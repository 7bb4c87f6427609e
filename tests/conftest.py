from itertools import combinations

import hypothesis.strategies as st
import pytest

from graphmover.geometry import CostParams, GeometricGraph

from helpers import packaged_graph

UNIT_COSTS = CostParams(1.0, 1.0)
LETTER_COSTS = CostParams(4.5, 1.0)


@pytest.fixture(scope="session")
def unit_costs():
    return UNIT_COSTS


@pytest.fixture(scope="session")
def segment_pair():
    """Same drawn segment [0, 4] on the line, subdivided at 3 in the first graph."""
    return (packaged_graph("figures/subdivided_segment_G"),
            packaged_graph("figures/whole_segment_H"))


@pytest.fixture(scope="session")
def shared_vertex_pair():
    """Identical vertex sets, different edge sets."""
    return (packaged_graph("figures/shared_vertices_G"),
            packaged_graph("figures/shared_vertices_H"))


@pytest.fixture(scope="session")
def zero_distance_pair():
    """Distinct ordered graphs whose mover's distance is zero."""
    return (packaged_graph("figures/zero_gmd_twin_G"),
            packaged_graph("figures/zero_gmd_twin_H"))


coordinate = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def geometric_graphs(draw, max_vertices=6, dim=2, min_vertices=1):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    points = [tuple(draw(coordinate) for _ in range(dim)) for _ in range(n)]
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = set()
    return GeometricGraph.build(points, sorted(edges), dim=dim)
