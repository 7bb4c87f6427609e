import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from graphmover import ggd
from graphmover.geometry import MAX_COORD, CostParams, GeometricGraph, translate
from graphmover.ggd import InexactMatching, InstanceTooLargeError, ggd_exact

from conftest import LETTER_COSTS, UNIT_COSTS, geometric_graphs
from helpers import (enumerate_matchings, ggd_loop, hausdorff_point_sets, hausdorff_vertices,
                     matching_cost, matching_count, random_graph_pair, sample_realization,
                     total_length)


def pair_graphs(n, m):
    g = GeometricGraph.build([(i, 0) for i in range(n)], [], dim=2) if n else GeometricGraph(2, (), ())
    h = GeometricGraph.build([(i, 1) for i in range(m)], [], dim=2) if m else GeometricGraph(2, (), ())
    return g, h


def test_matching_counts():
    assert matching_count(1, 1) == 2
    assert matching_count(0, 0) == 1
    assert matching_count(3, 2) == 13
    for (m, n) in [(0, 0), (1, 1), (3, 2), (4, 4), (2, 5)]:
        g, h = pair_graphs(m, n)
        seen = list(enumerate_matchings(g, h))
        assert len(seen) == matching_count(m, n)
        assert len(set(seen)) == len(seen)


def test_enumeration_size_cap():
    g, h = pair_graphs(8, 2)
    with pytest.raises(InstanceTooLargeError):
        next(enumerate_matchings(g, h))


def test_matching_validation():
    with pytest.raises(ValueError):
        InexactMatching((0, 0), 2)
    with pytest.raises(ValueError):
        InexactMatching((5,), 2)
    pi = InexactMatching((1, None), 2)
    assert pi.matched == ((0, 1),)


def test_shared_vertex_pair_matching_cost(shared_vertex_pair):
    g, h = shared_vertex_pair
    # match the two diagonal endpoints by position, delete the other vertices:
    # both length-2 strokes are deleted, nothing moves
    pi = InexactMatching((0, None, 2), 3)
    assert matching_cost(g, h, pi, UNIT_COSTS) == pytest.approx(4.0)


def test_identity_matching_costs_zero(shared_vertex_pair):
    g, _ = shared_vertex_pair
    identity = InexactMatching(tuple(range(g.n_vertices)), g.n_vertices)
    assert matching_cost(g, g, identity, UNIT_COSTS) == 0.0


def test_segment_pair_keep_two_matching_cost(segment_pair):
    g, h = segment_pair
    # keeping 0->0 and 1->1 moves the middle vertex by 1, stretches the kept
    # edge from 3 to 4, and deletes the length-1 stub: 1 + 1 + 1, not 1 + 1.
    pi = InexactMatching((0, 1, None), 2)
    assert matching_cost(g, h, pi, UNIT_COSTS) == pytest.approx(3.0)


def test_exact_distance_on_shared_vertex_pair(shared_vertex_pair):
    g, h = shared_vertex_pair
    value, argmin = ggd_exact(g, h, UNIT_COSTS)
    assert value == pytest.approx(4.0, abs=1e-9)
    # the same matching stays optimal when vertex moves get pricier
    value_heavy, _ = ggd_exact(g, h, CostParams(4.5, 1.0))
    assert value_heavy == pytest.approx(4.0, abs=1e-9)
    assert hausdorff_vertices(g, h) == 0.0
    assert set(argmin.matched) == {(0, 0), (2, 2)}


def test_exact_distance_on_segment_pair(segment_pair):
    g, h = segment_pair
    value, argmin = ggd_exact(g, h, UNIT_COSTS)
    assert value == pytest.approx(3.0, abs=1e-9)
    assert argmin.targets == (0, 1, None)


def test_self_distance_zero(segment_pair):
    g, _ = segment_pair
    value, argmin = ggd_exact(g, g, UNIT_COSTS)
    assert value == 0.0
    assert argmin.targets == (0, 1, 2)


def test_certificate_and_delete_everything_bounds():
    rng = np.random.default_rng(21)
    for _ in range(15):
        g, h = random_graph_pair(rng, max_vertices=4)
        value, _ = ggd_exact(g, h, UNIT_COSTS)
        assert value >= -1e-12
        wipe = UNIT_COSTS.edge_cost * (total_length(g) + total_length(h))
        assert value <= wipe + 1e-9
        for pi in list(enumerate_matchings(g, h))[::7]:
            assert value <= matching_cost(g, h, pi, UNIT_COSTS) + 1e-9


def test_symmetry_translation_and_scale():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g, h = random_graph_pair(rng, max_vertices=4)
        value, _ = ggd_exact(g, h, UNIT_COSTS)
        back, _ = ggd_exact(h, g, UNIT_COSTS)
        assert back == pytest.approx(value, abs=1e-9)
        t = rng.uniform(-4, 4, 2)
        moved, _ = ggd_exact(translate(g, t), translate(h, t), UNIT_COSTS)
        assert moved == pytest.approx(value, abs=1e-9)
        scale = 2.5
        gs = GeometricGraph.build([tuple(scale * x for x in v) for v in g.vertices], g.edges, dim=2)
        hs = GeometricGraph.build([tuple(scale * x for x in v) for v in h.vertices], h.edges, dim=2)
        scaled, _ = ggd_exact(gs, hs, UNIT_COSTS)
        assert scaled == pytest.approx(scale * value, rel=1e-9, abs=1e-9)


def test_positive_distance_despite_zero_hausdorff(segment_pair, shared_vertex_pair):
    g, h = segment_pair
    realization_gap = hausdorff_point_sets(sample_realization(g), sample_realization(h))
    assert realization_gap <= 1e-9
    value, _ = ggd_exact(g, h, UNIT_COSTS)
    assert value > 1.0

    g2, h2 = shared_vertex_pair
    assert hausdorff_vertices(g2, h2) == 0.0
    value2, _ = ggd_exact(g2, h2, UNIT_COSTS)
    assert value2 == pytest.approx(4.0 * UNIT_COSTS.edge_cost, abs=1e-9)


def test_deleting_isolated_vertex_is_free():
    g = GeometricGraph.build([(0, 0), (5, 5)], [])
    h = GeometricGraph.build([(0, 0)], [])
    value, argmin = ggd_exact(g, h, UNIT_COSTS)
    assert value == 0.0
    # with no edges the delete-everything matching is free too, and it comes
    # first in enumeration order
    assert argmin.targets == (None, None)


def test_dimension_mismatch_rejected():
    # a 1D vertex against a 2D one would broadcast to a distance of 5
    g = GeometricGraph.build([(0.0,)], [], dim=1)
    h = GeometricGraph.build([(3.0, 4.0)], [])
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        matching_cost(g, h, InexactMatching((0,), 1), UNIT_COSTS)
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        ggd_exact(g, h, UNIT_COSTS)


def test_exact_size_cap():
    big = GeometricGraph.build([(i, 0) for i in range(8)], [], dim=2)
    small = GeometricGraph.build([(0, 0)], [], dim=2)
    with pytest.raises(InstanceTooLargeError):
        ggd_exact(big, small, UNIT_COSTS)


def test_size_cap_comes_before_the_pair_table(monkeypatch):
    # a pair far over the cap is refused without pricing a single vertex pair
    def no_table(*args):
        raise AssertionError("the pair table was built")

    monkeypatch.setattr(ggd, "_pair_table", no_table)
    big = GeometricGraph.build([(i, 0) for i in range(2000)], [], dim=2)
    small = GeometricGraph.build([(i, 1) for i in range(8)], [], dim=2)
    with pytest.raises(InstanceTooLargeError, match="got 8 and 2000"):
        ggd_exact(small, big, UNIT_COSTS)


def test_empty_pair_has_distance_zero():
    empty = GeometricGraph(2, (), ())
    value, argmin = ggd_exact(empty, empty, UNIT_COSTS)
    assert value == 0.0
    assert argmin.targets == ()
    # against a non-empty graph the whole drawing must be deleted
    h = GeometricGraph.build([(0, 0), (0, 3)], [(0, 1)])
    value, _ = ggd_exact(empty, h, UNIT_COSTS)
    assert value == pytest.approx(3.0)


# a 4D pair whose one edge, in g, is too long for a float: h has no edge to
# keep it, so every matching deletes it and no matching has a finite cost
_FAR = (MAX_COORD,) * 4


@pytest.mark.filterwarnings("error")
def test_matching_cost_prices_only_its_matched_pairs():
    # the far vertices' displacement overflows, but this matching deletes them
    g = GeometricGraph(4, (_FAR, (0.0,) * 4), ())
    h = GeometricGraph(4, (tuple(-x for x in _FAR), (1.0, 0.0, 0.0, 0.0)), ())
    assert matching_cost(g, h, InexactMatching((None, 1), 2), UNIT_COSTS) == 1.0


@settings(max_examples=40, deadline=None)
# a tie: matching g's vertex 0 to h's vertex 0 or to its copy, vertex 2, costs
# 2.0 either way, and (0, 1) comes first in the enumeration
@example(GeometricGraph(2, ((0.0, 0.0), (0.0, 2.0)), ((0, 1),)),
         GeometricGraph(2, ((0.0, 0.0), (0.0, 2.0), (0.0, 0.0)), ((0, 1), (1, 2))), UNIT_COSTS)
@example(GeometricGraph(4, (_FAR, tuple(-x for x in _FAR)), ((0, 1),)),
         GeometricGraph(4, (_FAR,), ()), UNIT_COSTS)
@given(geometric_graphs(min_vertices=0), geometric_graphs(min_vertices=0),
       st.sampled_from([UNIT_COSTS, LETTER_COSTS, CostParams(0.1, 3.0)]))
def test_exact_distance_equals_the_loop_over_matchings(g, h, params):
    """`ggd_exact` returns the value (==) and the matching of the loop over
    the helpers' own `enumerate_matchings` that prices each matching with
    the arrays' terms, so its search order and its pricing from the per-pair
    table change no bit and no tie."""
    try:
        expected = ggd_loop(g, h, params)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ggd_exact(g, h, params)
        return
    value, pi = ggd_exact(g, h, params)
    assert (value, pi) == expected
    assert matching_cost(g, h, pi, params) == value
