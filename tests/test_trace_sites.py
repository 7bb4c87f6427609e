"""The call sites that `perfbench/tracing.py` patches to record per-layer spans.

The tracer skips a name that is gone without failing, so a module move would
zero its layer's metrics silently; these tests fail instead.
"""

import sys
from functools import cached_property

import graphmover
from graphmover import dataset, experiments, geometry, letters
from graphmover.geometry import GeometricGraph

from conftest import UNIT_COSTS


def test_gmd_calls_the_ground_cost_through_its_module_global(monkeypatch, segment_pair):
    gmd_module = sys.modules["graphmover.gmd"]
    calls = []
    original = gmd_module.ground_cost_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gmd_module, "ground_cost_matrix", counting)
    g, h = segment_pair
    graphmover.gmd(g, h, UNIT_COSTS)
    assert len(calls) == 1


def test_the_patched_names_exist():
    # the package attribute is the function, which shadows the submodule
    assert graphmover.gmd is sys.modules["graphmover.gmd"].gmd
    for owner, name in ((experiments, "gmd"), (experiments, "classify_topk"),
                        (dataset, "planarize"), (dataset, "read_json_graph"),
                        (letters, "write_letter_dataset")):
        assert callable(getattr(owner, name, None)), name
    # the tracer patches the planarizer where the dataset loader calls it
    assert dataset.planarize is geometry.planarize
    assert isinstance(GeometricGraph.__dict__["adjacency_length_matrix"], cached_property)
