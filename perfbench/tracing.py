"""Per-layer spans for the traced benchmark run, recorded from outside the library.

The tracer replaces public functions at the sites the library calls them from
and restores them on `uninstall`. A span's self time is its duration minus the
time of the spans it encloses. A site that no longer exists is skipped, so a
layer that the library stops calling reports 0 calls instead of failing.
Spans are recorded in this process only; no workload runs the library's
worker pool.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from functools import cached_property

import graphmover
import graphmover.dataset
import graphmover.experiments
import graphmover.letters
from graphmover.geometry import GeometricGraph

SPANS = ("transport", "gmd", "ground_cost", "geometry.adjacency", "dataset.planarize",
         "dataset.parse", "experiments.classify", "letters.synth")
COUNTERS = ("transport.cells", "dataset.planarize.vertices_added", "dataset.parse.bytes")

# every per-layer metric of the traced run, with its unit
UNITS = {
    "transport.calls": "count", "transport.self_s": "s", "transport.cells": "count",
    "gmd.calls": "count", "gmd.self_s": "s",
    "ground_cost.calls": "count", "ground_cost.self_s": "s", "ground_cost.peak_alloc_mb": "MB",
    "geometry.adjacency.builds": "count", "geometry.adjacency.self_s": "s",
    "dataset.planarize.calls": "count", "dataset.planarize.self_s": "s",
    "dataset.planarize.vertices_added": "count",
    "dataset.parse.calls": "count", "dataset.parse.self_s": "s", "dataset.parse.bytes": "B",
    "experiments.classify.calls": "count", "experiments.classify.self_s": "s",
    "letters.synth.self_s": "s",
    "trace.ops": "count", "trace.coverage": "ratio",
    "trace.traced_ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_ns = 0          # time covered by outermost spans in this process
        self.peak_alloc_mb = 0.0
        self._stack: list[int] = []   # child time accumulated per open span
        self._largest_cost = (0, None)  # (m*n, (g, h, params)) of the largest ground cost
        self._ground_cost = None  # the unwrapped ground_cost_matrix
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        self._stack.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            child = self._stack.pop()
            self.calls[name] += 1
            self.self_ns[name] += dur - child
            if self._stack:
                self._stack[-1] += dur
            else:
                self.top_ns += dur

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            out = self._span(name, fn, args, kwargs)
            if count is not None:
                count(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def _count_cells(self, args, flow):
        self.counters["transport.cells"] += int(args[0].costs.size)

    def _count_bytes(self, args, graph):
        self.counters["dataset.parse.bytes"] += len(args[0])

    def _count_added(self, args, graph):
        self.counters["dataset.planarize.vertices_added"] += (
            graph.n_vertices - args[0].n_vertices)

    def _note_cost(self, args, matrix):
        size = matrix.m * matrix.n
        if len(args) == 3 and size > self._largest_cost[0]:
            self._largest_cost = (size, args[:3])

    # -- installation ------------------------------------------------------

    def install_synth(self) -> None:
        """Trace only the synthetic dataset writer (used during set-up)."""
        self._patch(graphmover.letters, "write_letter_dataset", "letters.synth")

    def install(self) -> None:
        gmd_module = sys.modules.get("graphmover.gmd")
        if gmd_module is not None:
            self._patch(gmd_module, "solve_transport", "transport", self._count_cells)
            self._ground_cost = getattr(gmd_module, "ground_cost_matrix", None)
            self._patch(gmd_module, "ground_cost_matrix", "ground_cost", self._note_cost)
        # graphmover.gmd is the function; the benchmark calls it through the package
        self._patch(graphmover, "gmd", "gmd")
        self._patch(graphmover.experiments, "gmd", "gmd")
        self._patch(graphmover.experiments, "classify_topk", "experiments.classify")
        self._patch(graphmover.dataset, "planarize", "dataset.planarize", self._count_added)
        self._patch(graphmover.dataset, "read_json_graph", "dataset.parse", self._count_bytes)
        prop = GeometricGraph.__dict__.get("adjacency_length_matrix")
        if isinstance(prop, cached_property):
            traced = cached_property(self._wrap("geometry.adjacency", prop.func))
            traced.__set_name__(GeometricGraph, "adjacency_length_matrix")
            self._restore.append((GeometricGraph, "adjacency_length_matrix", prop))
            setattr(GeometricGraph, "adjacency_length_matrix", traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def measure_peak_alloc(self) -> None:
        """tracemalloc peak of one ground-cost call on the largest pair seen.

        Re-run after the traced phase on fresh copies of the pair, so that
        allocation tracing slows none of the timed spans.
        """
        if self._largest_cost[1] is None:
            return
        g, h, params = self._largest_cost[1]
        g = GeometricGraph(g.dim, g.vertices, g.edges)
        h = GeometricGraph(h.dim, h.vertices, h.edges)
        tracemalloc.start()
        try:
            self._ground_cost(g, h, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_alloc_mb = peak / 2**20

    def metrics(self) -> dict[str, float]:
        def s(name):
            return self.self_ns[name] / 1e9
        return {
            "transport.calls": self.calls["transport"],
            "transport.self_s": s("transport"),
            "transport.cells": self.counters["transport.cells"],
            "gmd.calls": self.calls["gmd"],
            "gmd.self_s": s("gmd"),
            "ground_cost.calls": self.calls["ground_cost"],
            "ground_cost.self_s": s("ground_cost"),
            "ground_cost.peak_alloc_mb": self.peak_alloc_mb,
            "geometry.adjacency.builds": self.calls["geometry.adjacency"],
            "geometry.adjacency.self_s": s("geometry.adjacency"),
            "dataset.planarize.calls": self.calls["dataset.planarize"],
            "dataset.planarize.self_s": s("dataset.planarize"),
            "dataset.planarize.vertices_added": self.counters["dataset.planarize.vertices_added"],
            "dataset.parse.calls": self.calls["dataset.parse"],
            "dataset.parse.self_s": s("dataset.parse"),
            "dataset.parse.bytes": self.counters["dataset.parse.bytes"],
            "experiments.classify.calls": self.calls["experiments.classify"],
            "experiments.classify.self_s": s("experiments.classify"),
        }
