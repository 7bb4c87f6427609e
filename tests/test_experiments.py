import json
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import graphmover
from graphmover import cli
from graphmover.dataset import LETTER_LABELS, LetterRecord, load_prototypes
from graphmover.experiments import (bench_csv, classify_topk, confusion_csv,
                                    ggd_perturbation_trial, ggd_translation_trial,
                                    gmd_translation_trial, random_graph, retrieval_csv,
                                    run_ggd_perturbation_suite, run_ggd_translation_suite,
                                    run_gmd_translation_suite, scaling_benchmark,
                                    stability_csv, triangle_inequality_survey)
from graphmover.geometry import CostParams, GeometricGraph, perturb
from graphmover.gmd import (_cost_stack, _distance_matrix, _reference_stacks, _solve_stack,
                            _stack, gmd)

from conftest import LETTER_COSTS, UNIT_COSTS
from helpers import dense_gmd_value, stacks_of


@pytest.fixture(scope="module")
def prototypes():
    return load_prototypes()


def as_records(graph_label_pairs, distortion="LOW"):
    return [LetterRecord(g, label, distortion, f"t{i:03d}")
            for i, (g, label) in enumerate(graph_label_pairs)]


def test_prototypes_classify_themselves(prototypes):
    tests = as_records([(prototypes[label], label) for label in LETTER_LABELS])
    report = classify_topk(tests, prototypes, LETTER_COSTS, ks=(1, 3, 5, 15))
    assert report.accuracy[1] == 1.0
    assert report.accuracy[15] == 1.0
    assert report.n_tests == 15
    assert np.array_equal(report.confusion, np.eye(15, dtype=int))


def test_accuracy_non_decreasing_in_k(prototypes):
    rng = np.random.default_rng(12)
    tests = as_records([(perturb(prototypes[label], 0.6, int(rng.integers(1 << 30))), label)
                        for label in LETTER_LABELS for _ in range(2)])
    report = classify_topk(tests, prototypes, LETTER_COSTS, ks=(1, 2, 3, 5, 15))
    values = [report.accuracy[k] for k in report.ks]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert report.accuracy[15] == 1.0


def test_small_perturbations_keep_top1(prototypes):
    from graphmover.gmd import gmd

    delta = 0.02
    tests = as_records([(perturb(prototypes[label], delta, seed), label)
                        for seed, label in enumerate(("A", "E"))])
    # the margin is real: the true prototype stays within the translation-style
    # bound while every other prototype is numerically much farther away
    for rec in tests:
        d_true = gmd(rec.graph, prototypes[rec.label], LETTER_COSTS).value
        others = [gmd(rec.graph, prototypes[label], LETTER_COSTS).value
                  for label in LETTER_LABELS if label != rec.label]
        assert d_true < min(others)
    report = classify_topk(tests, prototypes, LETTER_COSTS, ks=(1,))
    assert report.accuracy[1] == 1.0


def test_classify_validates_inputs(prototypes):
    tests = as_records([(prototypes["A"], "A")])
    incomplete = dict(prototypes)
    del incomplete["Z"]
    with pytest.raises(ValueError):
        classify_topk(tests, incomplete, LETTER_COSTS)
    with pytest.raises(ValueError):
        classify_topk(tests, prototypes, LETTER_COSTS, ks=(0, 1))
    line = GeometricGraph.build([(0,), (1,)], [(0, 1)], dim=1)
    with pytest.raises(ValueError):
        classify_topk(as_records([(line, "A")]), prototypes, LETTER_COSTS)


def test_pool_and_serial_agree(prototypes, monkeypatch, tmp_path, capfd):
    # the level pool's workers price on unpickled prototype graphs
    rng = np.random.default_rng(4)
    graphs = [perturb(prototypes[label], 0.5, int(rng.integers(1 << 30)))
              for label in LETTER_LABELS]
    protos = tuple(prototypes[label] for label in LETTER_LABELS)
    copies = pickle.loads(pickle.dumps(protos))
    assert (_distance_matrix(graphs, copies, LETTER_COSTS).tobytes()
            == _distance_matrix(graphs, protos, LETTER_COSTS).tobytes())
    dataset = tmp_path / "letters"
    assert cli.main(["synth", "--out", str(dataset), "--per-letter", "2", "--seed", "3"]) == 0
    levels = ["HIGH", "LOW", "MED"]
    every_k = ",".join(map(str, range(1, 16)))  # accuracy at every k compares whole rankings
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        for fmt in ("csv", "json"):
            conf = tmp_path / f"conf-{cpus}-{fmt}"
            capfd.readouterr()
            assert cli.main(["classify", "--dataset", str(dataset), "--distortion", *levels,
                             "--k", every_k, "--format", fmt,
                             "--confusion-out", str(conf)]) == 0
            captured = capfd.readouterr()
            assert captured.err == ""
            runs[cpus, fmt] = (captured.out, {p.name: p.read_bytes()
                                              for p in sorted(conf.iterdir())})
    for fmt in ("csv", "json"):
        assert runs[1, fmt] == runs[2, fmt]
    rows = runs[1, "csv"][0].splitlines()[1:]
    assert [row.split(",")[0] for row in rows[::15]] == levels
    assert [entry["distortion"] for entry in json.loads(runs[1, "json"][0])] == levels
    assert sorted(runs[1, "csv"][1]) == [f"confusion_{level}.csv" for level in sorted(levels)]


def per_pair_ranking(query, protos, params):
    values = [gmd(query, proto, params).value for proto in protos]
    return values, sorted(range(len(protos)), key=lambda a: (values[a], a))


def batched_ranking(queries, protos, params):
    """The distance matrix and the stable argsort that `classify_topk` ranks by."""
    distances = _distance_matrix(queries, protos, params)
    return distances, np.argsort(distances, axis=1, kind="stable")


@st.composite
def ranking_problems(draw):
    """1-4 queries of one vertex count and 15 prototypes, each of 0-9
    vertices, in 2 or 3 dimensions, on a coarse grid (so costs tie) stretched
    per graph and scaled by a power of ten; a prototype is edgeless about
    half the time."""
    dim = draw(st.sampled_from((2, 3)))
    scale = 10.0 ** draw(st.integers(-3, 3))

    def graph(n, edgeless):
        stretch = scale * draw(st.sampled_from((1.0, 0.7, 1.3, 2.9)))
        points = tuple(tuple(stretch * draw(st.integers(0, 4)) for _ in range(dim))
                       for _ in range(n))
        pairs = list(combinations(range(n), 2))
        edges = () if edgeless or not pairs else draw(st.sets(st.sampled_from(pairs)))
        return GeometricGraph(dim, points, tuple(edges))

    m = draw(st.integers(0, 9))
    queries = tuple(graph(m, False) for _ in range(draw(st.integers(1, 4))))
    return queries, tuple(graph(draw(st.integers(0, 9)), draw(st.booleans()))
                          for _ in range(15))


def path_graph(n, step=0.5):
    return GeometricGraph.build([(step * k, k % 3) for k in range(n)],
                                [(k, k + 1) for k in range(n - 1)], dim=2)


@settings(max_examples=150, deadline=None)
# three 6-vertex queries against prototypes of 0-14 vertices: both sides of the swap
@example(((path_graph(6), path_graph(6, 0.7), path_graph(6, 0.2)),
          tuple(path_graph(n) for n in range(15))), CostParams())
# an 8-vertex query against empty prototypes: each value sums 9 entries of a
# one-column matrix, whose order follows the memory order of the costs
@example(((GeometricGraph(3, ((0.0, 0.0, 0.0),) * 2 + ((0.0, 0.0, 0.2), (0.0, 0.0, 0.1))
                          + ((0.0, 0.0, 0.0),) * 4, ((0, 1), (0, 2), (0, 3))),),
          tuple(GeometricGraph(3, (), ()) for _ in range(15))), CostParams(1.0, 1.0))
@given(ranking_problems(),
       st.sampled_from((CostParams(), CostParams(1.0, 1.0), CostParams(0.1, 3.0))))
def test_batched_ranking_is_bit_identical_to_per_pair_gmd(problem, params):
    queries, protos = problem
    rankings = [per_pair_ranking(query, protos, params) for query in queries]
    distances, orders = batched_ranking(queries, protos, params)
    assert distances.tolist() == [values for values, _ in rankings]
    assert orders.tolist() == [order for _, order in rankings]
    for query, (values, _) in zip(queries, rankings):
        assert values == [dense_gmd_value(query, proto, params) for proto in protos]
    # the batched flows too, swapped groups (queries larger than prototype) included
    batch = _stack(queries)
    for columns, fused in _reference_stacks(protos):
        _, flows = _solve_stack(_cost_stack(batch, fused, params), fused)
        stack_flows = [graph_flows for stack in stacks_of(flows, fused[0])
                       for graph_flows in stack.swapaxes(0, 1)]
        for a, graph_flows in zip(columns, stack_flows, strict=True):
            for query, flow in zip(queries, graph_flows, strict=True):
                expected = gmd(query, protos[a], params).flow.values
                assert flow.shape == expected.shape
                assert flow.tobytes() == expected.tobytes()


def test_ranking_tie_goes_to_the_alphabetically_first_letter(prototypes):
    f = prototypes["F"]
    twins = dict(prototypes, H=GeometricGraph(f.dim, f.vertices, f.edges))
    protos = tuple(twins[label] for label in LETTER_LABELS)
    query = perturb(f, 0.05, 3)
    values, order = per_pair_ranking(query, protos, LETTER_COSTS)
    f_index, h_index = LETTER_LABELS.index("F"), LETTER_LABELS.index("H")
    assert values[f_index] == values[h_index]
    assert batched_ranking([query], protos, LETTER_COSTS)[1].tolist() == [order]
    assert order[:2] == [f_index, h_index]
    report = classify_topk(as_records([(query, "H")]), twins, LETTER_COSTS, ks=(1, 2))
    assert report.confusion[h_index, f_index] == 1
    assert report.accuracy == {1: 0.0, 2: 1.0}


def test_empty_query_ranks_by_deletion_cost(prototypes):
    empty = GeometricGraph(2, (), ())
    protos = tuple(prototypes[label] for label in LETTER_LABELS)
    values, order = per_pair_ranking(empty, protos, LETTER_COSTS)
    distances, orders = batched_ranking([empty], protos, LETTER_COSTS)
    assert distances.tolist() == [values]
    assert orders.tolist() == [order]
    # every prototype edge is paid at both endpoints
    assert values == pytest.approx([2 * LETTER_COSTS.edge_cost * sum(
        float(np.linalg.norm(p.coords[i] - p.coords[j])) for i, j in p.edges) for p in protos])
    assert classify_topk(as_records([(empty, "I")]), prototypes, LETTER_COSTS).n_tests == 1


def test_prototype_stacks_are_kept_read_only_for_the_same_graphs(prototypes):
    protos = tuple(prototypes[label] for label in LETTER_LABELS)
    stacks = _reference_stacks(protos)
    assert _reference_stacks(list(protos)) is stacks
    for _, (_, *arrays) in stacks:
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0.0
    # equal graphs that are other objects get their own stacks, which replace
    # the kept ones
    twins = tuple(GeometricGraph(g.dim, g.vertices, g.edges) for g in protos)
    twin_stacks = _reference_stacks(twins)
    assert twin_stacks is not stacks
    assert _reference_stacks(twins) is twin_stacks
    again = _reference_stacks(protos)
    assert again is not stacks
    assert pickle.dumps(again) == pickle.dumps(stacks)


def test_one_query_prices_each_prototype_group_once(prototypes, monkeypatch):
    gmd_module = sys.modules["graphmover.gmd"]
    calls = {"_stack": [], "_fuse": [], "_cost_stack": [], "_solve_stack": []}
    for name, log in calls.items():
        def counting(first, *args, _original=getattr(gmd_module, name), _log=log):
            _log.append(first)
            return _original(first, *args)

        monkeypatch.setattr(gmd_module, name, counting)
    # equal graphs that are new objects, so that the first call stacks them
    protos = tuple(GeometricGraph(g.dim, g.vertices, g.edges)
                   for g in (prototypes[label] for label in LETTER_LABELS))
    sizes = [g.n_vertices for g in protos]
    groups = sorted(sizes.count(n) for n in set(sizes))
    assert len(groups) > 1
    # no prototype has more than 7 vertices, so all groups are fused in one set
    assert max(sizes) <= 7
    query = perturb(prototypes["K"], 0.2, 1)
    first = _distance_matrix([query], protos, LETTER_COSTS)
    # one stack per prototype size group and one for the query
    assert sorted(map(len, calls["_stack"])) == sorted(groups + [1])
    assert list(map(len, calls["_fuse"])) == [len(groups)]
    # one cost pass and one solve for the set
    assert len(calls["_cost_stack"]) == 1
    assert len(calls["_solve_stack"]) == 1
    # the same prototype objects again: only the query is stacked
    for log in calls.values():
        log.clear()
    second = _distance_matrix([query], protos, LETTER_COSTS)
    assert list(map(len, calls["_stack"])) == [1]
    assert calls["_fuse"] == []
    assert len(calls["_cost_stack"]) == 1
    assert len(calls["_solve_stack"]) == 1
    assert second.tobytes() == first.tobytes()


def test_ranking_leaves_the_drawings_uncached(prototypes):
    tests = as_records([(perturb(prototypes[label], 0.3, 5), label) for label in ("A", "E")])
    before = [dict(vars(record.graph)) for record in tests]
    assert classify_topk(tests, prototypes, LETTER_COSTS).accuracy[1] == 1.0
    assert [vars(record.graph) for record in tests] == before


def test_classify_topk_starts_no_pool(prototypes, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    tests = as_records([(prototypes[label], label) for label in LETTER_LABELS])
    assert classify_topk(tests, prototypes, LETTER_COSTS).accuracy[1] == 1.0


def test_report_csvs_are_deterministic(prototypes):
    tests = as_records([(prototypes[label], label) for label in LETTER_LABELS])
    reports = [classify_topk(tests, prototypes, LETTER_COSTS) for _ in range(2)]
    assert retrieval_csv(reports[:1]) == retrieval_csv(reports[1:])
    text = retrieval_csv(reports[:1])
    assert text.splitlines()[0] == "distortion,k,accuracy"
    assert text.splitlines()[1] == "LOW,1,1.000000000"
    conf = confusion_csv(reports[0])
    assert conf.splitlines()[0] == "true/predicted," + ",".join(LETTER_LABELS)
    assert len(conf.splitlines()) == 16


def test_translation_trials_respect_bounds():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 4)
    value, bound = gmd_translation_trial(g, (3.0, 4.0), UNIT_COSTS)
    assert bound == pytest.approx(4 * 5.0)
    assert value <= bound + 1e-9
    zero_value, zero_bound = gmd_translation_trial(g, (0.0, 0.0), UNIT_COSTS)
    assert zero_value == 0.0 and zero_bound == 0.0
    ggd_value, ggd_bound = ggd_translation_trial(g, (1.0, -2.0), UNIT_COSTS)
    assert ggd_value <= ggd_bound + 1e-9


def test_perturbation_trial_uses_corrected_bound():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 4)
    value, bound = ggd_perturbation_trial(g, 0.3, seed=17, params=UNIT_COSTS)
    expected = (UNIT_COSTS.vertex_cost * g.n_vertices * 0.3
                + 2 * UNIT_COSTS.edge_cost * g.n_edges * 0.3)
    assert bound == pytest.approx(expected)
    assert value <= bound + 1e-9
    zero_value, zero_bound = ggd_perturbation_trial(g, 0.0, seed=17, params=UNIT_COSTS)
    assert zero_value == 0.0 and zero_bound == 0.0


def test_stability_suites_have_no_violations():
    for suite in (run_gmd_translation_suite, run_ggd_translation_suite,
                  run_ggd_perturbation_suite):
        report = suite(trials=20, seed=1, params=UNIT_COSTS)
        assert report.trials == 20
        assert report.violations == 0
        assert report.max_ratio <= 1.0 + 1e-9
    text = stability_csv([run_gmd_translation_suite(trials=5, seed=2, params=UNIT_COSTS)])
    assert text.splitlines()[0] == "bound,trials,violations,max_ratio"


def test_stability_suites_are_pinned():
    reports = [suite(trials=20, seed=3, params=UNIT_COSTS)
               for suite in (run_gmd_translation_suite, run_ggd_translation_suite,
                             run_ggd_perturbation_suite)]
    assert stability_csv(reports) == (
        "bound,trials,violations,max_ratio\n"
        "gmd-translation,20,0,1.000000000\n"
        "ggd-translation-literal,20,0,1.000000000\n"
        "ggd-perturbation-corrected,20,0,0.822208106\n")


def test_triangle_survey_reports_consistently():
    report = triangle_inequality_survey(trials=30, seed=3, params=UNIT_COSTS)
    assert report.trials == 30
    assert (report.violations == 0) == (report.worst_excess <= 1e-9)
    pinned = triangle_inequality_survey(trials=100, seed=0, params=UNIT_COSTS)
    assert (pinned.violations, f"{pinned.worst_excess:.9f}") == (5, "4.528317817")


def test_random_graph_is_deterministic():
    a = random_graph(np.random.default_rng(7), 6)
    b = random_graph(np.random.default_rng(7), 6)
    assert a == b
    assert a.n_vertices == 6


def combinations_random_graph(rng, n_vertices):
    """random_graph as it was first written: it lists every vertex pair and
    draws indices into that list."""
    pts = rng.uniform(0.0, 10.0, size=(n_vertices, 2))
    pairs = list(combinations(range(n_vertices), 2))
    n_edges = min(len(pairs), n_vertices)
    edges = []
    if n_edges:
        chosen = rng.choice(len(pairs), size=n_edges, replace=False)
        edges = [pairs[i] for i in sorted(chosen)]
    return GeometricGraph.build(pts, edges, dim=2)


def test_random_graph_maps_indices_to_the_listed_pairs():
    for seed in (0, 1, 7, 800):
        for n in range(61):
            rng, listed = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_graph(rng, n) == combinations_random_graph(listed, n)
            # the same draws: both streams go on alike
            assert rng.bit_generator.state == listed.bit_generator.state


def test_scaling_benchmark_rows_and_csv():
    rows = scaling_benchmark(sizes=(4, 16), trials=3, seed=0, params=UNIT_COSTS)
    assert [r.n_vertices for r in rows] == [4, 16]
    assert all(r.median_seconds >= 0.0 for r in rows)
    assert rows[1].median_seconds >= rows[0].median_seconds
    text = bench_csv(rows)
    assert text.splitlines()[0] == "n_vertices,median_seconds"
    assert len(text.splitlines()) == 3


def test_scaling_benchmark_single_vertex_completes_fast():
    rows = scaling_benchmark(sizes=(1,), trials=2, seed=0, params=UNIT_COSTS)
    assert rows[0].n_vertices == 1
    assert rows[0].median_seconds < 0.05


def test_library_import_leaves_optional_modules_unloaded():
    # scipy is no dependency; the pool, the XML parser and statistics load only when used
    code = ("import sys, graphmover.experiments, graphmover.letters; "
            "print(sorted(m for m in ('scipy', 'concurrent.futures.process', "
            "'xml.etree.ElementTree', 'statistics') if m in sys.modules))")
    src = str(Path(graphmover.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_library_import_leaves_the_transport_oracle_unloaded():
    # solve_transport is the tests' oracle; the package and the CLI never call it
    code = ("import sys, graphmover, graphmover.cli; "
            "print('graphmover.transport' in sys.modules)")
    src = str(Path(graphmover.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
