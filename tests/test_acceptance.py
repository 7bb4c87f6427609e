"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The letter-retrieval criterion uses the synthetic dataset generated
from the packaged prototypes unless GRAPHMOVER_LETTER_DIR points at a real
dataset directory with LOW/MED/HIGH subdirectories.
"""

import os
import time
from pathlib import Path

import numpy as np

from graphmover.dataset import load_letter_directory, load_prototypes
from graphmover.experiments import (classify_topk, random_graph, retrieval_csv,
                                    run_ggd_perturbation_suite,
                                    run_ggd_translation_suite,
                                    run_gmd_translation_suite, scaling_benchmark,
                                    triangle_inequality_survey)
from graphmover.geometry import CostParams, GeometricGraph, translate
from graphmover.ggd import ggd_exact
from graphmover.gmd import gmd
from graphmover.transport import TransportInstance, solve_transport

from helpers import (gmd_bruteforce, hausdorff_vertices, make_letter_records,
                     min_integral_flow_cost, packaged_graph, random_integer_transport)

UNIT = CostParams(1.0, 1.0)
LETTER = CostParams(4.5, 1.0)


def check(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_1_zero_distance_counterexample():
    g = packaged_graph("figures/zero_gmd_twin_G")
    h = packaged_graph("figures/zero_gmd_twin_H")
    values = [gmd(g, h, params).value for params in (UNIT, LETTER)]
    gmd(g, h, UNIT)  # warm caches before timing
    elapsed = min(_timed(lambda: gmd(g, h, UNIT)) for _ in range(5))
    check(1, "distinct graphs at mover's distance zero",
          all(abs(v) <= 1e-9 for v in values) and elapsed < 0.010,
          f"values={values}, runtime={elapsed * 1000:.2f}ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_exact_distance_goldens():
    g2 = packaged_graph("figures/shared_vertices_G")
    h2 = packaged_graph("figures/shared_vertices_H")
    v_unit, _ = ggd_exact(g2, h2, UNIT)
    v_heavy, _ = ggd_exact(g2, h2, LETTER)
    same_vertices = hausdorff_vertices(g2, h2) == 0.0

    g1 = packaged_graph("figures/subdivided_segment_G")
    h1 = packaged_graph("figures/whole_segment_H")
    v_seg, argmin = ggd_exact(g1, h1, UNIT)
    # The optimal matching keeps the two outer vertices and deletes the third.
    # Its cost is 3 = 1 (middle vertex moves) + 1 (kept edge stretches from 3
    # to 4) + 1 (deleted stub), one unit more than the value a quick hand
    # count suggests if the stretch term is overlooked.
    check(2, "exhaustive exact-distance goldens",
          abs(v_unit - 4.0) <= 1e-9 and abs(v_heavy - 4.0 * LETTER.edge_cost) <= 1e-9
          and same_vertices and abs(v_seg - 3.0) <= 1e-9
          and argmin.targets == (0, 1, None),
          f"pair2={v_unit}, pair1={v_seg}")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    integral = True
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(1, 6)))
        h = random_graph(rng, int(rng.integers(1, 6)))
        result = gmd(g, h, UNIT)
        oracle = gmd_bruteforce(g, h, UNIT)
        worst = max(worst, abs(result.value - oracle))
        integral = integral and bool(
            np.abs(result.flow.values - np.round(result.flow.values)).max() <= 1e-9)
    elapsed = time.perf_counter() - start
    check(3, "solver equals partial-injection oracle on 200 random pairs",
          worst <= 1e-9 and integral and elapsed < 30.0,
          f"worst gap={worst:.2e}, integral={integral}, runtime={elapsed:.1f}s")


def test_criterion_4_transport_exactness():
    rng = np.random.default_rng(77)
    exact = True
    for _ in range(100):
        supplies, demands, costs = random_integer_transport(rng, max_side=4, max_weight=3)
        flow = solve_transport(TransportInstance(supplies, demands, costs))
        reference = min_integral_flow_cost(supplies, demands, costs)
        if flow.objective != reference:
            exact = False
            break
    check(4, "transport solver matches exhaustive integral enumeration exactly", exact)


def test_criterion_5_metric_property_suite():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(1, 7)))
        h = random_graph(rng, int(rng.integers(1, 7)))
        d = gmd(g, h, UNIT).value
        ok &= d >= 0.0
        ok &= abs(gmd(h, g, UNIT).value - d) <= 1e-9
        ok &= gmd(g, g, UNIT).value == 0.0
        t = rng.uniform(-5, 5, 2)
        ok &= abs(gmd(translate(g, t), translate(h, t), UNIT).value - d) <= 1e-9
        s = float(rng.uniform(0.5, 3.0))
        gs = GeometricGraph.build([tuple(s * x for x in v) for v in g.vertices], g.edges, dim=2)
        hs = GeometricGraph.build([tuple(s * x for x in v) for v in h.vertices], h.edges, dim=2)
        ok &= abs(gmd(gs, hs, UNIT).value - s * d) <= 1e-9 * max(1.0, s * d)
    triangle = triangle_inequality_survey(trials=100, seed=55, params=UNIT)
    verdict = "confirmed" if triangle.violations == 0 else "refuted"
    print(f"  triangle inequality on 100 random triples: "
          f"{triangle.violations} violations, worst excess {triangle.worst_excess:.3e} "
          f"-> claim {verdict}")
    check(5, "symmetry, self-zero, positivity, translation and scale properties", ok,
          f"triangle violations={triangle.violations} (reported, not asserted)")


def test_criterion_6_stability_suites():
    gmd_suite = run_gmd_translation_suite(trials=100, seed=11, params=UNIT)
    ggd_corrected = run_ggd_perturbation_suite(trials=100, seed=12, params=UNIT)
    ggd_literal = run_ggd_translation_suite(trials=100, seed=13, params=UNIT)
    check(6, "translation/perturbation bounds hold over 100 trials each",
          gmd_suite.violations == 0 and ggd_corrected.violations == 0
          and ggd_literal.violations == 0,
          f"max ratios: gmd={gmd_suite.max_ratio:.3f}, "
          f"ggd corrected={ggd_corrected.max_ratio:.3f}, "
          f"ggd literal={ggd_literal.max_ratio:.3f}")


def test_criterion_7_letter_retrieval(tmp_path):
    prototypes = load_prototypes()
    ks = (1, 3, 5)
    reports = []
    external = os.environ.get("GRAPHMOVER_LETTER_DIR")
    for level in ("LOW", "MED", "HIGH"):
        if external:
            records = load_letter_directory(Path(external) / level)
        else:
            records = make_letter_records(level, per_letter=150, seed=7)
        reports.append(classify_topk(records, prototypes, LETTER, ks=ks))
    by_level = {r.distortion: r for r in reports}
    low, med, high = by_level["LOW"], by_level["MED"], by_level["HIGH"]

    for r in reports:
        print(f"  {r.distortion}: "
              + "  ".join(f"k={k}: {r.accuracy[k]:.4f}" for k in ks)
              + f"  ({r.n_tests} tests, {r.runtime_seconds:.1f}s)")
    csv_text = retrieval_csv(reports)
    (tmp_path / "retrieval.csv").write_text(csv_text)

    low_k1_in_window = abs(low.accuracy[1] - 0.9666) <= 0.04
    monotone = all(r.accuracy[a] <= r.accuracy[b] + 1e-12
                   for r in reports for a, b in zip(ks, ks[1:]))
    low_beats_med = all(low.accuracy[k] > med.accuracy[k] for k in ks)
    high_between_at_top = med.accuracy[1] < high.accuracy[1] < low.accuracy[1]
    sized = all(r.n_tests == 15 * 150 for r in reports) if not external else True
    within_time = all(r.runtime_seconds < 60.0 for r in reports)
    csv_ok = csv_text.splitlines()[0] == "distortion,k,accuracy" and \
        len(csv_text.splitlines()) == 1 + 3 * len(ks)
    check(7, "letter retrieval reproduces the published accuracy shape",
          low_k1_in_window and monotone and low_beats_med and high_between_at_top
          and sized and within_time and csv_ok,
          f"LOW k=1 {low.accuracy[1]:.4f} vs 0.9666 +/- 0.04; "
          f"runtimes {[round(r.runtime_seconds, 1) for r in reports]}s")


def test_criterion_8_cubic_scaling():
    rows = scaling_benchmark(sizes=(50, 100, 200), trials=3, seed=0, params=UNIT)
    medians = {row.n_vertices: row.median_seconds for row in rows}
    ratio_1 = medians[100] / max(medians[50], 1e-9)
    ratio_2 = medians[200] / max(medians[100], 1e-9)
    check(8, "runtime grows at most cubically (factor <= 24 per doubling)",
          ratio_1 <= 24.0 and ratio_2 <= 24.0,
          f"medians={medians}, ratios={ratio_1:.1f}, {ratio_2:.1f}")
