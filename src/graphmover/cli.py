"""Command-line interface: pairwise distances, dataset prep, experiments.

All numeric results print with fixed 9-decimal formatting so golden files are
exact. Every command is deterministic for fixed inputs, flags and seeds, except
for the wall times that `classify` (text format) and `bench` report.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import experiments
from .dataset import (DISTORTION_LEVELS, load_letter_directory, load_prototypes,
                      read_graph_file, write_json_graph)
from .geometry import CostParams, planarize
from .ggd import ggd_exact
from .gmd import gmd
from .letters import write_letter_dataset


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_cost_flags(parser, defaults: CostParams):
    """--cv and --ce; `main` turns them into `args.params` or a usage error."""
    parser.add_argument("--cv", type=float, default=defaults.vertex_cost,
                        help="vertex displacement cost coefficient")
    parser.add_argument("--ce", type=float, default=defaults.edge_cost,
                        help="edge length cost coefficient")
    parser.set_defaults(usage_error=parser.error)


def _add_report_flags(parser):
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--out", help="write the report here instead of stdout")


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _positive_int_list(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmover",
        description="Distances between ordered geometric graphs, and the harnesses around them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gmd = sub.add_parser("gmd", help="graph mover's distance between two graph files")
    p_gmd.add_argument("first")
    p_gmd.add_argument("second")
    _add_cost_flags(p_gmd, CostParams())

    p_ggd = sub.add_parser("ggd", help="exact geometric graph distance (small graphs only)")
    p_ggd.add_argument("first")
    p_ggd.add_argument("second")
    _add_cost_flags(p_ggd, CostParams())

    p_plan = sub.add_parser("planarize", help="insert vertices at edge crossings")
    p_plan.add_argument("input")
    p_plan.add_argument("--out", help="output path (default: stdout)")

    p_conv = sub.add_parser("convert", help="convert GXL or native JSON to native JSON")
    p_conv.add_argument("input")
    p_conv.add_argument("--out", help="output path (default: stdout)")

    p_cls = sub.add_parser("classify", help="rank prototypes for every test drawing")
    p_cls.add_argument("--dataset", required=True,
                       help="directory with one subdirectory per distortion level")
    p_cls.add_argument("--distortion", nargs="+", choices=DISTORTION_LEVELS,
                       default=None, help="levels to run (default: all present)")
    p_cls.add_argument("--prototypes", default=None,
                       help="directory of <LETTER>.json prototypes (default: built-in)")
    _add_cost_flags(p_cls, CostParams())
    p_cls.add_argument("--k", type=_positive_int_list, default=(1, 3, 5),
                       help="comma-separated list of cutoffs, default 1,3,5")
    _add_report_flags(p_cls)
    p_cls.add_argument("--confusion-out",
                       help="directory for per-level confusion matrix CSVs")

    p_stab = sub.add_parser("stability", help="distance-vs-perturbation bound trials")
    p_stab.add_argument("--trials", type=_positive_int, default=100)
    p_stab.add_argument("--seed", type=_non_negative_int, default=0)
    _add_cost_flags(p_stab, experiments.UNIT_COSTS)
    _add_report_flags(p_stab)

    p_bench = sub.add_parser("bench", help="median distance runtime per graph size")
    p_bench.add_argument("--sizes", type=_positive_int_list, default=(50, 100, 200),
                         help="comma-separated vertex counts, default 50,100,200")
    p_bench.add_argument("--trials", type=_positive_int, default=3)
    p_bench.add_argument("--seed", type=_non_negative_int, default=0)
    _add_cost_flags(p_bench, experiments.UNIT_COSTS)
    _add_report_flags(p_bench)

    p_synth = sub.add_parser("synth", help="write a synthetic letter dataset")
    p_synth.add_argument("--out", required=True, help="dataset root directory")
    p_synth.add_argument("--per-letter", type=_positive_int, default=150,
                         help="drawings per letter and level (150 -> 2250 per level)")
    p_synth.add_argument("--seed", type=_non_negative_int, default=7)
    return parser


def _run_pair_distance(args, exact: bool) -> int:
    g = read_graph_file(args.first)
    h = read_graph_file(args.second)
    if exact:
        value, _ = ggd_exact(g, h, args.params)
    else:
        value = gmd(g, h, args.params).value
    print(f"{value:.9f}")
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _classify_level(directory, prototypes, params, ks):
    """Load one distortion level and rank the prototypes for its drawings."""
    return experiments.classify_topk(load_letter_directory(directory), prototypes, params, ks=ks)


def _run_classify(args) -> int:
    """Load and rank each level, then report them in the order given.

    Each level is one job. The jobs run in a pool of one worker per usable
    CPU, at most one per level, or in this process when that is one worker.
    The prototypes are loaded here first, so a missing one fails before any
    worker starts, and the first failing level in level order is the error.
    """
    root = Path(args.dataset)
    levels = args.distortion or [lv for lv in DISTORTION_LEVELS if (root / lv).is_dir()]
    if not levels:
        print(f"error: no distortion directories under {root}", file=sys.stderr)
        return 1
    job = partial(_classify_level, prototypes=load_prototypes(args.prototypes),
                  params=args.params, ks=args.k)
    directories = [root / level for level in levels]
    workers = min(_usable_cpus(), len(levels))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # one worker never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(job, directories))
    else:
        reports = list(map(job, directories))
    if args.confusion_out:
        conf_dir = Path(args.confusion_out)
        conf_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            (conf_dir / f"confusion_{report.distortion}.csv").write_text(
                experiments.confusion_csv(report))
    if args.format == "csv":
        _emit(experiments.retrieval_csv(reports), args.out)
    elif args.format == "json":
        payload = [{"distortion": r.distortion, "n_tests": r.n_tests,
                    "accuracy": {str(k): r.accuracy[k] for k in r.ks}}
                   for r in reports]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["distortion  " + "  ".join(f"k={k:<3d}" for k in reports[0].ks)]
        for r in reports:
            lines.append(f"{r.distortion:<10s}  "
                         + "  ".join(f"{r.accuracy[k]:.4f}" for k in r.ks)
                         + f"  ({r.n_tests} tests, {r.runtime_seconds:.1f}s)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_stability(args) -> int:
    reports = [
        experiments.run_gmd_translation_suite(args.trials, args.seed, args.params),
        experiments.run_ggd_translation_suite(args.trials, args.seed, args.params),
        experiments.run_ggd_perturbation_suite(args.trials, args.seed, args.params),
    ]
    triangle = experiments.triangle_inequality_survey(args.trials, args.seed, args.params)
    if args.format == "csv":
        _emit(experiments.stability_csv(reports), args.out)
    elif args.format == "json":
        payload = {"bounds": [{"bound": r.bound, "trials": r.trials,
                               "violations": r.violations, "max_ratio": r.max_ratio}
                              for r in reports],
                   "triangle": {"trials": triangle.trials,
                                "violations": triangle.violations,
                                "worst_excess": triangle.worst_excess}}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"{r.bound}: {r.violations}/{r.trials} violations, "
                 f"max distance/bound ratio {r.max_ratio:.9f}" for r in reports]
        lines.append(f"triangle inequality: {triangle.violations}/{triangle.trials} "
                     f"violations, worst excess {triangle.worst_excess:.9f}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_bench(args) -> int:
    rows = experiments.scaling_benchmark(args.sizes, trials=args.trials, seed=args.seed,
                                         params=args.params)
    if args.format == "csv":
        _emit(experiments.bench_csv(rows), args.out)
    elif args.format == "json":
        _emit(json.dumps([{"n_vertices": r.n_vertices,
                           "median_seconds": r.median_seconds} for r in rows],
                         indent=2) + "\n", args.out)
    else:
        _emit("\n".join(f"n={r.n_vertices}: median {r.median_seconds:.6f}s"
                        for r in rows) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "cv" in args:
        try:
            args.params = CostParams(args.cv, args.ce)
        except ValueError as exc:
            args.usage_error(str(exc))
    try:
        if args.command == "gmd":
            return _run_pair_distance(args, exact=False)
        if args.command == "ggd":
            return _run_pair_distance(args, exact=True)
        if args.command == "planarize":
            out = write_json_graph(planarize(read_graph_file(args.input)))
            _emit(out + "\n", args.out)
            return 0
        if args.command == "convert":
            _emit(write_json_graph(read_graph_file(args.input)) + "\n", args.out)
            return 0
        if args.command == "classify":
            return _run_classify(args)
        if args.command == "stability":
            return _run_stability(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "synth":
            write_letter_dataset(args.out, per_letter=args.per_letter, seed=args.seed)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
