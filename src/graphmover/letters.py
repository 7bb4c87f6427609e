"""Synthetic letter drawings: distorted copies of the packaged prototypes.

The real letter archives ship only distorted drawings, so this module
recreates the generation process: starting from a prototype, edges are split,
dropped or added and every vertex is displaced, with per-level strengths. The
output is deterministic for a fixed seed, which keeps experiment reports
reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (DISTORTION_LEVELS, LETTER_LABELS, LetterRecord, load_prototypes,
                      write_json_graph)
from .geometry import CollinearOverlapError, GeometricGraph, planarize


@dataclass(frozen=True)
class DistortionProfile:
    shift: float          # vertex displacement radius
    edge_split_rate: float  # expected number of edge subdivisions
    edge_delete_p: float
    edge_add_p: float


# Strengths per level. MED is deliberately the most destructive level; HIGH
# distorts more than LOW but less than MED, matching how the published
# retrieval accuracies order the three levels.
DISTORTION_PROFILES = {
    "LOW": DistortionProfile(shift=0.15, edge_split_rate=0.15, edge_delete_p=0.02, edge_add_p=0.03),
    "MED": DistortionProfile(shift=0.46, edge_split_rate=0.80, edge_delete_p=0.30, edge_add_p=0.35),
    "HIGH": DistortionProfile(shift=0.33, edge_split_rate=1.20, edge_delete_p=0.22, edge_add_p=0.45),
}


def _disc_sample(rng: np.random.Generator, radius: float) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * np.pi)
    r = radius * np.sqrt(rng.uniform())
    return np.array([r * np.cos(angle), r * np.sin(angle)])


def distort(graph: GeometricGraph, rng: np.random.Generator,
            profile: DistortionProfile) -> GeometricGraph:
    """One distorted copy: structural edits, vertex jitter, then planarization."""
    verts = [np.asarray(v, dtype=float) for v in graph.vertices]
    edges = [tuple(e) for e in graph.edges]

    splits = int(profile.edge_split_rate)
    if rng.uniform() < profile.edge_split_rate - splits:
        splits += 1
    for _ in range(splits):
        if not edges:
            break
        i, j = edges.pop(int(rng.integers(len(edges))))
        t = rng.uniform(0.3, 0.7)
        verts.append(verts[i] + t * (verts[j] - verts[i]))
        k = len(verts) - 1
        edges.extend([(i, k), (k, j)])

    if len(edges) > 1 and rng.uniform() < profile.edge_delete_p:
        edges.pop(int(rng.integers(len(edges))))

    if rng.uniform() < profile.edge_add_p and len(verts) >= 2:
        present = {tuple(sorted(e)) for e in edges}
        for _ in range(8):
            i, j = rng.integers(len(verts)), rng.integers(len(verts))
            pair = (min(i, j), max(i, j))
            if i != j and pair not in present:
                edges.append(pair)
                break

    moved = [tuple(v + _disc_sample(rng, profile.shift)) for v in verts]
    return planarize(GeometricGraph.build(moved, edges, dim=2))


def _letter_records(distortion: str, per_letter: int, seed: int):
    """The deterministic synthetic drawings of one distortion level, drawn
    from the packaged prototypes one at a time, so that
    `write_letter_dataset` holds one drawing instead of a whole level."""
    protos = load_prototypes()
    profile = DISTORTION_PROFILES[distortion]
    rng = np.random.default_rng([seed, DISTORTION_LEVELS.index(distortion)])
    for label in LETTER_LABELS:
        for t in range(per_letter):
            for _ in range(16):
                try:
                    g = distort(protos[label], rng, profile)
                    break
                except CollinearOverlapError:
                    continue  # jittered edges landed collinear; redraw
            else:
                raise RuntimeError(f"could not distort prototype {label}")
            yield LetterRecord(g, label, distortion, f"{label}{distortion[0]}_{t:04d}")


def write_letter_dataset(root, per_letter: int = 150, seed: int = 7) -> None:
    """Write a synthetic dataset in the native on-disk layout.

    One directory per distortion level with graph JSON files and a
    ``labels.json`` mapping, plus a ``prototypes/`` directory.
    """
    root = Path(root)
    protos = load_prototypes()
    proto_dir = root / "prototypes"
    proto_dir.mkdir(parents=True, exist_ok=True)
    for label, g in protos.items():
        (proto_dir / f"{label}.json").write_text(write_json_graph(g))
    for level in DISTORTION_LEVELS:
        level_dir = root / level
        level_dir.mkdir(parents=True, exist_ok=True)
        labels = {}
        for rec in _letter_records(level, per_letter, seed):
            fname = f"{rec.source_id}.json"
            (level_dir / fname).write_text(write_json_graph(rec.graph))
            labels[fname] = rec.label
        (level_dir / "labels.json").write_text(json.dumps(labels, sort_keys=True, indent=0))
