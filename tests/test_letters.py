import json

import numpy as np
import pytest

from graphmover import letters
from graphmover.dataset import (DISTORTION_LEVELS, LETTER_LABELS, load_letter_directory,
                                load_prototypes)
from graphmover.geometry import CollinearOverlapError
from graphmover.letters import DISTORTION_PROFILES, distort, write_letter_dataset

from helpers import make_letter_records, validate_graph


def test_profiles_cover_all_levels():
    assert set(DISTORTION_PROFILES) == set(DISTORTION_LEVELS)


def test_distort_outputs_valid_embedded_graphs():
    protos = load_prototypes()
    rng = np.random.default_rng(1)
    for level in DISTORTION_LEVELS:
        for letter in ("A", "W", "X"):
            g = distort(protos[letter], rng, DISTORTION_PROFILES[level])
            assert g.dim == 2
            assert g.n_vertices >= 2
            assert validate_graph(g) == []


def test_make_letter_records_is_deterministic():
    first = make_letter_records("LOW", per_letter=3, seed=5)
    second = make_letter_records("LOW", per_letter=3, seed=5)
    assert first == second
    other_seed = make_letter_records("LOW", per_letter=3, seed=6)
    assert first != other_seed


def test_make_letter_records_shape_and_ids():
    records = make_letter_records("MED", per_letter=2, seed=3)
    assert len(records) == 2 * len(LETTER_LABELS)
    assert {r.label for r in records} == set(LETTER_LABELS)
    assert all(r.distortion == "MED" for r in records)
    ids = [r.source_id for r in records]
    assert len(set(ids)) == len(ids)
    with pytest.raises(ValueError):
        make_letter_records("WILD", per_letter=1)


def test_make_letter_records_redraws_after_collinear_overlap(monkeypatch):
    expected = make_letter_records("LOW", per_letter=1, seed=5)
    calls = []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise CollinearOverlapError("edges overlap")
        return distort(*args)

    monkeypatch.setattr(letters, "distort", fails_once)
    assert make_letter_records("LOW", per_letter=1, seed=5) == expected
    assert len(calls) == len(LETTER_LABELS) + 1


def test_make_letter_records_gives_up_after_16_overlaps(monkeypatch):
    calls = []

    def always_fails(*args):
        calls.append(args)
        raise CollinearOverlapError("edges overlap")

    monkeypatch.setattr(letters, "distort", always_fails)
    with pytest.raises(RuntimeError, match="could not distort prototype A"):
        make_letter_records("LOW", per_letter=1, seed=5)
    assert len(calls) == 16


def test_low_distortion_records_stay_letter_sized():
    records = make_letter_records("LOW", per_letter=2, seed=11)
    for rec in records:
        assert rec.graph.n_vertices <= 12
        coords = np.asarray(rec.graph.vertices)
        assert coords.min() > -2.0 and coords.max() < 5.0


def test_levels_use_independent_streams():
    low = make_letter_records("LOW", per_letter=1, seed=5)
    high = make_letter_records("HIGH", per_letter=1, seed=5)
    assert [r.graph for r in low] != [r.graph for r in high]


def test_write_letter_dataset_round_trips(tmp_path):
    write_letter_dataset(tmp_path, per_letter=2, seed=9)
    for level in DISTORTION_LEVELS:
        labels = json.loads((tmp_path / level / "labels.json").read_text())
        assert len(labels) == 2 * len(LETTER_LABELS)
        records = load_letter_directory(tmp_path / level)
        assert len(records) == 2 * len(LETTER_LABELS)
        regenerated = make_letter_records(level, per_letter=2, seed=9)
        by_id = {r.source_id: r for r in regenerated}
        for rec in records:
            assert rec.graph == by_id[rec.source_id].graph
    protos = load_prototypes(tmp_path / "prototypes")
    assert protos == load_prototypes()
