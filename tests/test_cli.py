import json
import os
import re
import reprlib
import threading

import pytest

from graphmover import cli
from graphmover.cli import main
from graphmover.dataset import read_json_graph, write_json_graph
from graphmover.geometry import GeometricGraph

from helpers import packaged_graph, validate_graph

GXL_SAMPLE = """<gxl><graph edgemode="undirected">
<node id="_0"><attr name="x"><float>0.0</float></attr><attr name="y"><float>0.0</float></attr></node>
<node id="_1"><attr name="x"><float>3.0</float></attr><attr name="y"><float>4.0</float></attr></node>
<edge from="_0" to="_1"/>
</graph></gxl>"""


@pytest.fixture
def fixture_files(tmp_path):
    paths = {}
    for name in ("zero_gmd_twin_G", "zero_gmd_twin_H",
                 "shared_vertices_G", "shared_vertices_H"):
        p = tmp_path / f"{name}.json"
        p.write_text(write_json_graph(packaged_graph(f"figures/{name}")))
        paths[name] = str(p)
    return paths


def test_gmd_zero_distance_pair(fixture_files, capsys):
    code = main(["gmd", fixture_files["zero_gmd_twin_G"], fixture_files["zero_gmd_twin_H"],
                 "--cv", "1", "--ce", "1"])
    assert code == 0
    assert capsys.readouterr().out == "0.000000000\n"
    code = main(["gmd", fixture_files["zero_gmd_twin_G"], fixture_files["zero_gmd_twin_H"]])
    assert code == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_gmd_self_distance(fixture_files, capsys):
    code = main(["gmd", fixture_files["shared_vertices_G"], fixture_files["shared_vertices_G"]])
    assert code == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_ggd_shared_vertex_pair(fixture_files, capsys):
    code = main(["ggd", fixture_files["shared_vertices_G"], fixture_files["shared_vertices_H"],
                 "--cv", "1", "--ce", "1"])
    assert code == 0
    assert capsys.readouterr().out == "4.000000000\n"


def test_ggd_rejects_large_graphs(tmp_path, capsys):
    big = GeometricGraph.build([(i, 0) for i in range(8)], [])
    path = tmp_path / "big.json"
    path.write_text(write_json_graph(big))
    code = main(["ggd", str(path), str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "capped" in err and "8" in err


def test_missing_file_is_data_error(capsys):
    assert main(["gmd", "/nonexistent/a.json", "/nonexistent/b.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_huge_coordinate_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"d": 1, "vertices": [[1%s], [0]], "edges": []}' % ("0" * 399))
    assert main(["convert", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex 0 has a coordinate too large for a float\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gmd", "a.json", "b.json", "--unknown-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["stability", "--trials", "0", "--format", "json"],
    ["stability", "--trials", "-2"],
    ["bench", "--trials", "0"],
    ["bench", "--sizes", "4,x"],
    ["bench", "--sizes", "0"],
    ["classify", "--dataset", "letters", "--k", "1,0"],
    ["classify", "--dataset", "letters", "--k", "-3"],
    ["synth", "--out", "letters", "--per-letter", "0"],
    ["stability", "--seed", "-1"],
    ["bench", "--seed", "-1"],
    ["synth", "--out", "letters", "--seed", "-1"],
    ["gmd", "a.json", "b.json", "--cv", "-1"],
    ["classify", "--dataset", "letters", "--ce", "nan"],
])
def test_bad_counts_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: graphmover {argv[0]} ")
    assert list(tmp_path.iterdir()) == []


def test_planarize_command(tmp_path, capsys):
    crossing = GeometricGraph.build([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)])
    src = tmp_path / "crossing.json"
    src.write_text(write_json_graph(crossing))
    out = tmp_path / "flat.json"
    assert main(["planarize", str(src), "--out", str(out)]) == 0
    flat = read_json_graph(out.read_text())
    assert flat.n_vertices == 5
    assert validate_graph(flat) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e154, 1e300])
def test_planarize_overflowing_crossing_is_data_error(s, tmp_path, capsys):
    src = tmp_path / "diagonals.json"
    src.write_text(json.dumps({"d": 2, "vertices": [(-s, -s), (s, s), (-s, s), (s, -s)],
                               "edges": [(0, 1), (2, 3)]}))
    assert main(["planarize", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: vertex 0 has a coordinate that is not finite "
                            "or exceeds 2**510 in magnitude\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["gmd", "ggd", "convert", "classify"])
def test_coordinate_beyond_the_bound_is_data_error(command, tmp_path, capsys):
    level = tmp_path / "LOW"
    level.mkdir()
    (level / "labels.json").write_text('{"far.json": "A"}')
    path = level / "far.json"
    path.write_text('{"d": 2, "vertices": [[0, 0], [0, -1e154]], "edges": [[0, 1]]}')
    argv = {"gmd": [str(path), str(path)], "ggd": [str(path), str(path)],
            "convert": [str(path)], "classify": ["--dataset", str(tmp_path)]}[command]
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # classify reads many files, so it names the one at fault
    named = f"{path}: " if command == "classify" else ""
    assert captured.err == (f"error: {named}vertex 1 has a coordinate that is not finite "
                            "or exceeds 2**510 in magnitude\n")


@pytest.mark.parametrize("command, costs, message", [
    ("gmd", ["--cv", "1e308"], "the graph mover's distance overflows a float"),
    ("ggd", ["--cv", "1e308", "--ce", "1e308"],
     "no inexact matching has a finite cost: the costs overflow a float"),
], ids=["gmd", "ggd"])
def test_overflowing_distance_is_data_error(command, costs, message, fixture_files, capsys):
    code = main([command, fixture_files["shared_vertices_G"], fixture_files["shared_vertices_H"],
                 *costs])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _overflowing_argv(case, fixture_files, tmp_path):
    # at the coordinate bound in 4-D, edge lengths and displacements overflow
    corner = [2.0 ** 510] * 4
    g = tmp_path / "g4.json"
    g.write_text(json.dumps({"d": 4, "vertices": [corner, [-x for x in corner]],
                             "edges": [[0, 1]]}))
    h = tmp_path / "h4.json"
    h.write_text(json.dumps({"d": 4, "vertices": [[-x for x in corner]], "edges": []}))
    return {"4d-bound-coordinates": [str(g), str(h)],
            "cv-ce-1e308": [fixture_files["shared_vertices_G"], fixture_files["shared_vertices_H"],
                            "--cv", "1e308", "--ce", "1e308"]}[case]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["4d-bound-coordinates", "cv-ce-1e308"])
def test_overflowing_gmd_prints_one_error_line(case, fixture_files, tmp_path, capsys):
    assert main(["gmd", *_overflowing_argv(case, fixture_files, tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the graph mover's distance overflows a float\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["4d-bound-coordinates", "cv-ce-1e308"])
def test_overflowing_ggd_prints_one_error_line(case, fixture_files, tmp_path, capsys):
    assert main(["ggd", *_overflowing_argv(case, fixture_files, tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no inexact matching has a finite cost: "
                            "the costs overflow a float\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_classify_prints_one_error_line(tmp_path, capsys, monkeypatch):
    # one usable CPU: the levels are loaded and ranked in this process
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["classify", "--dataset", str(dataset), "--cv", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the graph mover's distance overflows a float\n"


def test_convert_gxl_to_json(tmp_path, capsys):
    src = tmp_path / "drawing.gxl"
    src.write_text(GXL_SAMPLE)
    assert main(["convert", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 2
    assert doc["vertices"] == [[0.0, 0.0], [3.0, 4.0]]
    assert doc["edges"] == [[0, 1]]


def test_gmd_reads_gxl_directly(tmp_path, capsys):
    src = tmp_path / "drawing.gxl"
    src.write_text(GXL_SAMPLE)
    assert main(["gmd", str(src), str(src)]) == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_classify_end_to_end(tmp_path, capsys):
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    out = tmp_path / "report.csv"
    code = main(["classify", "--dataset", str(dataset), "--distortion", "LOW",
                 "--k", "1,3", "--format", "csv", "--out", str(out),
                 "--confusion-out", str(tmp_path / "conf")])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distortion,k,accuracy"
    assert len(lines) == 3
    assert all(line.startswith("LOW,") for line in lines[1:])
    conf = (tmp_path / "conf" / "confusion_LOW.csv").read_text().splitlines()
    assert len(conf) == 16


def test_classify_json_and_text_reports(tmp_path, capsys):
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    assert main(["classify", "--dataset", str(dataset), "--k", "1,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps([
        {"distortion": "LOW", "n_tests": 15, "accuracy": {"1": 1.0, "3": 1.0}},
        {"distortion": "MED", "n_tests": 15,
         "accuracy": {"1": 0.4666666666666667, "3": 0.8}},
        {"distortion": "HIGH", "n_tests": 15,
         "accuracy": {"1": 0.6, "3": 0.9333333333333333}},
    ], indent=2) + "\n"
    assert main(["classify", "--dataset", str(dataset), "--k", "1,3"]) == 0
    text = re.sub(r", \d+\.\ds\)", ", Xs)", capsys.readouterr().out)
    assert text == ("distortion  k=1    k=3  \n"
                    "LOW         1.0000  1.0000  (15 tests, Xs)\n"
                    "MED         0.4667  0.8000  (15 tests, Xs)\n"
                    "HIGH        0.6000  0.9333  (15 tests, Xs)\n")


def test_classify_without_levels_fails(tmp_path, capsys):
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    assert "no distortion directories" in capsys.readouterr().err


def test_labels_json_that_is_not_an_object_is_data_error(tmp_path, capsys):
    (tmp_path / "LOW").mkdir()
    (tmp_path / "LOW" / "labels.json").write_text("[]")
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_labels_json_nested_too_deep_is_data_error(tmp_path, capsys):
    (tmp_path / "LOW").mkdir()
    (tmp_path / "LOW" / "labels.json").write_text("[" * 100_000)
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'LOW' / 'labels.json'}: "
                                   "not valid JSON: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("document, message", [
    ('{"d": 2, "vertices": [[0, 0]], "edges": [[0, 5]]}',
     "edge (0, 5): index out of range for 1 vertices"),
    ('{"d": 2, "vertices": [[0, 0], [2, 0], [1, 0], [3, 0]], "edges": [[0, 1], [2, 3]]}',
     "edges (0, 1) and (2, 3) overlap along a collinear stretch"),
], ids=["parse", "planarize"])
def test_classify_names_the_malformed_drawing(document, message, tmp_path, capsys):
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    level = dataset / "MED"
    bad = level / sorted(json.loads((level / "labels.json").read_text()))[7]
    bad.write_text(document)
    capsys.readouterr()
    assert main(["classify", "--dataset", str(dataset)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("case", ["overflow", "malformed-drawing"])
def test_level_pool_prints_one_error_line(case, tmp_path, capfd, monkeypatch):
    # two usable CPUs: the levels are loaded and ranked by the pool's workers,
    # whose output capfd captures too
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    if case == "overflow":
        argv = ["--cv", "1e308"]
        expected = "error: the graph mover's distance overflows a float\n"
    else:
        argv = []
        level = dataset / "MED"
        bad = level / sorted(json.loads((level / "labels.json").read_text()))[7]
        bad.write_text('{"d": 2, "vertices": [[0, 0]], "edges": [[0, 5]]}')
        expected = f"error: {bad}: edge (0, 5): index out of range for 1 vertices\n"
    capfd.readouterr()
    assert main(["classify", "--dataset", str(dataset), *argv]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == expected


@pytest.mark.parametrize("cpus, levels", [(1, ["LOW", "MED", "HIGH"]), (2, ["MED"])],
                         ids=["one-cpu", "one-level"])
def test_classify_without_a_second_worker_starts_no_pool(cpus, levels, tmp_path, capsys,
                                                         monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["classify", "--dataset", str(dataset), "--distortion", *levels,
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows[::3]] == levels


@pytest.mark.parametrize("source", ["labels.json", "test.cxl"])
@pytest.mark.parametrize("outside", ["dot-dot", "absolute"])
def test_entry_outside_the_level_is_data_error(source, outside, tmp_path, capsys):
    # a valid drawing beside the level, which classify must not read
    drawing = tmp_path / "outside.json"
    drawing.write_text(write_json_graph(packaged_graph("prototypes/A")))
    name = "../outside.json" if outside == "dot-dot" else str(drawing)
    level = tmp_path / "LOW"
    level.mkdir()
    listing = level / source
    listing.write_text(json.dumps({name: "A"}) if source == "labels.json" else
                       f'<GraphCollection><print file="{name}" class="A"/></GraphCollection>')
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {listing}: entry {reprlib.repr(name)} "
                            "is not a plain file name\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing on this platform")
@pytest.mark.parametrize("fifo_name", ["drawing.json", "labels.json"])
def test_fifo_in_a_level_is_data_error(fifo_name, tmp_path, capsys):
    level = tmp_path / "LOW"
    level.mkdir()
    if fifo_name != "labels.json":
        (level / "labels.json").write_text(json.dumps({fifo_name: "A"}))
    fifo = level / fifo_name
    os.mkfifo(fifo)

    def write_nothing():
        with open(fifo, "wb"):
            pass

    # a reader of the FIFO gets end of file from this writer instead of
    # blocking, so a regression fails the test rather than hang it
    writer = threading.Thread(target=write_nothing, daemon=True)
    writer.start()
    code = main(["classify", "--dataset", str(tmp_path)])
    captured = capsys.readouterr()
    released = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer go
    writer.join(timeout=10)
    os.close(released)
    assert not writer.is_alive()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {fifo}: not a regular file\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="os.symlink is missing on this platform")
@pytest.mark.parametrize("linked", ["drawing.json", "labels.json", "test.cxl"])
def test_link_out_of_the_level_is_data_error(linked, tmp_path, capsys):
    # a link named by a plain name still must not lead the loader out of the level
    prototype = write_json_graph(packaged_graph("prototypes/A"))
    outside = tmp_path / "outside" / linked
    outside.parent.mkdir()
    outside.write_text({"drawing.json": prototype,
                        "labels.json": json.dumps({"kept.json": "A"}),
                        "test.cxl": '<GraphCollection><print file="kept.json" class="A"/>'
                                    "</GraphCollection>"}[linked])
    level = tmp_path / "LOW"
    level.mkdir()
    (level / "kept.json").write_text(prototype)
    if linked == "drawing.json":
        (level / "labels.json").write_text(json.dumps({"kept.json": "A", linked: "A"}))
    link = level / linked
    try:
        link.symlink_to(outside)
    except OSError as exc:
        pytest.skip(f"cannot make a symbolic link here: {exc}")
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {link}: links to {outside.resolve()}, outside {level}\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="os.symlink is missing on this platform")
def test_link_within_the_level_is_read(tmp_path, capsys):
    level = tmp_path / "LOW"
    level.mkdir()
    (level / "kept.json").write_text(write_json_graph(packaged_graph("prototypes/A")))
    (level / "labels.json").write_text(json.dumps({"alias.json": "A"}))
    try:
        (level / "alias.json").symlink_to("kept.json")
    except OSError as exc:
        pytest.skip(f"cannot make a symbolic link here: {exc}")
    assert main(["classify", "--dataset", str(tmp_path), "--k", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "distortion,k,accuracy\nLOW,1,1.000000000\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing on this platform")
def test_pair_command_reads_a_pipe(tmp_path, capsys):
    # a path named on the command line may be a pipe, such as /dev/stdin
    fifo = tmp_path / "graph.json"
    os.mkfifo(fifo)
    text = write_json_graph(packaged_graph("prototypes/A"))

    def write_graph():
        with open(fifo, "w") as out:
            out.write(text)

    writer = threading.Thread(target=write_graph, daemon=True)
    writer.start()
    assert main(["convert", str(fifo)]) == 0
    writer.join(timeout=10)
    assert capsys.readouterr().out == text + "\n"


def test_prototype_data_error_names_the_file(tmp_path, capsys):
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    bad = dataset / "prototypes" / "A.json"
    bad.write_text('{"d": 2, "vertices": [[0, 0]], "edges": [[0, 5]]}')
    capsys.readouterr()
    assert main(["classify", "--dataset", str(dataset),
                 "--prototypes", str(dataset / "prototypes")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: edge (0, 5): index out of range for 1 vertices\n"


def test_a_level_given_twice_runs_once(tmp_path, capsys):
    dataset = tmp_path / "letters"
    assert main(["synth", "--out", str(dataset), "--per-letter", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["classify", "--dataset", str(dataset), "--distortion", "MED", "LOW", "MED",
                 "--k", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == ("distortion,k,accuracy\n"
                                       "MED,1,0.466666667\n"
                                       "LOW,1,1.000000000\n")


def test_labels_json_without_drawings_is_data_error(tmp_path, capsys):
    # an empty level would lose its name to MIXED and report 0 tests as an accuracy
    (tmp_path / "LOW").mkdir()
    (tmp_path / "LOW" / "labels.json").write_text("{}")
    assert main(["classify", "--dataset", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'LOW' / 'labels.json'} lists no drawings\n"


def test_entity_expansion_gxl_is_data_error(tmp_path, capsys):
    # billion laughs: ten nested entities of ten references each expand to 10**10 "lol"s
    entities = ['<!ENTITY lol0 "lol">'] + [
        f'<!ENTITY lol{k} "{("&lol%d;" % (k - 1)) * 10}">' for k in range(1, 10)]
    doc = ("<?xml version=\"1.0\"?>\n<!DOCTYPE gxl [\n" + "\n".join(entities) + "\n]>\n"
           '<gxl><graph><node id="_0"><attr name="x"><float>&lol9;</float></attr>'
           "</node></graph></gxl>\n")
    path = tmp_path / "laughs.gxl"
    path.write_text(doc)
    assert main(["convert", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


STABILITY_JSON_20_3 = """\
{
  "bounds": [
    {
      "bound": "gmd-translation",
      "trials": 20,
      "violations": 0,
      "max_ratio": 1.0000000000000007
    },
    {
      "bound": "ggd-translation-literal",
      "trials": 20,
      "violations": 0,
      "max_ratio": 1.0000000000000002
    },
    {
      "bound": "ggd-perturbation-corrected",
      "trials": 20,
      "violations": 0,
      "max_ratio": 0.8222081055631157
    }
  ],
  "triangle": {
    "trials": 20,
    "violations": 0,
    "worst_excess": 0.0
  }
}
"""


def test_stability_json_report_is_pinned(capsys):
    assert main(["stability", "--trials", "20", "--seed", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == STABILITY_JSON_20_3


def test_stability_command_text_and_csv(capsys):
    assert main(["stability", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "violations" in out
    assert "triangle inequality" in out
    assert main(["stability", "--trials", "5", "--seed", "1", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "bound,trials,violations,max_ratio"
    assert len(csv_out.splitlines()) == 4


def test_bench_command(capsys):
    assert main(["bench", "--sizes", "4,8", "--trials", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n_vertices,median_seconds"
    assert len(out.splitlines()) == 3


def test_bench_json_and_text_reports(capsys):
    assert main(["bench", "--sizes", "4,8", "--trials", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [sorted(row) for row in rows] == [["median_seconds", "n_vertices"]] * 2
    assert [row["n_vertices"] for row in rows] == [4, 8]
    assert main(["bench", "--sizes", "4,8", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [re.sub(r"median \d+\.\d{6}s$", "median Xs", line) for line in lines] == [
        "n=4: median Xs", "n=8: median Xs"]


def test_output_is_stable_across_runs(fixture_files, capsys):
    main(["gmd", fixture_files["shared_vertices_G"], fixture_files["shared_vertices_H"]])
    first = capsys.readouterr().out
    main(["gmd", fixture_files["shared_vertices_G"], fixture_files["shared_vertices_H"]])
    assert capsys.readouterr().out == first
