"""Graph files and the letter dataset.

The native format is a small JSON document::

    {"d": 2, "vertices": [[0.0, 0.0], [1.0, 0.0]], "edges": [[0, 1]]}

with 0-based edge indices, normalized to i < j. Vertex order in the document
is the vertex order of the graph. GXL files are read-only; their <node>
document order likewise defines the vertex order.
"""

from __future__ import annotations

import json
import os
import reprlib
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .geometry import GeometricGraph, planarize

LETTER_LABELS = ("A", "E", "F", "H", "I", "K", "L", "M", "N", "T", "V", "W", "X", "Y", "Z")
DISTORTION_LEVELS = ("LOW", "MED", "HIGH")


class GraphFormatError(ValueError):
    """Malformed graph document or dataset file."""


@dataclass(frozen=True)
class LetterRecord:
    """One letter drawing: its graph, class label, distortion level and file id."""

    graph: GeometricGraph
    label: str
    distortion: str
    source_id: str

    def __post_init__(self):
        if self.label not in LETTER_LABELS:
            raise ValueError(f"unknown letter label {self.label!r}")
        if self.distortion not in DISTORTION_LEVELS:
            raise ValueError(f"unknown distortion level {self.distortion!r}")


def _parse_json(data: Union[bytes, str]):
    """The value of a JSON document, bytes read as UTF-8. GraphFormatError
    when it is not valid UTF-8 or JSON, nests deeper than the interpreter's
    recursion limit or holds an integer too long to convert."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc


def read_json_graph(data: Union[bytes, str]) -> GeometricGraph:
    """Parse the native format; the GeometricGraph constructor checks the graph."""
    doc = _parse_json(data)
    if not isinstance(doc, dict):
        raise GraphFormatError("document is not a JSON object")
    missing = {"d", "vertices", "edges"} - doc.keys()
    if missing:
        raise GraphFormatError(f"missing keys: {sorted(missing)}")
    # the constructor takes any iterable, so {} or "" would load as an empty graph
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    try:
        return GeometricGraph(doc["d"], doc["vertices"], doc["edges"])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_json_graph(g: GeometricGraph) -> str:
    """Serialize to the native format; read_json_graph(write_json_graph(g)) == g."""
    doc = {"d": g.dim,
           "vertices": [list(v) for v in g.vertices],
           "edges": [list(e) for e in g.edges]}
    return json.dumps(doc)


def _parse_xml(data: Union[bytes, str]):
    """The root element of an XML document; imports the XML parser on first use."""
    from xml.etree import ElementTree

    try:
        return ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise GraphFormatError(f"not valid XML: {exc}") from exc


def read_gxl_letter(data: Union[bytes, str]) -> GeometricGraph:
    """Parse a GXL letter drawing: 2D nodes with float attrs x, y, undirected edges."""
    root = _parse_xml(data)
    index: dict[str, int] = {}
    points: list[tuple[float, float]] = []
    for node in root.iter("node"):
        node_id = node.get("id")
        if node_id is None:
            raise GraphFormatError("node without id")
        if node_id in index:
            raise GraphFormatError(f"duplicate node id {node_id!r}")
        coords = {}
        for attr in node.findall("attr"):
            name = attr.get("name")
            if name not in ("x", "y"):
                continue
            value = list(attr)
            if not value or value[0].text is None:
                raise GraphFormatError(f"node {node_id!r}: attribute {name!r} has no value")
            try:
                coords[name] = float(value[0].text.strip())
            except ValueError as exc:
                raise GraphFormatError(
                    f"node {node_id!r}: non-float {name!r} value {value[0].text!r}") from exc
        if "x" not in coords or "y" not in coords:
            raise GraphFormatError(f"node {node_id!r} is missing an x or y attribute")
        index[node_id] = len(points)
        points.append((coords["x"], coords["y"]))
    edges = []
    for edge in root.iter("edge"):
        src, dst = edge.get("from"), edge.get("to")
        if src not in index or dst not in index:
            raise GraphFormatError(f"edge references unknown node: {src!r} -> {dst!r}")
        edges.append((index[src], index[dst]))
    try:
        return GeometricGraph(2, points, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_class_index(data: Union[bytes, str]) -> list[tuple[str, str]]:
    """(file, class) pairs from an XML class file, in document order."""
    root = _parse_xml(data)
    pairs = [(el.get("file"), el.get("class"))
             for el in root.iter()
             if el.get("file") is not None and el.get("class") is not None]
    if not pairs:
        raise GraphFormatError("class file lists no (file, class) entries")
    return pairs


def read_graph_file(path) -> GeometricGraph:
    """Read a graph file: GXL when the suffix is ``.gxl`` (any case), else native JSON."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix.lower() == ".gxl":
        return read_gxl_letter(data)
    return read_json_graph(data)


def load_letter_directory(path) -> list[LetterRecord]:
    """Load one distortion directory of letter drawings.

    The directory's name, in any case, is the distortion level. Labels come
    from the directory's class files (any ``*.cxl``, concatenated in sorted
    filename order) or from a ``labels.json`` object mapping file names to
    letters. Each listed drawing must be a plain file name in the directory,
    and every file read must pass `_listed`, so that a dataset reads only
    regular files and none outside its directory. Graphs are planarized so
    that downstream consumers see valid geometric graphs. A data error in a
    file (labels, class or drawing) is a GraphFormatError whose message
    starts with the file's path.
    """
    root = Path(path)
    distortion = root.name.upper()
    if distortion not in DISTORTION_LEVELS:
        raise ValueError(f"distortion must be one of {DISTORTION_LEVELS}, got {distortion!r}")
    entries: list[tuple[str, str]] = []
    labels_json = root / "labels.json"
    class_files = sorted(root.glob("*.cxl"))
    if labels_json.exists():
        with _naming(labels_json):
            mapping = _parse_json(_listed(root, labels_json).read_bytes())
        if not isinstance(mapping, dict):
            raise GraphFormatError(f"{labels_json} is not a JSON object")
        if not mapping:
            raise GraphFormatError(f"{labels_json} lists no drawings")
        entries = sorted(_plain_names(mapping.items(), labels_json))
    elif class_files:
        for cf in class_files:
            with _naming(cf):
                pairs = read_class_index(_listed(root, cf).read_bytes())
            entries.extend(_plain_names(pairs, cf))
    else:
        raise GraphFormatError(f"no labels.json or *.cxl class file in {root}")
    records = []
    for fname, label in entries:
        drawing = root / fname
        with _naming(drawing):
            records.append(LetterRecord(planarize(read_graph_file(_listed(root, drawing))), label,
                                        distortion, Path(fname).stem))
    return records


def _plain_names(entries, source: Path) -> list[tuple[str, str]]:
    """The (file, class) entries of a labels or class file, each file a plain
    name: not empty, "." or "..", and without a directory part, so not an
    absolute path either. Else a GraphFormatError naming the source."""
    entries = list(entries)
    for fname, _ in entries:
        if fname in ("", ".", "..") or os.path.basename(fname) != fname:
            raise GraphFormatError(
                f"{source}: entry {reprlib.repr(fname)} is not a plain file name")
    return entries


def _listed(root: Path, path: Path) -> Path:
    """path, a file that the dataset directory root lists, once it is known
    to be a regular file and, if it is a symbolic link, to resolve inside
    root. Else a GraphFormatError, raised before the file is opened: a FIFO
    would block the read and a device such as /dev/zero need not end."""
    if path.is_symlink() and not path.resolve().is_relative_to(root.resolve()):
        raise GraphFormatError(f"links to {path.resolve()}, outside {root}")
    if not stat.S_ISREG(path.stat().st_mode):
        raise GraphFormatError("not a regular file")
    return path


@contextmanager
def _naming(path):
    """Turn a ValueError raised inside into a GraphFormatError that starts
    with the path of the file at fault."""
    try:
        yield
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def load_prototypes(path=None) -> dict[str, GeometricGraph]:
    """The 15 letter prototypes, keyed by letter, in alphabetical label order.

    Reads ``<LETTER>.json`` from the given directory, or from the package's
    ``data/prototypes`` directory when no path is given. Each file must pass
    `_listed`, and a data error in one is a GraphFormatError whose message
    starts with its path.
    """
    root = Path(__file__).parent / "data" / "prototypes" if path is None else Path(path)
    protos = {}
    for label in LETTER_LABELS:
        target = root / f"{label}.json"
        if not target.exists():
            raise GraphFormatError(f"missing prototype for letter {label}: {target}")
        with _naming(target):
            protos[label] = read_graph_file(_listed(root, target))
    return protos
