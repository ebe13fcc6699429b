"""File formats: graph documents, actor rosters, probability vectors.

Graphs travel as JSON documents ``{"directed": bool, "n": int,
"labels": [...], "edges": [[source, target, weight?], ...]}`` or as CSV
edge lists with a ``source,target,weight`` header. CSV endpoints may be
arbitrary string labels; they are mapped to dense vertex indices in first
appearance order and the label map is preserved so reports stay readable.

Actor rosters are JSON lists of ``{"id": str, "generators": [str, ...]}``.
Probability vectors (scrutiny levels, sharing weights) are accepted inline
as comma-separated values or as a small text file of numbers.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

from .affiliation import ActorProfile
from .graph import Graph, GraphError, _is_int, build_graph


class GraphFileError(ValueError):
    """Graph document cannot be parsed into a valid graph."""


class ActorFileError(ValueError):
    """Actor roster document cannot be parsed into valid profiles."""


def load_graph_file(path: str | os.PathLike) -> tuple[Graph, tuple[str, ...] | None]:
    """Read a graph with its optional label map from JSON or CSV.

    Dispatch is by suffix (.json / .csv); anything else is sniffed: a
    document starting with '{' is treated as JSON.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise GraphFileError(f"{p}: {err}") from err
    suffix = p.suffix.lower()
    if suffix == ".json":
        return _graph_from_json(text, p)
    if suffix == ".csv":
        return _graph_from_csv(text, p)
    if text.lstrip().startswith("{"):
        return _graph_from_json(text, p)
    return _graph_from_csv(text, p)


def _graph_from_json(text: str, source: Path) -> tuple[Graph, tuple[str, ...] | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFileError(f"{source}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise GraphFileError(f"{source}: expected a JSON object")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise GraphFileError(f"{source}: 'n' must be a positive integer, got {n!r}")
    directed = doc.get("directed", False)
    if not isinstance(directed, bool):
        raise GraphFileError(f"{source}: 'directed' must be a boolean, got {directed!r}")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFileError(f"{source}: 'edges' must be a list")
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or not all(isinstance(x, str) for x in labels)
        ):
            raise GraphFileError(f"{source}: 'labels' must be a list of {n} strings")
        labels = tuple(labels)
    try:
        graph = build_graph(n, directed=directed, edges=edges)
    except GraphError as err:
        raise GraphFileError(f"{source}: {err}") from err
    return graph, labels


def _graph_from_csv(text: str, source: Path) -> tuple[Graph, tuple[str, ...] | None]:
    rows = [row for row in csv.reader(text.splitlines()) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise GraphFileError(f"{source}: empty edge list")
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:2] != ["source", "target"] or len(header) > 3 or (
        len(header) == 3 and header[2] != "weight"
    ):
        raise GraphFileError(
            f"{source}: expected header 'source,target[,weight]', got {rows[0]!r}"
        )
    index: dict[str, int] = {}

    def vertex(label: str) -> int:
        label = label.strip()
        if not label:
            raise GraphFileError(f"{source}: empty vertex label")
        if label not in index:
            index[label] = len(index)
        return index[label]

    edges = []
    for row in rows[1:]:
        if len(row) not in (2, 3):
            raise GraphFileError(f"{source}: malformed row {row!r}")
        s, t = vertex(row[0]), vertex(row[1])
        weight = 1.0
        if len(row) == 3 and row[2].strip():
            try:
                weight = float(row[2])
            except ValueError as err:
                raise GraphFileError(f"{source}: bad weight in row {row!r}") from err
        edges.append((s, t, weight))
    try:
        graph = build_graph(len(index), directed=False, edges=edges)
    except GraphError as err:
        raise GraphFileError(f"{source}: {err}") from err
    return graph, tuple(index)


def graph_to_json_dict(g: Graph, labels: tuple[str, ...] | None = None) -> dict:
    """JSON-serializable graph document; inverse of the JSON loader.

    The library's dict form of a graph document: one ``[source, target,
    weight]`` list of Python numbers per edge, read from the graph's
    columns (``g.edges`` is not built). The ``build`` and ``hierarchy``
    commands write the same document's text straight from the columns,
    without this dict; ``json.dumps(graph_to_json_dict(g, labels),
    indent=2)`` is that text.
    """
    doc: dict = {"directed": g.directed, "n": g.n}
    if labels is not None:
        doc["labels"] = list(labels)
    doc["edges"] = [list(edge) for edge in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())]
    return doc


def load_actor_file(path: str | os.PathLike) -> list[ActorProfile]:
    """Read an actor roster from a JSON file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as err:
        raise ActorFileError(f"{p}: {err}") from err
    except json.JSONDecodeError as err:
        raise ActorFileError(f"{p}: invalid JSON ({err})") from err
    if not isinstance(doc, list):
        raise ActorFileError(f"{p}: expected a JSON list of actors")
    roster = []
    for item in doc:
        if not isinstance(item, dict) or "id" not in item:
            raise ActorFileError(f"{p}: actor entries need an 'id', got {item!r}")
        generators = item.get("generators", [])
        if not isinstance(generators, list):
            raise ActorFileError(
                f"{p}: 'generators' of actor {item.get('id')!r} must be a list of strings"
            )
        try:
            roster.append(ActorProfile(id=item["id"], generators=generators))
        except ValueError as err:
            raise ActorFileError(f"{p}: {err}") from err
    return roster


def load_vector(value: str) -> tuple[float, ...]:
    """Parse numbers given inline ('0.1,0.2') or as a path to a text file.

    Inline parsing wins when the value parses; otherwise it is treated as
    a file of whitespace- or comma-separated numbers. A blank value is empty, never a path.
    """
    if not value.strip():
        raise ValueError("empty vector")
    try:
        return _parse_numbers(value.replace(",", " ").split())
    except ValueError:
        pass
    p = Path(value)
    if not p.exists():
        raise ValueError(f"{value!r} is neither a number list nor an existing file")
    return _parse_numbers(p.read_text().replace(",", " ").split())


def _parse_numbers(tokens: list[str]) -> tuple[float, ...]:
    if not tokens:
        raise ValueError("empty vector")
    return tuple(float(tok) for tok in tokens)
