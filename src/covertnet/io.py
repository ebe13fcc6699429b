"""File formats: graph documents, actor rosters, probability vectors.

Graphs travel as JSON documents ``{"directed": bool, "n": int,
"labels": [...], "edges": [[source, target, weight?], ...]}`` or as CSV
edge lists with a ``source,target,weight`` header. CSV endpoints may be
arbitrary string labels; they are mapped to dense vertex indices in first
appearance order and the label map is preserved so reports stay readable.

Actor rosters are JSON lists of ``{"id": str, "generators": [str, ...]}``.
``_read_roster`` reads one into two columns, the ids and each actor's raw
token list, in one pass over the parsed list that runs every check an
``ActorProfile`` would, in its order, and builds no object: the ``build``
command hands the columns to the affiliation pair builder, and
``load_actor_file`` makes its profiles from them.
Probability vectors (scrutiny levels, sharing weights) are accepted inline
as comma-separated values or as a small text file of numbers.

This module also writes every JSON document the command line prints,
byte for byte the text of ``json.dumps(doc, indent=2)``: ``_dumps`` for
any document and ``_graph_text`` for a graph document, so the graph
document is read and written in one place. The text is written from calls
to the C encoder, which ``indent`` would bypass for the pure-Python one
(about three times slower on a graph document): only the containers are
walked in Python, and the scalars of a container are encoded together in
one call; a list of rows of scalars that share one shape (lists of one
length, or dicts with the same keys in the same order) is one call and one
``%`` template. A graph document is written from the graph's edge columns, with
no per-edge Python container: each vertex id and each distinct weight is
encoded once, and the edge rows are those tokens and their separators,
gathered by index into one list and joined.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
from pathlib import Path

import numpy as np

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


def _graph_head(g: Graph, labels: tuple[str, ...] | None) -> dict:
    """The graph document's keys before its edges: ``directed``, ``n`` and, if given, ``labels``."""
    head: dict = {"directed": g.directed, "n": g.n}
    if labels is not None:
        head["labels"] = list(labels)
    return head


def graph_to_json_dict(g: Graph, labels: tuple[str, ...] | None = None) -> dict:
    """JSON-serializable graph document; inverse of the JSON loader.

    The library's dict form of a graph document: one ``[source, target,
    weight]`` list of Python numbers per edge, read from the graph's
    columns (``g.edges`` is not built). The ``build`` and ``hierarchy``
    commands write the same document's text straight from the columns,
    without this dict (``_graph_text``); ``json.dumps(graph_to_json_dict(g,
    labels), indent=2)`` is that text.
    """
    doc = _graph_head(g, labels)
    doc["edges"] = [list(edge) for edge in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())]
    return doc


#: Item separator whose encoder output splits back into tokens: strings escape NUL.
_SEP = "\x00"
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


@functools.cache
def _encoder(separator: str):
    """The C encoder's ``encode``, with ``separator`` between items and ": " after keys."""
    return json.JSONEncoder(separators=(separator, ": ")).encode


def _tokens(values) -> list[str]:
    """The JSON text of each scalar in ``values``, from one encoder call."""
    return _encoder(_SEP)(values)[1:-1].split(_SEP) if values else []


def _dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for ``value`` nested ``depth`` containers deep.

    A container of scalars is one encoder call. A list of rows of scalars
    that share one shape (lists of one length, or dicts with the same keys
    in the same order) is one call over all of their scalars, put in place
    by one ``%`` template. Any other container encodes its scalars in one
    call and its keys in another, and recurses into its containers.
    """
    if isinstance(value, dict):
        items, brackets = list(value.values()), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    else:
        return _encoder(",")(value)
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        text = _encoder("," + pad)(value)
        return brackets[0] + pad + text[1:-1] + pad[:-2] + brackets[1]
    records = kinds == {dict}
    if brackets == "[]" and (records or kinds <= _ROWS):
        shapes = set(map(tuple, items)) if records else set(map(len, items))
        flat = list(itertools.chain.from_iterable(map(dict.values, items) if records else items))
        if len(shapes) == 1 and set(map(type, flat)) <= _SCALARS:
            inner, ends = "\n" + "  " * (depth + 2), "{}" if records else "[]"
            if records:
                # each key token reads '"key": 0'; its % signs are doubled for the template
                slots = [key[:-1].replace("%", "%%") + "%s" for key in _tokens(dict.fromkeys(items[0], 0))]
            else:
                slots = ["%s"] * len(items[0])
            row = ends[0] + inner + ("," + inner).join(slots) + pad + ends[1] if slots else ends
            template = "[" + pad + ("," + pad).join([row] * len(items)) + pad[:-2] + "]"
            return template % tuple(_tokens(flat))
    nested = [isinstance(v, (list, tuple, dict)) for v in items]
    scalars = iter(_tokens([v for v, deep in zip(items, nested) if not deep]))
    texts = [_dumps(v, depth + 1) if deep else next(scalars) for v, deep in zip(items, nested)]
    if brackets == "{}":
        # each key token reads '"key": 0'; dropping the 0 leaves the key and its ": "
        keys = _tokens(dict.fromkeys(value, 0))
        texts = [key[:-1] + text for key, text in zip(keys, texts)]
    return brackets[0] + pad + ("," + pad).join(texts) + pad[:-2] + brackets[1]


def _graph_text(g: Graph, labels: tuple[str, ...] | None = None) -> str:
    """``json.dumps(graph_to_json_dict(g, labels), indent=2)``, written from the columns.

    The head (``directed``, ``n``, ``labels``) goes through ``_dumps``. Every
    vertex id and each distinct weight is encoded once, weights told apart
    by bit pattern so that ``-0.0`` keeps its sign. The edge rows are one
    interleaved list of those tokens and the two separators between them,
    gathered by index and joined, so no per-edge Python container is made.
    """
    # the head's text without its closing "\n}", continued by the edges key
    text = _dumps(_graph_head(g, labels))[:-2] + ',\n  "edges": '
    if not g.m:
        return text + "[]\n}"
    bits, weight_slot = np.unique(g.weight.view(np.uint64), return_inverse=True)
    tokens = _tokens(list(range(g.n))) + _tokens(bits.view(np.float64).tolist())
    table = np.array(tokens + ["\n    ],\n    [\n      ", ",\n      "], dtype=object)
    row_break, comma = table.size - 2, table.size - 1
    index = np.empty((g.m, 6), dtype=np.intp)
    index[:, 0], index[:, 2], index[:, 4] = row_break, comma, comma
    index[:, 1], index[:, 3], index[:, 5] = g.src, g.dst, g.n + weight_slot.reshape(-1)
    # the first row opens the list instead of following a row
    rows = "".join(table[index.reshape(-1)[1:]].tolist())
    return text + "[\n    [\n      " + rows + "\n    ]\n  ]\n}"


def load_actor_file(path: str | os.PathLike) -> list[ActorProfile]:
    """Read an actor roster from a JSON file."""
    return [ActorProfile(id=aid, generators=tokens) for aid, tokens in zip(*_read_roster(path))]


def _read_roster(path: str | os.PathLike) -> tuple[list[str], list[list[str]]]:
    """An actor roster's ids and raw generator lists, read in one pass over the JSON list.

    Each actor is checked in the order ``ActorProfile`` would be: an entry
    with an ``id``, then ``generators`` a list, then the id a nonempty
    string, then every token a string. The first fault found is raised
    as an ActorFileError; no profile is built.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as err:
        raise ActorFileError(f"{p}: {err}") from err
    except json.JSONDecodeError as err:
        raise ActorFileError(f"{p}: invalid JSON ({err})") from err
    if not isinstance(doc, list):
        raise ActorFileError(f"{p}: expected a JSON list of actors")
    ids, generators = [], []
    for item in doc:
        if not isinstance(item, dict) or "id" not in item:
            raise ActorFileError(f"{p}: actor entries need an 'id', got {item!r}")
        aid, tokens = item["id"], item.get("generators", [])
        if not isinstance(tokens, list):
            raise ActorFileError(f"{p}: 'generators' of actor {aid!r} must be a list of strings")
        if not isinstance(aid, str) or not aid:
            raise ActorFileError(f"{p}: actor id must be a nonempty string, got {aid!r}")
        if not {str}.issuperset(map(type, tokens)):
            token = next(t for t in tokens if type(t) is not str)
            raise ActorFileError(f"{p}: tokens of actor {aid!r} must be strings, got {token!r} in its generators")
        ids.append(aid)
        generators.append(tokens)
    return ids, generators


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
