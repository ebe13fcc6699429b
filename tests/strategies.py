"""Hypothesis strategies for random graphs and actor rosters.

Connectivity is guaranteed structurally (a random spanning tree is
overlaid on the drawn edge set, in both directions when directed) rather
than by filtering through the library's own connectivity check.

``BAD_ROSTERS`` lists malformed roster documents with the message each
one is rejected with, for the loader and the ``build`` command alike.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from covertnet.graph import Graph, build_graph

from oracles import WEIGHT_GRID


@st.composite
def graphs(
    draw,
    min_n: int = 2,
    max_n: int = 8,
    weighted: bool = False,
    connected: bool = False,
    directed: bool = False,
    weights: tuple[float, ...] = WEIGHT_GRID,
) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pair_maker = itertools.permutations if directed else itertools.combinations
    pairs = list(pair_maker(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    chosen = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
    if connected and n > 1:
        order = draw(st.permutations(range(n)))
        for i in range(1, n):
            a = order[i]
            b = order[draw(st.integers(0, i - 1))]
            if directed:
                chosen.update({(a, b), (b, a)})
            else:
                chosen.add((min(a, b), max(a, b)))
    edges = []
    for i, j in sorted(chosen):
        w = draw(st.sampled_from(weights)) if weighted else 1.0
        edges.append((i, j, w))
    return build_graph(n, directed=directed, edges=edges)


def _sparse_pairs(draw, max_n: int) -> tuple[int, bool, list[tuple[int, int]]]:
    """A vertex count, a direction and the sorted pairs of a sparse graph (see ``sparse_graphs``)."""
    n = draw(st.integers(1, max_n))
    directed = draw(st.booleans())
    vertex = st.integers(0, n - 1)
    pairs = set(draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs.update(zip(order, order[1:]))
        if directed:
            pairs.update(zip(order[1:], order))
    if not directed:
        pairs = {(min(a, b), max(a, b)) for a, b in pairs}
    return n, directed, sorted((a, b) for a, b in pairs if a != b)


@st.composite
def sparse_graphs(draw, max_n: int = 200) -> Graph:
    """Unweighted graphs of up to ``max_n`` vertices and at most 3n drawn edges.

    Directed or not; with a random spanning path overlaid (both ways when
    directed) on about half the draws, so many draws span several 64-bit
    words and both connected and disconnected graphs occur.
    """
    n, directed, pairs = _sparse_pairs(draw, max_n)
    return build_graph(n, directed=directed, edges=pairs)


@st.composite
def weighted_sparse_graphs(draw, weights: tuple[float, ...], max_n: int = 150) -> Graph:
    """Graphs shaped as ``sparse_graphs`` draws them, under one of four weightings.

    Each edge weighs a draw from ``weights``; or every edge weighs 0; or
    each edge a positive draw from ``weights`` but one edge 0; or each edge
    a draw spread evenly over the orders of magnitude from 1e-9 to 1e9.
    """
    n, directed, pairs = _sparse_pairs(draw, max_n)
    scheme = draw(st.sampled_from(("drawn", "all zero", "one zero", "spread")))
    count = len(pairs)
    if scheme == "all zero":
        drawn = [0.0] * count
    elif scheme == "spread":
        drawn = draw(st.lists(st.floats(-9, 9).map(lambda e: 10.0**e), min_size=count, max_size=count))
    else:
        choices = weights if scheme == "drawn" else tuple(w for w in weights if w > 0)
        drawn = draw(st.lists(st.sampled_from(choices), min_size=count, max_size=count))
        if scheme == "one zero" and count:
            drawn[draw(st.integers(0, count - 1))] = 0.0
    return build_graph(n, directed=directed, edges=[(a, b, w) for (a, b), w in zip(pairs, drawn)])


# Tokens whose canonical forms collide or vanish: case folding maps "ß" and "SS" to
# "ss", "İ" to "i̇" (the same as "i̇") and "ﬁ" to "fi"; spacing trims away, and "" and
# "  " canonicalize to nothing.
MESSY_TOKENS = ("ß", "SS", "ss", "İ", "i\u0307", "ﬁ", "fi", "FI", " x ", "x", "X", "", "  ", "a", "A", "b")


@st.composite
def roster_documents(draw, max_actors: int = 12) -> list[dict]:
    """JSON roster lists with distinct ids and messy tokens.

    An actor may have no ``generators`` key or an empty list, and a list may
    hold one token in several spellings or the same token twice.
    """
    ids = draw(st.lists(st.text(min_size=1), min_size=1, max_size=max_actors, unique=True))
    actors = []
    for aid in ids:
        tokens = draw(st.none() | st.lists(st.sampled_from(MESSY_TOKENS), max_size=8))
        actors.append({"id": aid} if tokens is None else {"id": aid, "generators": tokens})
    return actors


def hub_roster(n: int = 1800, seed: int = 30) -> list[dict]:
    """A fixed roster in which ``n`` actors each draw 4 of 60 hub tokens.

    A third of the draws are spelled " Hub<k>" rather than "hub<k>", and
    neighbours in roster order share two chain tokens, so at threshold 2
    thousands of pairs tie, some by two or three hubs.
    """
    rng = random.Random(seed)
    actors = []
    for i in range(n):
        hubs = [rng.randrange(60) for _ in range(4)]
        tokens = [f" Hub{k}" if rng.random() < 1 / 3 else f"hub{k}" for k in hubs]
        tokens += [f"chain{k}.{c}" for k in (i - 1, i) if 0 <= k < n - 1 for c in "ab"]
        actors.append({"id": f"actor{i:04d}", "generators": tokens})
    return actors


#: case -> (roster file text, message, stage): ``load_actor_file`` rejects a "read"
#: document with the message after the path; ``build_from_actors`` rejects the
#: profiles of a "build" document with the message alone. ``build`` prints
#: "error: <path>: <message>" and exits 1 for every one.
BAD_ROSTERS = {
    "not a list": ('{"id": "a"}', "expected a JSON list of actors", "read"),
    "entry not a dict": ('["a"]', "actor entries need an 'id', got 'a'", "read"),
    "no id": ('[{"generators": ["x"]}]', "actor entries need an 'id', got {'generators': ['x']}", "read"),
    "generators a string": (
        '[{"id": "a", "generators": "xy"}]',
        "'generators' of actor 'a' must be a list of strings",
        "read",
    ),
    "generators a dict": (
        '[{"id": "a", "generators": {"x": 1}}]',
        "'generators' of actor 'a' must be a list of strings",
        "read",
    ),
    "empty id": ('[{"id": ""}]', "actor id must be a nonempty string, got ''", "read"),
    "id not a string": ('[{"id": 7}]', "actor id must be a nonempty string, got 7", "read"),
    "token not a string": (
        '[{"id": "a", "generators": ["x", 1, null]}]',
        "tokens of actor 'a' must be strings, got 1 in its generators",
        "read",
    ),
    "generators before id": (
        '[{"id": "", "generators": "x"}]',
        "'generators' of actor '' must be a list of strings",
        "read",
    ),
    "id before tokens": ('[{"id": 7, "generators": [1]}]', "actor id must be a nonempty string, got 7", "read"),
    "first actor's fault wins": (
        '[{"id": "a", "generators": [2]}, {"generators": []}]',
        "tokens of actor 'a' must be strings, got 2 in its generators",
        "read",
    ),
    "earlier actor's fault wins": (
        '[{"id": "a", "generators": ["x"]}, {"id": "b", "generators": [2]}, {"generators": []}]',
        "tokens of actor 'b' must be strings, got 2 in its generators",
        "read",
    ),
    "invalid JSON": ("not json", "invalid JSON (Expecting value: line 1 column 1 (char 0))", "read"),
    "duplicate ids": ('[{"id": "b"}, {"id": "a"}, {"id": "b"}, {"id": "a"}]', "duplicate actor ids: a, b", "build"),
    "empty roster": ("[]", "roster must contain at least one actor", "build"),
}
