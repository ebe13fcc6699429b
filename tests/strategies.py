"""Hypothesis strategies for random graphs.

Connectivity is guaranteed structurally (a random spanning tree is
overlaid on the drawn edge set, in both directions when directed) rather
than by filtering through the library's own connectivity check.
"""

from __future__ import annotations

import itertools

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
