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


@st.composite
def sparse_graphs(draw, max_n: int = 200) -> Graph:
    """Unweighted graphs of up to ``max_n`` vertices and at most 3n drawn edges.

    Directed or not; with a random spanning path overlaid (both ways when
    directed) on about half the draws, so many draws span several 64-bit
    words and both connected and disconnected graphs occur.
    """
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
    return build_graph(n, directed=directed, edges=sorted((a, b) for a, b in pairs if a != b))
