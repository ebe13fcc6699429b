"""Immutable graph representation and geodesic distance metrics.

The graph model is deliberately small: a fixed vertex set labeled 0..n-1,
optional direction, and finite nonnegative edge weights. Everything
downstream (secrecy measures, structure search, detection simulation)
reads from this representation and never mutates it.

Distances come in two flavours controlled by ``hop_mode``: unit hops (every
edge counts 1, the default) or the stored edge weights. Unreachable pairs
are marked with ``UNREACHABLE`` (infinity) rather than a large finite
number, so a disconnected pair can never silently corrupt a distance sum.
Each graph computes its distance matrix once per flavour, with one kernel
for both; every distance-derived quantity reads that one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

#: Marker stored in a DistanceMatrix for pairs with no connecting path.
UNREACHABLE = math.inf
# Most arcs one relaxation slice of _all_pairs expands; bounds its scratch memory.
_RELAX_BUDGET = 1 << 14


class GraphError(ValueError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class DisconnectedGraphError(GraphError):
    """Raised when a metric is undefined because the graph is disconnected."""


def _is_int(x) -> bool:
    """True integers only; bool is an int subtype and must not pass."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1.

    Edges are stored canonically: deduplicated, sorted, and (when
    undirected) with source < target. Use :func:`build_graph` instead of
    constructing directly; the factory validates and canonicalizes raw
    edge lists.
    """

    n: int
    directed: bool
    edges: tuple[tuple[int, int, float], ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arc arrays ``(src, dst, weight, first)``.

        Arcs are sorted by (source, target) and an undirected tie appears once
        each way, so vertex v's out-arcs are ``first[v]:first[v + 1]``.
        """
        s, t, w = np.array(self.edges, dtype=float).reshape(-1, 3).T
        if not self.directed:
            s, t, w = np.concatenate([s, t]), np.concatenate([t, s]), np.concatenate([w, w])
        order = np.lexsort((t, s))
        src, dst, weight = s[order].astype(np.intp), t[order].astype(np.intp), w[order]
        first = np.searchsorted(src, np.arange(self.n + 1))
        for a in (src, dst, weight, first):
            a.setflags(write=False)
        return src, dst, weight, first

    @cached_property
    def _distances(self) -> dict[bool, DistanceMatrix]:
        """Distance matrices by ``hop_mode``, filled by :func:`geodesic_distances`."""
        return {}

    def degree_sequence(self) -> tuple[int, ...]:
        """Undirected degrees d_0..d_{n-1}.

        Only defined for undirected graphs; the secrecy measures are stated
        in terms of plain degrees.
        """
        if self.directed:
            raise GraphError("degree_sequence is defined for undirected graphs")
        return tuple(np.diff(self._arcs[3]).tolist())

    def _check_vertex(self, i: int) -> None:
        if not (_is_int(i) and 0 <= i < self.n):
            raise GraphError(f"vertex {i!r} out of range for graph on {self.n} vertices")


def build_graph(
    n: int,
    directed: bool = False,
    edges: Iterable[Sequence] = (),
) -> Graph:
    """Validate and canonicalize an edge list into an immutable Graph.

    Parameters
    ----------
    n : vertex count, at least 1; vertices are labeled 0..n-1.
    directed : whether edges are ordered pairs.
    edges : iterable of (source, target) or (source, target, weight) with
        weight a finite nonnegative real (default 1.0).

    Raises
    ------
    GraphError
        On an endpoint out of range, a self-loop, a duplicate edge, or a
        negative or non-finite weight; the offending edge is named in the
        message.
    """
    if not _is_int(n) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    canon: dict[tuple[int, int], float] = {}
    for raw in edges:
        item = tuple(raw)
        if len(item) == 2:
            s, t = item
            w = 1.0
        elif len(item) == 3:
            s, t, w = item
        else:
            raise GraphError(f"edge {raw!r} must be (source, target[, weight])")
        if not (_is_int(s) and _is_int(t)):
            raise GraphError(f"edge {raw!r} has non-integer endpoints")
        if not (0 <= s < n and 0 <= t < n):
            raise GraphError(f"edge {raw!r} has an endpoint out of range [0, {n})")
        if s == t:
            raise GraphError(f"edge {raw!r} is a self-loop")
        w = float(w)
        if not math.isfinite(w):
            raise GraphError(f"edge {raw!r} has a non-finite weight")
        if w < 0:
            raise GraphError(f"edge {raw!r} has a negative weight")
        key = (s, t) if directed else (min(s, t), max(s, t))
        if key in canon:
            raise GraphError(f"duplicate edge {raw!r}")
        canon[key] = w
    edge_tuple = tuple((s, t, canon[(s, t)]) for s, t in sorted(canon))
    return Graph(n=n, directed=directed, edges=edge_tuple)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs geodesic distances.

    ``dist`` is an n-by-n float array with ``dist[i][j]`` the length of the
    shortest path from i to j, 0 on the diagonal, and ``UNREACHABLE`` where
    no path exists. ``hop_mode`` records whether unit hops or stored edge
    weights were used. The array is frozen (non-writeable).
    """

    n: int
    dist: np.ndarray
    hop_mode: bool

    def __post_init__(self) -> None:
        self.dist.setflags(write=False)

    def reachable(self, i: int, j: int) -> bool:
        return bool(self.dist[i, j] != UNREACHABLE)

    def all_reachable(self) -> bool:
        return bool(np.all(self.dist != UNREACHABLE))


def _out_arcs(first: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the out-arcs of ``vertices``, in order, and each vertex's arc count."""
    start = first[vertices]
    fanout = first[vertices + 1] - start
    return np.arange(fanout.sum()) + np.repeat(start - np.cumsum(fanout) + fanout, fanout), fanout


def _all_pairs(g: Graph, hop_mode: bool) -> np.ndarray:
    """All-pairs shortest path lengths, relaxed from every source at once.

    Each round relaxes the out-arcs of the (source, vertex) cells whose distance
    fell in the round before, in slices of at most ``_RELAX_BUDGET`` arcs (or one
    vertex's arcs). Weights are nonnegative and float addition is monotone, so
    every cell settles at the least source-to-target sum over the paths to it.
    """
    n = g.n
    _, dst, weight, first = g._arcs
    weight = np.ones_like(weight) if hop_mode else weight
    dist = np.full(n * n, UNREACHABLE)
    fell = np.zeros(n * n, dtype=bool)
    frontier = np.arange(n) * (n + 1)
    dist[frontier] = 0.0
    while frontier.size:
        ends = np.cumsum(np.diff(first)[frontier % n])
        lo = 0
        while lo < frontier.size:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _RELAX_BUDGET, side="right")))
            source, vertex = np.divmod(frontier[lo:hi], n)
            arc, fanout = _out_arcs(first, vertex)
            cell = np.repeat(source * n, fanout) + dst[arc]
            length = np.repeat(dist[frontier[lo:hi]], fanout) + weight[arc]
            shorter = length < dist[cell]
            cell = cell[shorter]
            np.minimum.at(dist, cell, length[shorter])
            fell[cell] = True
            lo = hi
        frontier = np.flatnonzero(fell)
        fell[frontier] = False
    return dist.reshape(n, n)


def geodesic_distances(g: Graph, hop_mode: bool = True) -> DistanceMatrix:
    """All-pairs shortest distances of ``g``.

    With ``hop_mode`` every edge counts one step; otherwise path length is
    the sum of stored edge weights. Entries for unreachable pairs are
    ``UNREACHABLE``; the matrix is asymmetric only when ``g`` is directed.

    The matrix is computed once per graph and mode and kept on the graph;
    later calls return the same read-only object. Total distance,
    diameter, communities and connectivity are all read from it.
    """
    dm = g._distances.get(hop_mode)
    if dm is None:
        dist = _all_pairs(g, hop_mode)
        dm = g._distances[hop_mode] = DistanceMatrix(n=g.n, dist=dist, hop_mode=hop_mode)
    return dm


def is_connected(g: Graph) -> bool:
    """True iff every ordered vertex pair is reachable.

    Read from the hop distance matrix: no entry is ``UNREACHABLE``. For
    directed graphs this is strong connectivity. Edge weights are finite,
    so weighted distances have the same reachable pairs.
    """
    return geodesic_distances(g).all_reachable()


def total_distance(g: Graph, hop_mode: bool = True) -> float:
    """Sum of geodesic distances over all ordered vertex pairs.

    Diagonal pairs contribute 0, and each unordered pair of an undirected
    graph is counted in both directions.

    Raises
    ------
    DisconnectedGraphError
        If any pair is unreachable; the sum would be infinite.
    """
    dm = geodesic_distances(g, hop_mode=hop_mode)
    if not dm.all_reachable():
        raise DisconnectedGraphError(
            "total distance is undefined for a disconnected graph"
        )
    return float(dm.dist.sum())


def diameter(g: Graph, hop_mode: bool = True) -> float:
    """Maximum geodesic distance over all ordered vertex pairs."""
    dm = geodesic_distances(g, hop_mode=hop_mode)
    if not dm.all_reachable():
        raise DisconnectedGraphError("diameter is undefined for a disconnected graph")
    return float(dm.dist.max())


def community(g: Graph, i: int, delta: float, hop_mode: bool = True) -> set[int]:
    """Vertices at geodesic distance exactly ``delta`` from vertex ``i``.

    Exact equality is intentional: the distance-0 community is {i} itself,
    and unreachable vertices belong to no community. Returns the empty set
    when nothing lies at exactly ``delta``.
    """
    g._check_vertex(i)
    if math.isnan(delta) or delta < 0:
        raise GraphError(f"community distance must be nonnegative, got {delta!r}")
    dm = geodesic_distances(g, hop_mode=hop_mode)
    row = dm.dist[i]
    return {j for j in range(g.n) if row[j] == delta}
