"""Immutable graph representation and geodesic distance metrics.

The graph model is deliberately small: a fixed vertex set labeled 0..n-1,
optional direction, and finite nonnegative edge weights. A graph keeps its
canonical edges as three read-only columns, ``src``, ``dst`` and
``weight``; the tuple of ``(source, target, weight)`` edges is a view built
from them only when something reads it. The ``Graph`` constructor checks
the columns as whole arrays, whoever builds them. Everything downstream
(secrecy measures, structure search, detection simulation, the graph
document writer) reads from this representation and never mutates it.

Distances come in two flavours controlled by ``hop_mode``: unit hops (every
edge counts 1, the default) or the stored edge weights. Unreachable pairs
are marked with ``UNREACHABLE`` (infinity) rather than a large finite
number, so a disconnected pair can never silently corrupt a distance sum.
Each graph computes its distance matrix once per flavour, each flavour with
one kernel: hop counts from a breadth-first sweep over bit rows, 64 targets
to a machine word (``_sweep``, which also runs the detection cascade), and
weighted lengths from a relaxation of float sums, which bits cannot hold.
Every distance-derived quantity reads that matrix. The word layout of the
bit rows is written and read here only: ``_pack`` packs a bool array into
words and ``_bits`` unpacks them.

The weighted relaxation is Delta-stepping (Meyer and Sanders, 2003) run
from every source at once: a (source, vertex) cell whose distance fell is
pending, and each round expands only the pending cells within half the mean
arc weight of their source's least pending distance, so a cell is seldom
expanded before its distance is final. The order of expansion cannot change
a distance: adding a nonnegative weight is monotone in floating point, so
every cell settles at the least of its paths' sums, taken from the source
outward.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Marker stored in a DistanceMatrix for pairs with no connecting path.
UNREACHABLE = math.inf
# Most arcs one relaxation slice of _all_pairs expands, and most pending cells it reads at once;
# bounds its scratch memory.
_RELAX_BUDGET = 1 << 14
# Most 64-bit words one level slice of _sweep gathers (1 MiB); bounds its scratch memory.
_SWEEP_BUDGET = 1 << 17
# _pack shifts row 8i + k of each octet of rows by k bits
_OCTET_PLACE = np.arange(8, dtype=np.uint64)[:, None]


class GraphError(ValueError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class DisconnectedGraphError(GraphError):
    """Raised when a metric is undefined because the graph is disconnected."""


def _is_int(x) -> bool:
    """True integers only; bool is an int subtype and must not pass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Real numbers only; bool is one to ``numbers`` and must not pass."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real_tuple(values, name: str) -> tuple[float, ...]:
    """``values`` as floats, or a ValueError naming ``name`` unless each is a real number."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or not all(_is_real(x) for x in items):
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    return tuple(float(x) for x in items)


def _check_type(value, cls: type, name: str) -> None:
    """A ValueError naming ``name`` unless ``value`` is a ``cls``; a GraphError for a Graph."""
    if not isinstance(value, cls):
        error = GraphError if cls is Graph else ValueError
        raise error(f"{name} must be a {cls.__name__}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph on vertices 0..n-1.

    Edges are stored canonically, as three read-only columns of one length:
    int64 ``src`` and ``dst`` and float64 ``weight``, with endpoints in [0, n),
    source < target when undirected and no self-loop when directed, (source,
    target) pairs strictly increasing (sorted and distinct) and finite
    nonnegative weights. The constructor is the one check of this, on whole
    arrays; it raises GraphError naming the first edge that breaks it, and
    keeps its own read-only copy of each column, so no outside array can
    change a checked graph. :func:`build_graph` makes columns of raw edge
    lists; ``edges`` holds the edges as Python tuples, built when read.

    Two graphs are equal, and hash equal, when they have the same vertex
    count, direction, edge pairs and weights, weights compared by value
    (a ``-0.0`` weight equals ``0.0``).

    What is derived from the edges is computed at most once and kept on the
    graph: the edge tuple, the sorted arc arrays ``_arcs`` and the distance
    matrices by mode; ``degree_sequence`` reads the arc offsets on each call.
    """

    n: int
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        if not isinstance(self.directed, bool):
            raise GraphError(f"directed must be a bool, got {self.directed!r}")
        for name, dtype in (("src", "int64"), ("dst", "int64"), ("weight", "float64")):
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == dtype):
                got = type(column).__name__
                if isinstance(column, np.ndarray):
                    got = f"a {column.ndim}-dimensional {column.dtype} array"
                raise GraphError(f"edge column {name} must be a one-dimensional {dtype} array, got {got}")
            column = np.array(column)  # the graph's own copy: no outside view can write it
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if fault := _fault(self.n, self.directed, self.src, self.dst, self.weight):
            raise GraphError(fault)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, so weights equal by value hash alike
        weight_bits = (self.weight + 0.0).tobytes()
        return hash((self.n, self.directed, self.src.tobytes(), self.dst.tobytes(), weight_bits))

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which checks and copies the columns
        return Graph, (self.n, self.directed, self.src, self.dst, self.weight)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.src.size

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The canonical edges as ``(source, target, weight)`` tuples."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arc arrays ``(src, dst, weight, first)``.

        Arcs are sorted by (source, target) and an undirected tie appears once
        each way, so vertex v's out-arcs are ``first[v]:first[v + 1]``.
        """
        s, t, w = self.src, self.dst, self.weight
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


def _fault(n: int, directed: bool, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> str | None:
    """None when edge columns meet every invariant of a Graph, else the first edge's fault."""
    if not src.size == dst.size == weight.size:
        return f"edge columns differ in length: {src.size}, {dst.size}, {weight.size}"
    if not src.size:
        return None
    # whole-array tests; argmin and argmax read extremes at a fraction of a reduction's cost
    ok = src != dst if directed else src < dst
    ok[1:] &= src[1:] > src[:-1] - (dst[1:] > dst[:-1])  # a source repeats only where the target rises
    valid = ok[ok.argmin()] and src[0] >= 0 and int(dst[dst.argmax()]) < n  # rising: src[0] is least
    valid = valid and (not directed or int(src[-1]) < n and dst[dst.argmin()] >= 0)
    if valid and 0.0 <= weight[weight.argmin()] and weight[weight.argmax()] < math.inf:  # NaN fails both
        return None
    previous = None  # columns that fail are walked edge by edge, to name the fault
    for s, t, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        if not (0 <= s < n and 0 <= t < n):
            return f"edge {(s, t, w)} has an endpoint out of range [0, {n})"
        if s == t:
            return f"edge {(s, t, w)} is a self-loop"
        if not directed and s > t:
            return f"edge {(s, t, w)} is not sorted: an undirected edge needs source < target"
        if previous == (s, t):
            return f"duplicate edge {(s, t, w)}"
        if previous is not None and previous > (s, t):
            return f"edge {(s, t, w)} is not sorted: it comes after {previous}"
        if not 0.0 <= w < math.inf:
            return f"edge {(s, t, w)} has {'a negative' if math.isfinite(w) else 'a non-finite'} weight"
        previous = (s, t)
    return None


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
        On a ``directed`` that is not a bool, ``edges`` that are not
        iterable, an edge that is not a 2- or 3-sequence, an endpoint out of
        range or beyond the int64 range of the edge columns, a self-loop, a
        duplicate edge, or a weight that is not a real number (bool
        included), negative or non-finite (an int too large for a float
        included); the offending edge is named in the message.
    """
    if not _is_int(n) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    try:
        edges = iter(edges)
    except TypeError:
        raise GraphError(f"edges must be an iterable of edges, got {edges!r}") from None
    sources, targets, weights = [], [], []
    end = min(n, 1 << 63)  # endpoints past the int64 range cannot be stored
    # Each check tests the exact builtin type first: the general test it short-cuts
    # (an ABC instance check for the weight) costs more than the rest of the loop.
    for raw in edges:
        try:
            item = tuple(raw)
        except TypeError:
            item = ()
        if len(item) == 3:
            s, t, w = item
        elif len(item) == 2:
            s, t = item
            w = 1.0
        else:
            raise GraphError(f"edge {raw!r} must be (source, target[, weight])")
        if not (type(s) is int and type(t) is int or _is_int(s) and _is_int(t)):
            raise GraphError(f"edge {raw!r} has non-integer endpoints")
        if not (0 <= s < end and 0 <= t < end):
            if 0 <= s < n and 0 <= t < n:
                raise GraphError(f"edge {raw!r} has an endpoint beyond the int64 range of the edge columns")
            raise GraphError(f"edge {raw!r} has an endpoint out of range [0, {n})")
        if type(w) is not float:
            if not _is_real(w):
                raise GraphError(f"edge {raw!r} has a non-numeric weight")
            try:
                w = float(w)
            except OverflowError:  # an int or a Fraction beyond the float range
                w = math.inf
        sources.append(s)
        targets.append(t)
        weights.append(w)
    src, dst = np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((dst, src))
    return Graph(n=n, directed=directed, src=src[order], dst=dst[order], weight=np.array(weights)[order])


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


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[k] .. start[k] + count[k] - 1`` concatenated in order."""
    ends = count.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (start - ends + count).repeat(count)


def _blocks(load: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive index ranges [lo, hi) whose ``load`` sums to at most ``budget``.

    A range holds one index alone when that index's load exceeds the budget.
    """
    ends = load.cumsum()
    lo = 0
    while lo < ends.size:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(done + budget, side="right")))
        yield lo, hi
        lo = hi


def _out_arcs(first: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the out-arcs of ``vertices``, in order, and each vertex's arc count."""
    start = first[vertices]
    fanout = first[vertices + 1] - start
    return _ranges(start, fanout), fanout


def _sweep(front, unseen, first, heads, gate=None) -> Iterator[np.ndarray]:
    """Levels of a multi-source bit-parallel breadth-first sweep (Then et al., PVLDB 8(4), 2014).

    ``front`` and ``unseen`` hold rows of 64-bit words, one bit per search.
    Row v's next level ORs the ``front`` rows of the ``heads`` of its arcs
    ``first[v]:first[v + 1]`` (each ANDed with the arc's ``gate`` row, if
    given), less what ``unseen`` has cleared; one ``reduceat`` per slice of
    at most ``_SWEEP_BUDGET`` words (or one row's arcs) makes the OR. Every
    level reads every arc: picking out the arcs into non-empty rows cost more
    numpy calls than the rows it skipped. Each level is cleared from
    ``unseen`` in place and yielded, until one is empty.
    """
    tail = np.flatnonzero(np.diff(first))  # the rows with arcs
    slices = []
    for lo, hi in _blocks(np.diff(first)[tail] * front.shape[1], _SWEEP_BUDGET):
        a, b = first[tail[lo]], first[tail[hi - 1] + 1]
        slices.append((tail[lo:hi], slice(a, b), first[tail[lo:hi]] - a))
    while True:
        reached = np.zeros_like(front)
        for rows, arcs, offsets in slices:
            words = np.take(front, heads[arcs], axis=0)
            if gate is not None:
                words &= gate[arcs]
            reached[rows] = np.bitwise_or.reduceat(words, offsets, axis=0)
        reached &= unseen
        if not reached.any():
            return
        unseen ^= reached
        yield reached
        front = reached


def _hop_pairs(g: Graph) -> np.ndarray:
    """All-pairs hop counts, by one :func:`_sweep` from every source at once.

    Row u of level k holds the targets exactly k hops from u, one bit each:
    dist(u, t) = 1 + min over u's out-neighbours w of dist(w, t), so u's next
    row ORs its out-neighbours' rows, less the targets u has reached. Each
    level is ORed into the bit planes of its binary digits, so the matrix is
    read out once per plane, not once per level.
    """
    n = g.n
    _, dst, _, first = g._arcs
    vertex = np.arange(n)
    front = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    front[vertex, vertex >> 6] = np.left_shift(np.uint64(1), (vertex & 63).astype(np.uint64))
    unseen = ~front
    planes = []
    for level, reached in enumerate(_sweep(front, unseen, first, dst), 1):
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(front))
        for j, plane in enumerate(planes):
            if level >> j & 1:
                plane |= reached
    hops = np.zeros((n, n), dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for j, plane in enumerate(planes):
        hops |= _bits(plane, n).astype(hops.dtype) << j
    return np.where(_bits(unseen, n), UNREACHABLE, hops)


def _bits(rows: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each row of 64-bit words, bit k of word i as column 64i + k."""
    return np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1, count=n, bitorder="little")


def _pack(bits: np.ndarray) -> np.ndarray:
    """A (rows, cols) bool array as (cols, words) 64-bit words, row 64w + k as bit k of word w.

    The inverse of :func:`_bits`: ``_bits(_pack(b), rows)`` is ``b.T``, and
    the padding bits past the last row are 0, so the words can be swept.
    Bools are 0/1 bytes, so each 8-byte lane of a row packs 8 columns, and
    shifting row 8i + k's lanes by k leaves every bit in its own byte: the OR
    of a group of 8 rows is the bytes of 8 rows, one column a byte.
    """
    rows, cols = bits.shape
    octets = -(-rows // 8)
    lanes = np.zeros((octets * 8, -(-cols // 8) * 8), dtype=bool)
    lanes[:rows, :cols] = bits
    lanes = lanes.view(np.uint64).reshape(octets, 8, -1)
    lanes <<= _OCTET_PLACE
    packed = np.zeros((cols, -(-rows // 64) * 8), dtype=np.uint8)
    packed[:, :octets] = np.bitwise_or.reduce(lanes, axis=1).view(np.uint8)[:, :cols].T
    return packed.view("<u8")


def _all_pairs(g: Graph) -> np.ndarray:
    """All-pairs shortest path lengths by edge weight, by Delta-stepping from every source at once.

    A (source, vertex) cell is pending from the time its distance falls until
    its out-arcs are relaxed from that distance. Each round relaxes the
    pending cells within ``width`` of their own source's least pending
    distance; the others wait, and a cell that falls again is pending again.
    A round reads the pending cells in parts of at most ``_RELAX_BUDGET`` and
    relaxes arcs in slices of at most as many (or one cell's arcs), so its
    scratch memory does not grow with the number of pending cells. A width no
    greater than the least arc weight would expand each cell once, at its
    final distance, but spend a round on every band of distances that wide;
    half the mean arc weight expands each cell of the benchmark graphs once.
    A bucket per source keeps every source advancing a hop a round along a
    path; one bucket for all sources holds back those that drift ahead.

    Expansion order cannot change the result. A candidate is a path sum taken
    from the source outward, and adding a nonnegative weight is monotone in
    floating point (a <= b gives a + w <= b + w after rounding), so the least
    candidate for a cell extends the least sum of a predecessor, and every
    cell settles at the least sum over its paths. A sum beyond the float range
    is infinite and lowers no cell; :func:`geodesic_distances` names the pair.
    """
    n = g.n
    _, dst, weight, first = g._arcs
    degree = first[1:] - first[:-1]
    width = float((g.weight / (2 * g.m)).sum()) if g.m else 0.0  # summed in halves: cannot overflow
    dist = np.full(n * n, UNREACHABLE)
    pending = np.zeros(n * n, dtype=bool)
    low = np.empty(n)  # each source's least pending distance
    queue = np.arange(n) * (n + 1)  # the pending cells, ascending: at first the diagonal
    dist[queue] = 0.0
    # array methods, not numpy functions: on small graphs their call cost is most of a round
    with np.errstate(over="ignore"):
        while queue.size:
            parts = [queue[lo : lo + _RELAX_BUDGET] for lo in range(0, queue.size, _RELAX_BUDGET)]
            low.fill(UNREACHABLE)
            for part in parts:
                np.minimum.at(low, part // n, dist[part])
            for part in parts:
                cells = part[dist[part] <= low[part // n] + width]
                pending[cells] = False
                vertex = cells % n
                load = degree[vertex]
                for lo, hi in _blocks(load, _RELAX_BUDGET):
                    fanout = load[lo:hi]
                    arc = _ranges(first[vertex[lo:hi]], fanout)
                    cell = (cells[lo:hi] - vertex[lo:hi]).repeat(fanout) + dst[arc]
                    length = dist[cells[lo:hi]].repeat(fanout) + weight[arc]
                    fell = (length < dist[cell]).nonzero()[0]
                    cell = cell[fell]
                    np.minimum.at(dist, cell, length[fell])
                    pending[cell] = True
            queue = pending.nonzero()[0]
    return dist.reshape(n, n)


def geodesic_distances(g: Graph, hop_mode: bool = True) -> DistanceMatrix:
    """All-pairs shortest distances of ``g``.

    With ``hop_mode`` every edge counts one step, and the counts come from
    the bit sweep of ``_hop_pairs``; otherwise path length is the least sum
    of stored edge weights over a pair's paths, each sum taken from the
    source outward. ``_all_pairs`` finds it by relaxing cells in distance
    buckets, in an order that cannot change a distance, so the matrix has
    the bits of a Dijkstra search from each source. Entries for unreachable
    pairs are ``UNREACHABLE``; the matrix is asymmetric only when ``g`` is
    directed.

    The matrix is computed once per graph and mode and kept on the graph;
    later calls return the same read-only object. Total distance,
    diameter, communities and connectivity are all read from it.

    Raises
    ------
    GraphError
        If a weighted distance exceeds the float range, naming the first
        such pair: its infinite sum would read as no path at all; or if
        the matrix, or the kernel's scratch, cannot be allocated, naming
        the vertex count and the matrix's bytes.
    """
    _check_type(g, Graph, "g")
    if not isinstance(hop_mode, bool):
        raise GraphError(f"hop_mode must be a bool, got {hop_mode!r}")
    dm = g._distances.get(hop_mode)
    if dm is None:
        try:
            dist = _hop_pairs(g) if hop_mode else _all_pairs(g)
        except MemoryError:
            raise GraphError(
                f"{g.n} vertices need a {8 * g.n * g.n}-byte distance matrix, too large to allocate"
            ) from None
        if not hop_mode and np.isinf(dist).any():
            lost = np.isinf(dist) & ~np.isinf(geodesic_distances(g).dist)
            if lost.any():
                s, t = divmod(int(lost.argmax()), g.n)
                raise GraphError(
                    f"the weighted distance from {s} to {t} overflows: its least path sum exceeds the float range"
                )
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
    GraphError
        If the sum of finite distances exceeds the float range.
    """
    dm = geodesic_distances(g, hop_mode=hop_mode)
    if not dm.all_reachable():
        raise DisconnectedGraphError(
            "total distance is undefined for a disconnected graph"
        )
    with np.errstate(over="ignore"):
        total = float(dm.dist.sum())
    if total == math.inf:
        raise GraphError("total distance overflows: the sum of the distances exceeds the float range")
    return total


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
    _check_type(g, Graph, "g")
    g._check_vertex(i)
    if not _is_real(delta):
        raise GraphError(f"community distance delta must be a real number, got {delta!r}")
    if not 0 <= delta < math.inf:  # also rejects NaN
        raise GraphError(f"community distance must be finite and nonnegative, got {delta!r}")
    dm = geodesic_distances(g, hop_mode=hop_mode)
    row = dm.dist[i]
    return {j for j in range(g.n) if row[j] == delta}
