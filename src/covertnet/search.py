"""Exhaustive search over connected graphs of small order, and the lemma checks.

Candidate structures are encoded as bitmasks over the C(n, 2) possible
edges, enumerated in ascending mask order. Enumeration is over labeled
graphs: correctness is easy to audit against the 2^C(n,2) subset count.
The balance is invariant under relabeling, but H folds in vertex order, so
labelings of a shape can score an ulp apart: at tolerance 0, n = 6 and
p = 0.7 list 3 of the 6 stars (hubs 0-2); the default 1e-12 lists all 6.

A chunk is the masks that share one high part, the edge slots above the
low 12 (one chunk holds every mask when n <= 5), and every mask of a chunk
is evaluated at once by numpy bitset arithmetic. A chunk reads its edge
counts and a row of a per-order table: the connected flag of every low
part under each partition of the vertices that a high part's edges
induce, from one Warshall pass over bit rows (``_closure``). Three bounds
on the balance, proved in ``_scan``, keep the masks that cannot reach the
result out of the work: a gate on the edge count, built once per scan
from the sorted edge scores, closes most masks, and only open ones gather
their adjacency from a per-order table and take their hidden knowledge H;
a bound from each mask's own degrees drops most of the rest; and a mask
that is left has its bound as its balance when one radius-2 sweep finds
its diameter at most 2, and otherwise runs the distance loop only if its
bound at the next possible total distance still reaches the floor. A
chunk with no mask to measure runs no distance loop, and the number of
connected graphs comes from a recurrence instead of a count.
Maximizers stay int64 edge masks up to the caller, and a ``Graph`` is built
only for one that is read. Chunks may be processed by parallel workers;
results are merged in chunk order, so any worker count yields
bit-identical results.

``find_optimal`` is the scan's only caller. ``verify_lemma`` enumerates
nothing; its docstring proves that two rivals decide each claim.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._parallel import run_chunks
from .graph import Graph, _check_type, _is_int, _is_real, _real_tuple, build_graph
from .measures import SecrecyParams, hidden_from_degrees

#: Search orders above this need allow_large=True; 8 is the hard cap (2^28 subsets).
DEFAULT_MAX_ORDER = 7
HARD_MAX_ORDER = 8
#: Largest order of a lemma check; it bounds the report's size, as nothing is enumerated.
LEMMA_MAX_ORDER = 50


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive balance maximization."""

    n: int
    p: float
    best_mu: float
    argmax_graphs: Sequence[Graph]
    graphs_enumerated: int
    tolerance: float


@dataclass(frozen=True)
class LemmaCheckRow:
    """Verification outcome for one detection probability."""

    p: float
    passed: bool
    mu_claimed: float
    max_mu_other: float
    counterexample: Graph | None


@dataclass(frozen=True)
class LemmaReport:
    """Verification outcomes for one claimed-optimal structure."""

    which: str
    n: int
    tolerance: float
    rows: tuple[LemmaCheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _order_cap(allow_large: bool) -> int:
    if not isinstance(allow_large, bool):
        raise ValueError(f"allow_large must be a bool, got {allow_large!r}")
    return HARD_MAX_ORDER if allow_large else DEFAULT_MAX_ORDER


def _check_order(n: int, cap: int) -> None:
    if not _is_int(n) or not 2 <= n <= cap:
        hint = " (pass allow_large=True for 8)" if cap == DEFAULT_MAX_ORDER else ""
        raise ValueError(f"order must be an integer in [2, {cap}]{hint}, got {n}")


@functools.cache
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


def _graph_from_mask(mask: int, n: int) -> Graph:
    return build_graph(n, edges=[pair for k, pair in enumerate(_edge_slots(n)) if mask >> k & 1])


@dataclass(frozen=True, eq=False)
class _MaskGraphs(Sequence):
    """Read-only graphs over an int64 edge-mask array, each built when it is read."""

    n: int
    masks: np.ndarray

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_graph_from_mask(mask, self.n) for mask in self.masks[index].tolist())
        return _graph_from_mask(int(self.masks[operator.index(index)]), self.n)

    def __eq__(self, other) -> bool:
        same_n = isinstance(other, _MaskGraphs) and self.n == other.n
        return same_n and np.array_equal(self.masks, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.masks.tobytes()))


def enumerate_connected(n: int, allow_large: bool = False) -> Iterator[Graph]:
    """Yield every connected labeled simple graph on n vertices once.

    Deterministic order: ascending edge-subset bitmask, with edge slots in
    lexicographic pair order. The order cap is checked eagerly, before the
    first graph is requested.
    """
    _check_order(n, _order_cap(allow_large))

    def generate() -> Iterator[Graph]:
        for h in range(_adjacency_tables(n)[1].shape[1]):
            connected, _ = _connectivity(n, h)
            for mask in ((h << _LOW_SLOTS) + np.flatnonzero(connected)).tolist():
                yield _graph_from_mask(mask, n)

    return generate()


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
#: Set bits of each 16-bit value; two lookups count the edges of a mask (at most 28 slots).
_POPCOUNT16 = np.add.outer(_POPCOUNT, _POPCOUNT).ravel()
#: Edge slots of a mask's low part. A chunk of 2^12 aligned masks shares its high part.
_LOW_SLOTS = 12


@functools.cache
def _adjacency_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency rows of every low part and of every high part of an n-vertex mask.

    Column c of ``low`` holds vertex v's neighbours, as a uint8 bitset in row v,
    for the edges of the low 12 slots set in c; ``high`` does the same for the
    remaining slots (one column when there are none), so a mask's adjacency is
    ``low[:, mask & 4095] | high[:, mask >> 12]``. At n = 8 ``high`` is 512 KB.
    """
    slots = _edge_slots(n)

    def table(part: Sequence[tuple[int, int]]) -> np.ndarray:
        values = np.arange(1 << len(part), dtype=np.int64)
        adj = np.zeros((n, len(values)), dtype=np.uint8)
        for k, (i, j) in enumerate(part):
            edge = (values >> k & 1).astype(np.uint8)
            adj[i] |= edge << j
            adj[j] |= edge << i
        adj.setflags(write=False)
        return adj

    return table(slots[:_LOW_SLOTS]), table(slots[_LOW_SLOTS:])


def _closure(n: int, adj: np.ndarray) -> np.ndarray:
    """Reach rows of each mask of ``adj`` (uint8, (n, masks)): bit w of row s is set when s reaches w.

    One Warshall pass (JACM 9(1), 1962) from ``adj`` with each vertex's own
    bit set: once vertex v is taken, every row holds the vertices that its
    paths through vertices 0..v reach, so the rows are complete after v = n - 1.
    """
    c = adj | np.uint8(1) << np.arange(n, dtype=np.uint8)[:, None]
    for v in range(n):
        c = c | (c >> v & 1) * c[v]
    return c


@functools.cache
def _connected_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(partition, flags): which n-vertex masks are connected, read by high part and low part.

    Whether a mask is connected depends only on its low part and on the
    partition of the vertices into the components of its high part's edges,
    the rows of its ``_closure``. ``partition[h]`` numbers the partition of
    high part h, and ``flags[partition[h]]`` holds the connected flag of each
    low part with it: whether row 0 of their joint ``_closure`` is full. There
    are 5 rows at n = 6, 47 at n = 7 and 406 at n = 8.
    """
    low, high = _adjacency_tables(n)
    # the n <= 8 bytes of a column as one integer, vertex 0 on top, sort as the column does
    key = np.zeros(high.shape[1], dtype=np.uint64)
    for row in _closure(n, high):
        key = key << np.uint64(8) | row
    _, first, partition = np.unique(key, return_index=True, return_inverse=True)
    flags = np.stack([_closure(n, low | high[:, h, None])[0] == (1 << n) - 1 for h in first])
    partition.setflags(write=False)
    flags.setflags(write=False)
    return partition, flags


def _connectivity(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected flags and edge counts (uint8) of high part h's masks.

    Those are the masks (h << 12) + a for every low part a, in order. The
    flags are row ``partition[h]`` of the per-order ``flags`` table, and the
    edge counts are the set bits of each a plus those of h.
    """
    partition, flags = _connected_table(n)
    return flags[partition[h]], _POPCOUNT16[: flags.shape[1]] + _POPCOUNT16[h]


def _within_two(n: int, adj: np.ndarray) -> np.ndarray:
    """Whether each connected mask of ``adj`` has diameter at most 2.

    Row s of ``two`` holds s's closed neighbourhood and those of its
    neighbours, that is the vertices within 2 of s.
    """
    ball = adj | np.uint8(1) << np.arange(n, dtype=np.uint8)[:, None]
    two = ball
    for v in range(n):
        two = two | (adj >> v & 1) * ball[v]
    return np.bitwise_and.reduce(two, axis=0) == (1 << n) - 1


def _total_distances(n: int, adj: np.ndarray) -> np.ndarray:
    """Total distance T (int64) of each connected mask of ``adj``.

    Row s of ``reach`` holds the vertices within the current level of source
    s; a level grows each ball by the balls of the source's neighbours. An
    ordered pair adds one to T for each level at which it is still
    unreached, so T = sum over levels 0..n-2 of (n^2 - |reach|).
    """
    # near[v][s] is 0xFF where v is a neighbour of s, else 0
    near = [(adj >> v & 1) * np.uint8(0xFF) for v in range(n)]
    reach = np.repeat((1 << np.arange(n, dtype=np.uint8))[:, None], adj.shape[1], axis=1)
    reached = _POPCOUNT.take(reach)  # at most n per level over n-1 levels: fits uint8
    for _ in range(n - 2):
        grown = reach.copy()
        for v in range(n):
            grown |= near[v] & reach[v]
        reach = grown
        reached += _POPCOUNT.take(reach)
    return (n - 1) * n * n - reached.sum(axis=0, dtype=np.int64)


@functools.cache
def _count_connected(n: int) -> int:
    """Connected labeled graphs on n vertices (OEIS A001187).

    All 2^C(n,2) graphs, less those in which vertex 0's component has k < n
    vertices: C(n-1, k-1) ways to choose it, c(k) to connect it and
    2^C(n-k,2) for the rest (Harary & Palmer, *Graphical Enumeration*, 1973).
    """
    return (1 << math.comb(n, 2)) - sum(
        math.comb(n - 1, k - 1) * _count_connected(k) * (1 << math.comb(n - k, 2)) for k in range(1, n)
    )


def _balance_bound(n: int, degree_sums: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """B = N / (2N - 2m) * H, from the degree sums 2m; it equals mu at diameter <= 2.

    Given degree sums 2m - 2 it is the bound at T = 2N - 2m + 2, which holds at diameter >= 3.
    """
    pairs = n * (n - 1)
    return pairs / (2 * pairs - degree_sums) * hidden


@functools.cache
def _closed_form_degrees(n: int) -> np.ndarray:
    """Read-only degree rows: the stars on hubs 0..n-1, then K_n with and without edge (n-2, n-1)."""
    degrees = np.vstack([np.eye(n) * (n - 2) + 1.0, [n - 1.0] * n, [n - 1.0] * (n - 2) + [n - 2.0] * 2])
    degrees.setflags(write=False)
    return degrees


def _floor(n: int, p: float, weights: np.ndarray, tolerance: float) -> float:
    """L - tolerance, where L is the best mu of the complete graph and the n stars."""
    degrees = _closed_form_degrees(n)[: n + 1]
    best = _balance_bound(n, degrees.sum(axis=1), hidden_from_degrees(n, degrees, p, weights)).max()
    return float(best) - tolerance


def _edge_gate(n: int, p: float, weights: np.ndarray, floor: float) -> np.ndarray:
    """Open[m]: whether a connected mask with m edges may have a bound B at or above ``floor``.

    Row m is Bmax[m] + margin >= floor, for m = 0..C(n, 2), with Bmax from
    the ascending prefix sums of the edge scores w_i + w_j; ``_scan`` proves
    that no mask of a closed edge count reaches the floor.
    """
    scores = np.sort([weights[i] + weights[j] for i, j in _edge_slots(n)])
    least = np.concatenate([[0.0], np.cumsum(scores)])
    weight_sum = weights.sum()
    edges = np.arange(len(least))
    bmax = _balance_bound(n, 2 * edges, (1.0 - 1.0 / n) * weight_sum - p / n * least)
    margin = (2 * n + len(scores) + 16) * np.finfo(np.float64).eps * weight_sum
    return bmax + margin >= floor


def _scan_optimal_chunk(args) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
    """Connected masks of high part h, then the chunk's candidates.

    These are (masks within tolerance of the larger of the chunk's best
    scored balance and ``floor``, their mu). Only masks whose edge count the
    gate leaves open gather adjacency columns and take H and the bound B,
    and only masks whose B reaches ``floor`` are scored. A mask of diameter
    <= 2 scores its B; any other runs the distance loop only if its bound at
    T = 2N - 2m + 2 still reaches ``floor``, and each one's mu reads the H
    its bound used. A chunk with no such mask runs no distance loop.
    """
    n, h, p, weights, tolerance, floor, gate = args
    connected, edges = _connectivity(n, h)
    found = int(np.count_nonzero(connected))
    live = np.flatnonzero(connected & gate.take(edges))
    if len(live):
        low, high = _adjacency_tables(n)
        adj = low.take(live, axis=1) | high[:, h, None]
        hidden = hidden_from_degrees(n, _POPCOUNT.take(adj).T, p, weights)
        sums = 2 * edges.take(live).astype(np.int64)
        mu = _balance_bound(n, sums, hidden)
        reach = mu >= floor
        if not reach.all():
            live, hidden, sums, mu = live[reach], hidden[reach], sums[reach], mu[reach]
            adj = np.compress(reach, adj, axis=1)
    if not len(live):
        return found, (np.empty(0, dtype=np.int64), np.empty(0))
    # at diameter <= 2 mu is B; otherwise T >= 2N - 2m + 2, and a mask stays unscored (-inf)
    # unless its bound there reaches the floor
    far = np.flatnonzero(~_within_two(n, adj))
    if len(far):
        mu[far] = -np.inf
        far = far[_balance_bound(n, sums[far] - 2, hidden[far]) >= floor]
    if len(far):
        mu[far] = n * (n - 1) / _total_distances(n, adj.take(far, axis=1)) * hidden[far]
    # the scan's best is at least floor + tolerance, so this keeps every mask its filter keeps
    keep = mu >= max(mu.max(), floor) - tolerance
    return found, ((h << _LOW_SLOTS) + live[keep], mu[keep])


def _check_tolerance(tolerance: float) -> None:
    if not (_is_real(tolerance) and 0 <= tolerance < math.inf):  # also rejects NaN
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def _scan(
    n: int, p: float, weights: np.ndarray, tolerance: float, workers: int
) -> tuple[int, float, np.ndarray]:
    """Connected-graph count, the best mu and the masks within tolerance of it.

    The scan skips every mask that a bound proves is not in the result. Let
    N = n(n-1). A connected graph with m edges has N - 2m non-adjacent ordered
    pairs, each at least 2 apart, so T >= 2N - 2m, and its balance
    mu = N/T * H is at most B = N/(2N - 2m) * H, with H >= 0 a function of the
    degrees alone. The complete graph and the n stars have diameter <= 2, so
    each has mu = B; let L be the best of them. The best mu is at least L,
    so a mask with B < L - tolerance is neither the best nor within tolerance
    of it: only connected masks with B at or above that floor reach the
    distance loop. This holds in floating point too. A row's H is one left
    fold, with the same bits in any stack, so mu <= B exactly, both being
    one H times N/T <= N/(2N - 2m); and the complete graph and the stars are
    masks of the scan whose mu equals their bound in ``_floor`` bit for bit,
    so the best mu is at least L exactly.

    An edge-count gate keeps most masks from taking H at all. With W the sum
    of the weights (which is 1 only within the weights' tolerance), H is
    linear in the edges: H = (1 - 1/n) W - (p/n) * sum over edges ij of
    (w_i + w_j). So a graph with m edges has H <= Hmax[m] = (1 - 1/n) W -
    (p/n) S_m, where S_m sums the m least edge scores w_i + w_j, and
    B <= Bmax[m] = N/(2N - 2m) * Hmax[m]. ``_edge_gate`` closes m when
    Bmax[m] + margin < floor, all in floating point, with
    margin = (2n + C(n, 2) + 16) * 2u * W and u = 2^-53. To first order in u,
    with weights >= 0 and p in [0, 1]: a term of H is within 5u w_i of its
    value and the fold adds at most (n - 1)uW, so a mask's computed B is
    within (n + 6)uW of B; the edge scores, their sort and running sum, and
    the products leave the computed Bmax[m] within (n + m + 7)uW of Bmax[m];
    and the sum with the margin rounds by at most 2uW. The margin is about
    twice these together, which covers the second-order terms and the
    rounding of W itself, so a mask with a closed edge count has a computed
    B below the floor and would be dropped by its own bound. A mask with an
    open edge count still meets that bound, so the gate changes no result.

    Only masks of diameter >= 3 reach the distance loop, and not all of
    them. T - (2N - 2m) sums d(u, v) - 2 over the non-adjacent ordered
    pairs, so T = 2N - 2m exactly at diameter <= 2 (Erdos & Renyi 1962),
    and then mu = N/T * H is B, the same expression with the same bits. At
    diameter >= 3 some pair is 3 or more apart, in both orders, so
    T >= 2N - 2m + 2 and mu <= B' = N/(2N - 2m + 2) * H. This holds in
    floating point: rounding is monotone, so the computed N/T is at most
    the computed N/(2N - 2m + 2), and a product with H >= 0 keeps the
    order. A mask whose B' is below the floor is thus below it too, is in
    no result, and is not measured. A chunk keeps the masks within
    tolerance of the larger of its best scored mu and the floor L -
    tolerance; both are at most the scan's best, so every mask within
    tolerance of the latter is still among the chunk's candidates.

    Neither H nor L depends on the chunk, and the count of connected graphs
    comes from ``_count_connected``, so the worker count does not change the
    result.
    """
    floor = _floor(n, p, weights, tolerance)
    gate = _edge_gate(n, p, weights, floor)
    jobs = [(n, h, p, weights, tolerance, floor, gate) for h in range(_adjacency_tables(n)[1].shape[1])]
    results = run_chunks(_scan_optimal_chunk, jobs, workers)
    best = max((float(mu.max()) for _, (_, mu) in results if len(mu)), default=-math.inf)
    # swap each chunk's (masks, mu) for its kept masks as it is filtered, so the peak
    # holds 8 B per maximizer twice (kept and concatenated), not mu and copies besides
    for k, (_, (masks, mu)) in enumerate(results):
        results[k] = masks[mu >= best - tolerance]
    near = np.concatenate(results)
    near.setflags(write=False)
    return _count_connected(n), best, near


def find_optimal(
    n: int,
    params: SecrecyParams,
    tolerance: float = 1e-12,
    allow_large: bool = False,
    workers: int = 1,
) -> SearchResult:
    """Maximize the balance over every connected labeled graph on n vertices.

    Returns the maximum together with all maximizers within ``tolerance``
    of it; ties are reported, not broken, because at p = 1/2 the tie
    between the complete graph and the star is genuine. ``argmax_graphs`` holds
    the maximizers' edge masks in mask order and builds a graph only when one is read.
    At ``tolerance=0`` it may list only some labelings of a shape (see the module docstring).
    """
    _check_order(n, _order_cap(allow_large))
    _check_tolerance(tolerance)
    _check_type(params, SecrecyParams, "params")
    enumerated, best, masks = _scan(n, params.p, params.weights_for(n), tolerance, workers)
    return SearchResult(
        n=n,
        p=params.p,
        best_mu=best,
        argmax_graphs=_MaskGraphs(n, masks),
        graphs_enumerated=enumerated,
        tolerance=tolerance,
    )


_LEMMA_CLAIMS = {
    "complete_optimal": ("complete", 0.0, 0.5),
    "star_optimal": ("star", 0.5, 1.0),
}


def verify_lemma(
    which: str, n: int, p_grid: Sequence[float], tolerance: float = 1e-12
) -> LemmaReport:
    """Check a claimed-optimal structure against every connected graph.

    ``which`` selects the claim: ``complete_optimal`` (complete graph best
    for p in [0, 1/2]) or ``star_optimal`` (star best for p in [1/2, 1]).
    Each grid probability must lie in the claim's interval, and n in
    [2, ``LEMMA_MAX_ORDER``]. A row passes when the claimed structure's
    balance is at least every rival's balance minus ``tolerance``; on
    failure the row carries the strongest rival as its counterexample.

    Two rivals stand for all. Let N = n(n-1). A connected graph with m edges
    has N - 2m non-adjacent ordered pairs, each at least 2 apart, so its total
    distance is T >= 2N - 2m, with equality exactly at diameter <= 2. Uniform
    weights give H = (N - 2pm) / n^2 >= 0, so the balance N/T * H is at most
    f(m) = N (N - 2pm) / (2 n^2 (N - m)), which every graph of diameter <= 2
    with m edges attains. f'(m) = N^2 (1 - 2p) / (2 n^2 (N - m)^2) keeps one
    sign, so the best rival sits at an end of the rivals' edge range, where
    graphs of diameter <= 2 attain f: the star on hub n-1, and the complete
    graph less its last edge (complete claim) or the complete graph (star
    claim). At n = 2 no rival is left, and ``max_mu_other`` is -inf.

    Nothing is measured or built unless a row fails: at diameter <= 2 the
    balance is its bound N/(2N - 2m) * H, read from a ``_closed_form_degrees`` row.
    """
    if which not in _LEMMA_CLAIMS:
        raise ValueError(f"unknown claim {which!r}; expected 'complete_optimal' or 'star_optimal'")
    _check_order(n, LEMMA_MAX_ORDER)
    _check_tolerance(tolerance)
    kind, lo_p, hi_p = _LEMMA_CLAIMS[which]
    p_grid = _real_tuple(p_grid, "p_grid")
    for p in p_grid:
        if not lo_p <= p <= hi_p:
            raise ValueError(f"p={p} outside the stated interval [{lo_p}, {hi_p}] for {which}")

    claimed, dense = (n, n + 1) if kind == "complete" else (0, n)
    stack = _closed_form_degrees(n)[[claimed, n - 1, dense] if n > 2 else [claimed]]
    # uniform sharing weights, as the claims state; the grid is one (p, rows, n) stack: rows keep their bits
    hidden = hidden_from_degrees(n, stack, np.array(p_grid)[:, None, None], np.full(n, 1.0 / n))
    rows = []
    for p, (mu_claimed, *scores) in zip(p_grid, _balance_bound(n, stack.sum(axis=1), hidden).tolist()):
        max_other = max(scores, default=-math.inf)
        passed = mu_claimed >= max_other - tolerance
        counterexample = None
        if not passed:  # a structure of the table joins the pairs with an endpoint of degree n-1
            full = stack[1 + scores.index(max_other)] == n - 1
            counterexample = build_graph(n, edges=[(i, j) for i, j in _edge_slots(n) if full[i] or full[j]])
        rows.append(LemmaCheckRow(p, passed, mu_claimed, max_other, counterexample))
    return LemmaReport(which=which, n=n, tolerance=tolerance, rows=tuple(rows))
