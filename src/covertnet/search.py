"""Exhaustive search over connected graphs of small order.

Candidate structures are encoded as bitmasks over the C(n, 2) possible
edges, enumerated in ascending mask order. Enumeration is over labeled
graphs: correctness is easy to audit against the 2^C(n,2) subset count,
and the balance measure is invariant under relabeling anyway, so the only
effect is that maximizer sets list every labeling of a shape.

The mask space is partitioned into fixed-size chunks, and every mask of a
chunk is evaluated at once by numpy bitset arithmetic (``_chunk_stats``).
Maximizers stay int64 edge masks up to the caller, and a ``Graph`` is built
only for one that is read. Chunks may be processed by parallel workers;
chunk boundaries never depend on the worker count and results are merged
in chunk order, so any worker count yields bit-identical results.
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
from .graph import Graph, _is_int, build_graph
from .measures import SecrecyParams, balance, hidden_from_degrees, make_structure

#: Orders above this need allow_large=True; 8 is the hard cap (2^28 subsets).
DEFAULT_MAX_ORDER = 7
HARD_MAX_ORDER = 8

_CHUNK_MASKS = 1 << 12


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


def _check_order(n: int, allow_large: bool) -> None:
    cap = HARD_MAX_ORDER if allow_large else DEFAULT_MAX_ORDER
    if not _is_int(n) or not 2 <= n <= cap:
        raise ValueError(
            f"order must be an integer in [2, {cap}]"
            f"{' (pass allow_large=True for 8)' if not allow_large else ''}, got {n}"
        )


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
    _check_order(n, allow_large)

    def generate() -> Iterator[Graph]:
        for lo, hi in _chunk_ranges(n):
            for mask in _chunk_stats(n, lo, hi)[0].tolist():
                yield _graph_from_mask(mask, n)

    return generate()


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _chunk_stats(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected masks in [lo, hi) with their total distances and degrees.

    Every mask of the chunk is evaluated at once. Row v of ``adj`` holds
    vertex v's neighbours as one uint8 bitset per mask (n <= 8), and row s
    of ``reach`` the vertices within the current level of source s; a level
    grows each ball by the balls of the source's neighbours. An ordered
    pair adds one to the total distance for each level at which it is still
    unreached, so T = sum over levels 0..n-2 of (n^2 - |reach|), and a mask
    is connected when every source reaches all n vertices by level n-1.
    Returns the masks (int64), T (float64) and the degree rows (float64,
    shape (masks, n)) of the connected masks, in mask order.
    """
    masks = np.arange(lo, hi, dtype=np.int64)
    adj = np.zeros((n, len(masks)), dtype=np.uint8)
    for k, (i, j) in enumerate(_edge_slots(n)):
        edge = (masks >> k & 1).astype(np.uint8)
        adj[i] |= edge << j
        adj[j] |= edge << i
    # near[v][s] is 0xFF where v is a neighbour of s, else 0
    near = [(adj >> v & 1) * np.uint8(0xFF) for v in range(n)]
    reach = np.repeat((1 << np.arange(n, dtype=np.uint8))[:, None], len(masks), axis=1)
    reached = np.zeros_like(reach)  # at most n per level over n-1 levels: fits uint8
    for _ in range(n - 1):
        reached += _POPCOUNT.take(reach)
        grown = reach.copy()
        for v in range(n):
            grown |= near[v] & reach[v]
        reach = grown
    totals = (n - 1) * n * n - reached.sum(axis=0, dtype=np.int64)
    connected = (reach == (1 << n) - 1).all(axis=0)
    # row-major like one degree vector per row: the H matmul's summation order follows layout
    degrees = _POPCOUNT.take(adj[:, connected].T).astype(np.float64, order="C")
    return masks[connected], totals[connected].astype(np.float64), degrees


def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    space = 1 << len(_edge_slots(n))
    return [(lo, min(lo + _CHUNK_MASKS, space)) for lo in range(0, space, _CHUNK_MASKS)]


def _scan_optimal_chunk(args) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """Connected masks in [lo, hi), then per grid p the chunk's candidates.

    Each is (masks within tolerance of the chunk's best balance, their mu), empty
    without one. ``skip_mask`` is counted as connected but is never a candidate.
    """
    n, lo, hi, p_grid, weights, skip_mask, tolerance = args
    masks, totals, degrees = _chunk_stats(n, lo, hi)
    count = len(masks)
    other = masks != skip_mask
    masks, degrees, weights = masks[other], degrees[other], np.asarray(weights)
    info = n * (n - 1) / totals[other]
    out = []
    for p in p_grid:
        mu = info * hidden_from_degrees(n, degrees, p, weights)
        keep = mu >= mu.max(initial=-math.inf) - tolerance
        out.append((masks[keep], mu[keep]))
    return count, out


def _check_tolerance(tolerance: float) -> None:
    if not 0 <= tolerance < math.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")


def _scan(
    n: int,
    p_grid: tuple[float, ...],
    weights: tuple[float, ...],
    tolerance: float,
    workers: int,
    skip_mask: int = -1,
) -> tuple[int, list[tuple[float, np.ndarray]]]:
    """Connected-graph count, then per p the best mu (or -inf) and the masks within tolerance."""
    jobs = [(n, lo, hi, p_grid, weights, skip_mask, tolerance) for lo, hi in _chunk_ranges(n)]
    results = run_chunks(_scan_optimal_chunk, jobs, workers)
    per_p = []
    for chunks in zip(*[per for _, per in results]):
        best = max((float(mu.max()) for _, mu in chunks if len(mu)), default=-math.inf)
        near = np.concatenate([masks[mu >= best - tolerance] for masks, mu in chunks])
        near.setflags(write=False)
        per_p.append((best, near))
    return sum(count for count, _ in results), per_p


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
    """
    _check_order(n, allow_large)
    _check_tolerance(tolerance)
    weights = tuple(params.weights_for(n))
    enumerated, [(best, masks)] = _scan(n, (params.p,), weights, tolerance, workers)
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
    which: str,
    n: int,
    p_grid: list[float],
    tolerance: float = 1e-12,
    allow_large: bool = False,
    workers: int = 1,
) -> LemmaReport:
    """Check a claimed-optimal structure against every connected graph.

    ``which`` selects the claim: ``complete_optimal`` (complete graph best
    for p in [0, 1/2]) or ``star_optimal`` (star best for p in [1/2, 1]).
    Each grid probability must lie in the claim's interval. A row passes
    when the claimed structure's balance is at least every competitor's
    balance minus ``tolerance``; on failure the row carries the strongest
    counterexample graph.
    """
    if which not in _LEMMA_CLAIMS:
        raise ValueError(
            f"unknown claim {which!r}; expected 'complete_optimal' or 'star_optimal'"
        )
    _check_order(n, allow_large)
    _check_tolerance(tolerance)
    kind, lo_p, hi_p = _LEMMA_CLAIMS[which]
    p_grid = [float(p) for p in p_grid]
    for p in p_grid:
        if not lo_p <= p <= hi_p:
            raise ValueError(
                f"p={p} outside the stated interval [{lo_p}, {hi_p}] for {which}"
            )

    claimed = make_structure(kind, n)
    claimed_mask = sum(1 << _edge_slots(n).index((s, t)) for s, t, _ in claimed.edges)
    # the optimality claims are stated for uniform sharing weights
    weights = tuple(np.full(n, 1.0 / n))

    # tolerance 0 keeps exactly the strongest rivals; the first is the counterexample
    _, best_other = _scan(n, tuple(p_grid), weights, 0.0, workers, skip_mask=claimed_mask)

    rows = []
    for p, (max_other, rivals) in zip(p_grid, best_other):
        mu_claimed = balance(claimed, SecrecyParams(p)).mu
        passed = mu_claimed >= max_other - tolerance
        counterexample = None if passed else _graph_from_mask(int(rivals[0]), n)
        rows.append(
            LemmaCheckRow(
                p=p,
                passed=passed,
                mu_claimed=mu_claimed,
                max_mu_other=max_other,
                counterexample=counterexample,
            )
        )
    return LemmaReport(which=which, n=n, tolerance=tolerance, rows=tuple(rows))
