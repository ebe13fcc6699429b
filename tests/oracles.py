"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's algorithms:

* shortest distances come from exhaustive depth-first enumeration of simple
  paths (the library relaxes the arcs of every source at once until no
  weighted distance falls),
* hop counts on graphs too large to enumerate come from a queue-driven
  breadth-first search from each source in turn (the library sweeps every
  source at once, level by level, over rows of 64-bit words),
* weighted distances on graphs too large to enumerate come from a heap
  Dijkstra search from each source in turn (the library relaxes every
  source at once, in buckets of distance),
* connectivity inside the subset counter uses union-find (the library takes
  the reach of every vertex from one Warshall pass over bitsets), and the
  scan's rows take it from that pass on adjacency built slot by slot from
  each mask's bits (the library reads both from per-order tables),
* detection probabilities come from enumerating every combination of
  direct and indirect draws (the library uses a closed form),
* multi-period and cascade detection probabilities come from an exact
  Markov chain over detected sets (the library samples them),
* that closed form is replayed by a sequential loop over the (detector,
  target) pairs (the library multiplies every factor in one scatter),
* a Monte Carlo chunk is replayed trial by trial, one word at a time, with
  direct catches found by a scan of the running hazards and cascades by a
  worklist (the library steps every trial at once, by binary search, and
  sweeps cascades one bit per trial),
* affiliation ties come from intersecting the token sets of every actor
  pair (the library counts overlaps from a token index),
* a lemma check's strongest rival comes from scoring every connected graph
  of the order (the library scores two rivals that a bound proves enough),
* the optimal-structure scan scores every connected mask, and counts them
  (the library scores only the masks that the degree bound keeps, and
  counts connected graphs by a recurrence).

Oracles read only the public fields of a Graph (n, directed, edges).
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import random
from collections.abc import Iterator

import numpy as np

from covertnet import search
from covertnet.graph import Graph, build_graph
from covertnet.measures import SecrecyParams, balance, hidden_from_degrees, make_structure


def brute_force_apsp(g: Graph, hop_mode: bool = True) -> np.ndarray:
    """All-pairs shortest distances by exhaustive simple-path search.

    Depth-first enumeration of simple paths with branch-and-bound pruning
    (a partial path already as long as the best known distance to the
    target cannot improve the minimum; weights are nonnegative).
    """
    n = g.n
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, t, w in g.edges:
        step = 1.0 if hop_mode else w
        adj[s].append((t, step))
        if not g.directed:
            adj[t].append((s, step))

    dist = np.full((n, n), math.inf)
    for source in range(n):
        dist[source, source] = 0.0
        for target in range(n):
            if target == source:
                continue
            best = math.inf
            stack = [(source, 0.0, 1 << source)]
            while stack:
                u, length, visited = stack.pop()
                for v, step in adj[u]:
                    if visited & (1 << v):
                        continue
                    nl = length + step
                    if nl >= best:
                        continue
                    if v == target:
                        best = nl
                    else:
                        stack.append((v, nl, visited | (1 << v)))
            dist[source, target] = best
    return dist


def bfs_hops(g: Graph) -> np.ndarray:
    """All-pairs hop counts by a breadth-first search from each source in turn."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for s, t, _ in g.edges:
        adj[s].append(t)
        if not g.directed:
            adj[t].append(s)
    dist = np.full((g.n, g.n), math.inf)
    for source in range(g.n):
        hops = {source: 0}
        queue = collections.deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        for v, h in hops.items():
            dist[source, v] = h
    return dist


def dijkstra_apsp(g: Graph) -> np.ndarray:
    """All-pairs weighted distances by a heap Dijkstra search from each source in turn.

    Each distance is summed from the source outward, one edge weight at a
    time, so it is the least such float sum over the pair's paths.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for s, t, w in g.edges:
        adj[s].append((t, w))
        if not g.directed:
            adj[t].append((s, w))
    dist = np.full((g.n, g.n), math.inf)
    for source in range(g.n):
        best = {source: 0.0}
        done = set()
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                if d + w < best.get(v, math.inf):
                    best[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        for v, d in best.items():
            dist[source, v] = d
    return dist


def _union_find_connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    root = find(0)
    return all(find(v) == root for v in range(n))


def count_connected_graphs(n: int) -> int:
    """Count connected labeled graphs on n vertices by filtering all edge subsets."""
    slots = list(itertools.combinations(range(n), 2))
    count = 0
    for bits in range(1 << len(slots)):
        chosen = [slots[k] for k in range(len(slots)) if bits >> k & 1]
        if _union_find_connected(n, chosen):
            count += 1
    return count


def _directed_pairs(g: Graph) -> list[tuple[int, int]]:
    """Every (detector, target) pair of ``g``: both ways for an undirected tie, sorted."""
    pairs = [(s, t) for s, t, _ in g.edges]
    if not g.directed:
        pairs += [(t, s) for s, t in pairs]
    return sorted(pairs)


def detection_joint_enumeration(
    g: Graph, alphas: list[float], gamma: float
) -> np.ndarray:
    """Per-member one-period detection probabilities by full joint enumeration.

    Sums over every combination of the N direct Bernoulli draws and the
    per-(detector, target) indirect draws; a member is detected when its own
    direct draw succeeds or some detector with an information edge toward it
    is directly detected and the pair's indirect draw succeeds.
    """
    n = g.n
    pairs = _directed_pairs(g)
    npairs = len(pairs)

    direct = np.array(
        [[bits >> i & 1 for i in range(n)] for bits in range(1 << n)], dtype=bool
    )
    a = np.asarray(alphas)
    p_direct = np.prod(np.where(direct, a, 1.0 - a), axis=1)

    indirect = np.array(
        [[bits >> k & 1 for k in range(npairs)] for bits in range(1 << npairs)],
        dtype=bool,
    )
    p_indirect = np.prod(np.where(indirect, gamma, 1.0 - gamma), axis=1)

    prob = np.zeros(n)
    # (direct outcome, indirect outcome) grid; weights are outer products
    weight = np.outer(p_direct, p_indirect)
    for j in range(n):
        caught = np.broadcast_to(direct[:, j][:, None], weight.shape).copy()
        for k, (src, dst) in enumerate(pairs):
            if dst == j:
                caught |= direct[:, src][:, None] & indirect[:, k][None, :]
        prob[j] = weight[caught].sum()
    return prob


def reference_detect_exact(g: Graph, alphas: tuple[float, ...], gamma: float) -> tuple[float, ...]:
    """One-period, one-hop detection probabilities by a loop over the pairs.

    Target j's hidden probability starts at 1 - alpha_j and takes one factor
    1 - alpha_i * gamma per (detector i, target j) pair, in ascending pair
    order, the order in which ``detection.detect_exact`` multiplies.
    """
    hidden = [1.0 - a for a in alphas]
    for i, j in _directed_pairs(g):
        hidden[j] *= 1.0 - alphas[i] * gamma
    return tuple(1.0 - h for h in hidden)


def detection_chain(
    g: Graph, alphas, gamma: float, periods: int, cascade: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-member detection probabilities and detected-count distribution.

    A Markov chain over the detected set S, held as a bitmask with its
    probability. One period enumerates every outcome D of the hidden members'
    direct draws. One hop, each hidden target outside D is then caught with
    1 - (1 - gamma)^k, where k counts the pairs from D into it; given D the
    targets are independent, so no pair is enumerated. Under cascade, every
    open subset of the pairs that run from a hidden member to a hidden target
    outside D is enumerated, and S gains what D reaches through the open
    pairs. Detected members are never drawn again. Sized for n <= 6 and about
    10 such pairs; larger instances are refused.
    """
    n = g.n
    if n > 6:
        raise ValueError(f"the chain enumerates 2**n direct outcomes; n={n} is too many")
    pairs = _directed_pairs(g)
    states = {0: 1.0}
    for _ in range(periods):
        after: dict[int, float] = collections.defaultdict(float)
        for seen, p_seen in states.items():
            hidden = [i for i in range(n) if not seen >> i & 1]
            for bits in range(1 << len(hidden)):
                direct, p_direct = 0, p_seen
                for k, i in enumerate(hidden):
                    if bits >> k & 1:
                        direct |= 1 << i
                        p_direct *= alphas[i]
                    else:
                        p_direct *= 1.0 - alphas[i]
                if p_direct == 0.0:
                    continue
                spread = _cascade_spread if cascade else _one_hop_spread
                for caught, p_caught in spread(pairs, seen, direct, gamma).items():
                    after[seen | direct | caught] += p_direct * p_caught
        states = after
    member = np.zeros(n)
    count = np.zeros(n + 1)
    for seen, p in states.items():
        for i in range(n):
            if seen >> i & 1:
                member[i] += p
        count[bin(seen).count("1")] += p
    return member, count


def _one_hop_spread(pairs, seen, direct, gamma) -> dict[int, float]:
    """Distribution of the set one hop catches from ``direct``, targets independent."""
    outcomes = {0: 1.0}
    for j in sorted({t for s, t in pairs if direct >> s & 1 and not (seen | direct) >> t & 1}):
        k = sum(1 for s, t in pairs if t == j and direct >> s & 1)
        q = 1.0 - (1.0 - gamma) ** k
        split: dict[int, float] = collections.defaultdict(float)
        for caught, p in outcomes.items():
            split[caught | 1 << j] += p * q
            split[caught] += p * (1.0 - q)
        outcomes = split
    return outcomes


def _cascade_spread(pairs, seen, direct, gamma) -> dict[int, float]:
    """Distribution of the set a cascade reaches from ``direct`` over open pairs."""
    closed = seen | direct
    live = [(s, t) for s, t in pairs if not seen >> s & 1 and not closed >> t & 1]
    if len(live) > 12:
        raise ValueError(f"the chain enumerates 2**{len(live)} pair outcomes; too many")
    outcomes: dict[int, float] = collections.defaultdict(float)
    for bits in range(1 << len(live)):
        p = 1.0
        out = collections.defaultdict(list)
        for k, (s, t) in enumerate(live):
            if bits >> k & 1:
                p *= gamma
                out[s].append(t)
            else:
                p *= 1.0 - gamma
        reached, queue = 0, [s for s in range(direct.bit_length()) if direct >> s & 1]
        while queue:
            for t in out[queue.pop()]:
                if not (closed | reached) >> t & 1:
                    reached |= 1 << t
                    queue.append(t)
        outcomes[reached] += p
    return outcomes


def reference_simulate_chunk(args, region_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial-by-trial, period-by-period replay of a ``detection._simulate_chunk`` job.

    Same job tuple and same words of the PCG64DXSM stream seeded by the
    job's seed as the library, consumed one at a time from each
    trial-period's sequence. With n members and m pairs (the job's arcs),
    word i < R of trial t's period p, R the lesser of ``region_words`` and
    n + m, is word (t * periods + p) * R + i of the stream; word i >= R is
    word 2**127 + t * stride + p * (n + m) + i. Both are drawn whole, from a
    fresh generator advanced to the chunk's first word. In a period:

    * a hidden or detected member with alpha 1 is caught without a word;
    * with L the running sums of -log1p(-alpha) over the members (alpha 1
      counting 0), and pos = 0, each next word u gives x = pos - log1p(-u), the
      catch is the first member j whose L_j exceeds x, found by a scan, and
      pos = L_j; the row draws no word once no L exceeds pos;
    * one hop, each member caught directly and hidden before, in ascending
      order, gives each of its pairs, in pair order, the next word, and the
      pair's hidden target is caught when the word is below gamma;
    * under cascade, if any member was newly caught directly, pair k takes
      the word after the direct ones plus k, and the catches spread along
      the pairs whose word is below gamma, from a worklist.
    """
    (n, arcs, alphas, gamma, cascade, periods, seed, stride, lo, hi) = args
    pairs = list(zip(arcs[0].tolist(), arcs[1].tolist()))
    m = len(pairs)
    region = min(region_words, n + m)
    rows = hi - lo

    def stream(origin: int) -> np.random.Generator:
        bitgen = np.random.PCG64DXSM(seed)
        bitgen.advance(origin)
        return np.random.Generator(bitgen)

    regions = stream(lo * periods * region).random((rows, periods, region))
    blocks = stream((1 << 127) + lo * stride).random((rows, stride)) if n + m > region else None
    hazard = -np.log1p(-np.array([0.0 if a == 1.0 else a for a in alphas]))
    level = list(itertools.accumulate(hazard.tolist()))
    member_counts = np.zeros(n, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    for t in range(rows):
        detected: set[int] = set()
        for p in range(periods):
            rest = [] if blocks is None else blocks[t, p * (n + m) + region : (p + 1) * (n + m)].tolist()
            sequence = itertools.chain(regions[t, p].tolist(), rest)
            direct = {i for i in range(n) if alphas[i] == 1.0}
            pos = 0.0
            while any(x > pos for x in level):
                x = pos - float(np.log1p(-np.float64(next(sequence))))
                caught = next((j for j in range(n) if level[j] > x), None)
                if caught is None:
                    break
                direct.add(caught)
                pos = level[caught]
            frontier = direct - detected
            detected |= frontier
            if cascade and frontier:
                opened = [next(sequence) < gamma for _ in pairs]
                queue = sorted(frontier)
                while queue:
                    i = queue.pop()
                    for (s, j), gate in zip(pairs, opened):
                        if s == i and gate and j not in detected:
                            detected.add(j)
                            queue.append(j)
            elif not cascade:
                found = set()
                for i in sorted(frontier):
                    for s, j in pairs:
                        if s == i and next(sequence) < gamma and j not in detected:
                            found.add(j)
                detected |= found
        for j in detected:
            member_counts[j] += 1
        hist[len(detected)] += 1
    return member_counts, hist


def reference_affiliation_edges(roster, rule) -> tuple[tuple[int, int, float], ...]:
    """Affiliation ties by intersecting the token sets of every actor pair.

    Pairs are visited as (i, j) with i < j in roster order; a pair is tied
    when its overlap reaches ``rule.threshold``, weighted by the overlap or
    by 1 as ``rule.weight_mode`` says.
    """
    edges = []
    for i in range(len(roster)):
        for j in range(i + 1, len(roster)):
            overlap = len(roster[i].generators & roster[j].generators)
            if overlap >= rule.threshold:
                weight = float(overlap) if rule.weight_mode == "overlap_count" else 1.0
                edges.append((i, j, weight))
    return tuple(edges)


def mask_adjacency(n: int, masks: np.ndarray) -> np.ndarray:
    """Adjacency rows (uint8, (n, masks)) of int64 edge masks: bit j of row i is set for each edge ij.

    Built slot by slot over the lexicographic pairs, from each mask's own
    bits, so it judges the search's per-order tables rather than reading them.
    """
    adj = np.zeros((n, len(masks)), dtype=np.uint8)
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        edge = (masks >> k & 1).astype(np.uint8)
        adj[i] |= edge << j
        adj[j] |= edge << i
    return adj


def chunk_stats(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected masks in [lo, hi) with their total distances and degrees.

    Returns the masks (int64), T (float64) and the degree rows (float64,
    shape (masks, n)) of the connected masks, in mask order, from the
    search's distance kernel; ``TestChunkStats`` pins them to the graph
    distances. The adjacency comes from ``mask_adjacency`` and connectivity
    from its closure, not from the search's per-order tables, so that scans
    judged against these rows judge the tables too.
    """
    window = np.arange(lo, hi, dtype=np.int64)
    adj = mask_adjacency(n, window)
    connected = search._closure(n, adj)[0] == (1 << n) - 1
    adj = np.compress(connected, adj, axis=1)
    degrees = search._POPCOUNT.take(adj).T.astype(np.float64)
    return window[connected], search._total_distances(n, adj).astype(np.float64), degrees


#: Rows of an order's tables scored at once; bounds an oracle's float64 scratch.
_ORACLE_ROWS = 1 << 16


@functools.cache
def _order_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``chunk_stats`` of every mask of order n, joined and kept: T as uint16, degree rows as uint8.

    The masks are taken ``_ORACLE_ROWS`` at a time. T is at most (n - 1) n^2
    and a degree at most n - 1, so both are exact; at n = 7 the tables hold
    about 32 MB.
    """
    space = 1 << math.comb(n, 2)
    parts = [
        (masks, totals.astype(np.uint16), degrees.astype(np.uint8))
        for masks, totals, degrees in (
            chunk_stats(n, lo, min(lo + _ORACLE_ROWS, space)) for lo in range(0, space, _ORACLE_ROWS)
        )
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def order_stats(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``chunk_stats`` over every connected mask of order n, in slices of ascending masks.

    The tables are computed once per order and kept, so an oracle called
    for many examples of one order pays for them once.
    """
    masks, totals, degrees = _order_tables(n)
    for lo in range(0, len(masks), _ORACLE_ROWS):
        rows = slice(lo, lo + _ORACLE_ROWS)
        yield masks[rows], totals[rows].astype(np.float64), degrees[rows].astype(np.float64)


def reference_lemma_rows(
    which: str, n: int, p_grid, tolerance: float = 1e-12
) -> list[tuple[float, bool, float, float]]:
    """(p, passed, mu_claimed, max_mu_other) per grid p, by scanning every edge mask.

    The rivals are every connected graph on n vertices but the claimed
    structure, scored with uniform weights from ``order_stats`` rows;
    ``max_mu_other`` is -inf when there is none. The claimed structure is
    scored by ``balance``, and a row passes when it is within ``tolerance``
    of the best rival.
    """
    kind = search._LEMMA_CLAIMS[which][0]
    claimed = make_structure(kind, n)
    slots = list(itertools.combinations(range(n), 2))
    claimed_mask = sum(1 << slots.index((s, t)) for s, t, _ in claimed.edges)
    weights = np.full(n, 1.0 / n)
    best = [-math.inf] * len(p_grid)
    for masks, totals, degrees in order_stats(n):
        other = masks != claimed_mask
        info = n * (n - 1) / totals[other]
        for k, p in enumerate(p_grid):
            mu = info * hidden_from_degrees(n, degrees[other], p, weights)
            best[k] = max(best[k], float(mu.max(initial=-math.inf)))
    rows = []
    for p, max_other in zip(p_grid, best):
        mu_claimed = balance(claimed, SecrecyParams(p)).mu
        rows.append((p, mu_claimed >= max_other - tolerance, mu_claimed, max_other))
    return rows


def reference_scan(n: int, p: float, weights, tolerance: float) -> tuple[int, float, np.ndarray]:
    """(connected count, best mu, masks within tolerance of it) with no bound.

    Every connected mask is scored as mu = N/T * H from ``order_stats``
    rows and counted; the masks come out in ascending order.
    """
    weights = np.asarray(weights)
    count, best, scored = 0, -math.inf, []
    for masks, totals, degrees in order_stats(n):
        mu = n * (n - 1) / totals * hidden_from_degrees(n, degrees, p, weights)
        count += len(masks)
        best = max(best, float(mu.max(initial=-math.inf)))
        scored.append((masks, mu))
    return count, best, np.concatenate([masks[mu >= best - tolerance] for masks, mu in scored])


# Weight grid for randomized weighted-distance tests. Dyadic values keep
# every path sum exactly representable, so independently computed minima
# agree bit for bit.
WEIGHT_GRID = tuple(k / 4.0 for k in range(1, 17))


def random_graph(rng: random.Random, n: int, weighted: bool = False) -> Graph:
    """Random simple undirected graph (possibly disconnected)."""
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < rng.uniform(0.2, 0.9):
            w = rng.choice(WEIGHT_GRID) if weighted else 1.0
            edges.append((i, j, w))
    return build_graph(n, directed=False, edges=edges)


def random_connected_graph(rng: random.Random, n: int, weighted: bool = False) -> Graph:
    """Random connected undirected graph: a random spanning tree plus extras."""
    order = list(range(n))
    rng.shuffle(order)
    chosen: dict[tuple[int, int], float] = {}
    for idx in range(1, n):
        a = order[idx]
        b = order[rng.randrange(idx)]
        key = (min(a, b), max(a, b))
        chosen[key] = rng.choice(WEIGHT_GRID) if weighted else 1.0
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in chosen and rng.random() < 0.3:
            chosen[(i, j)] = rng.choice(WEIGHT_GRID) if weighted else 1.0
    return build_graph(n, edges=[(i, j, w) for (i, j), w in chosen.items()])
