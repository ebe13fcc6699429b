"""Correctness checks for every benchmark op.

Expected values come from code that shares nothing with covertnet:
``scipy.sparse.csgraph.shortest_path`` for distances, closed forms for the
complete graph and the star, a token-to-actor inverted index for rosters,
and an edge-list product for one-period detection. Each ``check_*``
returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

#: Connected labeled graphs per order (OEIS A001187).
CONNECTED_LABELED = {3: 4, 4: 38, 5: 728, 6: 26704}
#: Connected labeled graphs of diameter <= 2 on 6 vertices; at p = 1/2 the
#: balance depends on neither T nor m beyond that, so all of them tie.
DIAMETER2_LABELED_6 = 10924

TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


# --- distances -------------------------------------------------------------


@dataclass(frozen=True)
class MetricsExpect:
    """What ``metrics`` must print for one graph file."""

    n: int
    m: int
    p: float
    T_hop: float
    D_hop: float
    T_weighted: float
    D_weighted: float
    rings: dict[str, list[int]]
    vertex: int

    @property
    def ring_count(self) -> int:
        return len(self.rings)


def metrics_expect(doc: dict, p: float, vertex: int) -> MetricsExpect:
    """Distances of a graph document from scipy's shortest_path."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = doc["n"]
    rows = [e[0] for e in doc["edges"]]
    cols = [e[1] for e in doc["edges"]]
    weights = [e[2] if len(e) == 3 else 1.0 for e in doc["edges"]]
    adj = csr_matrix((weights, (rows, cols)), shape=(n, n))
    hop = shortest_path(adj, directed=False, unweighted=True)
    weighted = shortest_path(adj, directed=False)
    row = hop[vertex]
    rings = {str(int(d)): [int(j) for j in np.flatnonzero(row == d)] for d in np.unique(row)}
    return MetricsExpect(
        n=n,
        m=len(doc["edges"]),
        p=p,
        T_hop=float(hop.sum()),
        D_hop=float(hop.max()),
        T_weighted=float(weighted.sum()),
        D_weighted=float(weighted.max()),
        rings=rings,
        vertex=vertex,
    )


def check_metrics(expect: MetricsExpect, mode: str, rc: int, out: str) -> str | None:
    """``mode`` is plain, community or weighted."""
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    if (doc["n"], doc["m"], doc["connected"]) != (expect.n, expect.m, True):
        return "n, m or connectivity differ"
    weighted = mode == "weighted"
    T = expect.T_weighted if weighted else expect.T_hop
    D = expect.D_weighted if weighted else expect.D_hop
    if doc["T"] != T or doc["D"] != D:
        return f"T, D = {doc['T']}, {doc['D']}; expected {T}, {D}"
    n = expect.n
    K = n * (n - 1) / expect.T_hop
    H = 1.0 - (2 * expect.p * expect.m + n) / n**2
    if not (_close(doc["K"], K) and _close(doc["H"], H) and _close(doc["mu"], K * H)):
        return "K, H or mu differ from the closed forms"
    if mode == "community" and doc.get("communities") != expect.rings:
        return f"communities around vertex {expect.vertex} differ"
    return None


# --- structure search ------------------------------------------------------


def balance_complete(n: int, p: float, weights) -> float:
    return sum(w * (1.0 - (p * (n - 1) + 1.0) / n) for w in weights)


def balance_star(n: int, p: float, weights, hub: int) -> float:
    K = n / (2.0 * (n - 1))
    H = sum(w * (1.0 - (p * ((n - 1) if i == hub else 1) + 1.0) / n) for i, w in enumerate(weights))
    return K * H


def is_star(edges, n: int) -> bool:
    if len(edges) != n - 1:
        return False
    common = set(edges[0]).intersection(*map(set, edges))
    return len(common) == 1


def check_optimal(n: int, p: float, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    if doc["graphs_enumerated"] != CONNECTED_LABELED[n]:
        return f"graphs_enumerated {doc['graphs_enumerated']} != {CONNECTED_LABELED[n]}"
    uniform = [1.0 / n] * n
    mu_complete = balance_complete(n, p, uniform)
    mu_star = balance_star(n, p, uniform, 0)
    complete = [list(e) for e in combinations(range(n), 2)]
    shown = doc["maximizers"]
    if p <= 0.5 and not _close(doc["best_mu"], mu_complete):
        return f"best_mu {doc['best_mu']} != complete-graph balance {mu_complete}"
    if p >= 0.5 and not _close(doc["best_mu"], mu_star):
        return f"best_mu {doc['best_mu']} != star balance {mu_star}"
    if p < 0.5 and complete not in shown:
        return "complete graph missing from the maximizers"
    if p >= 0.5 and not any(is_star(g, n) for g in shown):
        return "no star among the maximizers"
    if p == 0.5 and n == 6 and doc["maximizer_count"] != DIAMETER2_LABELED_6:
        return f"maximizer_count {doc['maximizer_count']} != {DIAMETER2_LABELED_6} at p=1/2"
    return None


def check_verify(n_max: int, grid_points: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    rows = doc["rows"]
    expected_rows = (n_max - 2) * 2 * grid_points
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected {expected_rows}"
    if not doc["all_passed"] or not all(r["passed"] for r in rows):
        return "a lemma row failed"
    return None


def weighted_lower_bound(n: int, p: float, weights) -> float:
    """Best balance among the complete graph and every star."""
    return max([balance_complete(n, p, weights)] + [balance_star(n, p, weights, h) for h in range(n)])


def check_weighted_search(n: int, lower_bound: float, result) -> str | None:
    if result.graphs_enumerated != CONNECTED_LABELED[n]:
        return f"graphs_enumerated {result.graphs_enumerated} != {CONNECTED_LABELED[n]}"
    if result.best_mu < lower_bound - TOL:
        return f"best_mu {result.best_mu} below the complete/star bound {lower_bound}"
    if not result.argmax_graphs or any(g.n != n for g in result.argmax_graphs):
        return "maximizer set empty or of the wrong order"
    return None


# --- detection -------------------------------------------------------------


def exact_detection(n: int, edges, alphas, gamma: float) -> np.ndarray:
    """One-period one-hop detection probability of every member."""
    a = np.asarray(alphas, dtype=float)
    log_hidden = np.log1p(-a)
    for s, t, *_ in edges:
        log_hidden[t] += math.log1p(-a[s] * gamma)
        log_hidden[s] += math.log1p(-a[t] * gamma)
    return -np.expm1(log_hidden)


def check_exact(prob: np.ndarray, cost_k: float, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    got = np.asarray(doc["per_member_prob"])
    if doc["mode"] != "exact" or got.shape != prob.shape:
        return "not an exact report for this graph"
    if not np.allclose(got, prob, rtol=1e-9, atol=1e-12):
        return "per-member probabilities differ from the closed form"
    expected = float(prob.sum())
    if not (_close(doc["expected_detected"], expected) and _close(doc["expected_cost"], cost_k * expected)):
        return "expected_detected or expected_cost differ"
    return None


class MonteCarloCheck:
    """Same seed, same bytes; one-period one-hop within 5 stderr of exact.

    The first output seen for each op kind becomes that kind's reference.
    """

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}

    def __call__(self, kind: str, exact_expected: float | None, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if self.reference.setdefault(kind, out) != out:
            return "stdout differs from an earlier run with the same seed"
        doc = json.loads(out)
        if doc["mode"] != "monte_carlo" or not doc["stderr"] > 0:
            return "not a Monte Carlo report with a positive stderr"
        if exact_expected is not None:
            gap = abs(doc["expected_detected"] - exact_expected)
            if gap > 5 * doc["stderr"]:
                return f"expected_detected is {gap / doc['stderr']:.1f} stderr from exact"
        return None


# --- affiliation -----------------------------------------------------------


def affiliation_edges(actors: list[dict], threshold: int) -> list[list]:
    """Tie list from a token-to-actor inverted index (unit: overlap count)."""
    index: dict[str, list[int]] = defaultdict(list)
    for i, actor in enumerate(actors):
        for token in {t.strip().casefold() for t in actor["generators"]} - {""}:
            index[token].append(i)
    overlap: Counter = Counter()
    for holders in index.values():
        overlap.update(combinations(holders, 2))
    return sorted([s, t, float(c)] for (s, t), c in overlap.items() if c >= threshold)


def check_build(ids: list[str], edges: list[list], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    if doc["n"] != len(ids) or doc["labels"] != ids:
        return "vertex count or labels differ from the roster"
    if doc["edges"] != edges:
        return f"{len(doc['edges'])} edges, expected {len(edges)} (or different ties)"
    return None
