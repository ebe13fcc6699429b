"""Seeded input generators.

Every generator takes a ``random.Random`` built from the workload seed and
nothing else, so the same seed gives the same inputs; ``write_json`` and
``write_vector`` serialize deterministically, so the files are
byte-identical too. Graphs are connected by construction (a random
recursive tree plus random extra edges) and rosters by a chain of link
tokens shared by consecutive actors.
"""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

#: Edge weights are multiples of 1/2, so every weighted path sum is exact in
#: binary floating point and distance oracles can compare with ``==``.
WEIGHT_CHOICES = (0.5, 1.0, 1.5, 2.0, 3.0)


def connected_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Sorted edge list of a connected simple graph with n vertices, m edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot build a connected simple graph with n={n}, m={m}")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def graph_doc(rng: random.Random, n: int, m: int, weighted: bool) -> dict:
    """Graph JSON document; weighted edges carry a weight from WEIGHT_CHOICES."""
    edges = connected_edges(rng, n, m)
    rows = [[s, t, rng.choice(WEIGHT_CHOICES)] if weighted else [s, t] for s, t in edges]
    return {"directed": False, "n": n, "edges": rows}


def eccentricities(n: int, edges) -> list[int]:
    """Hop eccentricity of every vertex of a connected undirected graph."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, t, *_ in edges:
        adj[s].append(t)
        adj[t].append(s)
    ecc = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        ecc.append(max(dist))
    return ecc


def central_vertex(rng: random.Random, n: int, edges) -> int:
    """A vertex whose eccentricity is the graph's median eccentricity.

    The cost of ``metrics --community v`` grows with the number of distinct
    distances from v; pinning v to the median eccentricity keeps that cost
    from swinging with the seed.
    """
    ecc = eccentricities(n, edges)
    target = sorted(ecc)[n // 2]
    return rng.choice([v for v in range(n) if ecc[v] == target])


def roster(
    rng: random.Random, n_actors: int, vocab: int, per_actor: int, threshold: int, prefix: str
) -> list[dict]:
    """Actor roster: ``per_actor`` draws from a vocabulary plus chain tokens.

    Consecutive actors share ``threshold`` link tokens, so the tie network
    is connected at that threshold whatever the random tokens overlap.
    """
    actors = []
    for i in range(n_actors):
        tokens = {f"{prefix}{rng.randrange(vocab)}" for _ in range(per_actor)}
        for k in range(threshold):
            if i > 0:
                tokens.add(f"link{i - 1}.{k}")
            if i < n_actors - 1:
                tokens.add(f"link{i}.{k}")
        actors.append({"id": f"actor{i:05d}", "generators": sorted(tokens)})
    return actors


def alphas(rng: random.Random, n: int, total: float, hub_share: float = 0.0) -> list[float]:
    """Scrutiny levels summing to at most ``total``.

    With ``hub_share`` > 0 that share of the total goes to one random
    member, the rest spread at random. Values are rounded down to 1e-9 so
    the sum never exceeds ``total`` after parsing.
    """
    raw = [rng.random() + 0.05 for _ in range(n)]
    scale = total * (1.0 - hub_share) / sum(raw)
    out = [x * scale for x in raw]
    out[rng.randrange(n)] += total * hub_share
    return [int(a * 1e9) / 1e9 for a in out]


def sharing_weights(rng: random.Random, n: int, parts: int = 64) -> list[float]:
    """Non-uniform weights k_i/parts with positive integer k_i summing to parts.

    Dyadic ``parts`` makes every weight and their sum exact, so the sum is
    exactly 1.
    """
    while True:
        cuts = sorted(rng.sample(range(1, parts), n - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [parts])]
        if len(set(counts)) > 1:
            return [k / parts for k in counts]


def write_json(path: Path, doc) -> bytes:
    data = json.dumps(doc, separators=(",", ":")).encode()
    path.write_bytes(data)
    return data


def write_vector(path: Path, values) -> bytes:
    data = "\n".join(repr(float(v)) for v in values).encode() + b"\n"
    path.write_bytes(data)
    return data
