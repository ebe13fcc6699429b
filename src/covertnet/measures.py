"""Secrecy-efficiency measures for covert organizations.

An organization that wires everyone to everyone spreads information
efficiently but exposes many members once one is caught; a sparse wiring
hides members but slows information flow. The measures here quantify both
sides and their product, the balance that optimal structures maximize:

* ``information_measure`` - how short the communication paths are, equal
  to 1 for a complete graph and 0 for a disconnected one.
* ``exposure_fractions`` / ``hidden_knowledge`` - the expected share of
  the network a detected member reveals, and the complementary expected
  share that stays hidden.
* ``balance`` - the product of the two, reported together with its
  ingredients.

``make_structure`` and ``make_hierarchy`` build the canonical candidate
structures (complete, star, path, cycle, edgeless "anarchy", and the
hub-dominated hierarchy that links the least-scrutinized member to the
most-scrutinized ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DisconnectedGraphError, Graph, GraphError, _is_int, build_graph, total_distance

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SecrecyParams:
    """Link-detection probability and per-member sharing weights.

    ``p`` is the probability that communication on a single link is
    detected. ``sharing_weights`` weighs each member's contribution to the
    hidden-knowledge expectation; entries must be nonnegative and sum to 1.
    ``None`` means uniform 1/n weights for whatever graph the params are
    applied to.
    """

    p: float
    sharing_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"link-detection probability must be in [0, 1], got {self.p}")
        if self.sharing_weights is not None:
            weights = tuple(float(w) for w in self.sharing_weights)
            object.__setattr__(self, "sharing_weights", weights)
            if any(not w >= 0 for w in weights):
                raise ValueError("sharing weights must be nonnegative")
            if not abs(sum(weights) - 1.0) <= _WEIGHT_SUM_TOL:
                raise ValueError(f"sharing weights must sum to 1, got {sum(weights)}")

    def weights_for(self, n: int) -> np.ndarray:
        """Weight vector for a graph on n vertices (uniform when unset)."""
        if self.sharing_weights is None:
            return np.full(n, 1.0 / n)
        if len(self.sharing_weights) != n:
            raise ValueError(
                f"sharing weights have length {len(self.sharing_weights)}, "
                f"graph has {n} vertices"
            )
        return np.asarray(self.sharing_weights)


@dataclass(frozen=True)
class MeasureReport:
    """Balance value with its ingredients."""

    K: float
    H: float
    mu: float
    exposure: tuple[float, ...]
    degrees: tuple[int, ...]


def exposure_from_degrees(n: int, degrees: np.ndarray, p: float) -> np.ndarray:
    """Exposure fractions (p * d_i + 1) / n from a degree vector or a stack of them."""
    return (p * degrees + 1.0) / n


def secrecy_components(
    n: int, degrees: np.ndarray, p: float, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float]:
    """Exposure fractions and hidden-knowledge value from degree data.

    ``degrees`` is one degree vector, giving a scalar hidden value, or a
    stack of them (one row per graph), giving one hidden value per row.
    ``balance``, ``hidden_knowledge`` and the structure search all take H
    from here. The formula is the same, but numpy sums a stacked product
    in another order than a single one, so a stacked row may differ from
    the single-graph value by one unit in the last place.
    """
    exposure = exposure_from_degrees(n, degrees, p)
    return exposure, (1.0 - exposure) @ weights


def information_measure(g: Graph) -> float:
    """Efficiency of information flow: n(n-1) over the total distance.

    Equals 1 exactly for complete graphs and 0 for disconnected ones
    (where the total distance diverges).
    """
    _require_measurable(g)
    try:
        return g.n * (g.n - 1) / total_distance(g)
    except DisconnectedGraphError:
        return 0.0


def exposure_fractions(g: Graph, params: SecrecyParams) -> np.ndarray:
    """Fraction of the network each member exposes if detected.

    Member i with degree d_i exposes (p * d_i + 1) / n: itself plus the
    expected share of its links whose communication is detected.
    """
    if g.directed:
        raise GraphError("exposure fractions are defined for undirected graphs")
    degrees = np.asarray(g.degree_sequence())
    exposure = exposure_from_degrees(g.n, degrees, params.p)
    # d_i <= n-1 and p <= 1 keep exposure inside [0, 1]; violation means a bug
    assert np.all(exposure >= 0.0) and np.all(exposure <= 1.0)
    return exposure


def hidden_knowledge(g: Graph, params: SecrecyParams) -> float:
    """Expected fraction of the network that remains hidden.

    The sharing-weighted average of 1 minus each member's exposure. With
    uniform weights this reduces to 1 - (2pm + n) / n^2 for a graph with m
    edges.
    """
    if g.directed:
        raise GraphError("hidden knowledge is defined for undirected graphs")
    weights = params.weights_for(g.n)
    degrees = np.asarray(g.degree_sequence())
    _, hidden = secrecy_components(g.n, degrees, params.p, weights)
    return float(hidden)


def balance(g: Graph, params: SecrecyParams) -> MeasureReport:
    """Secrecy-efficiency balance of ``g`` with its constituent measures.

    The balance is the product of the information measure and the
    hidden-knowledge measure; it is 0 for disconnected graphs, whose
    information measure vanishes.
    """
    _require_measurable(g)
    hidden = hidden_knowledge(g, params)
    info = information_measure(g)
    return MeasureReport(
        K=info,
        H=hidden,
        mu=info * hidden,
        exposure=tuple(exposure_fractions(g, params).tolist()),
        degrees=g.degree_sequence(),
    )


def _require_measurable(g: Graph) -> None:
    if g.directed:
        raise GraphError("secrecy measures are defined for undirected graphs")
    if g.n < 2:
        raise GraphError("secrecy measures need at least 2 vertices")


STRUCTURE_KINDS = ("complete", "star", "path", "cycle", "anarchy")

_STRUCTURE_MIN_N = {"complete": 1, "star": 2, "path": 2, "cycle": 3, "anarchy": 1}


def make_structure(kind: str, n: int) -> Graph:
    """Build a canonical undirected structure on n vertices.

    Kinds: ``complete``, ``star`` (hub at vertex 0), ``path`` (0-1-...),
    ``cycle``, and ``anarchy`` (no edges at all, so no member can expose
    another). Stars and paths need n >= 2, cycles n >= 3.
    """
    if kind not in _STRUCTURE_MIN_N:
        raise ValueError(f"unknown structure kind {kind!r}; expected one of {STRUCTURE_KINDS}")
    if n < _STRUCTURE_MIN_N[kind]:
        raise ValueError(f"structure {kind!r} needs at least {_STRUCTURE_MIN_N[kind]} vertices, got {n}")
    if kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "star":
        edges = [(0, j) for j in range(1, n)]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    else:
        edges = []
    return build_graph(n, directed=False, edges=edges)


def make_hierarchy(alphas: Sequence[float], n_linked: int) -> Graph:
    """Hub-dominated hierarchy for a sorted scrutiny vector.

    ``alphas`` must be ascending levels in [0, 1]: the member under the least scrutiny sits
    at vertex 0 and becomes the hub. The ``n_linked`` members under the
    heaviest scrutiny (vertices N-1 down to N-n_linked) are linked to the
    hub; everyone else stays isolated. ``n_linked=0`` produces an anarchy
    and ``n_linked=N-1`` a star.
    """
    alphas = tuple(float(a) for a in alphas)
    big_n = len(alphas)
    if big_n < 1:
        raise ValueError("scrutiny vector must be nonempty")
    if not all(0.0 <= a <= 1.0 for a in alphas):  # also rejects NaN
        raise ValueError(f"scrutiny levels must lie in [0, 1], got {alphas}")
    if any(alphas[i] > alphas[i + 1] for i in range(big_n - 1)):
        raise ValueError("scrutiny vector must be sorted ascending")
    if not (_is_int(n_linked) and 0 <= n_linked <= big_n - 1):
        raise ValueError(f"n_linked must be an integer in [0, {big_n - 1}], got {n_linked!r}")
    edges = [(0, big_n - 1 - k) for k in range(n_linked)]
    return build_graph(big_n, directed=False, edges=edges)
