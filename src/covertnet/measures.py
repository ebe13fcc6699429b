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

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    _check_type,
    _is_int,
    _is_real,
    _real_tuple,
    build_graph,
    total_distance,
)

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
        if not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"link-detection probability p must be in [0, 1], got {self.p!r}")
        if self.sharing_weights is not None:
            weights = _real_tuple(self.sharing_weights, "sharing_weights")
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


def hidden_from_degrees(n: int, degrees: np.ndarray, p: float, weights: np.ndarray):
    """Hidden-knowledge value H from degree data.

    ``degrees`` is one degree vector, giving a scalar H, or a stack of them
    with vertices on the last axis (one row per graph), giving one H per
    row; ``p`` may be a (p, 1, 1) grid. ``hidden_knowledge``, the structure
    search and the lemma check all take H from here.

    A row's terms t_v = (1 - e_v) * w_v are summed as a left fold in vertex
    order, ((t_0 + t_1) + t_2) + ..., so a row has the same bits alone as in
    any stack, whatever the stack's size or memory layout, and the fold's
    rounding error is at most (n - 1) * 2^-53 * sum |t_v| to first order
    (Higham, SIAM J. Sci. Comput. 14, 1993). C-ordered terms are folded by one
    ``np.add.accumulate`` along the rows, others by one vectorized add per vertex.
    """
    terms = (1.0 - exposure_from_degrees(n, degrees, p)) * weights
    if terms.flags.c_contiguous:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    total = terms[..., 0]
    for v in range(1, terms.shape[-1]):
        total = total + terms[..., v]
    return total


def information_measure(g: Graph) -> float:
    """Efficiency of information flow: n(n-1) over the total distance.

    Equals 1 exactly for complete graphs and 0 for disconnected ones
    (where the total distance diverges).
    """
    _require_measurable(g)
    return _information(g)


def _information(g: Graph) -> float:
    """:func:`information_measure` of a graph already checked measurable."""
    try:
        return g.n * (g.n - 1) / total_distance(g)
    except DisconnectedGraphError:
        return 0.0


def exposure_fractions(g: Graph, params: SecrecyParams) -> np.ndarray:
    """Fraction of the network each member exposes if detected.

    Member i with degree d_i exposes (p * d_i + 1) / n: itself plus the
    expected share of its links whose communication is detected.
    """
    _check_type(g, Graph, "g")
    if g.directed:
        raise GraphError("exposure fractions are defined for undirected graphs")
    _check_type(params, SecrecyParams, "params")
    return _exposure(g.n, np.asarray(g.degree_sequence()), params.p)


def _exposure(n: int, degrees: np.ndarray, p: float) -> np.ndarray:
    """:func:`exposure_from_degrees` of one degree vector, checked to lie in [0, 1]."""
    exposure = exposure_from_degrees(n, degrees, p)
    # d_i <= n-1 and p <= 1 keep exposure inside [0, 1]; violation means a bug
    assert np.all(exposure >= 0.0) and np.all(exposure <= 1.0)
    return exposure


def hidden_knowledge(g: Graph, params: SecrecyParams) -> float:
    """Expected fraction of the network that remains hidden.

    The sharing-weighted average of 1 minus each member's exposure. With
    uniform weights this reduces to 1 - (2pm + n) / n^2 for a graph with m
    edges.
    """
    _check_type(g, Graph, "g")
    if g.directed:
        raise GraphError("hidden knowledge is defined for undirected graphs")
    _check_type(params, SecrecyParams, "params")
    degrees = np.asarray(g.degree_sequence())
    return float(hidden_from_degrees(g.n, degrees, params.p, params.weights_for(g.n)))


def balance(g: Graph, params: SecrecyParams) -> MeasureReport:
    """Secrecy-efficiency balance of ``g`` with its constituent measures.

    The balance is the product of the information measure and the
    hidden-knowledge measure; it is 0 for disconnected graphs, whose
    information measure vanishes. The graph and the params are checked, and
    the degree sequence read, once for all three measures.
    """
    _require_measurable(g)
    _check_type(params, SecrecyParams, "params")
    degrees = g.degree_sequence()
    vector = np.asarray(degrees)
    hidden = float(hidden_from_degrees(g.n, vector, params.p, params.weights_for(g.n)))
    info = _information(g)
    return MeasureReport(
        K=info,
        H=hidden,
        mu=info * hidden,
        exposure=tuple(_exposure(g.n, vector, params.p).tolist()),
        degrees=degrees,
    )


def _require_measurable(g: Graph) -> None:
    _check_type(g, Graph, "g")
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
    if not isinstance(kind, str) or kind not in _STRUCTURE_MIN_N:
        raise ValueError(f"unknown structure kind {kind!r}; expected one of {STRUCTURE_KINDS}")
    if not (_is_int(n) and n >= _STRUCTURE_MIN_N[kind]):
        raise ValueError(
            f"structure {kind!r} needs an integer order n >= {_STRUCTURE_MIN_N[kind]}, got {n!r}"
        )
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
    alphas = _real_tuple(alphas, "alphas")
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
