"""Network construction from actor knowledge profiles.

Each actor carries a finite set of generator tokens, the units of
knowledge that trigger their thinking. Two actors are tied when their
token sets overlap enough: an edge appears once the intersection reaches
the rule's threshold, weighted either by the overlap count or by 1.
Tokens are canonicalized (trimmed, case-folded) so comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graph import Graph, _is_int, build_graph

WEIGHT_MODES = ("overlap_count", "unit")


@dataclass(frozen=True)
class ActorProfile:
    """An actor identifier with its generator-token set."""

    id: str
    generators: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"actor id must be a nonempty string, got {self.id!r}")
        if isinstance(self.generators, str):
            raise ValueError(f"generators must be a set of tokens, got a string {self.generators!r}")
        tokens = frozenset(
            canon for canon in (t.strip().casefold() for t in self.generators) if canon
        )
        object.__setattr__(self, "generators", tokens)


@dataclass(frozen=True)
class TieRule:
    """Minimum overlap for a tie and how to weight it."""

    threshold: int = 1
    weight_mode: str = "overlap_count"

    def __post_init__(self) -> None:
        if not (_is_int(self.threshold) and self.threshold >= 1):
            raise ValueError(f"threshold must be an integer >= 1, got {self.threshold}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )


def build_from_actors(
    roster: Sequence[ActorProfile] | Iterable[ActorProfile],
    rule: TieRule = TieRule(),
) -> tuple[Graph, tuple[str, ...]]:
    """Derive the tie network of a roster from generator-set overlap.

    Vertices follow roster order; actors with too little overlap to tie to
    anyone stay as isolated vertices, keeping the vertex count equal to the
    roster size. Returns the undirected graph and the vertex-indexed label
    map back to actor ids.
    """
    roster = list(roster)
    if not roster:
        raise ValueError("roster must contain at least one actor")
    ids = [actor.id for actor in roster]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate actor ids: {', '.join(dupes)}")
    edges = []
    for i in range(len(roster)):
        for j in range(i + 1, len(roster)):
            overlap = len(roster[i].generators & roster[j].generators)
            if overlap >= rule.threshold:
                weight = float(overlap) if rule.weight_mode == "overlap_count" else 1.0
                edges.append((i, j, weight))
    return build_graph(len(roster), directed=False, edges=edges), tuple(ids)
