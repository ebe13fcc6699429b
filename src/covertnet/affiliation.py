"""Network construction from actor knowledge profiles.

Each actor carries a finite set of generator tokens, the units of
knowledge that trigger their thinking. Two actors are tied when their
token sets overlap enough: an edge appears once the intersection reaches
the rule's threshold, weighted either by the overlap count or by 1.
Tokens are canonicalized (trimmed, case-folded) so comparison is exact.

Overlaps are counted from a token index rather than by intersecting every
pair of sets: each (token, actor) membership is paired with the later
members of its token, and a pair's overlap is the number of tokens that
paired it. The cost therefore follows the shared tokens, not the square of
the roster. Pairs are formed in blocks of consecutive lower endpoints of at
most ``_PAIR_BUDGET`` pair codes (or one actor's pairs, if more), so a
roster in which everyone shares one token needs scratch memory bounded by
the budget instead of one code per actor pair. Each block keeps the codes
and overlaps of its ties as arrays; blocks run in ascending lower endpoint
and each block's codes are sorted, so the concatenated codes are already in
canonical edge order, and the graph is built from them by the ``Graph``
constructor, which checks them as whole arrays.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _blocks, _check_type, _is_int, _ranges

WEIGHT_MODES = ("overlap_count", "unit")

# Pair codes formed per block of actors (8 bytes each); bounds the scratch memory.
_PAIR_BUDGET = 1 << 16


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
        try:
            raw = tuple(self.generators)
        except TypeError:
            raise ValueError(
                f"generators of actor {self.id!r} must be an iterable of tokens, "
                f"got {self.generators!r}"
            ) from None
        for t in raw:
            if not isinstance(t, str):
                raise ValueError(
                    f"tokens of actor {self.id!r} must be strings, got {t!r} in its generators"
                )
        tokens = frozenset(canon for canon in (t.strip().casefold() for t in raw) if canon)
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
    map back to actor ids. A roster that is not an iterable of ActorProfile
    (a string included), an empty roster, duplicate ids, or a ``rule`` that
    is not a TieRule raise ValueError.
    """
    _check_type(rule, TieRule, "rule")
    if isinstance(roster, str) or not isinstance(roster, Iterable):
        raise ValueError(f"roster must be an iterable of ActorProfile, got {roster!r}")
    roster = list(roster)
    if not roster:
        raise ValueError("roster must contain at least one actor")
    for actor in roster:
        if not isinstance(actor, ActorProfile):
            raise ValueError(f"roster must hold only ActorProfile items, got {actor!r}")
    ids = [actor.id for actor in roster]
    dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
    if dupes:
        raise ValueError(f"duplicate actor ids: {', '.join(dupes)}")
    n = len(roster)
    vocab: dict[str, int] = {}
    token = np.array(
        [vocab.setdefault(t, len(vocab)) for actor in roster for t in actor.generators],
        dtype=np.int64,
    )
    sizes = np.array([len(actor.generators) for actor in roster], dtype=np.int64)
    member = np.repeat(np.arange(n, dtype=np.int64), sizes)
    # Memberships stay in actor order; ``rank`` is each one's place in (token, actor)
    # order, where its partners are the later memberships of the same token.
    order = np.lexsort((member, token))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group, mate = token[order], member[order]
    partners = np.searchsorted(group, group, side="right")[rank] - rank - 1
    first = np.concatenate(([0], np.cumsum(sizes)))
    codes, overlaps = [], []
    for lo, hi in _blocks(np.bincount(member, weights=partners, minlength=n), _PAIR_BUDGET):
        block = slice(first[lo], first[hi])
        count = partners[block]
        code = np.repeat(member[block] * n, count) + mate[_ranges(rank[block] + 1, count)]
        code, overlap = np.unique(code, return_counts=True)
        kept = overlap >= rule.threshold
        codes.append(code[kept])
        overlaps.append(overlap[kept])
    i, j = np.divmod(np.concatenate(codes), n)
    if rule.weight_mode == "unit":
        weight = np.ones(i.size)
    else:
        weight = np.concatenate(overlaps).astype(float)
    return Graph(n, False, i, j, weight), tuple(ids)
