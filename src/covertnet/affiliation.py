"""Network construction from actor knowledge profiles.

Each actor carries a finite set of generator tokens, the units of
knowledge that trigger their thinking. Two actors are tied when their
token sets overlap enough: an edge appears once the intersection reaches
the rule's threshold, weighted either by the overlap count or by 1.
Tokens are canonicalized (trimmed, case-folded, by ``_canonical``) so
comparison is exact.

There is one pair builder, ``_tie_graph``, which takes the roster as two
columns: the actor ids and each actor's raw tokens. ``build_from_actors``
passes it its profiles' ids and token sets; the ``build`` command passes
it the columns ``io._read_roster`` reads from a roster file, so no
``ActorProfile`` is made there. Each distinct raw token is canonicalized
once, empty tokens are dropped, and a token an actor holds in several
spellings counts once, as it would in the actor's profile.

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

import itertools
from collections import Counter
from collections.abc import Collection, Iterable, Sequence
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
        object.__setattr__(self, "generators", frozenset(filter(None, _canonical(raw))))


def _canonical(tokens: Iterable[str]) -> list[str]:
    """Each token trimmed and case-folded, in order: the form in which tokens are compared."""
    return list(map(str.casefold, map(str.strip, tokens)))


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
    for actor in roster:
        if not isinstance(actor, ActorProfile):
            raise ValueError(f"roster must hold only ActorProfile items, got {actor!r}")
    return _tie_graph([actor.id for actor in roster], [actor.generators for actor in roster], rule)


def _tie_graph(
    ids: list[str], generators: Sequence[Collection[str]], rule: TieRule
) -> tuple[Graph, tuple[str, ...]]:
    """The tie network of actors ``ids`` holding the raw tokens ``generators``.

    The one pair builder, behind ``build_from_actors`` and the ``build``
    command, which reads a roster file as these two columns. Ids must be
    strings and tokens must be strings, as ``ActorProfile`` checks; an
    empty roster and duplicate ids raise ValueError. Each distinct raw
    token is canonicalized once, empty tokens are dropped, and an actor
    that holds one canonical token more than once holds it once.
    """
    n = len(ids)
    if not n:
        raise ValueError("roster must contain at least one actor")
    if len(set(ids)) < n:
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        raise ValueError(f"duplicate actor ids: {', '.join(dupes)}")
    sizes = np.fromiter(map(len, generators), dtype=np.int64, count=n)
    size = int(sizes.sum())
    # A membership's token code is the place, in the roster's list of raw tokens,
    # where its canonical form first appears; the empty token's code is -1.
    raw: dict[str, int] = {}  # raw token -> its first place
    flat = itertools.chain.from_iterable(generators)
    place = np.fromiter(map(raw.setdefault, flat, itertools.count()), dtype=np.int64, count=size)
    forms = {"": -1}  # canonical token -> the first place of its first raw token
    canon = np.empty(size, dtype=np.int64)
    canon[np.fromiter(raw.values(), dtype=np.int64, count=len(raw))] = np.fromiter(
        map(forms.setdefault, _canonical(raw), raw.values()), dtype=np.int64, count=len(raw)
    )
    token = canon[place]
    member = np.repeat(np.arange(n, dtype=np.int64), sizes)
    # ``rank`` is each membership's place in (token, actor) order, where its partners
    # are the later memberships of the same token. Empty tokens and the repeats of a
    # (token, actor) membership are dropped from that order, and memberships stay in
    # actor order.
    order = np.lexsort((member, token))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group, mate = token[order], member[order]
    keep = group >= 0
    keep[1:] &= (group[1:] != group[:-1]) | (mate[1:] != mate[:-1])
    held = keep[rank]
    rank = (keep.cumsum() - 1)[rank[held]]
    member, group, mate = member[held], group[keep], mate[keep]
    partners = np.searchsorted(group, group, side="right")[rank] - rank - 1
    first = np.concatenate(([0], np.cumsum(np.bincount(member, minlength=n))))
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
