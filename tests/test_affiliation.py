import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertnet import affiliation
from covertnet.affiliation import WEIGHT_MODES, ActorProfile, TieRule, build_from_actors
from covertnet.graph import build_graph, is_connected

from oracles import reference_affiliation_edges


def actor(aid, *tokens):
    return ActorProfile(id=aid, generators=frozenset(tokens))


class TestActorProfile:
    def test_tokens_canonicalized(self):
        a = actor("a", "  Bomb ", "bomb", "MONEY")
        assert a.generators == frozenset({"bomb", "money"})

    def test_blank_tokens_dropped(self):
        assert actor("a", "   ", "x").generators == frozenset({"x"})

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            ActorProfile(id="", generators=frozenset())

    @pytest.mark.parametrize("generators", [None, 1, 2.5])
    def test_non_iterable_generators_rejected(self, generators):
        with pytest.raises(ValueError, match="generators of actor 'spy' must be an iterable"):
            ActorProfile(id="spy", generators=generators)

    @pytest.mark.parametrize("generators", [frozenset({1}), [b"x"], ["x", None]])
    def test_non_string_tokens_rejected(self, generators):
        with pytest.raises(ValueError, match="tokens of actor 'spy' must be strings"):
            ActorProfile(id="spy", generators=generators)


class TestTieRule:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            TieRule(threshold=0)

    def test_weight_mode_checked(self):
        with pytest.raises(ValueError):
            TieRule(weight_mode="jaccard")


class TestBuildFromActors:
    def test_single_overlap_edge(self):
        roster = [actor("a", "x", "y"), actor("b", "y", "z"), actor("c", "w")]
        graph, labels = build_from_actors(roster, TieRule())
        assert labels == ("a", "b", "c")
        assert graph.edges == ((0, 1, 1.0),)

    def test_full_overlap_with_threshold(self):
        roster = [actor("a", "x", "y", "z"), actor("b", "x", "y", "z")]
        graph, _ = build_from_actors(roster, TieRule(threshold=2))
        assert graph.edges == ((0, 1, 3.0),)

    def test_unit_weight_mode(self):
        roster = [actor("a", "x", "y", "z"), actor("b", "x", "y", "z")]
        graph, _ = build_from_actors(roster, TieRule(weight_mode="unit"))
        assert graph.edges == ((0, 1, 1.0),)

    def test_empty_generators_yield_anarchy(self):
        graph, _ = build_from_actors([actor("a"), actor("b")])
        assert graph.m == 0 and graph.n == 2
        assert not is_connected(graph)

    def test_case_folding_creates_ties(self):
        graph, _ = build_from_actors([actor("a", "Jihad "), actor("b", "jihad")])
        assert graph.m == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate actor ids: a"):
            build_from_actors([actor("a", "x"), actor("a", "y")])

    def test_duplicate_ids_listed_sorted_once(self):
        roster = [actor(aid) for aid in ("c", "b", "a", "c", "d", "b", "c")]
        with pytest.raises(ValueError) as err:
            build_from_actors(roster)
        assert str(err.value) == "duplicate actor ids: b, c"

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError):
            build_from_actors([])

    def test_isolated_actors_kept(self):
        roster = [actor("a", "x"), actor("b", "x"), actor("loner", "q")]
        graph, labels = build_from_actors(roster)
        assert graph.n == 3 and len(labels) == 3


TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "f"])


@st.composite
def rosters(draw):
    size = draw(st.integers(1, 6))
    return [
        ActorProfile(id=f"actor{i}", generators=frozenset(draw(st.sets(TOKENS, max_size=5))))
        for i in range(size)
    ]


@settings(max_examples=80, deadline=None)
@given(rosters())
def test_vertex_count_equals_roster_size(roster):
    graph, labels = build_from_actors(roster)
    assert graph.n == len(roster) == len(labels)
    assert not graph.directed


@settings(max_examples=80, deadline=None)
@given(rosters(), st.integers(1, 5))
def test_raising_threshold_only_removes_edges(roster, threshold):
    loose = build_from_actors(roster, TieRule(threshold=threshold))[0]
    strict = build_from_actors(roster, TieRule(threshold=threshold + 1))[0]
    loose_pairs = {(s, t) for s, t, _ in loose.edges}
    strict_pairs = {(s, t) for s, t, _ in strict.edges}
    assert strict_pairs <= loose_pairs


@settings(max_examples=80, deadline=None)
@given(rosters())
def test_edge_weights_equal_overlap(roster):
    graph, _ = build_from_actors(roster, TieRule())
    for s, t, w in graph.edges:
        assert w == len(roster[s].generators & roster[t].generators)


ROSTER_TOKENS = st.sampled_from(["a", "A", " a ", "b", "B ", "c", "d", "e", "f", "g", "", "   "])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.frozensets(ROSTER_TOKENS, max_size=6), min_size=1, max_size=40),
    st.integers(1, 5),
    st.sampled_from(WEIGHT_MODES),
    st.sampled_from([1, 2, 7, affiliation._PAIR_BUDGET]),
)
def test_edges_equal_pair_loop_reference(token_sets, threshold, weight_mode, budget):
    roster = [ActorProfile(id=f"actor{i}", generators=tokens) for i, tokens in enumerate(token_sets)]
    rule = TieRule(threshold=threshold, weight_mode=weight_mode)
    with mock.patch.object(affiliation, "_PAIR_BUDGET", budget):
        graph, _ = build_from_actors(roster, rule)
    reference = reference_affiliation_edges(roster, rule)
    assert graph.edges == reference
    assert graph == build_graph(len(roster), edges=reference)
    # tuple == takes 2 for 2.0 and np.int64(2) for 2, but the JSON writer needs builtins
    assert all(type(s) is int and type(t) is int and type(w) is float for s, t, w in graph.edges)


def one_hub_roster(n):
    """Every actor holds ``hub``; neighbours in the chain also share one chain token."""
    return [actor(f"actor{k}", "hub", f"chain{k}", f"chain{k + 1}") for k in range(n)]


def test_one_hub_roster_ties_only_the_chain():
    graph, _ = build_from_actors(one_hub_roster(3000), TieRule(threshold=2))
    assert graph.edges == tuple((k, k + 1, 2.0) for k in range(2999))


def test_one_hub_scratch_memory_is_bounded_by_the_budget():
    # All 4.5 million actor pairs share the hub; forming their codes at once
    # traces over 100 MB. Blocks of the 2^16-code budget (512 KiB of 8-byte
    # codes) keep the peak under 16 times that.
    roster = one_hub_roster(3000)
    tracemalloc.start()
    try:
        build_from_actors(roster, TieRule(threshold=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (1 << 16)
