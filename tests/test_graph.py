import copy
import dataclasses
import enum
import fractions
import itertools
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covertnet.graph
from covertnet.affiliation import ActorProfile, build_from_actors
from covertnet.graph import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    GraphError,
    build_graph,
    community,
    diameter,
    geodesic_distances,
    is_connected,
    total_distance,
)
from covertnet.io import _graph_text, graph_to_json_dict
from covertnet.measures import make_structure

from oracles import bfs_hops, brute_force_apsp, dijkstra_apsp, random_connected_graph
from strategies import graphs, sparse_graphs, weighted_sparse_graphs


class _Vertex(enum.IntEnum):
    ONE = 1


def path4():
    return build_graph(4, edges=[(0, 1), (1, 2), (2, 3)])


class TestBuildGraph:
    def test_path_construction(self):
        g = path4()
        assert g.n == 4 and g.m == 3 and not g.directed
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_single_vertex(self):
        g = build_graph(1)
        assert g.n == 1 and g.m == 0

    def test_undirected_edges_canonicalized(self):
        g = build_graph(3, edges=[(2, 0), (1, 0)])
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, edges=[(0, 1), (1, 0)])

    def test_directed_reverse_is_not_a_duplicate(self):
        g = build_graph(3, directed=True, edges=[(0, 1), (1, 0)])
        assert g.m == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(3, edges=[(1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match=r"\(0, 3\)"):
            build_graph(3, edges=[(0, 3)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="negative weight"):
            build_graph(3, edges=[(0, 1, -0.5)])

    @pytest.mark.parametrize(
        "weight",
        [math.nan, math.inf, -math.inf, 10**400, -(10**400), fractions.Fraction(10**400)],
        ids=["nan", "inf", "-inf", "int 10**400", "int -10**400", "Fraction 10**400"],
    )
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(GraphError, match="non-finite weight"):
            build_graph(3, edges=[(0, 1, weight)])

    @pytest.mark.parametrize("weight", ["abc", "2", True, np.True_, None])
    def test_non_numeric_weight_rejected(self, weight):
        with pytest.raises(GraphError, match=r"non-numeric weight"):
            build_graph(3, edges=[(0, 1, weight)])

    @pytest.mark.parametrize(
        "weight", [np.float64(0.5), np.float32(0.5), np.int64(2), 3, fractions.Fraction(1, 4)]
    )
    def test_numeric_scalar_weights_accepted(self, weight):
        (edge,) = build_graph(3, edges=[(0, 1, weight)]).edges
        assert edge == (0, 1, float(weight)) and type(edge[2]) is float

    def test_bad_vertex_count(self):
        with pytest.raises(GraphError):
            build_graph(0)

    @pytest.mark.parametrize("edges", [None, 5])
    def test_edges_that_are_not_iterable_rejected(self, edges):
        with pytest.raises(GraphError, match="edges must be an iterable"):
            build_graph(3, edges=edges)

    @pytest.mark.parametrize("edge", [5, None, 1.5, (0,), (0, 1, 1.0, 2)])
    def test_edge_that_is_not_a_pair_or_triple_rejected(self, edge):
        with pytest.raises(GraphError, match=r"must be \(source, target\[, weight\]\)") as caught:
            build_graph(3, edges=[edge])
        assert repr(edge) in str(caught.value)

    # The loop tests exact int endpoints before the general check, which must still decide
    # for every other type.
    @pytest.mark.parametrize(
        "endpoint, accepted",
        [(_Vertex.ONE, True), (True, False), (np.int64(1), False), (1.0, False)],
        ids=["IntEnum", "True", "np.int64", "1.0"],
    )
    def test_endpoint_types(self, endpoint, accepted):
        if accepted:
            assert build_graph(3, edges=[(endpoint, 2)]).edges == ((1, 2, 1.0),)
        else:
            with pytest.raises(GraphError, match="non-integer endpoints"):
                build_graph(3, edges=[(endpoint, 2)])

    def test_graph_is_immutable(self):
        g = path4()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 5


def canonical_arrays(src, dst, weight):
    return (
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weight, dtype=float)
    )


class TestFromCanonical:
    """``Graph(...)`` on edge columns, canonical or not: it checks them itself."""

    def test_matches_build_graph_with_builtin_types(self):
        arrays = canonical_arrays([0, 0, 2], [1, 3, 3], [1.0, 2.5, 0.0])
        g = Graph(4, False, *arrays)
        assert g == build_graph(4, edges=[(0, 1, 1.0), (0, 3, 2.5), (2, 3, 0.0)])
        assert all(type(s) is int and type(t) is int and type(w) is float for s, t, w in g.edges)

    def test_empty_arrays_give_isolated_vertices(self):
        g = Graph(3, False, *canonical_arrays([], [], []))
        assert g == build_graph(3) and g.m == 0 and not g.directed

    @pytest.mark.parametrize("n", [0, 3.0, True])
    def test_bad_vertex_count_rejected(self, n):
        with pytest.raises(GraphError, match="vertex count"):
            Graph(n, False, *canonical_arrays([], [], []))

    @pytest.mark.parametrize(
        "src, dst, weight",
        [([0, 1], [1], [1.0, 1.0]), ([0], [1], [])],
        ids=["src longer than dst", "weight shorter"],
    )
    def test_mismatched_lengths_rejected(self, src, dst, weight):
        with pytest.raises(GraphError, match="differ in length"):
            Graph(3, False, *canonical_arrays(src, dst, weight))

    @pytest.mark.parametrize(
        "src, dst, problem",
        [
            ([1], [1], r"edge \(1, 1, 1.0\) is a self-loop"),
            ([0, 2], [1, 1], r"edge \(2, 1, 1.0\) is not sorted: an undirected edge needs source < target"),
            ([-1], [1], r"edge \(-1, 1, 1.0\) has an endpoint out of range \[0, 3\)"),
            ([0], [3], r"edge \(0, 3, 1.0\) has an endpoint out of range \[0, 3\)"),
        ],
        ids=["self-loop", "reversed pair", "negative endpoint", "endpoint at n"],
    )
    def test_endpoints_out_of_order_or_range_rejected(self, src, dst, problem):
        with pytest.raises(GraphError, match=problem):
            Graph(3, False, *canonical_arrays(src, dst, [1.0] * len(src)))

    @pytest.mark.parametrize(
        "src, dst, problem",
        [
            ([0, 0], [2, 1], r"edge \(0, 1, 1.0\) is not sorted: it comes after \(0, 2\)"),
            ([0, 0], [1, 1], r"duplicate edge \(0, 1, 1.0\)"),
            ([1, 0], [2, 2], r"edge \(0, 2, 1.0\) is not sorted: it comes after \(1, 2\)"),
        ],
        ids=["unsorted targets", "duplicate", "unsorted sources"],
    )
    def test_unsorted_or_duplicate_codes_rejected(self, src, dst, problem):
        with pytest.raises(GraphError, match=problem):
            Graph(3, False, *canonical_arrays(src, dst, [1.0, 1.0]))

    @pytest.mark.parametrize(
        "weight, problem",
        [(-0.5, "a negative"), (math.nan, "a non-finite"), (math.inf, "a non-finite"),
         (-math.inf, "a non-finite")],
        ids=["-0.5", "nan", "inf", "-inf"],
    )
    def test_negative_or_non_finite_weight_rejected(self, weight, problem):
        with pytest.raises(GraphError, match=rf"edge \(1, 2, {weight}\) has {problem} weight"):
            Graph(3, False, *canonical_arrays([0, 1], [1, 2], [1.0, weight]))

    @pytest.mark.parametrize(
        "arrays, problem",
        [
            ((np.array([0]), np.array([1]), np.array([1])), "weight .* float64 .* 1-dimensional int64"),
            ((np.array([0.0]), np.array([1]), np.array([1.0])), "src .* int64 .* 1-dimensional float64"),
            (([0], [1], [1.0]), "src .* int64 array, got list"),
            ((np.array([[0]]), np.array([[1]]), np.array([[1.0]])), "src .* int64 .* 2-dimensional int64"),
        ],
        ids=["int weights", "float endpoints", "lists", "two-dimensional"],
    )
    def test_arrays_of_other_types_rejected(self, arrays, problem):
        with pytest.raises(GraphError, match=f"^edge column {problem}") as caught:
            Graph(3, False, *arrays)
        assert "must be a one-dimensional" in str(caught.value)

    @pytest.mark.parametrize("directed", [1, "yes", None])
    def test_non_bool_direction_rejected(self, directed):
        with pytest.raises(GraphError, match="directed must be a bool"):
            Graph(3, directed, *canonical_arrays([0], [1], [1.0]))

    def test_directed_columns_keep_both_ways_and_any_order_of_a_pair(self):
        g = Graph(3, True, *canonical_arrays([0, 1, 2], [1, 0, 0], [1.0, 2.0, 3.0]))
        assert g == build_graph(3, directed=True, edges=[(2, 0, 3.0), (1, 0, 2.0), (0, 1, 1.0)])

    @pytest.mark.parametrize(
        "src, dst, problem",
        [
            ([0, 1], [1, 3], r"edge \(1, 3, 1.0\) has an endpoint out of range"),
            ([0, 1], [-1, 0], r"edge \(0, -1, 1.0\) has an endpoint out of range"),
            ([1, 1], [0, 0], r"duplicate edge \(1, 0, 1.0\)"),
            ([0, 2], [1, 2], r"edge \(2, 2, 1.0\) is a self-loop"),
        ],
        ids=["target at n", "negative target", "duplicate", "self-loop"],
    )
    def test_directed_faults_rejected(self, src, dst, problem):
        with pytest.raises(GraphError, match=problem):
            Graph(3, True, *canonical_arrays(src, dst, [1.0, 1.0]))

    def test_first_faulty_edge_is_named(self):
        # edge 1 repeats edge 0, and edge 2 is out of range besides
        arrays = canonical_arrays([0, 0, 0], [1, 1, 7], [1.0, 1.0, -1.0])
        with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1, 1.0\)$"):
            Graph(3, False, *arrays)

    def test_vertex_count_beyond_int64_compares_exactly(self):
        top = 2**63 - 1  # the largest int64 endpoint is a vertex of a graph this large
        g = Graph(2**64, True, *canonical_arrays([0, top], [top, 0], [1.0, 2.0]))
        assert g.edges == ((0, top, 1.0), (top, 0, 2.0))


GOOD_WEIGHTS = (1.0, 0.5, 0.0, -0.0, 2.5, 1e300)
BAD_WEIGHTS = (-1.0, -5e-324, math.nan, math.inf, -math.inf)


def _passed(own, form):
    """Array ``own`` as passed in ``form``, and the arrays a caller could still write into it."""
    if form == "strided view":
        base = np.repeat(own, 2)
        return base[::2], [base]
    if form == "slice of a longer array":
        base = np.append(own, own[:1])
        return base[: own.size], [base]
    if form == "read-only view":
        base = own.copy()
        view = base[:]
        view.setflags(write=False)
        return view, [base]
    return own, [own[:]]  # "own data", with a view the caller made before the call


@st.composite
def column_cases(draw):
    """(n, directed, columns, rows, bases) for ``Graph(n, directed, *columns)``.

    ``rows`` are the edges the columns hold, or None when an argument is of
    the wrong type, shape or length and the call must raise; ``bases`` are
    arrays the caller keeps, which write into the columns passed. Rows start
    sorted and distinct; faults are then drawn into them.
    """
    n = draw(st.integers(1, 5), label="n")
    directed = draw(st.booleans(), label="directed")
    pairs = list((itertools.permutations if directed else itertools.combinations)(range(n), 2))
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    rows = [[s, t, draw(st.sampled_from(GOOD_WEIGHTS))] for s, t in chosen]
    faults = ("endpoint", "self-loop", "reversed", "repeated", "shuffled", "weight")
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2), label="faults") if rows else ():
        k = draw(st.sampled_from([0, len(rows) - 1]) | st.integers(0, len(rows) - 1))  # the ends often
        if fault == "endpoint":
            end = draw(st.sampled_from([-2, -1, n, n + 1]) | st.integers(0, n - 1))
            rows[k][draw(st.integers(0, 1))] = end
        elif fault == "self-loop":
            rows[k][1] = rows[k][0]
        elif fault == "reversed":
            rows[k][:2] = rows[k][1::-1]
        elif fault == "repeated":
            rows.insert(k, list(rows[k]))
        elif fault == "shuffled":
            rows = draw(st.permutations(rows))
        else:
            rows[k][2] = draw(st.sampled_from(BAD_WEIGHTS))
    dtypes = [np.int64, np.int64, np.float64]
    wrong, hit = None, draw(st.integers(0, 2))  # hit: the column a wrong argument is
    if draw(st.integers(0, 3)) == 0:  # one case in four passes an argument of the wrong kind
        wrong = draw(st.sampled_from(["n", "directed", "dtype", "list", "2-D", "length"]), label="wrong")
    if wrong == "n":
        n = draw(st.sampled_from([0, -1, float(n), True, str(n)]))
    elif wrong == "directed":
        directed = draw(st.sampled_from([1, 0, "yes", None]))
    elif wrong == "dtype":
        accepted = dtypes[hit]
        dtypes[hit] = draw(st.sampled_from([np.int32, np.float64, np.float32, np.int64, np.uint64, bool]))
        if dtypes[hit] == accepted:
            dtypes[hit] = np.float32  # one that no column accepts
    columns, bases = [], []
    for index, values in enumerate(map(list, zip(*rows)) if rows else [[], [], []]):
        if wrong == "length" and index == hit:
            values = values[:-1] if values else [0]
        with np.errstate(all="ignore"):  # a wrong dtype may not hold every value
            own = np.array(values, dtype=np.float64 if index == 2 else np.int64).astype(dtypes[index])
        forms = ["own data", "strided view", "slice of a longer array", "read-only view"]
        passed, kept = _passed(own, draw(st.sampled_from(forms)))
        if index == hit and wrong == "list":
            passed = values
        elif index == hit and wrong == "2-D":
            passed = passed.reshape(1, -1)
        columns.append(passed)
        bases.extend(kept)
    return n, directed, columns, None if wrong else [tuple(row) for row in rows], bases


def canonical_rows(n, directed, rows) -> bool:
    """The invariants of a Graph, checked edge by edge in Python."""
    pairs = [(s, t) for s, t, _ in rows]
    return (
        all(0 <= s < n and 0 <= t < n and (s != t if directed else s < t) for s, t in pairs)
        and all(a < b for a, b in zip(pairs, pairs[1:]))
        and all(0.0 <= w < math.inf for _, _, w in rows)
    )


class TestGraphColumns:
    @settings(max_examples=300, deadline=None)
    @example((3, False, [*canonical_arrays([-1, 0], [1, 1], [1.0, 1.0])], [(-1, 1, 1.0), (0, 1, 1.0)], []))
    @example((3, True, [*canonical_arrays([0, 3], [1, 0], [1.0, 1.0])], [(0, 1, 1.0), (3, 0, 1.0)], []))
    @given(column_cases())
    def test_rejects_or_equals_build_graph_of_its_edges(self, case):
        n, directed, columns, rows, bases = case
        if rows is None or not canonical_rows(n, directed, rows):
            with pytest.raises(GraphError):
                Graph(n, directed, *columns)
            return
        g = Graph(n, directed, *columns)
        built = build_graph(n, directed=directed, edges=g.edges)
        assert g == built and hash(g) == hash(built)
        assert g.edges == tuple(rows)
        for base in bases:  # whatever the caller still holds, the checked graph stays as it was
            base[...] = -5
        assert list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())) == rows
        assert not any(column.flags.writeable for column in (g.src, g.dst, g.weight))


class TestGraphContract:
    def test_same_edges_from_either_factory_are_equal_and_hash_alike(self):
        canonical = Graph(4, False, *canonical_arrays([0, 0, 2], [1, 3, 3], [1.0, 2.5, 0.0]))
        built = build_graph(4, edges=[(3, 2, 0.0), (0, 1), (3, 0, 2.5)])
        assert canonical == built and hash(canonical) == hash(built)

    def test_negative_zero_weight_equals_zero_and_still_prints_its_sign(self):
        negative, positive = (build_graph(3, edges=[(0, 1, w), (1, 2, 1.0)]) for w in (-0.0, 0.0))
        assert negative == positive and hash(negative) == hash(positive)
        text = _graph_text(negative)
        assert text == json.dumps(graph_to_json_dict(negative), indent=2)
        assert json.loads(text)["edges"][0] == [0, 1, -0.0] and "-0.0" in text

    @pytest.mark.parametrize(
        "other",
        [
            build_graph(3, directed=True, edges=[(0, 1), (1, 2)]),
            build_graph(4, edges=[(0, 1), (1, 2)]),
            build_graph(3, edges=[(0, 1), (1, 2, 2.0)]),
            build_graph(3, edges=[(0, 1), (0, 2)]),
            ((0, 1, 1.0), (1, 2, 1.0)),
        ],
        ids=["directed", "another order", "another weight", "another pair", "the edge tuple"],
    )
    def test_graphs_differing_in_any_part_are_unequal(self, other):
        assert build_graph(3, edges=[(0, 1), (1, 2)]) != other

    def test_columns_are_read_only(self):
        g = path4()
        for column in (g.src, g.dst, g.weight):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    @pytest.mark.parametrize(
        "round_trip", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip_keeps_a_checked_read_only_graph(self, round_trip):
        g = build_graph(4, directed=True, edges=[(0, 1, 2.0), (1, 2, 0.5), (3, 0)])
        geodesic_distances(g)
        h = round_trip(g)
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
        for column in (h.src, h.dst, h.weight):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert np.array_equal(geodesic_distances(h).dist, geodesic_distances(g).dist)

    def test_unpickling_checks_the_columns(self):
        class Forged:
            def __reduce__(self):
                return Graph, (3, False, *canonical_arrays([0], [1], [-2.0]))

        with pytest.raises(GraphError, match="negative weight"):
            pickle.loads(pickle.dumps(Forged()))

    def test_build_op_does_not_materialize_the_edge_tuple(self):
        roster = [ActorProfile(id=f"a{i}", generators={"x", f"t{i % 3}"}) for i in range(6)]
        g, labels = build_from_actors(roster)
        _graph_text(g, labels)
        assert "edges" not in g.__dict__ and g.m == 15
        assert g.edges[0] == (0, 1, 1.0) and "edges" in g.__dict__


class TestGeodesicDistances:
    def test_complete_graph_all_ones(self):
        dm = geodesic_distances(make_structure("complete", 4))
        expect = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(dm.dist, expect)

    def test_path_end_to_end(self):
        # hand-checked breadth-first levels along 0-1-2-3
        dm = geodesic_distances(path4())
        assert dm.dist[0, 3] == 3.0

    def test_unreachable_marker(self):
        dm = geodesic_distances(build_graph(4, edges=[(0, 1)]))
        assert dm.dist[0, 2] == UNREACHABLE
        assert not dm.reachable(0, 2)
        assert not dm.all_reachable()

    def test_directed_asymmetry(self):
        dm = geodesic_distances(build_graph(2, directed=True, edges=[(0, 1)]))
        assert dm.dist[0, 1] == 1.0
        assert dm.dist[1, 0] == UNREACHABLE

    def test_weighted_mode_uses_stored_weights(self):
        g = build_graph(3, edges=[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 2.0)])
        dm = geodesic_distances(g, hop_mode=False)
        assert dm.dist[0, 2] == 0.75
        assert geodesic_distances(g).dist[0, 2] == 1.0

    def test_zero_weight_edges(self):
        g = build_graph(3, edges=[(0, 1, 0.0), (1, 2, 1.0)])
        dm = geodesic_distances(g, hop_mode=False)
        assert dm.dist[0, 2] == 1.0 and dm.dist[0, 1] == 0.0

    def test_matrix_is_frozen(self):
        dm = geodesic_distances(path4())
        with pytest.raises(ValueError):
            dm.dist[0, 0] = 9.0

    def test_matrix_computed_once_per_mode(self):
        g = build_graph(3, edges=[(0, 1, 0.5), (1, 2, 0.25)])
        hops = geodesic_distances(g)
        assert geodesic_distances(g) is hops
        assert geodesic_distances(g, hop_mode=True) is hops
        assert not hops.dist.flags.writeable
        weighted = geodesic_distances(g, hop_mode=False)
        assert weighted is not hops and weighted.hop_mode is False
        assert geodesic_distances(g, hop_mode=False) is weighted
        assert not weighted.dist.flags.writeable

    @pytest.mark.parametrize("hop_mode", [True, False])
    def test_single_vertex(self, hop_mode):
        assert geodesic_distances(build_graph(1), hop_mode).dist.tolist() == [[0.0]]

    @pytest.mark.parametrize("hop_mode", [True, False])
    def test_edgeless(self, hop_mode):
        dist = geodesic_distances(build_graph(5), hop_mode).dist
        assert np.array_equal(dist, np.where(np.eye(5, dtype=bool), 0.0, UNREACHABLE))

    def test_long_path(self):
        n = 300
        g = build_graph(n, edges=[(i, i + 1, 0.5) for i in range(n - 1)])
        gap = gap_matrix(n)
        assert np.array_equal(geodesic_distances(g).dist, gap)
        assert np.array_equal(geodesic_distances(g, hop_mode=False).dist, gap / 2)

    def test_complete_graph_relaxed_in_slices(self):
        # the first round expands all n(n-1) arcs, more than one slice holds;
        # shortest weighted paths run along i, i+1, ..., so later rounds, which
        # lower cells from many frontier slices, decide most distances
        n = math.isqrt(covertnet.graph._RELAX_BUDGET) + 2
        assert n * (n - 1) > covertnet.graph._RELAX_BUDGET
        edges = [(i, j, 1.0 if j == i + 1 else float(n)) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, edges=edges)
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        assert np.array_equal(geodesic_distances(g).dist, np.minimum(gap, 1.0))
        assert np.array_equal(geodesic_distances(g, hop_mode=False).dist, gap)


    @pytest.mark.parametrize("kernel, hop_mode", [("_hop_pairs", True), ("_all_pairs", False)])
    def test_matrix_past_memory_is_a_graph_error(self, monkeypatch, kernel, hop_mode):
        # a real 320 GB allocation can succeed under overcommit and then be killed, so the kernel fails instead
        def exhausted(g):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(covertnet.graph, kernel, exhausted)
        g = build_graph(200_000, edges=[(0, 1)])
        message = "200000 vertices need a 320000000000-byte distance matrix, too large to allocate"
        with pytest.raises(GraphError, match=f"^{message}$"):
            geodesic_distances(g, hop_mode)
        assert g._distances == {}


def gap_matrix(n: int) -> np.ndarray:
    """|i - j| for every pair: the hop distances of the path 0-1-...-(n-1)."""
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def hop_cases():
    """Paths, cycles, directed paths and two paths side by side, around the 64-bit word edges."""
    for n in (63, 64, 65, 128, 129):
        chain = [(i, i + 1) for i in range(n - 1)]
        yield f"path {n}", build_graph(n, edges=chain)
        yield f"cycle {n}", build_graph(n, edges=chain + [(0, n - 1)])
        yield f"directed path {n}", build_graph(n, directed=True, edges=chain)
        half = n // 2
        yield f"two components {n}", build_graph(n, edges=[(i, j) for i, j in chain if j != half])


# Non-dyadic weights round in path sums, so adding a path in another order
# than source to target (as Floyd-Warshall does) changes some distances.
ROUNDING_WEIGHTS = (0.0, 0.1, 1 / 3, 0.7, 2.2)


class TestHopSweep:
    """Hop counts from the bit sweep, on graphs whose rows span several 64-bit words."""

    @settings(max_examples=60, deadline=None)
    @given(sparse_graphs())
    def test_matches_breadth_first_search(self, g):
        assert np.array_equal(geodesic_distances(g).dist, bfs_hops(g))

    @pytest.mark.parametrize("g", [g for _, g in hop_cases()], ids=[name for name, _ in hop_cases()])
    def test_word_edges(self, g):
        dist = geodesic_distances(g).dist
        assert np.array_equal(dist, bfs_hops(g))
        if g.m == g.n - 1 and not g.directed:
            assert np.array_equal(dist, gap_matrix(g.n))

    def test_path_of_1000(self):
        g = build_graph(1000, edges=[(i, i + 1) for i in range(999)])
        assert np.array_equal(geodesic_distances(g).dist, gap_matrix(1000))

    def test_complete_300_swept_in_slices(self):
        n = 300
        words = -(-n // 64)
        assert n * (n - 1) * words > covertnet.graph._SWEEP_BUDGET
        g = make_structure("complete", n)
        assert np.array_equal(geodesic_distances(g).dist, np.ones((n, n)) - np.eye(n))

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_slice_budget_does_not_change_result(self, monkeypatch, budget):
        monkeypatch.setattr(covertnet.graph, "_SWEEP_BUDGET", budget)
        rng = random.Random(budget)
        for n, directed in ((70, False), (130, True), (200, False)):
            arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            if not directed:
                arcs = {(min(a, b), max(a, b)) for a, b in arcs}
            g = build_graph(n, directed, sorted((a, b) for a, b in arcs if a != b))
            assert np.array_equal(geodesic_distances(g).dist, bfs_hops(g))


class TestPack:
    """``_pack`` writes the word layout that ``_bits`` reads."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from((1, 7, 8, 63, 64, 65)) | st.integers(1, 317),
        st.sampled_from((0, 1, 7, 8, 9)) | st.integers(0, 300),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_bits_inverts_pack_and_padding_is_zero(self, rows, cols, density, seed):
        b = np.random.default_rng(seed).random((rows, cols)) < density
        packed = covertnet.graph._pack(b)
        words = -(-rows // 64)
        assert packed.dtype == np.dtype("<u8") and packed.shape == (cols, words)
        assert np.array_equal(covertnet.graph._bits(packed, rows), b.T)
        assert not covertnet.graph._bits(packed, 64 * words)[:, rows:].any()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two float arrays hold the same bit patterns, cell by cell."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestWeightedKernel:
    """Weighted distances from the bucketed relaxation, against a Dijkstra search per source."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_sparse_graphs(ROUNDING_WEIGHTS))
    def test_same_bits_as_dijkstra(self, g):
        assert same_bits(geodesic_distances(g, hop_mode=False).dist, dijkstra_apsp(g))

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_slice_budget_does_not_change_result(self, monkeypatch, budget):
        monkeypatch.setattr(covertnet.graph, "_RELAX_BUDGET", budget)
        rng = random.Random(budget)
        cases = ((70, False, ROUNDING_WEIGHTS), (130, True, (0.5, 1.0, 3.0)), (150, False, (1e-9, 1.0, 1e9)))
        for n, directed, weights in cases:
            arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            if not directed:
                arcs = {(min(a, b), max(a, b)) for a, b in arcs}
            edges = [(a, b, rng.choice(weights)) for a, b in sorted(arcs) if a != b]
            g = build_graph(n, directed, edges)
            assert same_bits(geodesic_distances(g, hop_mode=False).dist, dijkstra_apsp(g))


class TestTotalDistance:
    def test_complete(self):
        assert total_distance(make_structure("complete", 4)) == 12.0

    def test_star(self):
        # brute-force all-pairs oracle: 6 ordered pairs at 1, 6 at 2
        star = make_structure("star", 4)
        assert float(brute_force_apsp(star).sum()) == 18.0
        assert total_distance(star) == 18.0

    def test_path(self):
        assert float(brute_force_apsp(path4()).sum()) == 20.0
        assert total_distance(path4()) == 20.0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            total_distance(build_graph(4, edges=[(0, 1)]))


class TestDiameter:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete(self, n):
        assert diameter(make_structure("complete", n)) == 1.0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_star(self, n):
        star = make_structure("star", n)
        assert float(brute_force_apsp(star).max()) == 2.0
        assert diameter(star) == 2.0

    def test_path(self):
        assert diameter(path4()) == 3.0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(build_graph(3, edges=[]))


class TestCommunity:
    def test_star_hub_distance_one(self):
        assert community(make_structure("star", 4), 0, 1) == {1, 2, 3}

    def test_star_leaf_distance_two(self):
        assert community(make_structure("star", 4), 1, 2) == {2, 3}

    def test_distance_zero_is_self(self):
        assert community(path4(), 2, 0) == {2}

    def test_empty_when_nothing_at_delta(self):
        assert community(path4(), 0, 7) == set()

    def test_unreachable_vertices_in_no_community(self):
        g = build_graph(3, edges=[(0, 1)])
        assert community(g, 0, 1) == {1}
        assert all(2 not in community(g, 0, d) for d in (0, 1, 2, 3))

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf, True, "1"])
    def test_negative_delta_rejected(self, delta):
        with pytest.raises(GraphError, match="community distance"):
            community(path4(), 0, delta)

    def test_bad_vertex_rejected(self):
        with pytest.raises(GraphError):
            community(path4(), 9, 1)


class TestIsConnected:
    def test_path_connected(self):
        assert is_connected(path4())

    def test_isolated_vertices_disconnect(self):
        assert not is_connected(build_graph(4, edges=[(0, 1)]))

    def test_single_vertex_connected(self):
        assert is_connected(build_graph(1))

    def test_directed_cycle_strongly_connected(self):
        assert is_connected(build_graph(3, directed=True, edges=[(0, 1), (1, 2), (2, 0)]))

    def test_directed_path_not_strongly_connected(self):
        assert not is_connected(build_graph(3, directed=True, edges=[(0, 1), (1, 2)]))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.booleans(), st.booleans()).flatmap(
        lambda flags: graphs(max_n=7, directed=flags[0], connected=flags[1])
    )
)
def test_connectivity_matches_brute_force(g):
    assert is_connected(g) == (not np.isinf(brute_force_apsp(g)).any())


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7, weighted=True))
def test_distances_match_brute_force(g):
    for hop_mode in (True, False):
        dm = geodesic_distances(g, hop_mode=hop_mode)
        assert np.array_equal(dm.dist, brute_force_apsp(g, hop_mode=hop_mode))


@settings(max_examples=150, deadline=None)
@given(
    st.booleans().flatmap(
        lambda directed: graphs(
            min_n=1, max_n=7, weighted=True, directed=directed, weights=ROUNDING_WEIGHTS
        )
    )
)
def test_distances_match_brute_force_with_rounding_weights(g):
    for hop_mode in (True, False):
        dist = geodesic_distances(g, hop_mode=hop_mode).dist
        assert np.array_equal(dist, brute_force_apsp(g, hop_mode=hop_mode))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, weighted=True))
def test_undirected_matrix_symmetric(g):
    for hop_mode in (True, False):
        dist = geodesic_distances(g, hop_mode=hop_mode).dist
        assert np.array_equal(dist, dist.T)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, weighted=True, connected=True))
def test_triangle_inequality(g):
    dist = geodesic_distances(g, hop_mode=False).dist
    n = g.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-9


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, connected=True))
def test_communities_partition_vertices(g):
    d = diameter(g)
    for i in range(g.n):
        seen: set[int] = set()
        size = 0
        for delta in range(int(d) + 1):
            ring = community(g, i, delta)
            assert not ring & seen
            seen |= ring
            size += len(ring)
        assert seen == set(range(g.n)) and size == g.n


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, connected=True))
def test_total_distance_bounds(g):
    t = total_distance(g)
    floor = g.n * (g.n - 1)
    assert t >= floor
    assert (t == floor) == (g.m == g.n * (g.n - 1) // 2)
    assert diameter(g) <= t
    assert diameter(g) == geodesic_distances(g).dist.max()


def test_random_connected_generator_is_connected():
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 8), weighted=True)
        assert is_connected(g)
        assert not math.isinf(brute_force_apsp(g).max())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=30), st.integers(1, 20))
def test_blocks_cut_greedily_within_budget(load, budget):
    # every block is as long as the budget allows, and one index alone when it is over
    cuts = list(covertnet.graph._blocks(np.array(load, dtype=np.int64), budget))
    assert [i for lo, hi in cuts for i in range(lo, hi)] == list(range(len(load)))
    for lo, hi in cuts:
        assert sum(load[lo:hi]) <= budget or hi == lo + 1
        assert hi == len(load) or sum(load[lo : hi + 1]) > budget
