import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import covertnet.search as search
from covertnet.cli import main
from covertnet.graph import build_graph, diameter, geodesic_distances, is_connected, total_distance
from covertnet.measures import SecrecyParams, balance, hidden_from_degrees, make_structure
from covertnet.search import enumerate_connected, find_optimal, verify_lemma

from oracles import (
    chunk_stats,
    count_connected_graphs,
    mask_adjacency,
    order_stats,
    reference_lemma_rows,
    reference_scan,
)

LOW_GRID = [k / 20 for k in range(11)]
HIGH_GRID = [0.5 + k / 20 for k in range(11)]


class TestEnumerateConnected:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 4), (4, 38), (5, 728)])
    def test_counts_match_subset_filter_oracle(self, n, expected):
        assert count_connected_graphs(n) == expected
        assert sum(1 for _ in enumerate_connected(n)) == expected

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected(4):
            assert is_connected(g)
            assert g.n == 4 and not g.directed
            key = tuple(g.edges)
            assert key not in seen
            seen.add(key)

    def test_deterministic_order(self):
        first = [g.edges for g in enumerate_connected(4)]
        second = [g.edges for g in enumerate_connected(4)]
        assert first == second

    @pytest.mark.parametrize("n", [1, 9])
    def test_order_out_of_range(self, n):
        with pytest.raises(ValueError):
            enumerate_connected(n)

    def test_eight_needs_override(self):
        with pytest.raises(ValueError, match="allow_large"):
            enumerate_connected(8)
        enumerate_connected(8, allow_large=True)  # permitted, not consumed


@st.composite
def mask_windows(draw):
    """(n, lo, hi): a window of at most 64 masks inside the n-vertex mask space."""
    n = draw(st.integers(2, 8))
    space = 1 << (n * (n - 1) // 2)
    lo = draw(st.integers(0, space - 1))
    return n, lo, min(space, lo + draw(st.integers(1, 64)))


class TestChunkStats:
    @settings(max_examples=60, deadline=None)
    @example((8, (1 << 28) - 64, 1 << 28))  # top window: bit 7 of every adjacency row
    @given(mask_windows())
    def test_matches_graph_distances(self, window):
        n, lo, hi = window
        masks, totals, degrees = chunk_stats(n, lo, hi)
        assert masks.dtype == np.int64 and totals.dtype == np.float64
        assert degrees.dtype == np.float64 and degrees.shape == (len(masks), n)
        slots = list(itertools.combinations(range(n), 2))
        expected = []
        for mask in range(lo, hi):
            g = build_graph(n, edges=[slots[k] for k in range(len(slots)) if mask >> k & 1])
            if is_connected(g):
                expected.append((mask, total_distance(g), g.degree_sequence()))
        assert [m for m, _, _ in expected] == masks.tolist()
        assert [t for _, t, _ in expected] == totals.tolist()
        assert [list(d) for _, _, d in expected] == degrees.tolist()

    def test_high_part_reads_the_tables_right(self):
        # every high part for n = 2..7; at n = 8 the first, the last (every high slot set) and 30 drawn
        drawn = np.random.default_rng(8).integers(1, (1 << 16) - 1, 30).tolist()
        cases = [(n, h) for n in range(2, 8) for h in range(1 << max(0, math.comb(n, 2) - 12))]
        cases += [(8, h) for h in [0, (1 << 16) - 1, *drawn]]
        for n, h in cases:
            slots = math.comb(n, 2)
            masks = (h << 12) + np.arange(1 << min(slots, 12), dtype=np.int64)
            low, high = search._adjacency_tables(n)
            adj = low | high[:, h, None]  # a chunk gathers the columns of its live masks from this
            expected = mask_adjacency(n, masks)
            assert adj.dtype == np.uint8 and np.array_equal(adj, expected)
            connected, edges = search._connectivity(n, h)
            assert np.array_equal(edges, sum(masks >> k & 1 for k in range(slots)))
            # the per-order table's flags against the closure that built it, on this part
            assert np.array_equal(connected, search._closure(n, expected)[0] == (1 << n) - 1)


class TestClosure:
    @settings(max_examples=100, deadline=None)
    @example((8, (1 << 28) - 64, 1 << 28))  # top window: bit 7 of every row
    @given(mask_windows())
    def test_rows_are_what_each_source_reaches(self, window):
        n, lo, hi = window
        adj = mask_adjacency(n, np.arange(lo, hi, dtype=np.int64))
        reach = search._closure(n, adj)
        assert reach.dtype == np.uint8 and reach.shape == adj.shape
        for col, mask in enumerate(range(lo, hi)):
            dist = geodesic_distances(search._graph_from_mask(mask, n)).dist
            for s in range(n):
                assert int(reach[s, col]) == sum(1 << w for w in range(n) if dist[s, w] < math.inf)

    # sha256 of each order's partition (as <i8) followed by its flags, recorded
    # when the flags came from growing vertex 0's ball n - 2 levels at a time
    GOLDEN = {
        2: "52807a4607ea5debf0b7d4ccb452f4af03e16b06a8e0aa0dfe177db1ff02123d",
        3: "01658d8b9b3a8504415f2c6c175a2afa56721a6bff8022f6b22e25269535f04f",
        4: "1cb6efb04680c7b3abdab895b85f7f21fb5a3fe35f529bfc11faefdaa92015c0",
        5: "c383fd22bb27202f7b9cabe2074308d58693d92fb9857f39e6b9c036301cbaf8",
        6: "588d3fce2c1f539ca790f6bc8b56980c5a30ab8d02feaa61f876a84753e33428",
        7: "79eb66d48e0fd0072a3108575af1c5a7061883e6ce82e7f7fb07d954e01087ad",
        8: "c573c24766a18d09799080038d98a55fe11291163c09ec04a15889451b209893",
    }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_connected_table_is_unchanged(self, n):
        partition, flags = search._connected_table(n)
        assert flags.dtype == bool
        digest = hashlib.sha256(partition.astype("<i8").tobytes() + flags.tobytes()).hexdigest()
        assert digest == self.GOLDEN[n]


class TestCountConnected:
    def test_recurrence_matches_enumeration(self):
        assert search._count_connected(1) == count_connected_graphs(1) == 1
        for n in range(2, 7):
            assert search._count_connected(n) == sum(1 for _ in enumerate_connected(n))

    def test_orders_seven_and_eight(self):
        assert search._count_connected(7) == 1_866_256  # OEIS A001187
        assert search._count_connected(8) == 251_548_592

    @pytest.mark.parametrize("n", range(2, 9))
    def test_connected_table_counts_every_connected_graph(self, n):
        partition, flags = search._connected_table(n)
        assert len(flags) == {6: 5, 7: 47, 8: 406}.get(n, 1)  # partitions the high parts' edges induce
        assert np.bincount(partition, minlength=len(flags)) @ flags.sum(axis=1) == search._count_connected(n)


@st.composite
def scan_cases(draw):
    """(n, p, weights, tolerance): random p including 0, 1/2 and 1, and uniform, random or skewed weights.

    Skewed weights give one member up to ten times the others' weight.
    """
    n = draw(st.integers(2, 7), label="n")
    p = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), label="p")
    kind = draw(st.sampled_from(["uniform", "random", "skewed"]), label="weights")
    weights = None
    if kind == "random":
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="raw weights")
        assume(sum(raw) > 0)
        weights = tuple(w / sum(raw) for w in raw)
    elif kind == "skewed":
        raw = [1.0] * n
        heavy = draw(st.integers(0, n - 1), label="heavy member")
        raw[heavy] = draw(st.floats(1.0, 10.0), label="heavy weight")
        weights = tuple(w / sum(raw) for w in raw)
    tolerance = draw(st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.0, 0.5)), label="tolerance")
    return n, p, weights, tolerance


def mask_bounds(n, p, weights, masks):
    """B = N/(2N - 2m) * H of each mask, from its bits alone."""
    degrees = np.zeros((len(masks), n))
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        edge = masks >> k & 1
        degrees[:, i] += edge
        degrees[:, j] += edge
    pairs = n * (n - 1)
    hidden = ((1 - (p * degrees + 1) / n) * weights).sum(axis=1)
    return pairs / (2 * pairs - degrees.sum(axis=1)) * hidden


@st.composite
def gate_cases(draw):
    """(n, p, weights, tolerance) for n = 2..6, with weights that sum to 1, or to 1 -+ 1e-12."""
    n = draw(st.integers(2, 6), label="n")
    p = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), label="p")
    if draw(st.booleans(), label="uniform"):
        weights = np.full(n, 1.0 / n)
    else:
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="raw weights"))
        assume(raw.sum() > 0)
        weights = raw / raw.sum() * draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]), label="weight sum")
    tolerance = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)), label="tolerance")
    return n, p, weights, tolerance


class TestPrunedScan:
    @settings(max_examples=30, deadline=None)
    @example((7, 0.5, None, 1e-12))  # p = 1/2: nothing is pruned, 676,456 ties
    @example((2, 0.15, (0.4, 0.6), 1e-3))  # one connected mask: a one-row stack
    @example((6, 0.5, (0.1,) * 5 + (0.5,), 1e-12))  # 670 masks of diameter >= 3 are measured
    @example((7, 0.45, (0.1,) * 6 + (0.4,), 0.0))  # 390 measured
    @example((6, 0.7, None, 1e-12))  # high parts 1, 2 and 4 each keep 216 masks, all unscored
    @given(scan_cases())
    def test_same_result_as_the_unpruned_scan(self, case):
        n, p, weights, tolerance = case
        params = SecrecyParams(p, weights)
        result = find_optimal(n, params, tolerance=tolerance)
        count, best, masks = reference_scan(n, p, params.weights_for(n), tolerance)
        assert result.graphs_enumerated == count
        assert result.best_mu == best
        assert np.array_equal(result.argmax_graphs.masks, masks)
        assert find_optimal(n, params, tolerance=tolerance, workers=2) == result

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    def test_bound_holds_for_every_connected_mask(self, n, p, raw):
        assume(sum(raw[:n]) > 0)
        weights = np.array(raw[:n]) / sum(raw[:n])
        for masks, totals, degrees in order_stats(n):
            mu = n * (n - 1) / totals * hidden_from_degrees(n, degrees, p, weights)
            assert (mu <= mask_bounds(n, p, weights, masks) + 1e-12).all()

    @settings(max_examples=60, deadline=None)
    @example((6, 0.3, np.full(6, 1 / 6), 0.0))  # K6 is tight: its bound is the floor
    @example((6, 0.7, np.full(6, 1 / 6), 0.0))  # so are the six stars
    @example((5, 0.8, np.array([0.1, 0.3, 0.2, 0.15, 0.25]) * (1 + 1e-12), 0.0))
    @given(gate_cases())
    def test_gate_opens_every_edge_count_that_reaches_the_floor(self, case):
        n, p, weights, tolerance = case
        floor = search._floor(n, p, weights, tolerance)
        gate = search._edge_gate(n, p, weights, floor)
        for masks, _, degrees in order_stats(n):
            reach = mask_bounds(n, p, weights, masks) >= floor
            assert gate[degrees[reach].sum(axis=1).astype(int) // 2].all()
        # the rows that set the floor, in the library's own bits: K_n for p < 1/2, the stars for p > 1/2
        closed = search._closed_form_degrees(n)[: n + 1]
        bounds = search._balance_bound(n, closed.sum(axis=1), hidden_from_degrees(n, closed, p, weights))
        tight = bounds >= floor
        assert tight.any() and gate[closed[tight].sum(axis=1).astype(int) // 2].all()

    @pytest.mark.parametrize(
        "n,p,weights",
        [
            pytest.param(7, 0.3, None, id="7-0.3-measured-uniform"),  # K7 alone reaches the floor
            pytest.param(6, 0.5, None, id="6-0.5-measured-uniform"),  # every bound ties the floor
            pytest.param(6, 0.5, (0.1,) * 5 + (0.5,), id="6-0.5-measured-one-heavy"),
        ],
    )
    def test_distance_loop_sees_only_masks_that_the_bound_keeps(self, monkeypatch, n, p, weights):
        params = SecrecyParams(p, weights)
        w = np.asarray(params.weights_for(n))
        count, best, masks = reference_scan(n, p, w, 1e-12)
        # a mask of diameter >= 3 has T >= 2N - 2m + 2: it is measured when its bound there reaches the floor
        floor, pairs, expected = search._floor(n, p, w, 1e-12), n * (n - 1), 0
        for _, totals, degrees in order_stats(n):
            sums = degrees.sum(axis=1)
            bound = pairs / (2 * pairs - sums + 2) * hidden_from_degrees(n, degrees, p, w)
            expected += int(np.count_nonzero((totals > 2 * pairs - sums) & (bound >= floor)))
        assert (expected > 0) == (weights is not None)  # uniform weights measure nothing here
        columns, counts = [], []
        real_total, real_run = search._total_distances, search.run_chunks

        def total(order, adj):
            columns.append(adj.shape[1])
            return real_total(order, adj)

        def run(fn, jobs, workers):
            results = real_run(fn, jobs, workers)
            counts.extend(connected for connected, _ in results)
            return results

        monkeypatch.setattr(search, "_total_distances", total)
        monkeypatch.setattr(search, "run_chunks", run)
        result = find_optimal(n, params)
        assert (result.graphs_enumerated, result.best_mu) == (count, best)
        assert np.array_equal(result.argmax_graphs.masks, masks)
        assert sum(columns) == expected
        assert 0 not in columns  # a chunk with nothing to measure runs no distance loop
        # a chunk reports its connected masks, measured or not
        # one chunk per high part, the edge slots above the low 12
        assert len(counts) == 1 << max(0, math.comb(n, 2) - 12)
        assert sum(counts) == search._count_connected(n)


class TestOrderSeven:
    def test_complete_graph_alone_at_low_p(self):
        result = find_optimal(7, SecrecyParams(0.3))
        assert result.graphs_enumerated == 1_866_256  # OEIS A001187
        assert [g.edges for g in result.argmax_graphs] == [make_structure("complete", 7).edges]

    def test_labeled_stars_at_high_p(self):
        result = find_optimal(7, SecrecyParams(0.7))
        stars = [build_graph(7, edges=[(h, j) for j in range(7) if j != h]).edges for h in range(7)]
        assert sorted(g.edges for g in result.argmax_graphs) == sorted(stars)

    def test_every_diameter_two_graph_ties_at_half(self):
        # confirmed independently: I + A + A^2 has no zero entry for exactly this many masks
        assert len(find_optimal(7, SecrecyParams(0.5)).argmax_graphs) == 676_456

    def test_lemma_claims(self):
        for which, grid in [("complete_optimal", [0.0, 0.3, 0.5]), ("star_optimal", [0.5, 0.7, 1.0])]:
            report = verify_lemma(which, 7, grid)
            assert report.all_passed
            assert_rows_match_scan(report, reference_lemma_rows(which, 7, grid))

    def test_half_holds_one_mask_per_maximizer(self):
        # the scan's peak is the kept masks (8 B each) plus their concatenation,
        # not the chunks' candidates with their mu alongside
        tracemalloc.start()
        try:
            result = find_optimal(7, SecrecyParams(0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.argmax_graphs) == 676_456
        assert peak / len(result.argmax_graphs) < 24


class TestFindOptimal:
    def test_low_p_complete_wins(self):
        result = find_optimal(4, SecrecyParams(0.2))
        assert result.best_mu == pytest.approx(0.6, abs=1e-12)
        assert result.graphs_enumerated == 38
        assert any(g.m == 6 for g in result.argmax_graphs)

    def test_high_p_star_wins(self):
        result = find_optimal(4, SecrecyParams(0.8))
        assert result.best_mu == pytest.approx(0.3, abs=1e-12)
        assert all(sorted(g.degree_sequence()) == [1, 1, 1, 3] for g in result.argmax_graphs)
        assert len(result.argmax_graphs) == 4  # one labeled star per hub choice

    def test_boundary_keeps_both(self):
        result = find_optimal(4, SecrecyParams(0.5))
        shapes = {tuple(sorted(g.degree_sequence())) for g in result.argmax_graphs}
        assert (3, 3, 3, 3) in shapes  # complete
        assert (1, 1, 1, 3) in shapes  # star

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_regime_winners_across_orders(self, n):
        low = find_optimal(n, SecrecyParams(0.2))
        assert any(g.m == n * (n - 1) // 2 for g in low.argmax_graphs)
        high = find_optimal(n, SecrecyParams(0.8))
        star_degrees = [1] * (n - 1) + [n - 1]
        assert any(sorted(g.degree_sequence()) == star_degrees for g in high.argmax_graphs)

    def test_argmax_members_hit_best_mu(self):
        result = find_optimal(5, SecrecyParams(0.35))
        assert result.argmax_graphs
        for g in result.argmax_graphs:
            assert is_connected(g)
            assert abs(balance(g, SecrecyParams(0.35)).mu - result.best_mu) <= 1e-12

    def test_no_graph_beats_best(self):
        result = find_optimal(4, SecrecyParams(0.3))
        for g in enumerate_connected(4):
            assert balance(g, SecrecyParams(0.3)).mu <= result.best_mu + 1e-12

    def test_nonuniform_weights_supported(self):
        params = SecrecyParams(0.4, sharing_weights=(0.7, 0.1, 0.1, 0.1))
        result = find_optimal(4, params)
        for g in enumerate_connected(4):
            assert balance(g, params).mu <= result.best_mu + 1e-12

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            find_optimal(4, SecrecyParams(0.2), tolerance=-1e-9)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            find_optimal(4, SecrecyParams(0.3), tolerance=float("nan"))

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            find_optimal(4, SecrecyParams(0.3), tolerance=math.inf)

    def test_worker_count_does_not_change_result(self):
        one = find_optimal(6, SecrecyParams(0.5))
        two = find_optimal(6, SecrecyParams(0.5), workers=3)
        assert one == two



class TestMaskBackedMaximizers:
    def test_half_ties_every_graph_of_diameter_two(self):
        result = find_optimal(5, SecrecyParams(0.5))
        assert len(result.argmax_graphs) == sum(1 for g in enumerate_connected(5) if diameter(g) <= 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 5),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1e-12, 1e-3]),
        st.data(),
    )
    def test_indexing_agrees_with_list(self, n, p, tolerance, data):
        graphs = find_optimal(n, SecrecyParams(p), tolerance=tolerance).argmax_graphs
        listed = list(graphs)
        assert len(listed) == len(graphs) >= 1
        assert [g.edges for g in graphs] == [g.edges for g in listed]
        index = data.draw(st.integers(-len(listed), len(listed) - 1), label="index")
        assert graphs[index] == listed[index]
        window = data.draw(st.slices(len(listed) + 2), label="slice")
        assert graphs[window] == tuple(listed[window])
        with pytest.raises(IndexError):
            graphs[len(listed)]

    def test_equal_and_hashable_across_workers(self):
        one = find_optimal(6, SecrecyParams(0.5))
        three = find_optimal(6, SecrecyParams(0.5), workers=3)
        assert one == three and hash(one) == hash(three)
        assert len({one, three}) == 1
        emptied = replace(one, argmax_graphs=())
        assert emptied != one and not emptied.argmax_graphs
        with pytest.raises(ValueError):
            one.argmax_graphs.masks[0] = 0  # the masks are read-only

    def test_optimal_cli_builds_only_the_listed_graphs(self, monkeypatch, capsys):
        calls = []
        real_build = search.build_graph
        monkeypatch.setattr(search, "build_graph", lambda *a, **k: calls.append(a) or real_build(*a, **k))
        assert main(["optimal", "--n", "6", "--p", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["maximizer_count"] == 10_924 and len(doc["maximizers"]) == 10
        assert len(calls) == 10


def assert_rows_match_scan(report, reference):
    """Same passed flags and mu_claimed as the full scan; max_mu_other within 1e-15."""
    assert [row.p for row in report.rows] == [p for p, _, _, _ in reference]
    for row, (_, passed, mu_claimed, max_other) in zip(report.rows, reference):
        assert row.passed == passed
        assert row.mu_claimed == mu_claimed
        assert row.max_mu_other == max_other or abs(row.max_mu_other - max_other) <= 1e-15


@st.composite
def claim_grids(draw):
    """(claim, grid): one to three probabilities drawn inside the claim's interval."""
    which = draw(st.sampled_from(sorted(search._LEMMA_CLAIMS)))
    _, lo, hi = search._LEMMA_CLAIMS[which]
    return which, draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3))


class TestVerifyLemma:
    @settings(max_examples=60, deadline=None)
    @example(2, ("star_optimal", [0.5, 1.0]))  # the claimed edge is the only connected graph
    @example(6, ("complete_optimal", [0.5]))  # every graph of diameter <= 2 ties the claim
    @given(st.integers(2, 6), claim_grids())
    def test_rows_match_the_full_scan(self, n, claim):
        which, grid = claim
        assert_rows_match_scan(verify_lemma(which, n, grid), reference_lemma_rows(which, n, grid))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    def test_failing_rows_carry_the_strongest_rival(self, monkeypatch, n):
        # stretched to [0, 1], the complete claim fails above 1/2 and the star claim below
        stretched = {which: (kind, 0.0, 1.0) for which, (kind, _, _) in search._LEMMA_CLAIMS.items()}
        monkeypatch.setattr(search, "_LEMMA_CLAIMS", stretched)
        grid = [k / 10 for k in range(11)]
        for which, (kind, _, _) in stretched.items():
            report = verify_lemma(which, n, grid)
            if n <= 6:
                assert_rows_match_scan(report, reference_lemma_rows(which, n, grid))
            failed = [row for row in report.rows if not row.passed]
            assert bool(failed) == (n > 2)
            complete = make_structure("complete", n)
            rivals = {
                build_graph(n, edges=[(j, n - 1) for j in range(n - 1)]).edges,
                complete.edges[:-1] if kind == "complete" else complete.edges,
            }
            for row in failed:
                rival = row.counterexample
                assert is_connected(rival) and rival.edges != make_structure(kind, n).edges
                assert rival.edges in rivals
                assert balance(rival, SecrecyParams(row.p)).mu == row.max_mu_other

    def test_scans_no_mask_at_any_order(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("verify_lemma scanned edge masks or built a graph")

        for name in ("run_chunks", "_connectivity", "build_graph"):
            monkeypatch.setattr(search, name, scan)
        for n in range(2, search.LEMMA_MAX_ORDER + 1):
            complete = make_structure("complete", n)
            star = build_graph(n, edges=[(j, n - 1) for j in range(n - 1)])
            dense = {"complete": build_graph(n, edges=complete.edges[:-1]), "star": complete}
            for which, grid in (("complete_optimal", LOW_GRID), ("star_optimal", HIGH_GRID)):
                kind = search._LEMMA_CLAIMS[which][0]
                report = verify_lemma(which, n, grid)
                assert report.all_passed
                claimed = make_structure(kind, n)
                rivals = [star, dense[kind]] if n > 2 else []
                for row in report.rows:  # scored from degrees, bit for bit the measured balance
                    params = SecrecyParams(row.p)
                    assert row.mu_claimed == balance(claimed, params).mu
                    assert row.max_mu_other == max((balance(g, params).mu for g in rivals), default=-math.inf)

    def test_closed_form_rows_are_the_structures_degrees(self):
        for n in range(2, 12):
            complete = make_structure("complete", n)
            graphs = [build_graph(n, edges=[e for e in complete.edges if h in e[:2]]) for h in range(n)]
            graphs += [complete, build_graph(n, edges=complete.edges[:-1])]
            table = search._closed_form_degrees(n)
            assert np.array_equal(table, [g.degree_sequence() for g in graphs])
            assert graphs[0].edges == make_structure("star", n).edges
            for g, row in zip(graphs, table):  # the rule a failing row builds its counterexample by
                full = row == n - 1
                assert [e[:2] for e in g.edges] == [(i, j) for i, j in search._edge_slots(n) if full[i] or full[j]]

    def test_order_above_cap_rejected(self):
        with pytest.raises(ValueError, match="order"):
            verify_lemma("star_optimal", search.LEMMA_MAX_ORDER + 1, [0.7])

    def test_complete_optimal_sweep(self):
        report = verify_lemma("complete_optimal", 5, LOW_GRID)
        assert report.all_passed
        assert len(report.rows) == len(LOW_GRID)
        assert all(row.counterexample is None for row in report.rows)

    def test_star_optimal_sweep(self):
        report = verify_lemma("star_optimal", 5, HIGH_GRID)
        assert report.all_passed

    def test_small_case_values(self):
        report = verify_lemma("complete_optimal", 3, [0.0])
        row = report.rows[0]
        assert row.passed
        assert row.mu_claimed == pytest.approx(2 / 3, abs=1e-12)
        # strongest rival among the 3 labeled paths: K=6/8, H=1-3/9
        assert row.max_mu_other == pytest.approx((6 / 8) * (2 / 3), abs=1e-12)

    def test_max_other_reflects_boundary_tie(self):
        report = verify_lemma("star_optimal", 4, [0.5])
        row = report.rows[0]
        assert row.passed
        assert row.max_mu_other == pytest.approx(row.mu_claimed, abs=1e-12)

    def test_p_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="outside the stated interval"):
            verify_lemma("complete_optimal", 4, [0.6])
        with pytest.raises(ValueError, match="outside the stated interval"):
            verify_lemma("star_optimal", 4, [0.49])

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            verify_lemma("complete_optimal", 4, [0.3], tolerance=float("nan"))

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            verify_lemma("complete_optimal", 4, [0.3], tolerance=math.inf)

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="unknown claim"):
            verify_lemma("cycle_optimal", 4, [0.1])
