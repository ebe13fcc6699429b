import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covertnet.search as search
from covertnet.cli import main
from covertnet.graph import build_graph, diameter, is_connected, total_distance
from covertnet.measures import SecrecyParams, balance, make_structure
from covertnet.search import enumerate_connected, find_optimal, verify_lemma

from oracles import count_connected_graphs

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
        masks, totals, degrees = search._chunk_stats(n, lo, hi)
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
        assert verify_lemma("complete_optimal", 7, [0.0, 0.3, 0.5]).all_passed
        assert verify_lemma("star_optimal", 7, [0.5, 0.7, 1.0]).all_passed


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

    def test_partitioning_does_not_change_result(self, monkeypatch):
        baseline = find_optimal(5, SecrecyParams(0.45))
        monkeypatch.setattr(search, "_CHUNK_MASKS", 37)  # deliberately ragged chunks
        ragged = find_optimal(5, SecrecyParams(0.45), workers=2)
        assert baseline == ragged


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


class TestVerifyLemma:
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

    def test_worker_count_does_not_change_report(self):
        one = verify_lemma("complete_optimal", 5, [0.0, 0.25, 0.5])
        two = verify_lemma("complete_optimal", 5, [0.0, 0.25, 0.5], workers=3)
        assert one == two
