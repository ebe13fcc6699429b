import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertnet.graph import GraphError, build_graph, is_connected
from covertnet.measures import (
    MeasureReport,
    SecrecyParams,
    balance,
    exposure_fractions,
    hidden_from_degrees,
    hidden_knowledge,
    information_measure,
    make_hierarchy,
    make_structure,
)

from strategies import graphs

P_GRID = [k / 20 for k in range(21)]


class TestSecrecyParams:
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            SecrecyParams(p)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SecrecyParams(0.5, sharing_weights=(0.5, 0.7, -0.2))

    @pytest.mark.parametrize("weights", [(float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan"))])
    def test_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="nonnegative"):
            SecrecyParams(0.5, sharing_weights=weights)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SecrecyParams(0.5, sharing_weights=(0.5, 0.4))

    def test_uniform_default(self):
        assert np.allclose(SecrecyParams(0.1).weights_for(5), 0.2)

    def test_length_mismatch_at_use(self):
        params = SecrecyParams(0.1, sharing_weights=(0.5, 0.5))
        with pytest.raises(ValueError, match="length"):
            hidden_knowledge(make_structure("star", 4), params)


class TestInformationMeasure:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_is_exactly_one(self, n):
        assert information_measure(make_structure("complete", n)) == 1.0

    def test_star(self):
        # T=18 from the brute-force distance oracle (see test_graph)
        assert information_measure(make_structure("star", 4)) == 12.0 / 18.0

    def test_disconnected_is_zero(self):
        assert information_measure(build_graph(4, edges=[(0, 1)])) == 0.0

    def test_too_small(self):
        with pytest.raises(GraphError):
            information_measure(build_graph(1))

    def test_directed_rejected(self):
        with pytest.raises(GraphError):
            information_measure(build_graph(2, directed=True, edges=[(0, 1)]))


class TestExposure:
    def test_star_hub(self):
        e = exposure_fractions(make_structure("star", 4), SecrecyParams(0.5))
        assert e[0] == (0.5 * 3 + 1) / 4 == 0.625
        assert np.all(e[1:] == 0.375)

    def test_zero_p_is_one_over_n(self):
        e = exposure_fractions(make_structure("path", 5), SecrecyParams(0.0))
        assert np.all(e == 0.2)

    def test_complete_full_p_exposes_everything(self):
        e = exposure_fractions(make_structure("complete", 4), SecrecyParams(1.0))
        assert np.all(e == 1.0)


class TestHiddenKnowledge:
    def test_star_uniform(self):
        h = hidden_knowledge(make_structure("star", 4), SecrecyParams(0.5))
        assert type(h) is float
        assert h == pytest.approx(0.5625, abs=1e-12)
        assert h == pytest.approx(1 - (2 * 0.5 * 3 + 4) / 16, abs=1e-12)

    def test_zero_p(self):
        h = hidden_knowledge(make_structure("cycle", 5), SecrecyParams(0.0))
        assert h == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_complete_full_p(self):
        assert hidden_knowledge(make_structure("complete", 4), SecrecyParams(1.0)) == 0.0

    def test_nonuniform_weights(self):
        star = make_structure("star", 4)
        h = hidden_knowledge(star, SecrecyParams(0.5, sharing_weights=(1.0, 0, 0, 0)))
        # all weight on the hub: H = u_hub = 1 - 0.625
        assert h == pytest.approx(0.375, abs=1e-12)


@st.composite
def degree_stacks(draw):
    """(n, degrees, p, weights): a (rows, n) uint8 stack of degrees below n, 1-70 rows."""
    n = draw(st.one_of(st.integers(2, 9), st.just(240)), label="n")
    rows = draw(st.integers(1, 70), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    degrees = rng.integers(0, n, size=(rows, n), dtype=np.uint8)
    weights = rng.random(n)
    return n, degrees, draw(st.floats(0.0, 1.0), label="p"), weights / weights.sum()


class TestHiddenFromDegrees:
    @settings(max_examples=150, deadline=None)
    @given(degree_stacks())
    def test_row_has_the_same_bits_in_any_stack(self, case):
        n, degrees, p, weights = case
        rows = degrees.astype(np.float64)
        counts = np.ascontiguousarray(degrees.T)  # the search's (n, masks) layout
        alone = [hidden_from_degrees(n, row, p, weights) for row in rows]
        for stacked in (rows, np.asfortranarray(rows), counts.T):
            got = hidden_from_degrees(n, stacked, p, weights)
            assert got.shape == (len(rows),)
            assert [h.hex() for h in got.tolist()] == [float(h).hex() for h in alone]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 7, 8, 9, 240]), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_sums_each_row_as_a_left_fold_in_vertex_order(self, n, p, seed):
        # functools.reduce, not the builtin sum: from Python 3.12 sum compensates float rounding
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, n, size=(33, n)).astype(np.float64)
        weights = rng.random(n)
        weights /= weights.sum()
        grid = np.array([0.0, p, 0.5, 1.0])[:, None, None]

        def fold(degrees, p):
            terms = (1.0 - (p * degrees + 1.0) / n) * weights
            return np.asarray(functools.reduce(operator.add, np.moveaxis(terms, -1, 0)))

        counts = np.ascontiguousarray(degrees.T)  # the search's (n, masks) layout
        lemma = np.stack([degrees[:3]] * 4)  # a small (p, rows, n) stack, as the lemma check makes
        assert lemma.flags.c_contiguous and np.asfortranarray(lemma).flags.f_contiguous
        cases = ((degrees[0], p), (degrees, p), (counts.T, p), (degrees, grid),
                 (degrees[:3], grid), (lemma, p), (np.asfortranarray(lemma), p))
        for stack, grid_p in cases:
            got = np.asarray(hidden_from_degrees(n, stack, grid_p, weights))
            assert got.shape == fold(stack, grid_p).shape
            assert got.tobytes() == fold(stack, grid_p).tobytes()


class TestBalance:
    def test_complete_example(self):
        report = balance(make_structure("complete", 4), SecrecyParams(0.3))
        assert report.mu == pytest.approx(0.525, abs=1e-12)
        assert report.K == 1.0

    def test_star_example(self):
        report = balance(make_structure("star", 4), SecrecyParams(0.3))
        assert report.mu == pytest.approx(0.425, abs=1e-12)

    def test_path_example(self):
        report = balance(build_graph(4, edges=[(0, 1), (1, 2), (2, 3)]), SecrecyParams(0.3))
        assert report.K == pytest.approx(0.6, abs=1e-12)
        assert report.H == pytest.approx(0.6375, abs=1e-12)
        assert report.mu == pytest.approx(0.3825, abs=1e-12)

    def test_disconnected_mu_zero_but_h_reported(self):
        report = balance(build_graph(4, edges=[(0, 1)]), SecrecyParams(0.5))
        assert report.K == 0.0 and report.mu == 0.0
        assert report.H > 0
        assert report.degrees == (1, 1, 0, 0)

    def test_report_product_invariant(self):
        report = balance(make_structure("cycle", 5), SecrecyParams(0.37))
        assert report.mu == report.K * report.H

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=2, max_n=8, directed=False), st.floats(0.0, 1.0))
    def test_reads_degrees_once_with_the_bits_of_each_measure(self, g, p):
        params = SecrecyParams(p)
        calls = []
        reads = g.degree_sequence

        def counted():
            calls.append(1)
            return reads()

        object.__setattr__(g, "degree_sequence", counted)
        report = balance(g, params)
        assert len(calls) == 1
        object.__delattr__(g, "degree_sequence")
        assert report == MeasureReport(
            K=information_measure(g),
            H=hidden_knowledge(g, params),
            mu=information_measure(g) * hidden_knowledge(g, params),
            exposure=tuple(exposure_fractions(g, params).tolist()),
            degrees=g.degree_sequence(),
        )

    def test_checks_graph_before_params(self):
        with pytest.raises(GraphError, match="undirected"):
            balance(build_graph(3, directed=True, edges=[(0, 1)]), "not params")
        with pytest.raises(ValueError, match="params must be a SecrecyParams"):
            balance(make_structure("path", 3), 0.3)


class TestMakeStructure:
    def test_complete(self):
        g = make_structure("complete", 4)
        assert g.m == 6 and g.degree_sequence() == (3, 3, 3, 3)

    def test_star(self):
        g = make_structure("star", 4)
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))

    def test_anarchy(self):
        g = make_structure("anarchy", 5)
        assert g.m == 0 and not is_connected(g)

    def test_path_and_cycle(self):
        assert make_structure("path", 4).degree_sequence() == (1, 2, 2, 1)
        assert make_structure("cycle", 4).degree_sequence() == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "kind,n", [("star", 1), ("path", 1), ("cycle", 2), ("complete", 0), ("anarchy", 0)]
    )
    def test_below_minimum(self, kind, n):
        with pytest.raises(ValueError):
            make_structure(kind, n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown structure"):
            make_structure("wheel", 5)


class TestMakeHierarchy:
    def test_two_linked(self):
        g = make_hierarchy([0.1, 0.2, 0.3, 0.4, 0.5], n_linked=2)
        assert g.edges == ((0, 3, 1.0), (0, 4, 1.0))
        assert g.degree_sequence() == (2, 0, 0, 1, 1)

    def test_zero_linked_is_anarchy(self):
        assert make_hierarchy([0.1, 0.2, 0.3, 0.4], n_linked=0).m == 0

    def test_all_linked_is_star(self):
        g = make_hierarchy([0.1, 0.2, 0.3, 0.4], n_linked=3)
        assert g.edges == make_structure("star", 4).edges

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            make_hierarchy([0.3, 0.1, 0.2], n_linked=1)

    @pytest.mark.parametrize(
        "alphas", [(math.nan, 0.1, 0.2), (0.1, math.inf), (-0.1, 0.2), (0.1, 1.5)]
    )
    def test_levels_outside_unit_interval_rejected(self, alphas):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_hierarchy(alphas, n_linked=1)

    def test_n_linked_out_of_range(self):
        with pytest.raises(ValueError):
            make_hierarchy([0.1, 0.2], n_linked=2)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_degree_sequence_property(self, n, data):
        n_linked = data.draw(st.integers(0, n - 1))
        g = make_hierarchy([i / n for i in range(n)], n_linked)
        degrees = g.degree_sequence()
        assert degrees[0] == n_linked
        assert all(degrees[v] == 1 for v in range(n - n_linked, n) if v > 0)
        assert all(degrees[v] == 0 for v in range(1, n - n_linked))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8), st.sampled_from(P_GRID))
def test_uniform_hidden_knowledge_closed_form(g, p):
    h = hidden_knowledge(g, SecrecyParams(p))
    assert h == pytest.approx(1 - (2 * p * g.m + g.n) / g.n**2, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8), st.sampled_from(P_GRID))
def test_exposure_within_unit_interval(g, p):
    e = exposure_fractions(g, SecrecyParams(p))
    assert np.all(e >= 0.0) and np.all(e <= 1.0)


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_forms_across_grid(n):
    complete = make_structure("complete", n)
    star = make_structure("star", n)
    for p in P_GRID:
        params = SecrecyParams(p)
        assert balance(complete, params).mu == pytest.approx((n - 1) * (1 - p) / n, abs=1e-12)
        assert balance(star, params).mu == pytest.approx((n - 2 * p) / (2 * n), abs=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_boundary_tie_at_half(n):
    mu_complete = balance(make_structure("complete", n), SecrecyParams(0.5)).mu
    mu_star = balance(make_structure("star", n), SecrecyParams(0.5)).mu
    assert mu_complete == pytest.approx(mu_star, abs=1e-12)
    assert mu_complete == pytest.approx((n - 1) / (2 * n), abs=1e-12)


@pytest.mark.parametrize("kind", ["complete", "star"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_balance_monotone_decreasing_in_p(kind, n):
    g = make_structure(kind, n)
    mus = [balance(g, SecrecyParams(p)).mu for p in P_GRID]
    assert all(a > b for a, b in zip(mus, mus[1:]))
