import itertools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertnet.detection as detection
import covertnet.graph
from covertnet._parallel import run_chunks
from covertnet.detection import (
    DetectionParams,
    InfeasiblePlanError,
    ScrutinyPlan,
    detect_exact,
    simulate,
    validate_plan,
)
from covertnet.graph import build_graph
from covertnet.measures import make_structure

from oracles import (
    detection_chain,
    detection_joint_enumeration,
    reference_detect_exact,
    reference_simulate_chunk,
)
from strategies import graphs


def two_member_case():
    g = build_graph(2, edges=[(0, 1)])
    plan = ScrutinyPlan(alphas=(0.1, 0.2), budget=0.5)
    params = DetectionParams(gamma=0.5, cost_k=1.0, trials=50_000, seed=11)
    return g, plan, params


class TestValidatePlan:
    def test_boundary_budget_admitted(self):
        assert validate_plan(ScrutinyPlan((0.2, 0.3), budget=0.5)).valid

    @pytest.mark.parametrize(
        "alphas, budget", [((0.1, 0.2, 0.3), 0.6), ((0.01,) * 60, 0.6), ((0.9 / 7,) * 7, 0.9)]
    )
    def test_rounded_exact_split_admitted(self, alphas, budget):
        assert validate_plan(ScrutinyPlan(alphas, budget)).valid

    def test_excess_beyond_rounding_rejected(self):
        assert not validate_plan(ScrutinyPlan((0.1, 0.2, 0.3 + 1e-9), 0.6)).valid

    def test_budget_exceeded(self):
        verdict = validate_plan(ScrutinyPlan((0.4, 0.4), budget=0.5))
        assert not verdict.valid
        assert any("exceeding budget" in v for v in verdict.violations)

    def test_alpha_out_of_range(self):
        verdict = validate_plan(ScrutinyPlan((-0.1,), budget=1.0))
        assert not verdict.valid
        assert any("alpha[0]" in v for v in verdict.violations)

    def test_budget_out_of_range(self):
        assert not validate_plan(ScrutinyPlan((0.1,), budget=1.4)).valid

    def test_all_violations_reported(self):
        verdict = validate_plan(ScrutinyPlan((1.2, -0.3), budget=2.0))
        assert len(verdict.violations) == 3


class TestDetectionParams:
    @pytest.mark.parametrize("gamma", [0.0, 1.1, -0.2])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            DetectionParams(gamma=gamma, cost_k=1.0)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            DetectionParams(gamma=0.5, cost_k=0.0)

    @pytest.mark.parametrize("cost_k", [math.inf, math.nan])
    def test_cost_must_be_finite(self, cost_k):
        with pytest.raises(ValueError, match="finite and positive"):
            DetectionParams(gamma=0.5, cost_k=cost_k)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            DetectionParams(gamma=0.5, cost_k=1.0, trials=0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError):
            DetectionParams(gamma=0.5, cost_k=1.0, seed=-1)


@st.composite
def exact_cases(draw):
    """A graph on at most 12 members, a plan within its budget and a gamma."""
    g = draw(st.booleans().flatmap(lambda directed: graphs(min_n=1, max_n=12, directed=directed)))
    budget = draw(st.floats(0.0, 1.0))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=g.n, max_size=g.n))
    total = math.fsum(raw)
    scale = budget / total if total > budget else 1.0
    plan = ScrutinyPlan(tuple(a * scale for a in raw), budget)
    return g, plan, draw(st.floats(0.0, 1.0, exclude_min=True))


class TestDetectExact:
    @settings(max_examples=150, deadline=None)
    @given(exact_cases())
    def test_bit_identical_to_pair_loop(self, case):
        g, plan, gamma = case
        report = detect_exact(g, plan, DetectionParams(gamma, 1.0))
        assert report.per_member_prob == reference_detect_exact(g, plan.alphas, gamma)

    def test_worked_two_member_case(self):
        g, plan, params = two_member_case()
        report = detect_exact(g, plan, params)
        assert report.per_member_prob[0] == pytest.approx(0.19, abs=1e-12)
        assert report.per_member_prob[1] == pytest.approx(0.24, abs=1e-12)
        assert report.expected_detected == pytest.approx(0.43, abs=1e-12)
        assert report.mode == "exact" and report.stderr is None

    def test_zero_alphas_zero_probability(self):
        g = make_structure("complete", 4)
        report = detect_exact(
            g, ScrutinyPlan((0,) * 4, budget=1.0), DetectionParams(gamma=0.9, cost_k=1.0)
        )
        assert report.per_member_prob == (0.0, 0.0, 0.0, 0.0)
        assert report.expected_detected == 0.0

    def test_anarchy_has_no_indirect_term(self):
        g = make_structure("anarchy", 2)
        report = detect_exact(
            g, ScrutinyPlan((0.3, 0.3), budget=0.6), DetectionParams(gamma=1.0, cost_k=1.0)
        )
        assert report.per_member_prob == pytest.approx((0.3, 0.3), abs=1e-12)
        assert report.expected_detected == pytest.approx(0.6, abs=1e-12)

    def test_directed_information_flows_one_way(self):
        g = build_graph(2, directed=True, edges=[(0, 1)])
        report = detect_exact(
            g, ScrutinyPlan((0.5, 0.0), budget=0.5), DetectionParams(gamma=1.0, cost_k=1.0)
        )
        # 0 knows about 1, so catching 0 exposes 1; nothing exposes 0
        assert report.per_member_prob == (0.5, 0.5)

    def test_expected_cost_scales_linearly(self):
        g, plan, _ = two_member_case()
        low = detect_exact(g, plan, DetectionParams(gamma=0.5, cost_k=3.0))
        high = detect_exact(g, plan, DetectionParams(gamma=0.5, cost_k=6.0))
        assert high.expected_cost == 2.0 * low.expected_cost

    def test_infeasible_plan_rejected(self):
        g = build_graph(2, edges=[(0, 1)])
        with pytest.raises(InfeasiblePlanError):
            detect_exact(g, ScrutinyPlan((0.6, 0.6), budget=0.5), DetectionParams(0.5, 1.0))

    def test_cascade_not_supported_exactly(self):
        g, plan, _ = two_member_case()
        with pytest.raises(ValueError, match="one hop"):
            detect_exact(g, plan, DetectionParams(gamma=0.5, cost_k=1.0, cascade=True))

    def test_plan_length_must_match(self):
        g = build_graph(3, edges=[(0, 1)])
        with pytest.raises(ValueError, match="members"):
            detect_exact(g, ScrutinyPlan((0.1, 0.1), budget=1.0), DetectionParams(0.5, 1.0))

    def test_matches_joint_enumeration_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(12):
            n = rng.randint(1, 4)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            g = build_graph(n, directed=rng.random() < 0.3, edges=edges)
            alphas = tuple(rng.uniform(0, 1.0 / n) for _ in range(n))
            gamma = rng.uniform(0.05, 1.0)
            report = detect_exact(
                g, ScrutinyPlan(alphas, budget=1.0), DetectionParams(gamma, 1.0)
            )
            oracle = detection_joint_enumeration(g, list(alphas), gamma)
            assert np.allclose(report.per_member_prob, oracle, atol=1e-12, rtol=0)

    def test_monotone_in_scrutiny(self):
        rng = random.Random(3)
        g = build_graph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        base_alphas = [rng.uniform(0, 0.2) for _ in range(4)]
        base = detect_exact(
            g, ScrutinyPlan(tuple(base_alphas), 1.0), DetectionParams(0.7, 1.0)
        )
        for i in range(4):
            bumped = list(base_alphas)
            bumped[i] += 0.05
            report = detect_exact(
                g, ScrutinyPlan(tuple(bumped), 1.0), DetectionParams(0.7, 1.0)
            )
            assert all(
                after >= before - 1e-15
                for after, before in zip(report.per_member_prob, base.per_member_prob)
            )


class TestSimulate:
    def test_converges_to_exact(self):
        g, plan, params = two_member_case()
        exact = detect_exact(g, plan, params)
        mc = simulate(g, plan, params)
        assert mc.mode == "monte_carlo"
        assert abs(mc.expected_detected - exact.expected_detected) <= 3 * mc.stderr

    def test_zero_alphas_never_detect(self):
        g = make_structure("star", 4)
        report = simulate(
            g,
            ScrutinyPlan((0,) * 4, budget=1.0),
            DetectionParams(gamma=1.0, cost_k=1.0, trials=2_000, seed=5),
            periods=3,
        )
        assert report.per_member_prob == (0.0, 0.0, 0.0, 0.0)
        assert report.stderr == 0.0

    def test_certain_detection_single_member(self):
        # the budget admits full scrutiny of one member only
        g = make_structure("anarchy", 1)
        report = simulate(
            g,
            ScrutinyPlan((1.0,), budget=1.0),
            DetectionParams(gamma=1.0, cost_k=1.0, trials=2_000, seed=5),
        )
        assert report.per_member_prob == (1.0,)

    def test_certain_detection_through_hub(self):
        # full scrutiny of the hub plus certain extraction exposes every leaf
        g = make_structure("star", 4)
        report = simulate(
            g,
            ScrutinyPlan((1.0, 0.0, 0.0, 0.0), budget=1.0),
            DetectionParams(gamma=1.0, cost_k=1.0, trials=2_000, seed=5),
        )
        assert report.per_member_prob == (1.0, 1.0, 1.0, 1.0)

    def test_same_seed_bit_identical(self):
        g, plan, params = two_member_case()
        assert simulate(g, plan, params) == simulate(g, plan, params)

    def test_worker_count_bit_identical(self):
        g, plan, params = two_member_case()
        assert simulate(g, plan, params) == simulate(g, plan, params, workers=4)

    def test_chunk_partitioning_bit_identical(self, monkeypatch):
        g, plan, params = two_member_case()
        baseline = simulate(g, plan, params)
        monkeypatch.setattr(detection, "_TRIALS_PER_CHUNK", 997)
        assert simulate(g, plan, params, workers=2) == baseline

    def test_different_seeds_differ(self):
        g, plan, params = two_member_case()
        other = DetectionParams(gamma=0.5, cost_k=1.0, trials=50_000, seed=12)
        assert simulate(g, plan, params) != simulate(g, plan, other)

    def test_detection_persists_across_periods(self):
        g = make_structure("anarchy", 1)
        plan = ScrutinyPlan((0.3,), budget=0.3)
        params = DetectionParams(gamma=1.0, cost_k=1.0, trials=40_000, seed=2)
        single = simulate(g, plan, params, periods=1)
        triple = simulate(g, plan, params, periods=3)
        expect = 1 - (1 - 0.3) ** 3
        assert triple.per_member_prob[0] >= single.per_member_prob[0]
        se = math.sqrt(expect * (1 - expect) / params.trials)
        assert abs(triple.per_member_prob[0] - expect) <= 4 * se

    def test_cascade_reaches_past_one_hop(self):
        chain = make_structure("path", 3)
        plan = ScrutinyPlan((1.0, 0.0, 0.0), budget=1.0)
        one_hop = simulate(
            chain, plan, DetectionParams(gamma=1.0, cost_k=1.0, trials=500, seed=0)
        )
        cascaded = simulate(
            chain,
            plan,
            DetectionParams(gamma=1.0, cost_k=1.0, cascade=True, trials=500, seed=0),
        )
        assert one_hop.per_member_prob == (1.0, 1.0, 0.0)
        assert cascaded.per_member_prob == (1.0, 1.0, 1.0)

    def test_report_aggregates_consistent(self):
        g, plan, params = two_member_case()
        report = simulate(g, plan, params)
        assert report.expected_detected == pytest.approx(
            sum(report.per_member_prob), abs=1e-12
        )
        assert report.expected_cost == pytest.approx(
            params.cost_k * report.expected_detected, abs=1e-12
        )

    def test_bad_periods_rejected(self):
        g, plan, params = two_member_case()
        with pytest.raises(ValueError, match="periods"):
            simulate(g, plan, params, periods=0)

    def test_periods_past_memory_rejected(self):
        # one trial's 10**15 periods of 7 words, as regions of 7, are past a 2**47-byte user address space
        g, plan = make_structure("path", 3), ScrutinyPlan((0.1, 0.1, 0.1), budget=0.3)
        with pytest.raises(ValueError, match=r"periods=1000000000000000 needs 7000000000000000 draw words"):
            simulate(g, plan, DetectionParams(0.5, 1.0, trials=10), periods=10**15)

    @pytest.mark.parametrize("trials, periods", [(2**100, 2**30), (2**124 + 1, 7), (2**61, 2**64)])
    def test_trials_past_stream_rejected(self, monkeypatch, trials, periods):
        # path 3 takes 7 words a period, and the blocks must end by word 2**128: at
        # most 2**127 words of trials * periods, checked before any chunk is formed
        jobs = record_jobs(monkeypatch)
        g, plan = make_structure("path", 3), ScrutinyPlan((0.1, 0.1, 0.1), budget=0.3)
        reason = rf"trials={trials} of periods={periods} need \d+ draw words, 7 a period, past the 2\*\*127"
        with pytest.raises(ValueError, match=reason):
            simulate(g, plan, DetectionParams(0.5, 1.0, trials=trials), periods=periods)
        assert jobs == []

    def test_chunks_past_index_rejected(self, monkeypatch):
        # 2**100 one-period trials fit the stream, but not their 2**87 chunks of 8192
        jobs = record_jobs(monkeypatch)
        g, plan = make_structure("path", 3), ScrutinyPlan((0.1, 0.1, 0.1), budget=0.3)
        with pytest.raises(ValueError, match=rf"trials={2**100} make more than {sys.maxsize} chunks of 8192"):
            simulate(g, plan, DetectionParams(0.5, 1.0, trials=2**100))
        assert jobs == []

    def test_stream_bound_admits_its_last_word(self, monkeypatch):
        # 2**60 trials of 2**64 periods of 8 words end their blocks at word 2**128 exactly;
        # one trial a chunk, formed as it is read, so the last one is read alone
        g = build_graph(4, edges=[(0, 1), (2, 3)])
        plan = ScrutinyPlan((0.1, 0.0, 0.1, 0.0), budget=0.3)
        last = []
        monkeypatch.setattr(detection, "run_chunks", lambda fn, jobs, workers, take: last.append(jobs[-1]))
        simulate(g, plan, DetectionParams(0.5, 1.0, trials=1 << 60), periods=1 << 64)
        [(*_, stride, lo, hi)] = last
        assert (stride, lo, hi) == (1 << 67, (1 << 60) - 1, 1 << 60)
        assert detection._BLOCKS + hi * stride == 1 << 128

    def test_infeasible_plan_rejected(self):
        g = build_graph(2, edges=[(0, 1)])
        with pytest.raises(InfeasiblePlanError):
            simulate(g, ScrutinyPlan((0.9, 0.9), 0.5), DetectionParams(0.5, 1.0, trials=10))


# (graph, alphas, budget, gamma, seed): undirected and directed, with alphas of 0 and of 1
CHAIN_CASES = {
    "path": (make_structure("path", 5), (0.25, 0.0, 0.1, 0.0, 0.3), 0.65, 0.5, 11),
    "star": (make_structure("star", 5), (0.0, 0.2, 0.2, 0.15, 0.2), 0.75, 0.6, 12),
    "cycle_certain": (make_structure("cycle", 5), (1.0, 0.0, 0.0, 0.0, 0.0), 1.0, 0.5, 13),
    "directed": (
        build_graph(5, True, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 1)]),
        (0.1, 0.3, 0.0, 0.2, 0.15), 0.75, 0.5, 14,
    ),
    "directed_certain": (
        build_graph(5, True, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0)]),
        (0.0, 0.0, 0.0, 1.0, 0.0), 1.0, 0.7, 15,
    ),
}


class TestChain:
    """``simulate`` judged by the exact chain, which shares none of its draws.

    Each member's estimate lies within 5 standard errors of the exact p (the
    standard error of the exact p, not the estimate's), and the expected count
    within 5 reported standard errors; a p of 0 or 1 is met exactly. Over the
    120 comparisons a false alarm is well under 1e-4.
    """

    @pytest.mark.parametrize("cascade", [False, True], ids=["onehop", "cascade"])
    @pytest.mark.parametrize("periods", [1, 3])
    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_simulate_within_five_stderr(self, case, periods, cascade):
        g, alphas, budget, gamma, seed = CHAIN_CASES[case]
        trials = 200_000
        params = DetectionParams(gamma, 1.0, cascade=cascade, trials=trials, seed=seed + 100 * periods)
        report = simulate(g, ScrutinyPlan(alphas, budget), params, periods=periods)
        member, count = detection_chain(g, alphas, gamma, periods, cascade)
        for got, p in zip(report.per_member_prob, member):
            sd = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
            assert abs(got - p) <= max(5 * sd, 1e-12), (got, p)
        expected = float(np.arange(g.n + 1) @ count)
        assert abs(report.expected_detected - expected) <= max(5 * report.stderr, 1e-12)

    def test_one_period_one_hop_equals_detect_exact(self):
        rng = random.Random(12)
        cases = [(CHAIN_CASES[k][0], CHAIN_CASES[k][1], CHAIN_CASES[k][3]) for k in sorted(CHAIN_CASES)]
        for _ in range(20):
            n, directed = rng.randint(1, 6), rng.random() < 0.5
            pairs = itertools.permutations(range(n), 2) if directed else itertools.combinations(range(n), 2)
            g = build_graph(n, directed, [pair for pair in pairs if rng.random() < 0.4])
            raw = [rng.choice([0.0, rng.random()]) for _ in range(g.n)]
            cases.append((g, tuple(a / max(1.0, sum(raw)) for a in raw), rng.uniform(0.05, 1.0)))
        for g, alphas, gamma in cases:
            exact = detect_exact(g, ScrutinyPlan(alphas, 1.0), DetectionParams(gamma, 1.0))
            member, _ = detection_chain(g, alphas, gamma, 1, False)
            assert np.allclose(member, exact.per_member_prob, rtol=1e-12, atol=0)


@st.composite
def chunk_jobs(draw):
    """A ``_simulate_chunk`` job on a small graph, carrying the graph's arcs.

    Seeds span the whole seed range; some chunks start just below the trial
    whose block word ``lo * stride`` passes 2**64, and some end at most 64
    trials below the last the stream admits (``simulate`` keeps trials *
    stride at most 2**127, so its blocks end by word 2**128). Chunks of up
    to about 200 trials, with the sizes around 64 and 128 always among the
    choices, pack the cascade's trial bits into several 64-bit words that end
    mid-word.
    """
    g = draw(st.booleans().flatmap(lambda directed: graphs(min_n=1, max_n=6, directed=directed)))
    periods = draw(st.integers(1, 3))
    alphas = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=g.n, max_size=g.n)))
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
    stride = periods * (g.n + len(g._arcs[1]))
    size = draw(st.sampled_from([63, 64, 65, 128, 129]) | st.integers(1, 200))
    top = (1 << 127) // stride - size  # the last chunk whose blocks end by word 2**128
    lo = draw(st.integers(0, 500) | st.integers(-64, 0).map(lambda d: (1 << 64) // stride + d)
              | st.integers(-64, 0).map(lambda d: top + d))
    hi = lo + size
    return (g.n, g._arcs, alphas, gamma, draw(st.booleans()), periods,
            draw(st.integers(0, (1 << 128) - 1)), stride, lo, hi)


def record_jobs(monkeypatch) -> list:
    """Replace run_chunks with a recorder that returns empty detections."""
    jobs = []

    def record(fn, batch, workers, take):
        jobs.extend(batch)
        for n, *_, lo, hi in batch:
            hist = np.zeros(n + 1, dtype=np.int64)
            hist[0] = hi - lo
            take((np.zeros(n, dtype=np.int64), hist))
        return []

    monkeypatch.setattr(detection, "run_chunks", record)
    return jobs


def random_network(n: int, m: int, seed: int, directed: bool = False):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        i, j = rng.sample(range(n), 2)
        edges.add((i, j) if directed else (min(i, j), max(i, j)))
    return build_graph(n, directed, sorted(edges))


class TestSimulateChunk:
    # with 4-word regions nearly every row continues into its block, by ones and by ranges
    @settings(max_examples=300, deadline=None)
    @given(chunk_jobs(), st.sampled_from([detection._REGION, 4]))
    def test_matches_pair_loop_reference(self, job, region):
        expected = reference_simulate_chunk(job, region)
        with mock.patch.object(detection, "_REGION", region):
            got = detection._simulate_chunk(job)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("gap", [0, 2048])
    def test_filled_words_match_drawn_stream(self, gap):
        # draws from word 0, from the blocks' first word, and across word 2**64 of either
        # stream: ranges from every offset with rows 40 + gap words apart, ranges that
        # touch, which share a read, and ranges that touch in part; each draw leaves the
        # generator at word 0
        seed = (1 << 128) - 1
        gen = np.random.Generator(np.random.PCG64DXSM(seed))
        first = np.random.Generator(np.random.PCG64DXSM(seed)).random()
        for origin in (0, (1 << 64) - 50, detection._BLOCKS, detection._BLOCKS + (1 << 64) - 50):
            bitgen = np.random.PCG64DXSM(seed)
            bitgen.advance(origin)
            drawn = np.random.Generator(bitgen).random(3 * (40 + gap))
            starts = [np.arange(3) * (40 + gap) + offset for offset in range(40 - 13)]
            starts += [np.array([0, 13, 26]), np.array([5, 18, 60, 73, 86, 100]), np.array([107])]
            for start in starts:
                got = detection._draw(gen, origin, start, 13)
                assert np.array_equal(got, drawn[start[:, None] + np.arange(13)])
                assert np.array_equal(detection._draw(gen, origin, start, 1)[:, 0], drawn[start])
                assert gen.random() == first
                gen.bit_generator.advance((1 << 128) - 1)

    def test_chunks_fit_draw_budget(self, monkeypatch):
        jobs = record_jobs(monkeypatch)
        g = random_network(300, 1500, seed=4)
        plan = ScrutinyPlan((0.6 / 300,) * 300, budget=0.6)
        simulate(g, plan, DetectionParams(0.5, 1.0, trials=2048, seed=1), periods=3)
        assert len(jobs) > 1
        assert [job[8] for job in jobs] == [0] + [job[9] for job in jobs[:-1]]
        assert jobs[-1][9] == 2048
        held = 8 * 3 * detection._REGION + 300 + 3000  # a row's regions and its state
        for *_, stride, lo, hi in jobs:
            assert (hi - lo) * held <= detection._DRAW_BUDGET_BYTES or hi - lo == 1
        # with 4-word regions nearly every row runs on into its block; a block draw reads
        # one word a row of the direct catches, an arc slice's words, or a cascade piece's
        sizes = []
        draw = detection._draw

        def spy(gen, origin, start, length):
            if origin >= detection._BLOCKS:
                sizes.append(start.size * length)
            return draw(gen, origin, start, length)

        monkeypatch.setattr(detection, "_REGION", 4)
        monkeypatch.setattr(detection, "_draw", spy)
        detection._simulate_chunk(jobs[-1])
        rows = jobs[-1][9] - jobs[-1][8]
        fanout = int(np.diff(g._arcs[3]).max())
        assert len(sizes) > 1
        assert max(sizes) <= max(rows, detection._RELAX_BUDGET, fanout)
        sizes.clear()
        detection._simulate_chunk((*jobs[-1][:4], True, *jobs[-1][5:]))  # the same rows under cascade
        assert len(sizes) > 1
        assert max(sizes) <= max(rows, detection._RELAX_BUDGET, 3000)

    def test_memory_does_not_grow_with_chunk_count(self, monkeypatch):
        # 5,000 one-trial chunks of 4.8 kB of counts each, about 24 MB were they all kept,
        # and as many jobs; each stubbed chunk catches every member of its trials
        def every_member(job):
            n, *_, lo, hi = job
            hist = np.zeros(n + 1, dtype=np.int64)
            hist[n] = hi - lo
            return np.full(n, hi - lo, dtype=np.int64), hist

        g = random_network(300, 1500, seed=4)
        plan = ScrutinyPlan((0.6 / 300,) * 300, budget=0.6)
        monkeypatch.setattr(detection, "_simulate_chunk", every_member)
        monkeypatch.setattr(detection, "_TRIALS_PER_CHUNK", 1)
        tracemalloc.start()
        try:
            report = simulate(g, plan, DetectionParams(0.5, 1.0, trials=5000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.per_member_prob == (1.0,) * 300 and report.stderr == 0.0
        assert peak < 1 << 20

    def test_trial_over_budget_gets_one_row_jobs(self, monkeypatch):
        jobs = record_jobs(monkeypatch)
        g = random_network(300, 1500, seed=4)
        plan = ScrutinyPlan((0.6 / 300,) * 300, budget=0.6)
        simulate(g, plan, DetectionParams(0.5, 1.0, trials=5, seed=1), periods=20_000)
        assert 8 * jobs[0][5] * detection._REGION > detection._DRAW_BUDGET_BYTES
        assert [(job[8], job[9]) for job in jobs] == [(t, t + 1) for t in range(5)]

    @pytest.mark.parametrize("budget", [1, 7])
    @pytest.mark.parametrize("periods", [1, 3])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_hop_slices_bit_identical(self, monkeypatch, budget, periods, directed):
        # a budget of 1 expands one member's arcs a slice; 7 cuts rows between slices
        g = random_network(40, 100, seed=7, directed=directed)
        plan = ScrutinyPlan(tuple(0.02 * (i % 3) for i in range(40)), budget=0.8)
        params = DetectionParams(gamma=0.4, cost_k=1.0, trials=400, seed=5)
        baseline = simulate(g, plan, params, periods=periods)
        monkeypatch.setattr(detection, "_RELAX_BUDGET", budget)
        assert simulate(g, plan, params, periods=periods) == baseline

    def test_block_windows_match_pair_loop_reference(self, monkeypatch):
        # 4-word regions send nearly every row of the 20-row chunk on into its block
        g = random_network(12, 30, seed=3)
        stride = 2 * (12 + 60)
        alphas = (1.0, 0.2, 0.0, 0.3, 0.1, 0.2, 0.0, 0.1, 0.4, 0.0, 0.2, 0.1)
        job = (12, g._arcs, alphas, 0.5, False, 2, 77, stride, 5, 25)
        expected = reference_simulate_chunk(job, 4)
        monkeypatch.setattr(detection, "_REGION", 4)
        got = detection._simulate_chunk(job)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_threads_keep_their_own_block_buffers(self, monkeypatch):
        # with 4-word regions nearly every row reads its block, so threads that
        # shared one generator would read each other's words
        monkeypatch.setattr(detection, "_REGION", 4)
        g = random_network(60, 200, seed=11)
        plan = ScrutinyPlan(tuple(0.01 * (i % 4) for i in range(60)), budget=0.9)
        runs = [
            (DetectionParams(gamma=0.5, cost_k=1.0, trials=3000, seed=seed, cascade=cascade), periods)
            for seed, cascade, periods in [(1, False, 1), (2, True, 1), (3, False, 3), (4, True, 2)]
        ]
        expected = [simulate(g, plan, params, periods=periods) for params, periods in runs]
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            got = list(pool.map(lambda run: simulate(g, plan, run[0], periods=run[1]), runs * 3))
        assert got == expected * 3

    @pytest.mark.parametrize("periods", [1, 3])
    def test_certain_hub_star_memory_bounded(self, periods):
        # every trial catches the hub, and all but 64 of its 1,999 arcs run past the region
        g = make_structure("star", 2000)
        plan = ScrutinyPlan((1.0,) + (0.0,) * 1999, budget=1.0)
        tracemalloc.start()
        try:
            simulate(g, plan, DetectionParams(gamma=0.5, cost_k=1.0, trials=8192, seed=3), periods=periods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * detection._DRAW_BUDGET_BYTES

    @pytest.mark.parametrize("rows", [1, 63, 65])
    def test_cascade_chunking_bit_identical(self, monkeypatch, rows):
        g = random_network(40, 100, seed=7)
        plan = ScrutinyPlan(tuple(0.02 * (i % 3) for i in range(40)), budget=0.8)
        params = DetectionParams(gamma=0.4, cost_k=1.0, cascade=True, trials=400, seed=5)
        baseline = simulate(g, plan, params, periods=2)
        assert simulate(g, plan, params, periods=2, workers=2) == baseline
        stride = 2 * (g.n + 2 * g.m)
        monkeypatch.setattr(detection, "_DRAW_BUDGET_BYTES", 8 * stride * rows)
        sizes = []

        def spy(fn, jobs, workers, take):
            sizes.extend(hi - lo for *_, lo, hi in jobs)
            return run_chunks(fn, jobs, workers, take)

        monkeypatch.setattr(detection, "run_chunks", spy)
        assert simulate(g, plan, params, periods=2, workers=2) == baseline
        assert set(sizes[:-1]) == {rows} and sum(sizes) == 400

    @pytest.mark.parametrize("budget", [1, 7, 64])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_cascade_sweep_slices_bit_identical(self, monkeypatch, budget, directed):
        # 400 trials pack into 7 words a member, so each budget slices a level's 200 or 100 arcs
        g = random_network(40, 100, seed=7, directed=directed)
        plan = ScrutinyPlan(tuple(0.02 * (i % 3) for i in range(40)), budget=0.8)
        params = DetectionParams(gamma=0.4, cost_k=1.0, cascade=True, trials=400, seed=5)
        baseline = simulate(g, plan, params, periods=2)
        monkeypatch.setattr(covertnet.graph, "_SWEEP_BUDGET", budget)
        assert simulate(g, plan, params, periods=2) == baseline

    def test_one_row_jobs_bit_identical(self, monkeypatch):
        g = make_structure("path", 6)
        plan = ScrutinyPlan((0.3, 0.0, 0.1, 0.0, 0.2, 0.0), budget=0.6)
        params = DetectionParams(gamma=0.7, cost_k=1.0, cascade=True, trials=300, seed=3)
        baseline = simulate(g, plan, params, periods=2)
        monkeypatch.setattr(detection, "_DRAW_BUDGET_BYTES", 1)
        assert simulate(g, plan, params, periods=2) == baseline
