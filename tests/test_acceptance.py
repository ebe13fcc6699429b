"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success). Expected values come from independent oracles in
``oracles.py`` or from closed forms derived by hand.
"""

import functools
import json
import random

import numpy as np
import pytest

from covertnet.cli import main
from covertnet.detection import DetectionParams, ScrutinyPlan, detect_exact, simulate
from covertnet.graph import community, diameter, geodesic_distances, total_distance
from covertnet.measures import SecrecyParams, balance, information_measure, make_structure
from covertnet.search import enumerate_connected, find_optimal, verify_lemma

from oracles import (
    brute_force_apsp,
    count_connected_graphs,
    detection_joint_enumeration,
    random_connected_graph,
    reference_lemma_rows,
)

TOL = 1e-12
LOW_GRID = [k / 20 for k in range(11)]          # 0, 0.05, ..., 0.5
HIGH_GRID = [0.5 + k / 20 for k in range(11)]   # 0.5, 0.55, ..., 1.0
FULL_GRID = [k / 20 for k in range(21)]
CONNECTED_COUNTS = {3: 4, 4: 38, 5: 728, 6: 26704}


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            print(f"criterion {num} ({title}): PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "complete graph optimal on p in [0, 1/2]")
def test_lemma_sweep_complete():
    for n, expected_count in CONNECTED_COUNTS.items():
        assert sum(1 for _ in enumerate_connected(n)) == expected_count
        report = verify_lemma("complete_optimal", n, LOW_GRID, tolerance=TOL)
        assert len(report.rows) == len(LOW_GRID)
        assert report.all_passed, [row for row in report.rows if not row.passed]
        # verify_lemma scores two rivals; a scan of every connected graph judges the claim
        assert all(row[1] for row in reference_lemma_rows("complete_optimal", n, LOW_GRID, TOL))
    # restate the claim directly at small order: no graph beats the complete one
    for n in (3, 4):
        complete = make_structure("complete", n)
        competitors = list(enumerate_connected(n))
        for p in LOW_GRID:
            mu_complete = balance(complete, SecrecyParams(p)).mu
            for g in competitors:
                assert balance(g, SecrecyParams(p)).mu <= mu_complete + TOL


@criterion(2, "star optimal on p in [1/2, 1]")
def test_lemma_sweep_star():
    for n in CONNECTED_COUNTS:
        report = verify_lemma("star_optimal", n, HIGH_GRID, tolerance=TOL)
        assert len(report.rows) == len(HIGH_GRID)
        assert report.all_passed, [row for row in report.rows if not row.passed]
        assert all(row[1] for row in reference_lemma_rows("star_optimal", n, HIGH_GRID, TOL))
    for n in (3, 4):
        star = make_structure("star", n)
        competitors = list(enumerate_connected(n))
        for p in HIGH_GRID:
            mu_star = balance(star, SecrecyParams(p)).mu
            for g in competitors:
                assert balance(g, SecrecyParams(p)).mu <= mu_star + TOL


@criterion(3, "boundary tie at p = 1/2")
def test_boundary_tie():
    for n in range(3, 9):
        mu_complete = balance(make_structure("complete", n), SecrecyParams(0.5)).mu
        mu_star = balance(make_structure("star", n), SecrecyParams(0.5)).mu
        assert abs(mu_complete - mu_star) <= TOL
        assert abs(mu_complete - (n - 1) / (2 * n)) <= TOL
    for n in range(3, 7):
        result = find_optimal(n, SecrecyParams(0.5), tolerance=TOL)
        shapes = {tuple(sorted(g.degree_sequence())) for g in result.argmax_graphs}
        assert tuple([n - 1] * n) in shapes, f"complete graph missing at n={n}"
        assert tuple([1] * (n - 1) + [n - 1]) in shapes, f"star missing at n={n}"


@criterion(4, "closed-form concordance for complete and star")
def test_closed_forms():
    for n in range(3, 9):
        complete = make_structure("complete", n)
        star = make_structure("star", n)
        assert information_measure(complete) == 1.0
        for p in FULL_GRID:
            assert abs(balance(complete, SecrecyParams(p)).mu - (n - 1) * (1 - p) / n) <= TOL
            assert abs(balance(star, SecrecyParams(p)).mu - (n - 2 * p) / (2 * n)) <= TOL


@criterion(5, "exact detection equals joint-outcome enumeration")
def test_detection_oracle_equivalence():
    from covertnet.graph import build_graph

    rng = random.Random(20260810)
    for _ in range(50):
        n = rng.randint(1, 4)
        directed = rng.random() < 0.3
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        g = build_graph(n, directed=directed, edges=edges)
        alphas = [rng.uniform(0, 1.0 / n) for _ in range(n)]
        gamma = rng.uniform(0.05, 1.0)
        report = detect_exact(
            g, ScrutinyPlan(tuple(alphas), budget=1.0), DetectionParams(gamma, cost_k=1.0)
        )
        oracle = detection_joint_enumeration(g, alphas, gamma)
        assert np.allclose(report.per_member_prob, oracle, atol=TOL, rtol=0)
        assert abs(report.expected_detected - float(oracle.sum())) <= TOL

    worked = detect_exact(
        build_graph(2, edges=[(0, 1)]),
        ScrutinyPlan((0.1, 0.2), budget=0.5),
        DetectionParams(gamma=0.5, cost_k=1.0),
    )
    assert worked.per_member_prob == pytest.approx((0.19, 0.24), abs=TOL)
    assert worked.expected_detected == pytest.approx(0.43, abs=TOL)


@criterion(6, "Monte Carlo converges and is reproducible")
def test_monte_carlo_convergence():
    from covertnet.graph import build_graph

    g = build_graph(2, edges=[(0, 1)])
    plan = ScrutinyPlan((0.1, 0.2), budget=0.5)
    exact = detect_exact(g, plan, DetectionParams(gamma=0.5, cost_k=1.0))
    hits = 0
    for seed in range(100):
        params = DetectionParams(gamma=0.5, cost_k=1.0, trials=100_000, seed=seed)
        mc = simulate(g, plan, params)
        if abs(mc.expected_detected - exact.expected_detected) <= 3 * mc.stderr:
            hits += 1
    assert hits >= 99, f"only {hits}/100 seeds within 3 standard errors"

    params = DetectionParams(gamma=0.5, cost_k=1.0, trials=100_000, seed=17)
    runs = [simulate(g, plan, params), simulate(g, plan, params),
            simulate(g, plan, params, workers=2), simulate(g, plan, params, workers=5)]
    assert all(r == runs[0] for r in runs[1:])


@criterion(7, "distance metrics match the brute-force oracle")
def test_metric_oracle():
    rng = random.Random(97)
    for _ in range(200):
        weighted = rng.random() < 0.5
        g = random_connected_graph(rng, rng.randint(2, 8), weighted=weighted)
        hop_mode = not weighted
        oracle = brute_force_apsp(g, hop_mode=hop_mode)
        dm = geodesic_distances(g, hop_mode=hop_mode)
        assert np.array_equal(dm.dist, oracle)
        assert total_distance(g, hop_mode=hop_mode) == float(oracle.sum())
        assert diameter(g, hop_mode=hop_mode) == float(oracle.max())
        probe = rng.randrange(g.n)
        deltas = set(oracle[probe]) | {0.33}
        for delta in deltas:
            expect = {j for j in range(g.n) if oracle[probe, j] == delta}
            assert community(g, probe, delta, hop_mode=hop_mode) == expect


@criterion(8, "connected-graph counts reproduce the subset-filter oracle")
def test_enumeration_counts():
    for n, expected in ((3, 4), (4, 38), (5, 728)):
        assert count_connected_graphs(n) == expected
        assert sum(1 for _ in enumerate_connected(n)) == expected


@criterion(9, "end-to-end: complete cell file through the command line")
def test_end_to_end_cli(tmp_path, capsys):
    n = 5
    cell = {
        "n": n,
        "labels": [f"member{i}" for i in range(n)],
        "edges": [[i, j] for i in range(n) for j in range(i + 1, n)],
    }
    cell_file = tmp_path / "cell.json"
    cell_file.write_text(json.dumps(cell))

    assert main(["metrics", str(cell_file), "--p", "0.3"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["K"] == 1.0
    assert metrics["connected"] is True

    assert main(["optimal", "--n", str(n), "--p", "0.3"]) == 0
    optimal = json.loads(capsys.readouterr().out)
    assert abs(optimal["best_mu"] - metrics["mu"]) <= TOL
    complete_edges = n * (n - 1) // 2
    assert any(len(edges) == complete_edges for edges in optimal["maximizers"])
