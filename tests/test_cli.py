import hashlib
import json
import math
import os
import random
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import covertnet
import covertnet.graph
from covertnet import cli
from covertnet.affiliation import WEIGHT_MODES, ActorProfile, TieRule, build_from_actors
from covertnet.cli import main
from covertnet.io import _dumps, _graph_text, graph_to_json_dict, load_actor_file, load_graph_file
from covertnet.search import LemmaCheckRow, LemmaReport

from oracles import reference_affiliation_edges
from strategies import BAD_ROSTERS, graphs, hub_roster, roster_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def complete4(tmp_path):
    doc = {"n": 4, "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def star4_csv(tmp_path):
    path = tmp_path / "star.csv"
    path.write_text("source,target\nhub,a\nhub,b\nhub,c\n")
    return str(path)


@pytest.fixture
def pair_graph(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}')
    return str(path)


class TestMetrics:
    def test_complete_graph(self, capsys, complete4):
        doc = run_json(capsys, "metrics", complete4, "--p", "0.3")
        assert doc["n"] == 4 and doc["m"] == 6 and doc["connected"]
        assert doc["K"] == 1.0
        assert doc["T"] == 12.0 and doc["D"] == 1.0
        assert doc["mu"] == pytest.approx(0.525, abs=1e-12)
        assert doc["degrees"] == [3, 3, 3, 3]

    def test_disconnected_conventions(self, capsys, tmp_path):
        path = tmp_path / "two_cliques.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        doc = run_json(capsys, "metrics", str(path), "--p", "0.4")
        assert doc["connected"] is False
        assert doc["T"] is None and doc["D"] is None
        assert doc["K"] == 0.0 and doc["mu"] == 0.0
        assert doc["H"] > 0

    def test_star_csv_with_labels(self, capsys, star4_csv):
        doc = run_json(capsys, "metrics", star4_csv, "--p", "0.5")
        assert doc["labels"] == ["hub", "a", "b", "c"]
        assert doc["mu"] == pytest.approx(0.375, abs=1e-12)

    def test_communities_section(self, capsys, star4_csv):
        doc = run_json(capsys, "metrics", star4_csv, "--p", "0.5", "--community", "1")
        assert doc["communities"] == {"0": [1], "1": [0], "2": [2, 3]}

    @pytest.mark.parametrize("vertex", ["99", "-1"])
    def test_community_vertex_out_of_range_exits_2(self, capsys, tmp_path, vertex):
        path = tmp_path / "path4.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
        code, out, err = run(capsys, "metrics", str(path), "--p", "0.3", "--community", vertex)
        assert code == 2 and out == ""
        assert f"vertex {vertex} out of range" in err

    @pytest.mark.parametrize(
        "extra,hop_passes,weighted_passes",
        [([], 1, 0), (["--community", "2"], 1, 0), (["--edge-weighted"], 1, 1)],
    )
    def test_one_distance_pass_per_mode(
        self, capsys, tmp_path, monkeypatch, extra, hop_passes, weighted_passes
    ):
        path = tmp_path / "weighted5.json"
        path.write_text('{"n": 5, "edges": [[0, 1, 2.0], [1, 2], [2, 3, 0.5], [3, 4], [0, 4]]}')
        passes = {"_hop_pairs": 0, "_all_pairs": 0}

        def counting(name):
            kernel = getattr(covertnet.graph, name)

            def counted(g):
                passes[name] += 1
                return kernel(g)

            return counted

        for name in passes:
            monkeypatch.setattr(covertnet.graph, name, counting(name))
        run_json(capsys, "metrics", str(path), "--p", "0.3", *extra)
        assert passes == {"_hop_pairs": hop_passes, "_all_pairs": weighted_passes}

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("[[0, 1, 1e308], [1, 2, 1e308]]", "the weighted distance from 0 to 2 overflows"),
            ("[[0, 1, 1e308], [1, 2, 5e307]]", "total distance overflows"),
        ],
        ids=["path sum", "total"],
    )
    def test_weighted_sum_beyond_float_range_exits_2(self, capsys, tmp_path, edges, message):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"n": 3, "edges": {edges}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "metrics", str(path), "--p", "0.3", "--edge-weighted")
        assert code == 2 and out == "" and err.startswith(f"error: {message}")
        assert "disconnected" not in err

    def test_edge_weighted_keeps_hop_measures(self, capsys, tmp_path):
        # T and D take the weights; K, H and mu are the hop measures, so K = n(n - 1) / T_hop
        path = tmp_path / "path3.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 2.0], [1, 2, 2.0]]}')
        weighted = run_json(capsys, "metrics", str(path), "--p", "0.3", "--edge-weighted")
        hops = run_json(capsys, "metrics", str(path), "--p", "0.3")
        assert (weighted["T"], weighted["D"]) == (16.0, 4.0) and (hops["T"], hops["D"]) == (8.0, 2.0)
        assert weighted["K"] == 3 * 2 / hops["T"] == 0.75
        assert (weighted["H"], weighted["mu"]) == (hops["H"], hops["mu"])

    def test_distance_matrix_past_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        def exhausted(g):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(covertnet.graph, "_hop_pairs", exhausted)
        path = tmp_path / "wide.json"
        path.write_text('{"n": 200000, "edges": [[0, 1]]}')
        code, out, err = run(capsys, "metrics", str(path), "--p", "0.3")
        assert code == 2 and out == ""
        assert err == "error: 200000 vertices need a 320000000000-byte distance matrix, too large to allocate\n"

    def test_non_finite_csv_weight_exits_1(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("source,target,weight\na,b,1\nb,c,inf\n")
        code, out, err = run(capsys, "metrics", str(path), "--p", "0.3", "--edge-weighted")
        assert code == 1 and out == "" and "non-finite weight" in err

    @pytest.mark.parametrize(
        "edge, message",
        [("[0, 1, 1" + "0" * 400 + "]", "non-finite weight"), ("5", "must be (source, target[, weight])")],
        ids=["weight beyond float range", "bare number"],
    )
    def test_unusable_json_edge_exits_1_naming_file_and_edge(self, capsys, tmp_path, edge, message):
        path = tmp_path / "bare.json"
        path.write_text(f'{{"n": 2, "edges": [{edge}]}}')
        code, out, err = run(capsys, "metrics", str(path), "--p", "0.3")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: edge ") and message in err

    @pytest.mark.parametrize("weight", ['"abc"', '"2"', "true"])
    def test_non_numeric_json_weight_exits_1(self, capsys, tmp_path, weight):
        path = tmp_path / "typed.json"
        path.write_text(f'{{"n": 2, "edges": [[0, 1, {weight}]]}}')
        code, out, err = run(capsys, "metrics", str(path), "--p", "0.3")
        assert code == 1 and out == ""
        assert str(path) in err and "non-numeric weight" in err

    def test_sharing_weights_inline(self, capsys, star4_csv):
        doc = run_json(
            capsys, "metrics", star4_csv, "--p", "0.5", "--sharing-weights", "1,0,0,0"
        )
        # all sharing weight on the hub
        assert doc["H"] == pytest.approx(0.375, abs=1e-12)

    def test_nan_sharing_weight_exits_2(self, capsys, star4_csv):
        code, out, err = run(
            capsys, "metrics", star4_csv, "--p", "0.3", "--sharing-weights", "nan,0.5,0.25,0.25"
        )
        assert code == 2 and out == "" and "nonnegative" in err

    def test_edge_weighted_distances(self, capsys, tmp_path):
        path = tmp_path / "weighted.json"
        path.write_text('{"n": 2, "edges": [[0, 1, 2.5]]}')
        doc = run_json(capsys, "metrics", str(path), "--p", "0.0", "--edge-weighted")
        assert doc["T"] == 5.0 and doc["D"] == 2.5

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "metrics", str(path), "--p", "0.3")
        assert code == 1 and "error" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(capsys, "metrics", "/does/not/exist.json", "--p", "0.3")
        assert code == 1

    def test_invalid_p_exits_2(self, capsys, complete4):
        code, _, err = run(capsys, "metrics", complete4, "--p", "1.5")
        assert code == 2 and "probability" in err

    def test_directed_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"n": 2, "directed": true, "edges": [[0, 1]]}')
        code, _, _ = run(capsys, "metrics", str(path), "--p", "0.2")
        assert code == 2


class TestOptimal:
    def test_low_p(self, capsys):
        doc = run_json(capsys, "optimal", "--n", "4", "--p", "0.2")
        assert doc["graphs_enumerated"] == 38
        assert doc["best_mu"] == pytest.approx(0.6, abs=1e-12)
        assert any(len(edges) == 6 for edges in doc["maximizers"])

    def test_high_p(self, capsys):
        doc = run_json(capsys, "optimal", "--n", "4", "--p", "0.8")
        assert doc["best_mu"] == pytest.approx(0.3, abs=1e-12)
        assert all(len(edges) == 3 for edges in doc["maximizers"])

    def test_boundary_small(self, capsys):
        doc = run_json(capsys, "optimal", "--n", "3", "--p", "0.5")
        assert doc["best_mu"] == pytest.approx(1 / 3, abs=1e-12)
        sizes = {len(edges) for edges in doc["maximizers"]}
        assert sizes == {2, 3}  # two-edge stars and the triangle

    def test_maximizer_cap(self, capsys):
        doc = run_json(capsys, "optimal", "--n", "4", "--p", "0.5", "--max-maximizers", "5")
        assert doc["maximizer_count"] == 26
        assert len(doc["maximizers"]) == 5

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "optimal", "--n", "9", "--p", "0.2")
        assert code == 2

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # an order-8 search holds about 2 GB; the search fails at once instead of allocating it
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr(cli, "find_optimal", exhausted)
        code, out, err = run(capsys, "optimal", "--n", "8", "--p", "0.5", "--allow-large")
        assert (code, out, err) == (2, "", "error: out of memory: Unable to allocate 2.00 GiB\n")

    def test_nan_tolerance_exits_2(self, capsys):
        code, out, err = run(capsys, "optimal", "--n", "4", "--p", "0.3", "--tolerance", "nan")
        assert code == 2 and out == "" and "tolerance" in err

    def test_negative_maximizer_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "optimal", "--n", "4", "--p", "0.5", "--max-maximizers", "-1")
        assert code == 2 and out == "" and "--max-maximizers" in err

    def test_infinite_tolerance_exits_2(self, capsys):
        code, out, err = run(capsys, "optimal", "--n", "4", "--p", "0.3", "--tolerance", "inf")
        assert code == 2 and out == "" and "tolerance" in err

    def test_eight_needs_flag(self, capsys):
        code, _, err = run(capsys, "optimal", "--n", "8", "--p", "0.2")
        assert code == 2 and "allow_large" in err

    # sha256 of the documents for n = 2..7 across both regimes and the p = 1/2 tie,
    # recorded when each chunk built the adjacency of every one of its masks
    GOLDEN = {
        ("2", "0"): "34363a91f4b52997d1c2b05ca095ed27f1191a061b0bced4f74b0cea3827211a",
        ("2", "0.2"): "8a2cb28ba45bafdc6e527688c329b77ff52e674ee463d6fa32b17094ec0e5e22",
        ("2", "0.3"): "6dc973e81757a84dcd728ae0e1b68cb6fa3b930d75496b6bb4809d1a19efd13e",
        ("2", "0.5"): "8f7463dad3428878e5a84309916c858ac2129a4caef102910082fdae92f27469",
        ("2", "0.7"): "59e6630634fd797336a414df7ac3260a2c934e0ede1dcd8d1530b1fb74294976",
        ("2", "0.8"): "27be18ef1d5b8aff4c875a2a650702cda9201842ae0ecd3f84597659a1f3dc50",
        ("2", "1"): "20b7a19192feb96406a3571f7c886e76f361e5e4aa98891606783ebe76010f44",
        ("3", "0"): "38d169ec9116fdce6d03fbaa9b75e1dffd25e605e8674a46a7bd16eced0097c4",
        ("3", "0.2"): "50f0c7e9c375cb3c13ca09be0fa423cbbff478ea4de12fe062442615bd1115b0",
        ("3", "0.3"): "693806ede39ebd2eb45026c4ff4946cb0e5f038c2056995c709b99944021b9ec",
        ("3", "0.5"): "5b6b29de09f918feeca9caec3998919c150cc5a23f15658718460c9e03ab2dba",
        ("3", "0.7"): "8180fb7160f02bcdab8467419efea12ca027caa9e9c19fdeee06623e3f85498a",
        ("3", "0.8"): "16837f954bce1bfc683643f3fa0539eb7f1ac5882876fb748e94db844321bfe2",
        ("3", "1"): "f3fc898e6edaef6aa0e1e1940303fc584f28a12b876bfbe8082c4a97e4140a15",
        ("4", "0"): "6a6f3b0ca6127c7b626b9580f2e6a7f91525fd08f5a939bc2baa9ac5a9e3d569",
        ("4", "0.2"): "9e8df6b8be925a64718ba76731a948188b7f9aeab12a05b97cc1d9a63b374463",
        ("4", "0.3"): "494127a2445d9078fa0517f9b9f06839dc2a7d95244c463be0f72d16e7c3a415",
        ("4", "0.5"): "756b27ea0fdfbe4351f5b15d350606f6637388bf1fc2dfff8b02f7a9dd40cc11",
        ("4", "0.7"): "ec161e12cec37187a47e896132e596533e2314ff9e34b630bb4ab36f852dd0cc",
        ("4", "0.8"): "d3fba5a1aa08096a8cbc3be74939e6116404e3595e34df24b0564a34ed0001a4",
        ("4", "1"): "7ed1f02e36e0f3dc9251034ac87ef2cd6e40cff4ea49bbf0f0b374f56a1bee40",
        ("5", "0"): "bfbefb250857fc0120c5ee537eb1b1551531845285f812ba11ca83bf85bf280c",
        ("5", "0.2"): "15f925838979323b79b3041403d20b9a9e724ea0cff76475ac3cd815dcfbf87c",
        ("5", "0.3"): "cb556491f977345a0f39fe8ab7c9d7472a4e9ea767f993cc2ff06b2d41b7ee81",
        ("5", "0.5"): "7b7e909a292cbb618f59ffcac50740fb5d69b85d97c966db1698b41a1a51f137",
        ("5", "0.7"): "14b6a2314ea159f0025372f126e2766f4a2cba1214514856c4b9b6cb6739977a",
        ("5", "0.8"): "b446b18e6143567997f5e1de86a6f6a04c7d5e15bf224b32734516935129e751",
        ("5", "1"): "1614a18a0ec257894764efe88c0311fead8fbdd33cf89caa07524f3c4287ec02",
        ("6", "0"): "9fa6e82e83f847dabc313ca35725d79bdac8484e6c6c0c38ea1c6ff41aa12bde",
        ("6", "0.2"): "19c2a769e3841161170c012ce53abada74075a649c0e6152fadc075baabad3c9",
        ("6", "0.3"): "55cdfaf360331e7607b8b430948e92e41df8a9498755b55d8e24b53745d7622f",
        ("6", "0.5"): "ebe0bb6af454f741c9fed29b28df7ce813314d0e0f62138ec7726b47b480c639",
        ("6", "0.7"): "c53a9f01895b36d808158958cca1e44efc965b3b7e7f5d04e8051dbfd3c8ebd2",
        ("6", "0.8"): "5c27d385a458fcea8b3679e2e080eb8183908f4da8a91e75df38203b10ebcda2",
        ("6", "1"): "e8b170179fdf350cd85208bcaf6d6c46f0efcb5e7beb0ae8c8b3584e54a14069",
        ("7", "0"): "64185cf38f4a25ab7b4be70b3e02d3a111dc535bc4a86a822a4515ac7334ce6a",
        ("7", "0.2"): "ccfc6ed0f7f641dd683c429573a56690631877ee206d10ec629ed530422be23c",
        ("7", "0.3"): "3f591cdda6bd03e6a631f78f3cf69b191d15dd460874800eeb37d8babf084058",
        ("7", "0.5"): "2cbe87f5939ee80d5bd7ae1457cf222a537284f6bcc0d593b5eb63569ec8201d",
        ("7", "0.7"): "efac7a236ebda280f7d25ccae11bea9f77e1b7619581bf6ee059a455839c21d5",
        ("7", "0.8"): "30daf6db0ce09a88cd2f2b59855b75fdc5d1970f3ba986a0e8d553ae475ec759",
        ("7", "1"): "f14ade64f369b83860b7b83592337d8f26a4dffafe11b45c7fc54fb1b0bb9995",
    }

    @pytest.mark.parametrize("n, p", sorted(GOLDEN))
    def test_document_digest(self, capsys, n, p):
        code, out, err = run(capsys, "optimal", "--n", n, "--p", p)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[n, p]


class TestVerifyLemmas:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "3", "--grid-step", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["rows"]) == 4  # 2 lemmas x 2 grid points at n=3
        assert {row["p"] for row in doc["rows"] if row["which"] == "complete_optimal"} == {0.0, 0.5}
        assert {row["p"] for row in doc["rows"] if row["which"] == "star_optimal"} == {0.5, 1.0}

    def test_coarse_grid_endpoints(self, capsys):
        doc = json.loads(run(capsys, "verify-lemmas", "--n-max", "4", "--grid-step", "0.25")[1])
        low = {r["p"] for r in doc["rows"] if r["which"] == "complete_optimal"}
        high = {r["p"] for r in doc["rows"] if r["which"] == "star_optimal"}
        assert low == {0.0, 0.25, 0.5} and high == {0.5, 0.75, 1.0}

    def test_orders_beyond_the_search_cap_pass(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "12")
        doc = json.loads(out)
        assert code == 0 and doc["all_passed"] is True
        assert {row["n"] for row in doc["rows"]} == set(range(3, 13))

    def test_failed_row_writes_its_counterexample_and_exits_3(self, capsys, monkeypatch):
        rival = covertnet.graph.build_graph(3, edges=[(0, 1), (1, 2)])

        def refuted(which, n, grid):
            holds = which == "star_optimal"
            rows = [LemmaCheckRow(p, holds, 0.5, 0.75, None if holds else rival) for p in grid]
            return LemmaReport(which, n, 1e-12, tuple(rows))

        monkeypatch.setattr(cli, "verify_lemma", refuted)
        code, out, err = run(capsys, "verify-lemmas", "--n-max", "3", "--grid-step", "0.5")
        assert code == 3 and err == "lemma verification failed; see rows above\n"
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert doc["rows"][0] == {
            "which": "complete_optimal", "n": 3, "p": 0.0, "passed": False,
            "mu_claimed": 0.5, "max_mu_other": 0.75, "counterexample": [[0, 1], [1, 2]],
        }
        assert list(doc["rows"][0]) == ["which", "n", "p", "passed", "mu_claimed", "max_mu_other", "counterexample"]
        assert doc["rows"][-1]["counterexample"] is None and doc["rows"][-1]["passed"] is True

    def test_n_max_below_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify-lemmas", "--n-max", "2")
        assert code == 2

    def test_bad_step_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify-lemmas", "--n-max", "3", "--grid-step", "0.7")
        assert code == 2


class TestSimulate:
    def test_exact_worked_case(self, capsys, pair_graph):
        doc = run_json(
            capsys, "simulate", pair_graph,
            "--alphas", "0.1,0.2", "--budget", "0.5", "--gamma", "0.5",
            "--cost-k", "2.0", "--exact",
        )
        assert doc["mode"] == "exact"
        assert doc["expected_detected"] == pytest.approx(0.43, abs=1e-12)
        assert doc["expected_cost"] == pytest.approx(0.86, abs=1e-12)
        assert "stderr" not in doc

    def test_zero_alphas(self, capsys, pair_graph):
        doc = run_json(
            capsys, "simulate", pair_graph,
            "--alphas", "0,0", "--budget", "1", "--gamma", "0.5",
            "--cost-k", "1", "--trials", "500",
        )
        assert doc["expected_detected"] == 0.0

    def test_same_seed_byte_identical(self, capsys, pair_graph):
        argv = (
            "simulate", pair_graph, "--alphas", "0.1,0.2", "--budget", "0.5",
            "--gamma", "0.5", "--cost-k", "1", "--trials", "20000", "--seed", "9",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        workers = run(capsys, *argv, "--workers", "3")
        assert first == second == workers
        assert json.loads(first[1])["mode"] == "monte_carlo"

    def test_infeasible_budget_exits_2(self, capsys, pair_graph):
        code, _, err = run(
            capsys, "simulate", pair_graph, "--alphas", "0.4,0.4",
            "--budget", "0.5", "--gamma", "0.5", "--cost-k", "1",
        )
        assert code == 2 and "budget" in err

    def test_budget_split_exactly_admitted(self, capsys, tmp_path):
        path = tmp_path / "path3.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        doc = run_json(
            capsys, "simulate", str(path), "--alphas", "0.1,0.2,0.3", "--budget", "0.6",
            "--gamma", "0.5", "--cost-k", "1", "--exact",
        )
        assert doc["mode"] == "exact"

    def test_infinite_cost_exits_2(self, capsys, pair_graph):
        code, out, err = run(
            capsys, "simulate", pair_graph, "--alphas", "0.1,0.1", "--budget", "0.5",
            "--gamma", "0.5", "--cost-k", "inf", "--exact",
        )
        assert code == 2 and out == "" and "cost" in err

    @pytest.mark.parametrize("mode", [["--exact"], ["--trials", "100"]], ids=["exact", "monte-carlo"])
    def test_overflowing_cost_exits_2(self, capsys, pair_graph, mode):
        code, out, err = run(
            capsys, "simulate", pair_graph, "--alphas", "0.5,0.5", "--budget", "1",
            "--gamma", "1", "--cost-k", "1.7e308", *mode,
        )
        assert code == 2 and out == "" and "expected cost overflows" in err

    def test_exact_rejects_multi_period(self, capsys, pair_graph):
        code, _, _ = run(
            capsys, "simulate", pair_graph, "--alphas", "0.1,0.2", "--budget", "0.5",
            "--gamma", "0.5", "--cost-k", "1", "--exact", "--periods", "2",
        )
        assert code == 2

    def test_exact_rejects_cascade(self, capsys, pair_graph):
        code, _, _ = run(
            capsys, "simulate", pair_graph, "--alphas", "0.1,0.2", "--budget", "0.5",
            "--gamma", "0.5", "--cost-k", "1", "--exact", "--cascade",
        )
        assert code == 2

    def test_periods_past_memory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "path3.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        code, out, err = run(
            capsys, "simulate", str(path), "--alphas", "0.1,0.1,0.1", "--budget", "0.3",
            "--gamma", "0.5", "--cost-k", "1", "--trials", "10", "--periods", str(10**15),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: periods=1000000000000000 needs") and "draw words" in err

    def test_alphas_from_file(self, capsys, pair_graph, tmp_path):
        alpha_file = tmp_path / "alphas.txt"
        alpha_file.write_text("0.1\n0.2\n")
        doc = run_json(
            capsys, "simulate", pair_graph, "--alphas", str(alpha_file),
            "--budget", "0.5", "--gamma", "0.5", "--cost-k", "1", "--exact",
        )
        assert doc["expected_detected"] == pytest.approx(0.43, abs=1e-12)

    # sha256 of the reports on a fixed 61-member, 282-edge network, recorded when
    # each trial-period took its first 64 words from its chunk's region and the
    # rest from its block; n + arcs = 625 is not a multiple of 4, so cascades
    # continue into blocks that start mid-counter.
    BIG_SEED = str(2**127 + 12345)
    GOLDEN = {
        ("onehop", "0"): "62d3bea68ac464f04addb1db43137cc22fde98dc5dd174555209f329cf278713",
        ("onehop", "131"): "760bc292f1a6529e7d2ec4127978ef035439e82a6cc815f897a524ef8ee19010",
        ("onehop", BIG_SEED): "a61c9f73d679efaaa5f9264400fcf8e4e58c185fb8231883dd5ff38d67c71e13",
        ("periods3", "0"): "4199fb95ae85c7e3879d1adfb56a605cb74dbb921c7be511da7666c9b37c6238",
        ("periods3", "131"): "7c1f7d92e9e12a51dccb456a7c8d0ee886b0747439f8247f2ea9a12d850f0291",
        ("periods3", BIG_SEED): "20ceb8f945bf09c5b31927600130f169ae7d554555efa8283fea0ea21741aebf",
        ("cascade", "0"): "1e592748d0aa018e9feda3e5b1912f4510687fbbe9d694fd554157ce2891aea9",
        ("cascade", "131"): "146c9c2e84e91504e462027dda6e6ee4e5bc754f12dbeaaf560f84f1a4a0a6c1",
        ("cascade", BIG_SEED): "b06dec0c00872840291bd249dd1db57831daa56ecd5b5a591cacdaf58b304787",
        ("cascade3", "0"): "c239aea5c57b43f21fffe4af258d852b3d83ed02143ec4fd3ca69fb8e7e2d9b7",
        ("cascade3", "131"): "2155e3c89da9d6c809e041246aa105ca756dd8c475aef19a0ac29dca56980ad8",
        ("cascade3", BIG_SEED): "1133fd3087fb682ad899903538653c2035c8b9d3669e3f7e2c2b8e059d06f866",
        ("cascade_directed", "0"): "fd0694a69797517df6dca52386806fc11d9f9f22fe1c22e41dc91cf223cc6609",
        ("cascade_directed", "131"): "513eea04ae8c74218ff1f9165e904f13aaaa3ef5a3653d2bc9a180ed9d44eda3",
        ("cascade_directed", BIG_SEED): "8f8b2e360b3e0e801aacc84380f32f18455ce528d1d45ad09d2d5b99aa02d3cb",
    }

    @pytest.mark.parametrize("mode, seed", sorted(GOLDEN))
    def test_monte_carlo_report_digest(self, capsys, tmp_path, mode, seed):
        n = 61
        # directed, each member knows about the members it names: 291 arcs
        directed = mode == "cascade_directed"
        edges = sorted(
            {(i, j) if directed else (min(i, j), max(i, j)) for i in range(n)
             for j in ((i + 1) % n, (i * 7 + 11) % n, (i * 13 + 5) % n, (i * 17 + 29) % n,
                       (i * 23 + 3) % n) if i != j}
        )
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"n": n, "directed": directed, "edges": edges}))
        alphas = ",".join(repr((i % 4) * 0.005) for i in range(n))
        extra = {"onehop": [], "periods3": ["--periods", "3"], "cascade": ["--cascade"],
                 "cascade3": ["--cascade", "--periods", "3"],
                 "cascade_directed": ["--cascade"]}[mode]
        code, out, err = run(
            capsys, "simulate", str(path), "--alphas", alphas, "--budget", "0.5",
            "--gamma", "0.5", "--cost-k", "1", "--trials", "3000", "--seed", seed, *extra,
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[mode, seed]


class TestBuild:
    def test_three_actor_roster(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps([
            {"id": "a", "generators": ["x", "y"]},
            {"id": "b", "generators": ["y", "z"]},
            {"id": "c", "generators": ["w"]},
        ]))
        doc = run_json(capsys, "build", str(roster))
        assert doc == {
            "directed": False,
            "n": 3,
            "labels": ["a", "b", "c"],
            "edges": [[0, 1, 1.0]],
        }

    def test_empty_generators_anarchy(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('[{"id": "a"}, {"id": "b"}]')
        doc = run_json(capsys, "build", str(roster))
        assert doc["edges"] == []

    def test_unreachable_threshold_anarchy(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps([
            {"id": "a", "generators": ["x", "y", "z"]},
            {"id": "b", "generators": ["x", "y", "z"]},
        ]))
        doc = run_json(capsys, "build", str(roster), "--threshold", "5")
        assert doc["edges"] == []

    def test_duplicate_ids_exit_1(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('[{"id": "a"}, {"id": "a"}]')
        code, _, err = run(capsys, "build", str(roster))
        assert code == 1 and "duplicate" in err

    @pytest.mark.parametrize("text, message, _", BAD_ROSTERS.values(), ids=list(BAD_ROSTERS))
    def test_bad_roster_exits_1_with_its_message(self, capsys, tmp_path, text, message, _):
        roster = tmp_path / "roster.json"
        roster.write_text(text)
        assert run(capsys, "build", str(roster)) == (1, "", f"error: {roster}: {message}\n")

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(roster_documents(), st.integers(1, 3), st.sampled_from(WEIGHT_MODES))
    @example(hub_roster(), 2, "overlap_count")
    def test_same_graph_as_the_profiles_and_the_pair_loop(self, capsys, tmp_path, actors, threshold, weight_mode):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps(actors))
        argv = ["build", str(roster), "--threshold", str(threshold), "--weight-mode", weight_mode]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        rule = TieRule(threshold, weight_mode)
        assert out == _graph_text(*build_from_actors(load_actor_file(roster), rule)) + "\n"
        # the oracle's token sets are canonicalized here, not by the library
        profiles = [
            types.SimpleNamespace(generators={t.strip().casefold() for t in actor.get("generators", [])} - {""})
            for actor in actors
        ]
        edges = [tuple(edge) for edge in json.loads(out)["edges"]]
        assert edges == list(reference_affiliation_edges(profiles, rule))

    def test_makes_no_actor_profile(self, capsys, tmp_path, monkeypatch):
        def refuse(profile):
            raise AssertionError(f"build made a profile of {profile.id!r}")

        monkeypatch.setattr(ActorProfile, "__post_init__", refuse)
        roster = tmp_path / "roster.json"
        roster.write_text('[{"id": "a", "generators": ["x", "Y"]}, {"id": "b", "generators": ["y"]}]')
        doc = run_json(capsys, "build", str(roster))
        assert doc["edges"] == [[0, 1, 1.0]]

    # sha256 of the graph documents of a fixed 300-actor roster, recorded when every
    # tie still went through build_graph's per-edge loop
    GOLDEN = {
        ("1", "overlap_count"): "763978ef03a8b8652bf14f530a7241405f9ae91c9cedd4d18e64001189b0dc57",
        ("1", "unit"): "c5c23e49925c0d1eec9bd6f9f221ecfdc56ced0ce3d4985bc3e15d4754aebe5f",
        ("2", "overlap_count"): "b2e7629b9f9cb1a090f4d0d073c6636fe33cd7ef82c718eede143da3ee1d68d6",
        ("2", "unit"): "ee6119fd5ac817ebdd4c38f58524e280cabcf756a1f8b38df5f39977c30433fc",
    }

    @pytest.mark.parametrize("threshold, weight_mode", sorted(GOLDEN))
    def test_hub_roster_document_digest(self, capsys, tmp_path, threshold, weight_mode):
        # 30 hub tokens over 300 actors tie thousands of pairs, some by two or three
        # tokens; neighbours share two chain tokens, and spacing and case vary
        rng = random.Random(2013)
        actors = []
        for i in range(300):
            tokens = {
                f" Hub{rng.randrange(30)}" if rng.random() < 0.3 else f"hub{rng.randrange(30)}"
                for _ in range(3)
            }
            tokens.update(f"chain{k}.{c}" for k in (i - 1, i) if 0 <= k < 299 for c in "ab")
            actors.append({"id": f"actor{i:03d}", "generators": sorted(tokens)})
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps(actors))
        code, out, err = run(
            capsys, "build", str(roster), "--threshold", threshold, "--weight-mode", weight_mode
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[threshold, weight_mode]

    def test_round_trip_through_metrics(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps([
            {"id": "a", "generators": ["x", "y"]},
            {"id": "b", "generators": ["y", "z"]},
            {"id": "c", "generators": ["z", "x"]},
        ]))
        built = run_json(capsys, "build", str(roster))
        graph_file = tmp_path / "built.json"
        graph_file.write_text(json.dumps(built))
        reloaded, labels = load_graph_file(graph_file)
        assert list(labels) == built["labels"]
        assert [[s, t, w] for s, t, w in reloaded.edges] == built["edges"]
        doc = run_json(capsys, "metrics", str(graph_file), "--p", "0.2")
        assert doc["n"] == 3 and doc["m"] == 3 and doc["K"] == 1.0


@pytest.mark.parametrize("command", ["build", "hierarchy"])
def test_closed_stdout_exits_141_quietly(tmp_path, command):
    # build: 400 actors sharing one token tie 79,800 pairs, a document of about 3.5 MB,
    # far past what a pipe holds, so a write inside print meets the pipe closed after
    # 10 bytes. hierarchy: its small document stays in stdout's buffer, the pipe is
    # closed before the process writes, and main's flush meets it; without the devnull
    # redirect the flush at exit would fail again and print to stderr.
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps([{"id": f"a{i}", "generators": ["hub", f"own{i}"]} for i in range(400)]))
    argv = {"build": ["build", str(roster)], "hierarchy": ["hierarchy", "--alphas", "0.1,0.2", "--n-linked", "1"]}
    source = str(Path(covertnet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as it is by default
    command_line = [sys.executable, "-m", "covertnet.cli", *argv[command]]
    with subprocess.Popen(command_line, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        if command == "build":
            assert proc.stdout.read(10) == b'{\n  "direc'
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")

class TestHierarchy:
    def test_two_linked(self, capsys):
        doc = run_json(capsys, "hierarchy", "--alphas", "0.1,0.2,0.3,0.4,0.5", "--n-linked", "2")
        assert doc["n"] == 5
        assert doc["edges"] == [[0, 3, 1.0], [0, 4, 1.0]]

    def test_zero_linked_anarchy(self, capsys):
        doc = run_json(capsys, "hierarchy", "--alphas", "0.1,0.2,0.3,0.4", "--n-linked", "0")
        assert doc["edges"] == []

    def test_full_star(self, capsys):
        doc = run_json(capsys, "hierarchy", "--alphas", "0.1,0.2,0.3,0.4", "--n-linked", "3")
        assert doc["edges"] == [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0]]

    def test_unsorted_exits_2(self, capsys):
        code, _, err = run(capsys, "hierarchy", "--alphas", "0.3,0.1", "--n-linked", "1")
        assert code == 2 and "ascending" in err

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "hierarchy", "--alphas", "0.1,0.2", "--n-linked", "2")
        assert code == 2

    @pytest.mark.parametrize("alphas", ["nan,0.1,0.2", "0.1,inf"])
    def test_levels_outside_unit_interval_exit_2(self, capsys, alphas):
        code, out, err = run(capsys, "hierarchy", "--alphas", alphas, "--n-linked", "1")
        assert code == 2 and out == "" and "[0, 1]" in err


# a blank vector once fell back to a path, and Path("") is the current directory
@pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{graph}", "--alphas={blank}", "--budget", "0.5", "--gamma", "0.5", "--cost-k", "1"],
        ["hierarchy", "--alphas={blank}", "--n-linked", "1"],
        ["metrics", "{graph}", "--p", "0.3", "--sharing-weights={blank}"],
    ],
    ids=["simulate --alphas", "hierarchy --alphas", "metrics --sharing-weights"],
)
def test_blank_vector_exits_2(capsys, pair_graph, argv, blank):
    code, out, err = run(capsys, *[a.format(graph=pair_graph, blank=blank) for a in argv])
    assert code == 2 and out == "" and "empty vector" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["optimal", "--n", "3", "--p", "0.3"],
        ["verify-lemmas", "--n-max", "3"],
        ["simulate", "{graph}", "--alphas", "0.1,0.1", "--budget", "0.5", "--gamma", "0.5",
         "--cost-k", "1", "--trials", "10"],
    ],
    ids=["optimal", "verify-lemmas", "simulate"],
)
def test_nonpositive_workers_exit_2(capsys, pair_graph, argv, workers):
    argv = [a.format(graph=pair_graph) for a in argv]
    code, out, err = run(capsys, *argv, f"--workers={workers}")
    assert code == 2 and out == "" and "workers" in err


def _simulate(exact=True, **value):
    """``simulate`` on the pair graph with valid values, except for ``value``.

    Monte Carlo mode (``exact=False``) runs 10 trials.
    """
    flags = {"alphas": "0.1,0.1", "budget": "0.5", "gamma": "0.5", "cost_k": "1"}
    flags.update({} if exact else {"trials": "10"}, **value)
    return ["simulate", "{graph}", *(["--exact"] if exact else [])] + [
        f"--{name.replace('_', '-')}={v}" for name, v in flags.items()
    ]


# Each numeric flag: its command line with "{}" where the value goes, and the
# finite values outside its range. Every flag also gets nan, inf and -inf,
# which argparse itself rejects for an integer flag.
NUMERIC_FLAGS = {
    "metrics --p": (["metrics", "{graph}", "--p={}"], ["-0.1", "1.5"]),
    "metrics --sharing-weights": (
        ["metrics", "{graph}", "--p", "0.3", "--sharing-weights=0.5,{}"], ["-0.5", "1.5"]
    ),
    "optimal --p": (["optimal", "--n", "3", "--p={}"], ["-0.1", "1.5"]),
    "optimal --tolerance": (["optimal", "--n", "3", "--p", "0.3", "--tolerance={}"], ["-1e-9"]),
    "verify-lemmas --grid-step": (
        ["verify-lemmas", "--n-max", "3", "--grid-step={}"], ["0", "0.6", "1e-300", "1e-7", "0.3", "0.4"]
    ),
    "simulate --alphas": (_simulate(alphas="0.1,{}"), ["-0.1", "1.5"]),
    "simulate --budget": (_simulate(budget="{}"), ["-0.1", "1.5"]),
    "simulate --gamma": (_simulate(gamma="{}"), ["0", "1.5"]),
    "simulate --cost-k": (_simulate(cost_k="{}"), ["0", "-1"]),
    "hierarchy --alphas": (["hierarchy", "--alphas=0.1,{}", "--n-linked", "1"], ["1.5"]),
    "simulate --exact --periods": (_simulate(periods="{}"), ["0", "-5"]),
    "simulate --periods": (_simulate(exact=False, periods="{}"), ["0", "-5"]),
    "simulate --exact --trials": (_simulate(trials="{}"), ["0", "-1"]),
    "simulate --trials": (_simulate(exact=False, trials="{}"), ["0", "-1"]),
    "simulate --exact --seed": (_simulate(seed="{}"), ["-1", str(1 << 128)]),
    "simulate --seed": (_simulate(exact=False, seed="{}"), ["-1", str(1 << 128)]),
    "simulate --exact --workers": (_simulate(workers="{}"), ["0", "-3"]),
    "simulate --workers": (_simulate(exact=False, workers="{}"), ["0", "-3"]),
    "optimal --n": (["optimal", "--n={}", "--p", "0.3"], ["1", "8", "9"]),
    "verify-lemmas --n-max": (["verify-lemmas", "--n-max={}"], ["2", "51"]),
    "build --threshold": (["build", "{roster}", "--threshold={}"], ["0", "-1"]),
    "hierarchy --n-linked": (["hierarchy", "--alphas", "0.1,0.2", "--n-linked={}"], ["-1", "2"]),
}


@pytest.fixture
def roster(tmp_path):
    path = tmp_path / "roster.json"
    path.write_text('[{"id": "a", "generators": ["x"]}, {"id": "b", "generators": ["x"]}]')
    return str(path)


@pytest.mark.parametrize(
    "flag, value",
    [(flag, v) for flag, (_, bad) in NUMERIC_FLAGS.items() for v in ["nan", "inf", "-inf", *bad]],
)
def test_numeric_flag_outside_range_exits_2(capsys, pair_graph, roster, flag, value):
    template, _ = NUMERIC_FLAGS[flag]
    try:
        code, out, _ = run(capsys, *(a.format(value, graph=pair_graph, roster=roster) for a in template))
    except SystemExit as exit:  # argparse rejects a value its type cannot parse
        code, out = exit.code, capsys.readouterr().out
    assert code == 2, out
    assert "NaN" not in out and "Infinity" not in out


# The writer must reproduce json.dumps(indent=2), which stays here as its oracle.
# Strings mix the writer's own separator and template characters with escapes and
# non-ASCII text; rows of equal length take the one-call path, ragged rows do not.
_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["\x00", "%", "%s", "]", "[", "\n", '"', "\\", ", ", ": ", "é", "中", "😀"])).map(
        "".join
    ),
)
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**200) | st.integers(min_value=-(2**200), max_value=-(2**63)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
)
_SCALARS = st.one_of(_TEXT, _NUMBERS, st.booleans(), st.none())
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(allow_nan=True), st.booleans(), st.none())


def _sequences(items):
    return st.lists(items, max_size=6) | st.lists(items, max_size=6).map(tuple)


def _rows(width):
    return _sequences(st.lists(_SCALARS, min_size=width, max_size=width) | st.tuples(*[_SCALARS] * width))


def _containers(children):
    rows = st.integers(0, 4).flatmap(_rows)
    return st.one_of(
        _sequences(children),
        st.dictionaries(_KEYS, children, max_size=6),
        rows,
        _sequences(_sequences(_SCALARS)),
    )


_JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=250, deadline=None)
@given(_JSON_VALUES)
def test_writer_matches_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


_RECORD_KEYS = st.one_of(_KEYS, st.sampled_from(["%", "%s", "%%", '"', "\x00", "é", "中"]))
_RECORD_VALUES = st.one_of(_SCALARS, st.sampled_from([-0.0, 5e-324, None, True, False]))


@st.composite
def _records(draw):
    """Dict rows with one key order and scalar values, the template's case.

    Some draws take the general path instead: one row holds a nested value,
    or one row lists the keys in reverse.
    """
    keys = list(dict.fromkeys(draw(st.lists(_RECORD_KEYS, max_size=5))))
    rows = [
        dict(zip(keys, draw(st.lists(_RECORD_VALUES, min_size=len(keys), max_size=len(keys)))))
        for _ in range(draw(st.integers(1, 8)))
    ]
    odd = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from(["none", "nested", "reversed"])) if keys else "none"
    if change == "nested":
        key = draw(st.sampled_from(keys))
        rows[odd][key] = [rows[odd][key]]
    elif change == "reversed":
        rows[odd] = dict(reversed(rows[odd].items()))
    return rows


@settings(max_examples=250, deadline=None)
@given(_records())
def test_writer_matches_indent_2_on_records(rows):
    assert _dumps(rows) == json.dumps(rows, indent=2)
    assert _dumps({"rows": rows}) == json.dumps({"rows": rows}, indent=2)


# Signed zero, a subnormal, a value with no short decimal form, integral floats and the
# edge of the float range: each must print as json.dumps prints it.
_WRITER_WEIGHTS = (-0.0, 0.0, 5e-324, 0.1, 1e16, 1.0, 2.0, 3.0, 1.7e308)


def _labelled(g):
    return st.tuples(st.just(g), st.none() | st.lists(_TEXT, min_size=g.n, max_size=g.n).map(tuple))


@settings(max_examples=150, deadline=None)
@given(
    st.booleans().flatmap(
        lambda directed: graphs(min_n=1, max_n=12, weighted=True, directed=directed, weights=_WRITER_WEIGHTS)
    ).flatmap(_labelled)
)
def test_graph_writer_matches_the_dict_document(graph_and_labels):
    g, labels = graph_and_labels
    assert _graph_text(g, labels) == json.dumps(graph_to_json_dict(g, labels), indent=2)


SUBCOMMANDS = {
    "metrics --community": ["metrics", "{k4}", "--p", "0.3", "--community", "0"],
    "metrics csv --edge-weighted": ["metrics", "{csv}", "--p", "0.3", "--edge-weighted"],
    "optimal": ["optimal", "--n", "4", "--p", "0.5"],
    "verify-lemmas": ["verify-lemmas", "--n-max", "5", "--grid-step", "0.25"],
    "simulate --exact": _simulate(),
    "simulate --cascade": _simulate(exact=False, trials="50", periods="2") + ["--cascade"],
    "build": ["build", "{roster}"],
    "hierarchy": ["hierarchy", "--alphas", "0.1,0.2,0.3", "--n-linked", "2"],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_stdout_is_the_indent_2_document(capsys, complete4, star4_csv, pair_graph, roster, argv):
    paths = {"k4": complete4, "csv": star4_csv, "graph": pair_graph, "roster": roster}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_parser_is_built_once_per_process(capsys):
    main(["verify-lemmas", "--n-max", "3"])
    before = cli._build_parser.cache_info()
    calls = [
        ["verify-lemmas", "--n-max", "4"],
        ["optimal", "--n", "3", "--p", "0.3"],
        ["hierarchy", "--alphas", "0.1,0.2", "--n-linked", "1"],
    ]
    for argv in calls:
        assert main(argv) == 0
    after = cli._build_parser.cache_info()
    assert after.misses == before.misses == 1
    assert after.hits - before.hits == 3


REJECTED = {
    "missing required flag": ["optimal", "--n", "4"],
    "value of the wrong type": ["optimal", "--n", "four", "--p", "0.3"],
    "unknown option": ["optimal", "--n", "4", "--p", "0.3", "--bogus"],
    "unknown command": ["optimise", "--n", "4"],
    "bad choice": ["build", "roster.json", "--weight-mode", "squared"],
}


@pytest.mark.parametrize("rejected", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_call_leaves_the_shared_parser_unchanged(capsys, rejected):
    valid = ["optimal", "--n", "4", "--p", "0.3"]
    first = run(capsys, *valid)
    with pytest.raises(SystemExit) as exit:
        main(rejected)
    assert exit.value.code == 2 and capsys.readouterr().out == ""
    # a call with non-default values must not leave them as the next call's defaults
    assert run(capsys, *valid, "--tolerance", "0.5", "--max-maximizers", "1")[0] == 0
    assert run(capsys, *valid) == first
