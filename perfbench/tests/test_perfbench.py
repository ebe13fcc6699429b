"""Tests of the benchmark's own code: statistics, generators, oracles, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cnbench import oracles, runner, workloads
from cnbench.spans import Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["cli.main", 1.0, 9.0, 0, 0],
        ["graph.total_distance", 2.0, 6.0, 1, 0],
        ["graph.geodesic_distances", 2.5, 5.5, 2, 0],
        ["io.load_graph_file", 6.0, 7.0, 1, 0],
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


@pytest.mark.parametrize(
    "n, index, pct",
    [(5, 4, 100.0), (10, 9, 100.0), (11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, pct):
    values = [float(v) for v in range(n)]
    value, percentile = runner.tail(values[::-1])
    assert value == values[index]
    assert percentile == pytest.approx(pct)
    assert sum(v > value for v in values) == min(10, n - 1 - index)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(name, tmp_path):
    def build(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        written = workloads.WORKLOADS[name](seed, directory).written
        return written, {p.name: p.read_bytes() for p in directory.iterdir()}

    written_a, files_a = build(7, "a")
    written_b, files_b = build(7, "b")
    written_c, _ = build(8, "c")
    assert written_a == written_b and files_a == files_b
    assert written_a != written_c


def _op(workload, kind):
    return next(op for op in workload.cycle if op.kind == kind)


def _run(op):
    rc, out = op.call()
    assert op.check(rc, out) is None, f"{op.kind} fails on correct code"
    return rc, out


def _flags(op, rc, doc_or_out):
    out = doc_or_out if isinstance(doc_or_out, str) else json.dumps(doc_or_out)
    return op.check(rc, out) is not None


def test_distance_oracle_flags_wrong_answers(tmp_path):
    wl = workloads.distances(3, tmp_path)
    for kind in ("plain24", "community24", "weighted24"):
        op = _op(wl, kind)
        rc, out = _run(op)
        assert _flags(op, 2, out)
        for key, bump in (("T", 1.0), ("D", 0.5), ("K", 1e-6), ("mu", 1e-6)):
            doc = json.loads(out)
            doc[key] += bump
            assert _flags(op, rc, doc), key
    op = _op(wl, "community24")
    doc = json.loads(op.call()[1])
    ring = next(iter(doc["communities"]))
    doc["communities"][ring] = doc["communities"][ring][1:]
    assert _flags(op, 0, doc)


def test_search_oracles_flag_wrong_answers(tmp_path):
    wl = workloads.structure_search(3, tmp_path)
    low = _op(wl, "optimal0.3")
    rc, out = _run(low)
    doc = json.loads(out)
    assert _flags(low, rc, {**doc, "graphs_enumerated": doc["graphs_enumerated"] - 1})
    assert _flags(low, rc, {**doc, "maximizers": []})
    assert _flags(low, rc, {**doc, "best_mu": doc["best_mu"] * 0.99})

    half = _op(wl, "optimal0.5")
    rc, out = _run(half)
    doc = json.loads(out)
    assert _flags(half, rc, {**doc, "maximizer_count": doc["maximizer_count"] - 1})

    high = _op(wl, "optimal0.7")
    rc, out = _run(high)
    doc = json.loads(out)
    assert _flags(high, rc, {**doc, "maximizers": [m for m in doc["maximizers"] if not oracles.is_star(m, 6)]})

    lemmas = _op(wl, "lemmas0.1")
    rc, out = _run(lemmas)
    doc = json.loads(out)
    doc["rows"][3]["passed"] = False
    assert _flags(lemmas, rc, doc)
    assert _flags(lemmas, rc, {**json.loads(out), "rows": json.loads(out)["rows"][:-1]})
    assert _flags(lemmas, 3, out)

    weighted = _op(wl, "weighted0.35")
    rc, result = _run(weighted)
    assert weighted.check(rc, replace(result, best_mu=0.0)) is not None
    assert weighted.check(rc, replace(result, graphs_enumerated=1)) is not None
    assert weighted.check(rc, replace(result, argmax_graphs=())) is not None


def test_detection_oracles_flag_wrong_answers(tmp_path):
    wl = workloads.detection_mc(3, tmp_path)
    exact = _op(wl, "exact_spread")
    rc, out = _run(exact)
    doc = json.loads(out)
    doc["per_member_prob"][5] += 1e-6
    assert _flags(exact, rc, doc)
    assert _flags(exact, rc, {**json.loads(out), "expected_cost": 0.0})

    onehop = _op(wl, "onehop")
    rc, out = _run(onehop)
    assert onehop.check(rc, out) is None  # the same bytes again pass
    assert _flags(onehop, rc, out.replace("\n", "\n ", 1))

    fresh = workloads.detection_mc(3, tmp_path)
    onehop = _op(fresh, "onehop")
    doc = json.loads(out)
    doc["expected_detected"] += 6 * doc["stderr"]
    assert _flags(onehop, rc, doc)


def test_affiliation_oracle_flags_wrong_answers(tmp_path, monkeypatch):
    small = tuple((kind, 120, *rest) for kind, _, *rest in workloads.ROSTERS)
    monkeypatch.setattr(workloads, "ROSTERS", small)
    wl = workloads.affiliation_build(3, tmp_path)
    for op in wl.cycle:
        rc, out = _run(op)
        doc = json.loads(out)
        assert _flags(op, rc, {**doc, "edges": doc["edges"][:-1]})
        doc["edges"][0][2] += 1.0
        assert _flags(op, rc, doc)
        assert _flags(op, rc, {**json.loads(out), "labels": json.loads(out)["labels"][::-1]})


def test_inverted_index_matches_pairwise_overlap():
    actors = [
        {"id": "a", "generators": ["x", "Y", "z"]},
        {"id": "b", "generators": [" y ", "z"]},
        {"id": "c", "generators": ["x"]},
        {"id": "d", "generators": []},
    ]
    assert oracles.affiliation_edges(actors, 1) == [[0, 1, 2.0], [0, 2, 1.0]]
    assert oracles.affiliation_edges(actors, 2) == [[0, 1, 2.0]]


def test_tracer_sees_every_import_site_and_restores_them(tmp_path):
    import covertnet
    import covertnet.cli
    import covertnet.graph
    import covertnet.measures

    original = covertnet.graph.geodesic_distances
    wl = workloads.distances(3, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("total_distance", "geodesic_distances", "is_connected"):
            assert getattr(covertnet.cli, name).__wrapped__ is not None
        assert covertnet.measures.total_distance is covertnet.cli.total_distance
        assert covertnet.geodesic_distances is covertnet.graph.geodesic_distances
        loop = runner.Loop()
        for op in wl.cycle[:3]:
            runner.run_op(op, loop, tracer)
    finally:
        tracer.uninstall()
    assert covertnet.graph.geodesic_distances is original
    assert covertnet.cli.geodesic_distances is original
    assert loop.problems == []
    assert sorted(loop.apsp_by_kind) == ["community24", "plain24", "weighted24"]
    assert all(len(seen) == 1 and min(seen) >= 1 for seen in loop.apsp_by_kind.values())
    assert [s[0] for s in tracer.spans if s[3] < 0] == ["bench.op"] * 3
    assert tracer.counts["io.calls"] == 3


def test_chunk_functions_get_their_own_spans(tmp_path):
    wl = workloads.structure_search(3, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        runner.run_op(_op(wl, "weighted0.35"), runner.Loop(), tracer)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("search._scan_optimal_chunk") == tracer.counts["parallel.chunks"] == 8
    assert tracer.counts["search.masks_scanned"] == 1 << 15
    assert tracer.counts["search.connected_found"] == oracles.CONNECTED_LABELED[6]
    metrics = runner.per_layer(tracer, _fake_loop(1), _fake_loop(1))
    assert metrics["parallel.self_pct"][0] < metrics["search.self_pct"][0]


def _fake_loop(ops):
    loop = runner.Loop()
    loop.latencies = [0.1] * ops
    loop.reference = [runner.REFERENCE_NOMINAL_S]
    return loop


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.spans = [["bench.op", 0.0, 1.0, -1, 0]]
    loop = _fake_loop(3)
    e2e = runner.end_to_end(loop, 1.0)
    layers = runner.per_layer(tracer, loop, loop)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distances", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
