"""The four workloads: seeded inputs, the op cycle, and each op's oracle.

An op is one whole CLI command run in-process through
``covertnet.cli.main(argv)`` (or, for the weighted search, one library
call), with stdout captured. A cycle runs every op kind in a fixed order;
the timed loop repeats whole cycles, so every run sees the same mix.

Op kinds per cycle are chosen so that, at the seed commit's speed on two
cores, the slowest kind runs at least 11 times in a 25 s run (the tail
percentile then lies inside it) and the median falls inside one kind
rather than between two.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import inputs, oracles

P_LINK = 0.3


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the check of its output."""

    kind: str
    call: Callable[[], tuple[int, object]]
    check: Callable[[int, object], str | None]


@dataclass
class Workload:
    cycle: list[Op]
    #: every input byte generated, so a run can check its set-ups agree
    written: list[bytes] = field(default_factory=list)
    #: per op kind, the apsp call count the seed code makes (distances only)
    apsp_expected: dict[str, int] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one covertnet command in-process; return (exit code, stdout)."""
    import covertnet.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = covertnet.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _cli_op(kind: str, argv: list[str], check) -> Op:
    return Op(kind, functools.partial(run_cli, argv), check)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- distances -------------------------------------------------------------

#: Cell-sized graphs of tens of members and one of a few hundred; m = 4n.
DISTANCE_SIZES = (24, 64, 240)


def distances(seed: int, workdir: Path) -> Workload:
    """``metrics`` plain, ``--community v`` and ``--edge-weighted`` per graph.

    APSP does nearly all the work; search, detection and affiliation idle.
    """
    rng = _rng(seed, "distances")
    wl = Workload(cycle=[])
    for n in DISTANCE_SIZES:
        doc = inputs.graph_doc(rng, n, 4 * n, weighted=True)
        vertex = inputs.central_vertex(rng, n, doc["edges"])
        path = workdir / f"graph{n}.json"
        wl.written.append(inputs.write_json(path, doc))
        expect = oracles.metrics_expect(doc, P_LINK, vertex)
        base = ["metrics", str(path), "--p", str(P_LINK)]
        for mode, extra in (("plain", []), ("community", ["--community", str(vertex)]), ("weighted", ["--edge-weighted"])):
            kind = f"{mode}{n}"
            wl.cycle.append(_cli_op(kind, base + extra, functools.partial(oracles.check_metrics, expect, mode)))
            wl.apsp_expected[kind] = 4 + expect.ring_count if mode == "community" else 3
    return wl


# --- structure search ------------------------------------------------------

SEARCH_N = 6
#: Includes p = 1/2, where about 10^4 maximizer graphs are materialized.
P_GRID = (0.3, 0.5, 0.7)
#: Two grid steps, so the slowest kind (the lemma sweep) runs twice a cycle.
LEMMA_GRID_STEPS = (0.1, 0.05)
WEIGHTED_P = (0.35, 0.65)


def structure_search(seed: int, workdir: Path) -> Workload:
    """``optimal --n 6`` on a p-grid, ``verify-lemmas``, weighted ``find_optimal``, and n = 5.

    The mask scan dominates; non-uniform weights take the general path
    that a uniform-only shortcut cannot.
    """
    from covertnet import search
    from covertnet.measures import SecrecyParams

    rng = _rng(seed, "structure-search")
    n = SEARCH_N
    wl = Workload(cycle=[])
    for p in WEIGHTED_P:
        weights = inputs.sharing_weights(rng, n)
        wl.written.append(repr(weights).encode())
        params = SecrecyParams(p=p, sharing_weights=tuple(weights))
        bound = oracles.weighted_lower_bound(n, p, weights)

        def call(params=params):
            return 0, search.find_optimal(n, params, workers=1)

        wl.cycle.append(Op(f"weighted{p}", call, lambda rc, result, bound=bound: oracles.check_weighted_search(n, bound, result)))
    for p in P_GRID:
        argv = ["optimal", "--n", str(n), "--p", str(p), "--workers", "1"]
        wl.cycle.append(_cli_op(f"optimal{p}", argv, functools.partial(oracles.check_optimal, n, p)))
    for step in LEMMA_GRID_STEPS:
        argv = ["verify-lemmas", "--n-max", str(n), "--grid-step", str(step), "--workers", "1"]
        points = round(0.5 / step) + 1
        wl.cycle.append(_cli_op(f"lemmas{step}", argv, functools.partial(oracles.check_verify, n, points)))
    # two cheap n = 5 kinds below the ~0.25 s cluster put the median at its centre
    small = SEARCH_N - 1
    argv = ["optimal", "--n", str(small), "--p", "0.5", "--workers", "1"]
    wl.cycle.append(_cli_op(f"optimal{small}", argv, functools.partial(oracles.check_optimal, small, 0.5)))
    argv = ["verify-lemmas", "--n-max", str(small), "--workers", "1"]
    wl.cycle.append(_cli_op(f"lemmas{small}", argv, functools.partial(oracles.check_verify, small, 6)))
    return wl


# --- detection -------------------------------------------------------------

DETECTION_N, DETECTION_M = 300, 1500
BUDGET, GAMMA, COST_K = 0.6, 0.5, 10.0
#: (kind, extra flags); trial counts keep each op near half a second.
MONTE_CARLO_OPS = (
    ("onehop", ["--trials", "4096"]),
    ("periods3", ["--trials", "2048", "--periods", "3"]),
    ("cascade", ["--trials", "1024", "--cascade"]),
)


def detection_mc(seed: int, workdir: Path) -> Workload:
    """``simulate``: one-hop one- and three-period, cascade, and ``--exact``.

    Monte Carlo drawing and propagation dominate and the draws matrix sets
    peak memory; graph and search idle.
    """
    rng = _rng(seed, "detection-mc")
    doc = inputs.graph_doc(rng, DETECTION_N, DETECTION_M, weighted=False)
    graph = workdir / "network.json"
    wl = Workload(cycle=[], written=[inputs.write_json(graph, doc)])
    plans = {
        "spread": inputs.alphas(rng, DETECTION_N, 0.55),
        "hub": inputs.alphas(rng, DETECTION_N, 0.55, hub_share=0.5),
    }
    mc_seed = str(rng.randrange(1 << 32))
    paths, exact = {}, {}
    for name, alphas in plans.items():
        paths[name] = workdir / f"alphas_{name}.txt"
        wl.written.append(inputs.write_vector(paths[name], alphas))
        exact[name] = oracles.exact_detection(DETECTION_N, doc["edges"], alphas, GAMMA)
    base = ["simulate", str(graph), "--budget", str(BUDGET), "--gamma", str(GAMMA), "--cost-k", str(COST_K)]
    for name, path in paths.items():
        argv = base + ["--alphas", str(path), "--exact"]
        wl.cycle.append(_cli_op(f"exact_{name}", argv, functools.partial(oracles.check_exact, exact[name], COST_K)))
    check_mc = oracles.MonteCarloCheck()
    spread_expected = float(exact["spread"].sum())
    for kind, extra in MONTE_CARLO_OPS:
        argv = base + ["--alphas", str(paths["spread"]), "--seed", mc_seed, "--workers", "1"] + extra
        expected = spread_expected if kind == "onehop" else None
        wl.cycle.append(_cli_op(kind, argv, functools.partial(check_mc, kind, expected)))
    return wl


# --- affiliation -----------------------------------------------------------

#: (kind, actors, vocabulary, tokens per actor, threshold, token prefix).
#: The small cell roster keeps the median inside the sparse kind, well
#: apart from both neighbours.
ROSTERS = (
    ("cell", 600, 5000, 3, 1, "skill"),
    ("sparse", 1800, 20000, 4, 1, "topic"),
    ("hubs", 1800, 60, 4, 2, "hub"),
)


def affiliation_build(seed: int, workdir: Path) -> Workload:
    """``build`` on rosters of varying token overlap.

    The O(N^2) pair loop dominates; the hub roster's large graph document
    exercises JSON emission in cli and io.
    """
    rng = _rng(seed, "affiliation-build")
    wl = Workload(cycle=[])
    for kind, n_actors, vocab, per_actor, threshold, prefix in ROSTERS:
        actors = inputs.roster(rng, n_actors, vocab, per_actor, threshold, prefix)
        path = workdir / f"roster_{kind}.json"
        wl.written.append(inputs.write_json(path, actors))
        ids = [a["id"] for a in actors]
        edges = oracles.affiliation_edges(actors, threshold)
        argv = ["build", str(path), "--threshold", str(threshold)]
        wl.cycle.append(_cli_op(kind, argv, functools.partial(oracles.check_build, ids, edges)))
    return wl


WORKLOADS = {
    "distances": distances,
    "structure-search": structure_search,
    "detection-mc": detection_mc,
    "affiliation-build": affiliation_build,
}
