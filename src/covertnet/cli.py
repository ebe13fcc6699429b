"""Command-line surface binding the library into reproducible analyses.

Subcommands: ``metrics``, ``optimal``, ``verify-lemmas``, ``simulate``,
``build``, ``hierarchy``. Every command writes a single JSON document to
stdout, byte for byte the text of ``json.dumps(doc, indent=2)`` and a
newline; diagnostics go to stderr. Exit codes: 0 success, 1 malformed
input file, 2 constraint or range violation, 3 lemma verification
failure, 141 (128 + SIGPIPE) stdout closed by its reader, with nothing
on stderr.

The argument parser is built once per process (``_build_parser`` is cached,
as io's encoders are) and every ``main`` call reuses it: parsing reads the
parser and never changes it, so a call that argparse rejects leaves later
calls' output as it was.

A handler only maps a result to a document; ``io`` writes every document's
text (``io._dumps``, and ``io._graph_text`` for the graph documents of
``build`` and ``hierarchy``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .detection import DetectionParams, ScrutinyPlan, detect_exact, simulate
from .graph import (
    UNREACHABLE,
    Graph,
    GraphError,
    diameter,
    geodesic_distances,
    is_connected,
    total_distance,
)
from .io import (
    ActorFileError,
    GraphFileError,
    _dumps,
    _graph_text,
    _read_roster,
    load_graph_file,
    load_vector,
)
from .affiliation import WEIGHT_MODES, TieRule, _tie_graph
from .measures import SecrecyParams, balance, make_hierarchy
from .search import DEFAULT_MAX_ORDER, HARD_MAX_ORDER, LEMMA_MAX_ORDER, find_optimal, verify_lemma

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CONSTRAINT = 2
EXIT_LEMMA_FAILED = 3
EXIT_BROKEN_PIPE = 141


def _edge_pairs(g: Graph) -> list[list[int]]:
    return np.stack((g.src, g.dst), axis=1).tolist()


def _cmd_metrics(args: argparse.Namespace) -> int:
    """The distance and secrecy measures of a graph file.

    ``--edge-weighted`` weighs T, D and the ``--community`` rings by the
    stored edge weights. K, H and mu are the paper's measures, defined on
    hop counts, and stay so: K reads n(n - 1) / T with T in unit hops.
    """
    graph, labels = load_graph_file(args.input)
    weights = None if args.sharing_weights is None else load_vector(args.sharing_weights)
    params = SecrecyParams(p=args.p, sharing_weights=weights)
    hop_mode = not args.edge_weighted
    report = balance(graph, params)
    connected = is_connected(graph)
    doc = {
        "n": graph.n,
        "m": graph.m,
        "directed": graph.directed,
        "labels": labels or None,
        "connected": connected,
        "T": total_distance(graph, hop_mode) if connected else None,
        "D": diameter(graph, hop_mode) if connected else None,
        "K": report.K,
        "H": report.H,
        "mu": report.mu,
        "degrees": report.degrees,
        "exposure": report.exposure,
    }
    if args.community is not None:
        graph._check_vertex(args.community)
        row = geodesic_distances(graph, hop_mode).dist[args.community]
        rings: dict[float, list[int]] = {}
        for j, delta in enumerate(row.tolist()):
            if delta != UNREACHABLE:
                rings.setdefault(delta, []).append(j)
        doc["communities"] = {_number_key(delta): rings[delta] for delta in sorted(rings)}
    print(_dumps(doc))
    return EXIT_OK


def _number_key(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)


def _cmd_optimal(args: argparse.Namespace) -> int:
    if args.max_maximizers < 0:
        raise ValueError(f"--max-maximizers must be nonnegative, got {args.max_maximizers}")
    result = find_optimal(
        args.n,
        SecrecyParams(p=args.p),
        tolerance=args.tolerance,
        allow_large=args.allow_large,
        workers=args.workers,
    )
    shown = result.argmax_graphs[: args.max_maximizers]
    doc = {
        "n": result.n,
        "p": result.p,
        "tolerance": result.tolerance,
        "graphs_enumerated": result.graphs_enumerated,
        "best_mu": result.best_mu,
        "maximizer_count": len(result.argmax_graphs),
        "maximizers": [_edge_pairs(g) for g in shown],
    }
    print(_dumps(doc))
    return EXIT_OK


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    if not 3 <= args.n_max <= LEMMA_MAX_ORDER:
        raise ValueError(f"--n-max must be in [3, {LEMMA_MAX_ORDER}], got {args.n_max}")
    if args.workers < 1:  # kept for callers that pass it; a lemma check runs no workers
        raise ValueError(f"workers must be a positive integer, got {args.workers}")
    # each grid point adds one report row per order and claim
    steps = round(0.5 / args.grid_step) if 0.0 < args.grid_step <= 0.5 else 0
    if not 0 < steps <= 1000 or abs(0.5 / args.grid_step - steps) > 1e-9:
        raise ValueError(f"--grid-step must be 0.5/k for a whole k in 1..1000, got {args.grid_step}")
    low_grid = [0.5 * k / steps for k in range(steps + 1)]
    high_grid = [0.5 + 0.5 * k / steps for k in range(steps + 1)]
    rows = []
    for n in range(3, args.n_max + 1):
        for which, grid in (("complete_optimal", low_grid), ("star_optimal", high_grid)):
            report = verify_lemma(which, n, grid)
            head = {"which": which, "n": n}
            for row in report.rows:
                # vars, not dataclasses.asdict, which would deep-copy the counterexample graph
                doc = head | vars(row)
                doc["counterexample"] = _edge_pairs(row.counterexample) if row.counterexample else None
                rows.append(doc)
    all_passed = all(r["passed"] for r in rows)
    print(_dumps({"n_max": args.n_max, "grid_step": args.grid_step, "all_passed": all_passed, "rows": rows}))
    if not all_passed:
        print("lemma verification failed; see rows above", file=sys.stderr)
        return EXIT_LEMMA_FAILED
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph, labels = load_graph_file(args.input)
    plan = ScrutinyPlan(alphas=load_vector(args.alphas), budget=args.budget)
    params = DetectionParams(
        gamma=args.gamma,
        cost_k=args.cost_k,
        cascade=args.cascade,
        trials=args.trials,
        seed=args.seed,
    )
    doc: dict = {
        "n": graph.n,
        "labels": labels or None,
        "gamma": params.gamma,
        "cost_k": params.cost_k,
    }
    if args.exact:
        if args.cascade or args.periods != 1:
            raise ValueError("exact mode covers one period and one hop; drop --exact to simulate")
        if args.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {args.workers}")
        report = detect_exact(graph, plan, params)
        doc["mode"] = report.mode
    else:
        report = simulate(graph, plan, params, periods=args.periods, workers=args.workers)
        doc.update(
            {
                "mode": report.mode,
                "cascade": params.cascade,
                "periods": args.periods,
                "trials": params.trials,
                "seed": params.seed,
            }
        )
    doc.update(
        {
            "per_member_prob": report.per_member_prob,
            "expected_detected": report.expected_detected,
            "expected_cost": report.expected_cost,
        }
    )
    if report.stderr is not None:
        doc["stderr"] = report.stderr
        doc["per_member_stderr"] = report.per_member_stderr
    print(_dumps(doc))
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    ids, generators = _read_roster(args.actors)
    rule = TieRule(threshold=args.threshold, weight_mode=args.weight_mode)
    try:
        graph, labels = _tie_graph(ids, generators, rule)
    except ValueError as err:
        # duplicate ids are a document defect, not a parameter problem
        raise ActorFileError(f"{args.actors}: {err}") from err
    print(_graph_text(graph, labels))
    return EXIT_OK


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    alphas = load_vector(args.alphas)
    graph = make_hierarchy(alphas, args.n_linked)
    print(_graph_text(graph))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertnet",
        description="Covert-network analysis: metrics, optimal structures, detection simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    metrics = sub.add_parser("metrics", help="distance and secrecy measures of a graph file")
    metrics.add_argument("input", help="graph file (JSON document or CSV edge list)")
    metrics.add_argument("--p", type=float, required=True, help="link-detection probability")
    metrics.add_argument("--sharing-weights", help="sharing weights, inline or a file")
    metrics.add_argument(
        "--edge-weighted",
        action="store_true",
        help="measure T, D and communities with stored edge weights instead of unit hops"
        " (K, H and mu keep unit hops)",
    )
    metrics.add_argument("--community", type=int, help="report communities around this vertex")
    metrics.set_defaults(handler=_cmd_metrics)

    optimal = sub.add_parser("optimal", help="exhaustive balance maximization for an order")
    orders = f"2-{DEFAULT_MAX_ORDER}, {HARD_MAX_ORDER} with --allow-large"
    optimal.add_argument("--n", type=int, required=True, help=f"graph order ({orders})")
    optimal.add_argument("--p", type=float, required=True, help="link-detection probability")
    optimal.add_argument("--tolerance", type=float, default=1e-12, help="tie tolerance")
    subsets = HARD_MAX_ORDER * (HARD_MAX_ORDER - 1) // 2
    optimal.add_argument(
        "--allow-large", action="store_true", help=f"permit n={HARD_MAX_ORDER} (2^{subsets} subsets)"
    )
    optimal.add_argument("--max-maximizers", type=int, default=10, help="edge lists to emit")
    optimal.add_argument("--workers", type=int, default=1, help="parallel workers")
    optimal.set_defaults(handler=_cmd_optimal)

    verify = sub.add_parser("verify-lemmas", help="check the claimed optimal structures")
    verify.add_argument(
        "--n-max", type=int, required=True, help=f"verify orders 3..n_max (max {LEMMA_MAX_ORDER})"
    )
    verify.add_argument("--grid-step", type=float, default=0.1, help="probability grid step")
    verify.add_argument("--workers", type=int, default=1, help="accepted and unused: nothing is enumerated")
    verify.set_defaults(handler=_cmd_verify_lemmas)

    sim = sub.add_parser("simulate", help="run the detection model on a graph file")
    sim.add_argument("input", help="graph file (JSON document or CSV edge list)")
    sim.add_argument("--alphas", required=True, help="scrutiny levels, inline or a file")
    sim.add_argument("--budget", type=float, required=True, help="scrutiny budget in [0, 1]")
    sim.add_argument("--gamma", type=float, required=True, help="indirect-detection probability")
    sim.add_argument("--cost-k", type=float, required=True, help="cost per detected member")
    sim.add_argument("--periods", type=int, default=1, help="detection periods")
    sim.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")
    sim.add_argument("--seed", type=int, default=0, help="master random seed")
    sim.add_argument("--cascade", action="store_true", help="indirect detections keep propagating")
    sim.add_argument("--exact", action="store_true", help="closed form instead of Monte Carlo")
    sim.add_argument("--workers", type=int, default=1, help="parallel workers")
    sim.set_defaults(handler=_cmd_simulate)

    build = sub.add_parser("build", help="derive a tie network from an actor roster")
    build.add_argument("actors", help="JSON roster of {id, generators}")
    build.add_argument("--threshold", type=int, default=1, help="minimum generator overlap")
    build.add_argument(
        "--weight-mode",
        choices=WEIGHT_MODES,
        default="overlap_count",
        help="edge weight: overlap size or 1",
    )
    build.set_defaults(handler=_cmd_build)

    hierarchy = sub.add_parser("hierarchy", help="hub-dominated hierarchy for a scrutiny vector")
    hierarchy.add_argument("--alphas", required=True, help="ascending scrutiny levels, inline or a file")
    hierarchy.add_argument("--n-linked", type=int, required=True, help="members linked to the hub")
    hierarchy.set_defaults(handler=_cmd_hierarchy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to devnull, so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (GraphFileError, ActorFileError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (GraphError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
