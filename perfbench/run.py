"""covertnet benchmark: one workload, one closed-loop run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload distances --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced cycles with cycles run under span tracing, prints the per-layer
metrics, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl``. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``. Inputs are generated
from ``--seed`` into ``.perfbench/`` and deleted afterwards; the package is
imported from ``src/`` of the same checkout, and without it the benchmark
exits 2 without a result.
"""

import time

T0 = time.perf_counter()  # before the other imports, so setup_s counts them

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from cnbench import runner
from cnbench.spans import Tracer
from cnbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: setup_s is the import time plus the median of this many full set-ups.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_sources() -> bool:
    """Import covertnet from this checkout's src/; False if it is not there."""
    if not (SRC / "covertnet" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import covertnet.cli

    return Path(covertnet.__file__).resolve().parent == SRC / "covertnet"


def set_up(name: str, seed: int, workdir: Path):
    """Build the workload SETUP_REPEATS times; return it and the setup time.

    Each repeat regenerates and rewrites every input, recomputes the
    oracles and runs one warm-up op; every repeat must write the same
    bytes. The warm-up outcomes are returned so their failures count.
    """
    times, digests, warmup = [], set(), runner.Loop()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        runner.run_op(workload.cycle[0], warmup)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(b"\0".join(workload.written)).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"inputs for seed {seed} differ between set-ups")
    return workload, statistics.median(times), warmup


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not import_sources():
        print(f"error: covertnet sources not found under {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s, warmup = set_up(args.workload, args.seed, workdir)
        if not args.trace:
            (loop,) = runner.run_loop(workload.cycle, args.seconds)
            metrics = runner.end_to_end(loop, import_s + setup_s)
            loops = [warmup, loop]
        else:
            tracer = Tracer()
            untraced, traced = runner.run_loop(workload.cycle, args.seconds, (None, tracer))
            metrics = runner.per_layer(tracer, traced, untraced)
            loops = [warmup, untraced, traced]
            report_apsp(traced, workload.apsp_expected)
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, T0, {"workload": args.workload, "seed": args.seed, "ops": tracer.op})
            print(f"# spans written to {trace_path}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    problems = [p for loop in loops for p in loop.problems]
    for problem in problems[:10]:
        print(f"# FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report_apsp(loop, expected: dict[str, int]) -> None:
    """Print APSP calls per op kind next to the count the seed code makes."""
    for kind, seen in sorted(loop.apsp_by_kind.items()):
        want = expected.get(kind)
        note = "" if want is None else (" (seed formula)" if seen == {want} else f" (seed formula: {want})")
        print(f"# apsp calls per {kind} op: {sorted(seen)}{note}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
