"""Closed-loop timing of a workload's op cycle, and the metrics it reports.

One client, one op in flight: the next op is issued only after the
previous one returned and was checked. The loop runs whole cycles until
the time budget is spent, so every run has the same op mix. Only the op
itself is timed; output checks run between ops.

Shared small machines change speed by 10-30% over tens of seconds, which
would swamp a 25 s run. After every op the loop therefore also times a
fixed reference kernel (a pure-Python loop and a NumPy sort, the two kinds
of work covertnet does), and op and set-up times are reported at nominal
machine speed: measured time x REFERENCE_NOMINAL_S / the run's median
reference time. The measured figures are printed on stderr.

Before each op the loop runs a garbage collection, so the collector's
state when an op starts does not depend on what the harness allocated.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .spans import END, NAME, PARENT, START, Tracer, self_times
from .workloads import Op


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with 10 samples beyond it.

    Nearest rank: with n samples that is the (n-10)-th smallest, the
    100*(n-10)/n percentile. With 10 or fewer samples no percentile has ten
    beyond it, and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


#: Reference kernel time that defines nominal machine speed (its fastest
#: decile on one core of a 2.1 GHz Xeon VM).
REFERENCE_NOMINAL_S = 0.0025


def reference_kernel(data: np.ndarray) -> float:
    """Seconds taken by a fixed mix of interpreter and NumPy work."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    np.sort(data)
    return time.perf_counter() - start


@dataclass
class Loop:
    """Latencies (s) of the ops run, and the reasons any failed.

    ``reference`` holds the reference kernel time measured after each op.
    """

    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    apsp_by_kind: dict[str, set[int]] = field(default_factory=lambda: defaultdict(set))
    stdout_bytes: int = 0
    reference: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def scale(self) -> float:
        """Factor taking measured times to nominal machine speed.

        It uses the run's median reference time, not the time next to each
        op: on the machines measured, that corrected run-to-run drift best,
        and per-op scales added the reference's own noise.
        """
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)

    def nominal(self) -> list[float]:
        """Latencies at nominal machine speed."""
        scale = self.scale
        return [lat * scale for lat in self.latencies]


def run_op(op: Op, loop: Loop, tracer: Tracer | None = None) -> None:
    """Run, time and check one op, recording the outcome in ``loop``."""
    call = op.call if tracer is None else tracer.span("bench.op", op.call)
    apsp_before = tracer.counts["graph.apsp_calls"] if tracer else 0
    start = time.perf_counter()
    try:
        rc, out = call()
        problem = None
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        problem = f"raised {exc!r}"
    loop.latencies.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.op += 1
        loop.apsp_by_kind[op.kind].add(tracer.counts["graph.apsp_calls"] - apsp_before)
    if problem is None:
        if isinstance(out, str):
            loop.stdout_bytes += len(out)
        try:
            problem = op.check(rc, out)
        except Exception as exc:  # output the oracle cannot even parse
            problem = f"unreadable output ({exc!r})"
    if problem is not None:
        loop.problems.append(f"{op.kind}: {problem}")


def run_loop(cycle: list[Op], seconds: float, tracers: tuple[Tracer | None, ...] = (None,)) -> list[Loop]:
    """Run whole cycles for ``seconds``, one Loop per entry of ``tracers``.

    Cycles alternate between the entries; a traced cycle runs with its
    tracer installed. Alternating cycles puts traced and untraced ops under
    the same machine conditions, so their difference is the tracing cost.
    """
    loops = [Loop() for _ in tracers]
    data = np.random.default_rng(0).random(50_000)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for loop, tracer in zip(loops, tracers):
            if tracer is not None:
                tracer.install()
            try:
                for op in cycle:
                    gc.collect()
                    run_op(op, loop, tracer)
                    loop.reference.append(reference_kernel(data))
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return loops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(latencies: list[float], failed: int) -> tuple[float, float, float, float]:
    """ops/s, p50 (s), tail (s) and the tail's percentile."""
    tail_s, tail_pct = tail(latencies)
    return (len(latencies) - failed) / sum(latencies), statistics.median(latencies), tail_s, tail_pct


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    """Memory as measured; set-up and op times at nominal machine speed."""
    raw = timings(loop.latencies, loop.failed)
    rate, p50_s, tail_s, tail_pct = timings(loop.nominal(), loop.failed)
    print(
        f"# {len(loop.latencies)} ops; op_tail_ms is the {tail_pct:.1f}th percentile; measured "
        f"{raw[0]:.4f} ops/s, p50 {raw[1] * 1e3:.3f} ms, tail {raw[2] * 1e3:.3f} ms, "
        f"setup {setup_s:.4f} s",
        file=sys.stderr,
    )
    return {
        "setup_s": (setup_s * loop.scale, "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50_s * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


#: Metric -> span names whose self time it sums; a name ending in "." is a
#: whole layer.
SELF_PCT = {
    "graph.apsp_self_pct": ("graph.geodesic_distances",),
    "graph.build_self_pct": ("graph.build_graph",),
    "graph.self_pct": ("graph.",),
    "measures.self_pct": ("measures.",),
    "search.self_pct": ("search.",),
    "detection.simulate_self_pct": ("detection.simulate", "detection._simulate_chunk"),
    "detection.exact_self_pct": ("detection.detect_exact",),
    "detection.self_pct": ("detection.",),
    "affiliation.self_pct": ("affiliation.",),
    "io.self_pct": ("io.",),
    "cli.self_pct": ("cli.",),
    "parallel.self_pct": ("parallel.",),
}


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


#: Counters reported per traced op.
PER_OP_COUNTS = (
    "graph.apsp_calls",
    "graph.connectivity_calls",
    "graph.build_calls",
    "measures.balance_calls",
    "search.masks_scanned",
    "search.connected_found",
    "search.maximizers",
    "detection.trial_periods",
    "affiliation.pairs_compared",
    "affiliation.ties_made",
    "io.calls",
    "io.bytes_read",
    "parallel.chunks",
)

COUNT_UNITS = {"io.bytes_read": "B/op"}


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced loop; self times as % of traced op time."""
    own = self_times(tracer.spans)
    by_name: Counter = Counter()
    for span, t in zip(tracer.spans, own):
        by_name[span[NAME]] += t
    op_time = sum(span[END] - span[START] for span in tracer.spans if span[PARENT] < 0)
    ops = len(traced.latencies)
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for metric, patterns in SELF_PCT.items():
        share = sum(t for name, t in by_name.items() if _matches(name, patterns))
        out[metric] = (100.0 * share / op_time, "%")
    for key in PER_OP_COUNTS:
        out[key] = (counts[key] / ops, COUNT_UNITS.get(key, "count/op"))
    out["search.connected_ratio"] = (_ratio(counts["search.connected_found"], counts["search.masks_scanned"]), "ratio")
    out["detection.draw_bytes_peak"] = (float(counts["detection.draw_bytes_peak"]), "B")
    out["affiliation.tie_ratio"] = (_ratio(counts["affiliation.ties_made"], counts["affiliation.pairs_compared"]), "ratio")
    out["cli.stdout_bytes"] = (traced.stdout_bytes / ops, "B/op")
    traced_rate = timings(traced.nominal(), traced.failed)[0]
    untraced_rate = timings(untraced.nominal(), untraced.failed)[0]
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
    out["trace.spans"] = (len(tracer.spans) / ops, "count/op")
    return out


def _ratio(useful: int, attempted: int) -> float:
    return useful / attempted if attempted else 0.0
