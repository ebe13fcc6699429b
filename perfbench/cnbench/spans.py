"""In-memory span tracing of covertnet, installed from the benchmark side.

``Tracer.install`` wraps the public functions of each covertnet module,
plus the chunk functions handed to ``run_chunks``, and rebinds every
module global that refers to an original, so a call through any import
site (``from .graph import total_distance`` in cli and measures, the
package re-exports) is recorded. No file under ``src/`` changes.

A span is ``[name, start, end, parent, op]``; the layer is the name up to
the first dot. Counters are updated at the same boundaries, from call
arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

#: covertnet module -> layer name used in span and metric names.
LAYERS = {
    "graph": "graph",
    "measures": "measures",
    "search": "search",
    "detection": "detection",
    "affiliation": "affiliation",
    "io": "io",
    "cli": "cli",
    "_parallel": "parallel",
}

#: Private functions passed to run_chunks; each gets its own span so scan
#: and draw time lands in search/detection, not in parallel.
CHUNK_FUNCTIONS = {
    "search": ("_scan_optimal_chunk", "_scan_lemma_chunk"),
    "detection": ("_simulate_chunk",),
}

NAME, START, END, PARENT, OP = range(5)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans nest strictly (one thread, stack discipline), so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _masks(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def _hook_find_optimal(counts: Counter, args, kwargs, result) -> None:
    counts["search.masks_scanned"] += _masks(_arg(args, kwargs, 0, "n"))
    counts["search.maximizers"] += len(result.argmax_graphs)


def _hook_verify_lemma(counts: Counter, args, kwargs, result) -> None:
    counts["search.masks_scanned"] += _masks(_arg(args, kwargs, 1, "n"))


def _hook_scan_chunk(counts: Counter, args, kwargs, result) -> None:
    counts["search.connected_found"] += result[0]


def _hook_simulate(counts: Counter, args, kwargs, result) -> None:
    params = _arg(args, kwargs, 2, "params")
    counts["detection.trial_periods"] += params.trials * _arg(args, kwargs, 3, "periods", 1)


def _hook_simulate_chunk(counts: Counter, args, kwargs, result) -> None:
    # the job tuple is (n, pairs, alphas, gamma, cascade, periods, seed, stride, lo, hi)
    stride, lo, hi = args[0][7:10]
    nbytes = (hi - lo) * 4 * stride * 8
    counts["detection.draw_bytes_peak"] = max(counts["detection.draw_bytes_peak"], nbytes)


def _hook_build_from_actors(counts: Counter, args, kwargs, result) -> None:
    graph = result[0]
    counts["affiliation.pairs_compared"] += graph.n * (graph.n - 1) // 2
    counts["affiliation.ties_made"] += graph.m


def _hook_read(counts: Counter, args, kwargs, result) -> None:
    try:
        counts["io.bytes_read"] += os.path.getsize(args[0])
    except (OSError, TypeError, ValueError):
        pass  # an inline vector such as "0.1,0.2" reads no file


def _counter(key: str):
    return lambda counts, args, kwargs, result: counts.update((key,))


#: Span name -> hook run on the counters after the call returns.
HOOKS = {
    "graph.geodesic_distances": _counter("graph.apsp_calls"),
    "graph.is_connected": _counter("graph.connectivity_calls"),
    "graph.build_graph": _counter("graph.build_calls"),
    "measures.balance": _counter("measures.balance_calls"),
    "search.find_optimal": _hook_find_optimal,
    "search.verify_lemma": _hook_verify_lemma,
    "search._scan_optimal_chunk": _hook_scan_chunk,
    "search._scan_lemma_chunk": _hook_scan_chunk,
    "detection.simulate": _hook_simulate,
    "detection._simulate_chunk": _hook_simulate_chunk,
    "affiliation.build_from_actors": _hook_build_from_actors,
    "io.load_graph_file": _hook_read,
    "io.load_actor_file": _hook_read,
    "io.load_vector": _hook_read,
    "parallel.run_chunks": lambda counts, args, kwargs, result: counts.update(
        {"parallel.chunks": len(_arg(args, kwargs, 1, "jobs"))}
    ),
}


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so each call records a span and runs ``hook``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(record)
            self._stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if name.startswith("io."):
                self.counts["io.calls"] += 1
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced covertnet function at every import site."""
        modules = {short: importlib.import_module(f"covertnet.{short}") for short in LAYERS}
        wrappers = {}
        for short, module in modules.items():
            names = [
                name
                for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
            ]
            names += [name for name in CHUNK_FUNCTIONS.get(short, ()) if hasattr(module, name)]
            for name in names:
                fn = getattr(module, name)
                span_name = f"{LAYERS[short]}.{name}"
                wrappers[id(fn)] = self.span(span_name, fn, HOOKS.get(span_name))
        import covertnet

        sites = [covertnet, *modules.values()]
        for module in sites:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: Path, t0: float, extra: dict) -> None:
        """Spans as JSON lines (times relative to ``t0``), then a summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                row = {"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0, "parent": s[PARENT], "op": s[OP]}
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"summary": extra, "counts": dict(self.counts)}) + "\n")
