"""Direct and indirect detection of network members under a scrutiny budget.

The enforcement side of the model: in each period, every still-hidden
member i is found directly by an independent Bernoulli draw with
probability alpha_i, where the alphas are bounded by a scrutiny budget.
When a member is detected, the agency also finds each member the detainee
has information about (out-neighbors in the information structure; both
endpoints of an undirected tie) with probability gamma. By default only
these one-hop draws happen; with ``cascade`` enabled, indirectly detected
members keep triggering draws within the period until a fixed point.

``detect_exact`` evaluates the one-period, one-hop closed form.
``simulate`` estimates the same quantities, plus the multi-period and
cascading variants, by Monte Carlo. Trial randomness is counter-based:
trial t owns its own block of the Philox stream derived from the master
seed and reads the words it uses from that block by position, so reports
are bit-identical for any worker count or chunk execution order. A period's
cascade catches the members reachable from its directly caught ones through
ties whose draw succeeded, whatever order the draws are looked at in, so a
chunk sweeps the cascades of all its trials at once, one bit per trial, with
the breadth-first sweep that counts hop distances (``graph._sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_chunks
from .graph import Graph, _bits, _check_type, _is_int, _is_real, _out_arcs, _real_tuple, _sweep
from .measures import _WEIGHT_SUM_TOL

_TRIALS_PER_CHUNK = 1 << 13
# Most bytes of one chunk's buffer: each row holds its trial's whole block, 4
# words (32 B) per Philox counter, though reads fill only the words trials use.
_DRAW_BUDGET_BYTES = 8 << 20
# Word ranges closer than this share one read, and a read ending this close to
# the chunk's end runs to it, so a chunk whose rows lie closer is read whole by
# its first read. A read costs about 4 us plus 10 ns a word, but the words read
# through a gap stay in the buffer, and later periods and cascades use many of
# them. In a sweep over networks of 20-500 members with 5n edges (BENCH_11.json)
# no chunk ran more than 3% slower than a whole-block draw at 2048; 512 and 1024
# left 61-member ones 1.3-1.4x slower, and 4096 lost the 300-member one-hop gain.
_READ_GAP = 2048
_WORD = (1 << 64) - 1


class InfeasiblePlanError(ValueError):
    """Scrutiny plan violates its probability bounds or budget."""


@dataclass(frozen=True)
class ScrutinyPlan:
    """Per-member direct-detection probabilities and their total budget."""

    alphas: tuple[float, ...]
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", _real_tuple(self.alphas, "alphas"))
        if not _is_real(self.budget):
            raise ValueError(f"budget must be a real number, got {self.budget!r}")
        object.__setattr__(self, "budget", float(self.budget))


@dataclass(frozen=True)
class PlanVerdict:
    valid: bool
    violations: tuple[str, ...]


def validate_plan(plan: ScrutinyPlan) -> PlanVerdict:
    """Check every plan constraint and report all violations.

    A plan is feasible when each alpha lies in [0, 1], the budget lies in
    [0, 1], and the alphas sum to at most the budget. Equality is admitted:
    the exact sum (``math.fsum``) may exceed the budget by 1e-12 of rounding.
    """
    _check_type(plan, ScrutinyPlan, "plan")
    violations = []
    for i, a in enumerate(plan.alphas):
        if not 0.0 <= a <= 1.0:
            violations.append(f"alpha[{i}]={a} outside [0, 1]")
    if not 0.0 <= plan.budget <= 1.0:
        violations.append(f"budget {plan.budget} outside [0, 1]")
    total = math.fsum(plan.alphas)
    if total > plan.budget + _WEIGHT_SUM_TOL:
        violations.append(f"alphas sum to {total}, exceeding budget {plan.budget}")
    return PlanVerdict(valid=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class DetectionParams:
    """Indirect-detection probability, cost, and simulation configuration."""

    gamma: float
    cost_k: float
    cascade: bool = False
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_is_real(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma!r}")
        if not (_is_real(self.cost_k) and 0 < self.cost_k < math.inf):
            raise ValueError(
                f"cost per detected member cost_k must be finite and positive, got {self.cost_k!r}"
            )
        if not isinstance(self.cascade, bool):
            raise ValueError(f"cascade must be a bool, got {self.cascade!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError(f"trial count must be a positive integer, got {self.trials}")
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 128):
            raise ValueError(f"seed must be a nonnegative integer below 2**128, got {self.seed}")


@dataclass(frozen=True)
class DetectionReport:
    """Per-member detection probabilities and their aggregates.

    ``stderr`` is the standard error of ``expected_detected`` and
    ``per_member_stderr`` the standard errors of the per-member estimates;
    both are None in exact mode.
    """

    per_member_prob: tuple[float, ...]
    expected_detected: float
    expected_cost: float
    mode: str
    stderr: float | None = None
    per_member_stderr: tuple[float, ...] | None = None


def _require_runnable(g: Graph, plan: ScrutinyPlan, params: DetectionParams) -> None:
    _check_type(g, Graph, "g")
    verdict = validate_plan(plan)
    if not verdict.valid:
        raise InfeasiblePlanError("; ".join(verdict.violations))
    _check_type(params, DetectionParams, "params")
    if len(plan.alphas) != g.n:
        raise ValueError(
            f"plan covers {len(plan.alphas)} members but the graph has {g.n} vertices"
        )


def _report(prob: np.ndarray, params: DetectionParams, mode: str, **spread) -> DetectionReport:
    """Report per-member probabilities ``prob``; the expected cost must be finite."""
    expected = float(prob.sum())
    cost = params.cost_k * expected
    if not math.isfinite(cost):
        raise ValueError(f"expected cost overflows: {params.cost_k} x {expected} detections")
    return DetectionReport(
        per_member_prob=tuple(float(x) for x in prob),
        expected_detected=expected,
        expected_cost=cost,
        mode=mode,
        **spread,
    )


def detect_exact(g: Graph, plan: ScrutinyPlan, params: DetectionParams) -> DetectionReport:
    """One-period, one-hop detection probabilities in closed form.

    Member j stays hidden only if its own direct draw fails and, for every
    detector i with an information edge toward j, i is not directly caught
    with its indirect draw on j succeeding. All draws are independent.
    """
    _require_runnable(g, plan, params)
    if params.cascade:
        raise ValueError("exact mode covers one hop only; use simulate for cascades")
    src, dst, _, _ = g._arcs
    alphas = np.asarray(plan.alphas)
    hidden = 1.0 - alphas
    # ufunc.at applies repeated targets in arc order, like a loop over the arcs
    np.multiply.at(hidden, dst, 1.0 - alphas[src] * params.gamma)
    return _report(1.0 - hidden, params, "exact")


def _chunk_stream(seed: int, origin: int, shape: tuple[int, int]):
    """A chunk's buffer of trial blocks and ``fill``, which reads words into it.

    ``buf`` has the shape of the chunk's whole draw from Philox counter
    ``origin`` (row i is the chunk's i-th trial block), but holds only the
    words ``fill`` has read. A read sets the whole 256-bit counter (so a stream
    past 2**64 carries as it does when drawn) and draws whole counters with
    ``Generator.random`` into their place, so each word read equals the whole
    draw's word there.
    """
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    buf = np.empty(shape)
    flat = buf.reshape(-1)
    complete = False

    def fill(start: np.ndarray, length: int) -> None:
        """Read the ascending ranges [start, start + length) of ``buf.flat``.

        Ranges closer than ``_READ_GAP`` words share one read. Once a read has
        covered the whole chunk, nothing more is read.
        """
        nonlocal complete
        if complete or not start.size:
            return
        cut = np.flatnonzero(np.diff(start) > _READ_GAP + length)
        begin = start[np.append(0, cut + 1)] & -4  # from a whole counter
        end = start[np.append(cut, -1)] + length
        if flat.size - end[-1] <= _READ_GAP:
            end[-1] = flat.size
        for a, b in zip(begin.tolist(), end.tolist()):
            at = origin + a // 4
            counter[:] = (at & _WORD, at >> 64 & _WORD, at >> 128 & _WORD, at >> 192)
            bitgen.state = state  # with an empty buffer, the next word comes from counter at + 1
            gen.random(out=flat[a:b])
        complete = begin[0] == 0 and end[0] == flat.size

    return buf, fill


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-member detection counts and detected-count histogram of trials [lo, hi).

    Row i of the chunk's buffer is trial ``lo + i``'s block, and the trial's
    words are read into it by position (``_chunk_stream``) before they are
    compared. A period reads each row's n direct words, then makes its
    indirect draws. One-hop, each (trial, newly detected member) hit expands
    over that detector's out-arcs (``arcs`` is ``Graph._arcs``, sorted by
    detector), reads only those arcs' words, and marks the still-hidden
    targets it catches, so work scales with the ties of caught members.
    Under cascade, only a row that catches a member directly reads and
    compares the period's whole arc block (a cascade on a connected network
    soon needs most of it). A cascade catches the members reachable from the
    direct catches through arcs whose draw succeeded, in any order, so the
    hop distances' sweep (``graph._sweep``) closes every row at once, one
    bit per trial, over the arcs sorted by target and gated by their draws.
    """
    (n, arcs, alphas, gamma, cascade, periods, seed, stride, lo, hi) = args
    src, dst, _, first = arcs
    m = len(dst)
    rows = hi - lo
    rows_at = np.arange(0, rows * 4 * stride, 4 * stride)
    try:
        draws, fill = _chunk_stream(seed, lo * stride, (rows, 4 * stride))
    except MemoryError:
        raise ValueError(f"periods={periods} needs {rows * 4 * stride} draw words, too many to allocate") from None
    alphas = np.asarray(alphas)
    detected = np.zeros((rows, n), dtype=bool)
    if cascade:  # the arcs by target: member v's in-arcs are heads[into[v] : into[v + 1]]
        order = np.argsort(dst, kind="stable")
        heads, into = src[order], np.searchsorted(dst[order], np.arange(n + 1))
    for period in range(periods):
        base = period * (n + m)
        fill(rows_at + base, n)
        frontier = ~detected & (draws[:, base : base + n] < alphas)
        detected |= frontier
        if cascade:
            caught = frontier.any(axis=1)
            fill(rows_at[caught] + base + n, m)
            opened = np.zeros((rows, m), dtype=bool)
            np.less(draws[:, base + n : base + n + m], gamma, out=opened, where=caught[:, None])
            hidden = _pack_trials(~detected)
            for _ in _sweep(_pack_trials(frontier), hidden, into, heads, _pack_trials(opened)[order]):
                pass
            detected[:] = _bits(hidden, rows).T == 0
        else:
            row, det = np.nonzero(frontier)
            k, fanout = _out_arcs(first, det)
            row = np.repeat(row, fanout)
            fill(rows_at[row] + (base + n) + k, 1)
            target = dst[k]
            hit = (draws[row, base + n + k] < gamma) & ~detected[row, target]
            detected[row[hit], target[hit]] = True
    member_counts = detected.sum(axis=0, dtype=np.int64)
    hist = np.bincount(detected.sum(axis=1), minlength=n + 1).astype(np.int64)
    return member_counts, hist


_OCTET_PLACE = np.arange(8, dtype=np.uint64)[:, None]


def _pack_trials(bits: np.ndarray) -> np.ndarray:
    """A (trials, cols) bool array as (cols, words) 64-bit words, trial 64w + k as bit k of word w.

    Bools are 0/1 bytes, so each 8-byte lane of a row packs 8 columns, and
    shifting row 8i + k's lanes by k leaves every bit in its own byte: the OR
    of a group of 8 rows is the bytes of 8 trials, one column a byte.
    """
    trials, cols = bits.shape
    octets = -(-trials // 8)
    lanes = np.zeros((octets * 8, -(-cols // 8) * 8), dtype=bool)
    lanes[:trials, :cols] = bits
    lanes = lanes.view(np.uint64).reshape(octets, 8, -1)
    lanes <<= _OCTET_PLACE
    packed = np.zeros((cols, -(-trials // 64) * 8), dtype=np.uint8)
    packed[:, :octets] = np.bitwise_or.reduce(lanes, axis=1).view(np.uint8)[:, :cols].T
    return packed.view("<u8")


def simulate(
    g: Graph,
    plan: ScrutinyPlan,
    params: DetectionParams,
    periods: int = 1,
    workers: int = 1,
) -> DetectionReport:
    """Monte Carlo estimate of detection probabilities over a horizon.

    Each trial runs ``periods`` periods: direct draws for still-hidden
    members, then indirect draws along information edges (one hop, or to a
    fixed point when ``params.cascade`` is set). Detection persists across
    periods and detected members are not re-drawn. One indirect draw exists
    per (detector, target) pair per period.

    Trial t derives its randomness from ``(params.seed, t)`` alone: its
    block starts at Philox counter ``t * stride``, and it reads the words it
    uses from that block by position. Chunks are sized so that a buffer of
    their whole blocks fits a fixed budget (``_DRAW_BUDGET_BYTES``) whatever
    the trial count, or holds one trial whose block alone is larger; a
    ValueError names ``periods`` when that block cannot be allocated. The
    report is bit-identical for any ``workers`` value, chunking and run.
    """
    _require_runnable(g, plan, params)
    if not (_is_int(periods) and periods >= 1):
        raise ValueError(f"periods must be a positive integer, got {periods}")
    trials = params.trials
    # 4 uniforms per Philox counter; pad each trial's block to a counter boundary
    draws_per_trial = periods * (g.n + len(g._arcs[1]))
    stride = (draws_per_trial + 3) // 4
    rows = min(_TRIALS_PER_CHUNK, max(1, _DRAW_BUDGET_BYTES // (32 * stride)))
    jobs = [
        (g.n, g._arcs, plan.alphas, params.gamma, params.cascade, periods,
         params.seed, stride, lo, min(lo + rows, trials))
        for lo in range(0, trials, rows)
    ]
    results = run_chunks(_simulate_chunk, jobs, workers)

    member_counts = np.zeros(g.n, dtype=np.int64)
    hist = np.zeros(g.n + 1, dtype=np.int64)
    for counts, h in results:
        member_counts += counts
        hist += h

    prob = member_counts / trials
    if trials > 1:
        values = np.arange(g.n + 1)
        mean_count = float((values * hist).sum()) / trials
        var_count = float((hist * (values - mean_count) ** 2).sum()) / (trials - 1)
        stderr = math.sqrt(var_count / trials)
        member_stderr = np.sqrt(prob * (1.0 - prob) / (trials - 1))
    else:
        stderr = 0.0
        member_stderr = np.zeros(g.n)
    spread = tuple(float(x) for x in member_stderr)
    return _report(prob, params, "monte_carlo", stderr=stderr, per_member_stderr=spread)
