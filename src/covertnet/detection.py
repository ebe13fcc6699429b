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
cascading variants, by Monte Carlo. Trial randomness is counter-based: each
trial-period (t, p) consumes one sequence of words of the Philox stream
derived from the master seed, and the sequence depends on (seed, t, p)
alone, so reports are bit-identical for any worker count or chunk execution
order. Its first R words (``_REGION``, or fewer on a small network) lie in a
dense region stream, trial after trial, so one read fills a whole chunk's
regions; a sequence that runs past R continues in trial t's block, which is
read by position.

A period draws its events, not one word per member and per tie. The direct
catches come by exponential skips over the members' cumulative hazards
-log1p(-alpha) (sequential inversion, Devroye 1986, ch. 2; the skip form of
subset sampling, Bringmann & Panagiotou, ICALP 2012): one word per catch,
plus one. Each member is still caught with probability alpha, independently,
exact up to the rounding of the cumulative sum. One hop, each newly caught
member's ties then take one word each. A period's cascade catches the
members reachable from its directly caught ones through ties whose draw
succeeded, whatever order the draws are looked at in, so a chunk sweeps the
cascades of all its trials at once, one bit per trial, with the
breadth-first sweep that counts hop distances (``graph._sweep``), on words
packed by ``graph._pack`` and read back by ``graph._bits``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._parallel import run_chunks
from .graph import (
    _RELAX_BUDGET,
    Graph,
    _bits,
    _blocks,
    _check_type,
    _is_int,
    _is_real,
    _pack,
    _ranges,
    _real_tuple,
    _sweep,
)
from .measures import _WEIGHT_SUM_TOL

_TRIALS_PER_CHUNK = 1 << 13
# Most bytes a chunk's rows hold: a one-hop or multi-period row its regions
# (8 B a word) and its per-row state (about n + m bytes), a cascade row its
# trial's whole block, 4 words (32 B) per Philox counter, since a row that
# catches someone reads it and its opened arcs. It also bounds one window of
# block rows, which is all of a chunk's blocks held at once, though reads fill
# only the words trials use.
_DRAW_BUDGET_BYTES = 8 << 20
# Block ranges closer than this share one read, and a read ending this close to
# the chunk's end runs to it, so a chunk whose rows lie closer is read whole by
# its first read. A read costs about 4 us plus 10 ns a word, but the words read
# through a gap stay in the buffer, and later periods and cascades use many of
# them. In a sweep over networks of 20-500 members with 5n edges (BENCH_11.json)
# no chunk ran more than 3% slower than a whole-block draw at 2048; 512 and 1024
# left 61-member ones 1.3-1.4x slower, and 4096 lost the 300-member one-hop gain.
_READ_GAP = 2048
# Words of a trial-period's sequence in its region, in whole counters. A one-hop
# period uses one word more than its direct catches, plus one a newly caught
# member's arc: on the benchmark's 300-member network about 7, and no row of a
# one-hop or three-period op passed 64. A cascade's arcs run on into the block.
_REGION = 64
# Philox counter of trial 0's block. The regions start at counter 0, so the two
# streams stay apart while trials * periods * R / 4 < 2**192.
_BLOCKS = 1 << 192
_WORD = (1 << 64) - 1
# Each thread's spare buffer for block streams, kept between chunks and calls:
# at most _DRAW_BUDGET_BYTES, of which only the pages reads have touched are
# resident. A buffer of blocks freed and taken afresh for each window lands
# wherever glibc's heap then has room, so peak memory swung by up to 6 MB with
# the draws (ROADMAP item 9); reused, it stays put, and its pages stay mapped.
_spare = threading.local()


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
    """A chunk's buffer of trial words and ``fill``, which reads words into it.

    ``buf`` has the shape of the chunk's whole draw from Philox counter
    ``origin`` (row i holds the chunk's i-th trial's regions or block), but
    holds only the words ``fill`` has read. A read sets the whole 256-bit
    counter (so a stream past 2**64 carries as it does when drawn) and draws
    whole counters with ``Generator.random`` into their place, so each word
    read equals the whole draw's word there.

    A block stream (``origin`` at or past ``_BLOCKS``) that fits
    ``_DRAW_BUDGET_BYTES`` takes its buffer from the calling thread's spare,
    so its words stay valid only until that thread's next block stream.
    """
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    size = shape[0] * shape[1]
    if origin < _BLOCKS or 8 * size > _DRAW_BUDGET_BYTES:
        buf = np.empty(shape)
    else:  # a block stream within the budget reuses the thread's spare buffer
        spare = getattr(_spare, "blocks", None)
        if spare is None or spare.size < size:
            spare = _spare.blocks = np.empty(size)
        buf = spare[:size].reshape(shape)
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


def _region(span: int) -> int:
    """Words of a trial-period's region: ``_REGION``, or ``span`` in whole counters if fewer."""
    return min(_REGION, -(-span // 4) * 4)


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-member detection counts and detected-count histogram of trials [lo, hi).

    Trial t's period p consumes one sequence of words. Its first R words
    (``_region(n + m)``) are words (t * periods + p) * R onwards of the region
    stream, which starts at Philox counter 0, so one read fills the chunk's
    regions. Word i >= R is word p * (n + m) + i of trial t's block, which
    starts at counter ``_BLOCKS + t * stride`` and is read by position
    (``_chunk_stream``) for the rows that pass R. The chunk holds the blocks
    of one window of rows at a time, as many as a block buffer of
    ``_DRAW_BUDGET_BYTES`` holds (or one), allocated by the first read that
    needs it and kept until a read needs another window; a cascade chunk,
    sized by its blocks, is one window.

    A period catches members directly by exponential skips over the
    cumulative hazards L_j = sum_{i <= j} -log1p(-alpha_i): from pos = 0, a
    row's next catch is the first j with L_j > pos + E, E = -log1p(-u) for
    its next word u (``searchsorted``), and then pos = L_j. All rows step
    together, one round per catch, and a row stops when no L_j exceeds pos. A
    member with alpha 1 is caught without a word and one with alpha 0 never
    is, so the direct draws cost at most one word more than the catches, and
    at most n. From pos = L_i, none of members i + 1..j is caught with
    probability exp(-(L_j - L_i)), the product of their 1 - alpha, so each
    member is caught with probability alpha, independently: exact up to the
    rounding of the cumulative sum L (and of E and the 53-bit u). A period's
    catches are kept as sorted codes row * n + member, and the newly caught
    ones are those not detected before.

    One hop, each newly caught member's out-arcs (``arcs`` is
    ``Graph._arcs``, sorted by detector) take the row's next words, one an
    arc, in (member, arc) order, and mark the still-hidden targets they catch;
    they are expanded in slices of at most ``_RELAX_BUDGET`` arcs (or one
    member's). Under cascade, arc k of a row that catches someone new directly
    takes the word after its direct ones plus k, so a sequence never passes
    n + m words, and the arcs' words are compared in pieces of at most
    ``_RELAX_BUDGET`` words (or one row). A cascade catches the members
    reachable from the direct catches through arcs whose draw succeeded, in
    any order, so the hop distances' sweep (``graph._sweep``) closes every row
    at once, one bit per trial, over the arcs sorted by target and gated by
    their draws.
    """
    (n, arcs, alphas, gamma, cascade, periods, seed, stride, lo, hi) = args
    src, dst, _, first = arcs
    m = len(dst)
    rows = hi - lo
    span = n + m
    region = _region(span)
    width = 4 * stride
    window = rows if cascade else max(1, _DRAW_BUDGET_BYTES // (8 * width))

    def stream(origin: int, height: int, length: int):
        try:
            return _chunk_stream(seed, origin, (height, length))
        except MemoryError:
            raise ValueError(f"periods={periods} needs {height * length} draw words, too many to allocate") from None

    regions, fill = stream(lo * periods * region // 4, rows, periods * region)
    fill(np.zeros(1, dtype=np.intp), regions.size)
    current = None  # (window index, its block buffer, its fill)

    def blocks(w: int):
        """Block window ``w``'s buffer and fill: rows [w * window, (w + 1) * window) of the chunk."""
        nonlocal current
        if current is None or current[0] != w:
            current = None  # free the last window before allocating the next
            top = w * window
            current = (w, *stream(_BLOCKS + (lo + top) * stride, min(window, rows - top), width))
        return current[1:]

    def words(period: int, row: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Word ``i`` of each ``row``'s sequence in ``period``; (row, i) ascend."""
        u = regions[row, period * region + np.minimum(i, region - 1)]
        over = np.flatnonzero(i >= region)
        if over.size:
            win, at = np.divmod(row[over], window)
            i = period * span + i[over]
            bounds = [0, *(np.flatnonzero(np.diff(win)) + 1).tolist(), over.size]
            for a, b in zip(bounds, bounds[1:]):
                buf, fill_block = blocks(int(win[a]))
                fill_block(at[a:b] * width + i[a:b], 1)
                u[over[a:b]] = buf[at[a:b], i[a:b]]
        return u

    alphas = np.asarray(alphas, dtype=float)
    certain = alphas == 1.0
    level = np.cumsum(-np.log1p(-np.where(certain, 0.0, alphas)))
    detected = np.zeros((rows, n), dtype=bool)
    flat = detected.reshape(-1)
    sure = (np.arange(rows)[:, None] * n + np.flatnonzero(certain)).reshape(-1)
    if cascade:  # the arcs by target: member v's in-arcs are heads[into[v] : into[v + 1]]
        order = np.argsort(dst, kind="stable")
        heads, into = src[order], np.searchsorted(dst[order], np.arange(n + 1))
    for period in range(periods):
        used = np.zeros(rows, dtype=np.intp)
        codes = [sure]
        row = np.arange(rows if level[-1] > 0 else 0)
        pos = np.zeros(row.size)
        while row.size:  # the rows with a hazard left past their last catch
            j = np.searchsorted(level, pos - np.log1p(-words(period, row, used[row])), side="right")
            used[row] += 1
            row, j = row[j < n], j[j < n]
            codes.append(row * n + j)
            more = level[j] < level[-1]
            row, pos = row[more], level[j[more]]
        code = np.sort(np.concatenate(codes))
        new = code[~flat[code]]
        flat[new] = True
        if cascade:
            frontier = np.zeros((rows, n), dtype=bool)
            frontier.reshape(-1)[new] = True
            row = new // n
            caught = row[np.flatnonzero(np.diff(row, prepend=-1))]  # new ascends: its rows, once each
            opened = np.zeros((rows, m), dtype=bool)
            last = used[caught].max() + m if caught.size else 0  # past the last word an arc takes
            if last > region:
                block, fill_block = blocks(0)
                fill_block(caught * width + period * span + region, last - region)
                block = block[:, period * span : (period + 1) * span]
            for u in np.unique(used[caught]).tolist():
                r = caught[used[caught] == u]
                cut = min(max(region - u, 0), m)  # the arcs whose words lie in the region
                opened[r, :cut] = regions[r, period * region + u : period * region + u + cut] < gamma
                if cut < m:  # each piece gathers a copy of its rows' block words
                    step = max(1, _RELAX_BUDGET // (m - cut))
                    for a in range(0, r.size, step):
                        opened[r[a : a + step], cut:] = block[r[a : a + step], u + cut : u + m] < gamma
            hidden = _pack(~detected)
            for _ in _sweep(_pack(frontier), hidden, into, heads, _pack(opened)[order]):
                pass
            detected[:] = _bits(hidden, rows).T == 0
        else:
            row, det = np.divmod(new, n)
            fanout = first[det + 1] - first[det]
            before = fanout.cumsum() - fanout  # arcs of this period's new catches before each one
            # word of arc k of member det: used[row] + the row's arcs before det + k - first[det]
            base = used[row] + before - before[np.searchsorted(row, row)] - first[det]
            for a, b in _blocks(fanout, _RELAX_BUDGET):
                k = _ranges(first[det[a:b]], fanout[a:b])
                r = row[a:b].repeat(fanout[a:b])
                target = r * n + dst[k]
                hit = (words(period, r, base[a:b].repeat(fanout[a:b]) + k) < gamma) & ~flat[target]
                flat[target[hit]] = True
    # 16-bit sums of bools run about 4x faster than int64 ones, where no count can pass 2**16 - 1
    total = np.uint16 if max(rows, n) < 1 << 16 else np.int64
    member_counts = detected.sum(axis=0, dtype=total).astype(np.int64)
    hist = np.bincount(detected.sum(axis=1, dtype=total), minlength=n + 1).astype(np.int64)
    return member_counts, hist


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

    Trial t derives its randomness from ``(params.seed, t)`` alone. Its
    period p consumes one sequence of words: word i < R (R = ``_REGION``
    words, or n + m rounded up to whole counters if fewer, m the arcs) is
    word (t * periods + p) * R + i of the region stream from Philox counter
    0, and word i >= R is word p * (n + m) + i of trial t's block, which
    starts at counter ``_BLOCKS + t * stride`` (``stride`` counters hold the
    trial's periods * (n + m) words). A period uses at most n + m words: one
    per direct catch plus one (none once no member with a hazard is left past
    the last catch; a member with alpha 1 is caught without one), then one
    per arc of a newly caught member, or under cascade one per arc. A chunk
    reads its rows' regions in one read and the block words that rows run on
    into by position (``_chunk_stream``). Direct catches are exact up to the
    rounding of the cumulative hazards (see ``_simulate_chunk``).

    Chunks are sized by the bytes one of their rows holds, so that they fit a
    fixed budget (``_DRAW_BUDGET_BYTES``) whatever the trial count, or hold
    one trial when its own is larger: one hop, a row's regions and state,
    8 * periods * R + n + m bytes; under cascade, its whole block, 32 * stride
    bytes. A chunk holds the blocks of one window of rows at a time, as many
    as fit the budget (or one). A ValueError names ``periods`` when a chunk's
    regions or block window cannot be allocated. The report is bit-identical
    for any ``workers`` value, chunking and run.
    """
    _require_runnable(g, plan, params)
    if not (_is_int(periods) and periods >= 1):
        raise ValueError(f"periods must be a positive integer, got {periods}")
    trials = params.trials
    # 4 uniforms per Philox counter; pad each trial's block to a counter boundary
    span = g.n + len(g._arcs[1])
    stride = (periods * span + 3) // 4
    # a cascade row that catches someone holds its block; any other row its regions and its state
    held = 32 * stride if params.cascade else 8 * periods * _region(span) + span
    rows = min(_TRIALS_PER_CHUNK, max(1, _DRAW_BUDGET_BYTES // held))
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
