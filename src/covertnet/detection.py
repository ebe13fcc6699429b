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
cascading variants, by Monte Carlo. Trial randomness is addressed by
position: each trial-period (t, p) consumes one sequence of words of the
PCG64DXSM stream (O'Neill, 2014) seeded by the master seed, which jumps to
any word with ``advance`` in O(log distance) steps, and the sequence
depends on (seed, t, p) alone, so reports are bit-identical for any worker
count or chunk execution order. Its first R words (``_REGION``, or fewer on
a small network) lie in a dense region stream, trial after trial, so one
read fills a whole chunk's regions; a sequence that runs past R continues
in trial t's block, from word ``_BLOCKS`` on, whose words are drawn where
they are used.

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
import sys
from collections.abc import Sequence
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
# (8 B a word) and its per-row state (about n + m bytes), a cascade row at most
# its trial's whole block, 8 B a word.
_DRAW_BUDGET_BYTES = 8 << 20
# Words of a trial-period's sequence in its region. A one-hop period uses one
# word more than its direct catches, plus one a newly caught member's arc: on
# the benchmark's 300-member network about 7, and no row of a one-hop or
# three-period op passed 64. A cascade's arcs run on into the block.
_REGION = 64
# Stream word of trial 0's block. The regions start at word 0 and the blocks
# end at _BLOCKS + trials * periods * (n + m), so while that product is at most
# 2**127 (``simulate`` checks it) the two streams stay apart and within the
# generator's period.
_BLOCKS = 1 << 127


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


def _draw(gen: np.random.Generator, origin: int, start: np.ndarray, length: int) -> np.ndarray:
    """Words [origin + s, origin + s + length) of ``gen``'s stream, one row each ascending ``s`` in ``start``.

    ``gen`` draws from a PCG64DXSM stream and stands at its word 0, and is
    left there. Ranges must not overlap; ranges that touch share one read. A
    read advances the generator from the end of the last read to its first
    word (``advance``, O(log delta) steps), modulo the stream's 2**128-word
    period, and ``Generator.random`` writes its words into their rows.
    """
    out = np.empty((start.size, length))
    flat = out.reshape(-1)
    cut = (np.flatnonzero(np.diff(start) != length) + 1).tolist()
    at = 0  # the stream word the generator stands at
    for a, b in zip([0, *cut], [*cut, start.size]):
        word = origin + int(start[a])
        gen.bit_generator.advance((word - at) % (1 << 128))
        gen.random(out=flat[a * length : b * length])
        at = word + (b - a) * length
    gen.bit_generator.advance(-at % (1 << 128))
    return out


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-member detection counts and detected-count histogram of trials [lo, hi).

    Trial t's period p consumes one sequence of words. Its first R words (R
    = min(``_REGION``, n + m)) are words (t * periods + p) * R onwards of the
    region stream, which starts at word 0, so one read fills the chunk's
    regions. Word i >= R is word p * (n + m) + i of trial t's block, which
    starts at word ``_BLOCKS + t * stride`` (``stride`` = periods * (n + m)).
    Block words are drawn where they are used (``_draw``), into fresh arrays:
    each round of direct catches, one-hop arc slice or cascade piece reads
    the words its rows take past R.

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
    n + m words, and the arcs' words are drawn and compared in pieces of at
    most ``_RELAX_BUDGET`` words (or one row). A cascade catches the members
    reachable from the direct catches through arcs whose draw succeeded, in
    any order, so the hop distances' sweep (``graph._sweep``) closes the rows
    that catch someone new at once, one bit per trial, over the arcs sorted
    by target and gated by their draws; the other rows have nothing to
    spread, and a period with no new catch sweeps nothing.
    """
    (n, arcs, alphas, gamma, cascade, periods, seed, stride, lo, hi) = args
    src, dst, _, first = arcs
    m = len(dst)
    rows = hi - lo
    span = n + m
    region = min(_REGION, span)
    gen = np.random.Generator(np.random.PCG64DXSM(seed))

    def draw(origin: int, start: np.ndarray, length: int) -> np.ndarray:
        try:
            return _draw(gen, origin, start, length)
        except MemoryError:
            size = start.size * length
            raise ValueError(f"periods={periods} needs {size} draw words, too many to allocate") from None

    regions = draw(lo * periods * region, np.arange(rows) * (periods * region), periods * region)
    first_block = _BLOCKS + lo * stride  # the stream word the chunk's first block starts at

    def words(period: int, row: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Word ``i`` of each ``row``'s sequence in ``period``; (row, i) ascend."""
        u = regions[row, period * region + np.minimum(i, region - 1)]
        over = np.flatnonzero(i >= region)
        if over.size:
            u[over] = draw(first_block, row[over] * stride + period * span + i[over], 1)[:, 0]
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
            if not new.size:
                continue  # nothing to spread, and _pack needs a row
            row, member = np.divmod(new, n)
            caught = row[np.flatnonzero(np.diff(row, prepend=-1))]  # new ascends: its rows, once each
            frontier = np.zeros((caught.size, n), dtype=bool)
            frontier[np.searchsorted(caught, row), member] = True
            opened = np.zeros((caught.size, m), dtype=bool)
            spent = used[caught]  # the words each catching row's direct catches took
            for u in np.unique(spent).tolist():
                k = np.flatnonzero(spent == u)  # these rows' places among the caught ones
                r = caught[k]
                cut = min(max(region - u, 0), m)  # the arcs whose words lie in the region
                opened[k, :cut] = regions[r, period * region + u : period * region + u + cut] < gamma
                if cut < m:  # each piece draws its rows' arc words past the region, from word u + cut
                    step = max(1, _RELAX_BUDGET // (m - cut))
                    for a in range(0, k.size, step):
                        start = r[a : a + step] * stride + period * span + u + cut
                        opened[k[a : a + step], cut:] = draw(first_block, start, m - cut) < gamma
            hidden = _pack(~detected[caught])
            for _ in _sweep(_pack(frontier), hidden, into, heads, _pack(opened)[order]):
                pass
            detected[caught] = _bits(hidden, caught.size).T == 0
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


class _Jobs(Sequence):
    """``simulate``'s chunk jobs, each formed when it is read: ``head`` plus (lo, hi), ``rows`` trials apart."""

    def __init__(self, head: tuple, trials: int, rows: int) -> None:
        self.head, self.trials, self.rows = head, trials, rows

    def __len__(self) -> int:
        return -(-self.trials // self.rows)

    def __getitem__(self, k: int) -> tuple:
        lo = range(0, self.trials, self.rows)[k]
        return (*self.head, lo, min(lo + self.rows, self.trials))


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
    period p consumes one sequence of words of the PCG64DXSM stream seeded by
    ``params.seed``: word i < R (R = min(``_REGION``, n + m), m the arcs) is
    word (t * periods + p) * R + i of the region stream from word 0, and word
    i >= R is word p * (n + m) + i of trial t's block, which starts at word
    ``_BLOCKS + t * stride``, ``stride`` = periods * (n + m). A period uses at
    most n + m words: one per direct catch plus one (none once no member with
    a hazard is left past the last catch; a member with alpha 1 is caught
    without one), then one per arc of a newly caught member, or under cascade
    one per arc. A chunk reads its rows' regions in one read and the block
    words that rows run on into where it uses them (``_draw``). Direct
    catches are exact up to the rounding of the cumulative hazards (see
    ``_simulate_chunk``). Before any chunk is formed, a ValueError names
    ``trials`` and ``periods`` when trials * periods * (n + m) passes 2**127,
    where the blocks would run past the stream's 2**128-word period, and
    ``trials`` when the chunks would outnumber ``sys.maxsize``.

    Chunks are sized by the bytes one of their rows holds, so that they fit a
    fixed budget (``_DRAW_BUDGET_BYTES``) whatever the trial count, or hold
    one trial when its own is larger: one hop, a row's regions and state,
    8 * periods * R + n + m bytes; under cascade, at most its whole block,
    8 * stride bytes. A ValueError names ``periods`` when a chunk's draw
    words cannot be allocated. The jobs are formed as they are run and each
    chunk's counts are added as it returns, in job order, so memory does not
    grow with the trial count. The report is bit-identical for any
    ``workers`` value, chunking and run.
    """
    _require_runnable(g, plan, params)
    if not (_is_int(periods) and periods >= 1):
        raise ValueError(f"periods must be a positive integer, got {periods}")
    trials = params.trials
    span = g.n + len(g._arcs[1])
    stride = periods * span
    if trials * stride > _BLOCKS:
        raise ValueError(
            f"trials={trials} of periods={periods} need {trials * stride} draw words,"
            f" {span} a period, past the 2**127 the stream holds"
        )
    # a cascade row that catches someone holds its block; any other row its regions and its state
    held = 8 * stride if params.cascade else 8 * periods * min(_REGION, span) + span
    rows = min(_TRIALS_PER_CHUNK, max(1, _DRAW_BUDGET_BYTES // held))
    if trials > sys.maxsize * rows:  # the count of chunks must fit an index
        raise ValueError(f"trials={trials} make more than {sys.maxsize} chunks of {rows}")
    head = (g.n, g._arcs, plan.alphas, params.gamma, params.cascade, periods, params.seed, stride)
    member_counts = np.zeros(g.n, dtype=np.int64)
    hist = np.zeros(g.n + 1, dtype=np.int64)

    def add(result: tuple[np.ndarray, np.ndarray]) -> None:
        member_counts[:] += result[0]
        hist[:] += result[1]

    run_chunks(_simulate_chunk, _Jobs(head, trials, rows), workers, add)

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
