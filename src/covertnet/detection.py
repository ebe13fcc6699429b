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
trial t always consumes its own block of the stream derived from the
master seed, so reports are bit-identical for any worker count or chunk
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_chunks
from .graph import Graph, _is_int, _out_arcs
from .measures import _WEIGHT_SUM_TOL

_TRIALS_PER_CHUNK = 1 << 13
# Most bytes of uniforms one chunk draws; a Philox counter yields 4 float64 (32 B).
_DRAW_BUDGET_BYTES = 8 << 20


class InfeasiblePlanError(ValueError):
    """Scrutiny plan violates its probability bounds or budget."""


@dataclass(frozen=True)
class ScrutinyPlan:
    """Per-member direct-detection probabilities and their total budget."""

    alphas: tuple[float, ...]
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 < self.cost_k < math.inf:
            raise ValueError(
                f"cost per detected member must be finite and positive, got {self.cost_k}"
            )
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


def _require_runnable(g: Graph, plan: ScrutinyPlan) -> None:
    verdict = validate_plan(plan)
    if not verdict.valid:
        raise InfeasiblePlanError("; ".join(verdict.violations))
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
    _require_runnable(g, plan)
    if params.cascade:
        raise ValueError("exact mode covers one hop only; use simulate for cascades")
    alphas = np.asarray(plan.alphas)
    hidden = 1.0 - alphas
    for i, j in np.column_stack(g._arcs[:2]).tolist():
        hidden[j] *= 1.0 - alphas[i] * params.gamma
    return _report(1.0 - hidden, params, "exact")


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-member detection counts and detected-count histogram of trials [lo, hi).

    Each (trial, newly detected member) hit expands over that detector's
    out-pairs (``pairs`` is sorted by detector), reads only those pairs'
    indirect draws, and scatters the still-hidden targets it catches into
    the next frontier, so work scales with the ties of caught members.
    """
    (n, pairs, alphas, gamma, cascade, periods, seed, stride, lo, hi) = args
    rows = hi - lo
    gen = np.random.Generator(np.random.Philox(key=seed, counter=lo * stride))
    draws = gen.random((rows, stride * 4))
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    first = np.searchsorted(pairs[:, 0], np.arange(n + 1))
    alphas = np.asarray(alphas)
    detected = np.zeros((rows, n), dtype=bool)
    for period in range(periods):
        base = period * (n + len(pairs))
        frontier = ~detected & (draws[:, base : base + n] < alphas)
        detected |= frontier
        while frontier.any():
            row, det = np.nonzero(frontier)
            k, fanout = _out_arcs(first, det)
            row = np.repeat(row, fanout)
            target = pairs[k, 1]
            hit = (draws[row, base + n + k] < gamma) & ~detected[row, target]
            frontier = np.zeros_like(detected)
            frontier[row[hit], target[hit]] = True
            detected |= frontier
            if not cascade:
                break
    member_counts = detected.sum(axis=0, dtype=np.int64)
    hist = np.bincount(detected.sum(axis=1), minlength=n + 1).astype(np.int64)
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

    Trial t derives its randomness from ``(params.seed, t)`` alone: it
    starts at Philox counter ``t * stride``. Chunks are therefore sized
    from a fixed draws budget (about 8 MiB of uniforms per chunk, one trial
    at least) whatever the trial count or horizon, and the report is
    bit-identical for any ``workers`` value, chunking and across runs.
    """
    _require_runnable(g, plan)
    if not (_is_int(periods) and periods >= 1):
        raise ValueError(f"periods must be a positive integer, got {periods}")
    pairs = np.column_stack(g._arcs[:2])
    trials = params.trials
    # 4 uniforms per Philox counter; pad each trial's block to a counter boundary
    draws_per_trial = periods * (g.n + len(pairs))
    stride = (draws_per_trial + 3) // 4
    rows = min(_TRIALS_PER_CHUNK, max(1, _DRAW_BUDGET_BYTES // (32 * stride)))
    jobs = [
        (g.n, pairs, plan.alphas, params.gamma, params.cascade, periods,
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
