"""Direct and indirect detection under a scrutiny budget.

An enforcement agency splits a scrutiny budget across members (direct
Bernoulli detection) and extracts further members from anyone it catches
(indirect detection along information edges, with probability gamma).
Compares the closed form with Monte Carlo, then shows how structure and
cascading change the organization's expected losses.
"""

from covertnet import (
    DetectionParams,
    ScrutinyPlan,
    detect_exact,
    make_structure,
    simulate,
    validate_plan,
)

# Two members sharing one tie, under light scrutiny.
pair = make_structure("complete", 2)
plan = ScrutinyPlan(alphas=(0.1, 0.2), budget=0.5)
print("plan feasible:", validate_plan(plan).valid)

params = DetectionParams(gamma=0.5, cost_k=10.0, trials=200_000, seed=42)
exact = detect_exact(pair, plan, params)
print("exact per-member probabilities:", exact.per_member_prob)
print("expected detections:", exact.expected_detected, " expected cost:", exact.expected_cost)

# The Monte Carlo draws events, not one number per member and per tie: a
# trial-period finds its direct catches by exponential skips over the
# members' cumulative hazards (one draw per catch, plus one), and each newly
# caught member's ties take one draw each.
mc = simulate(pair, plan, params)
print(
    f"Monte Carlo estimate: {mc.expected_detected:.4f} "
    f"(stderr {mc.stderr:.4f}; the same seed gives this number on every run and worker count)"
)

# Same scrutiny, different structures: denser wiring means more indirect
# detections, so the complete graph is the costliest place to be caught.
print("\nexpected detections under uniform scrutiny 0.15, gamma=0.8:")
for kind in ("anarchy", "star", "cycle", "complete"):
    g = make_structure(kind, 5)
    plan5 = ScrutinyPlan(alphas=(0.15,) * 5, budget=0.75)
    report = detect_exact(g, plan5, DetectionParams(gamma=0.8, cost_k=1.0))
    print(f"  {kind:>9}: {report.expected_detected:.4f}")

# Cascading lets a single catch unravel a chain: with certain extraction
# the whole path falls once its end is caught.
chain = make_structure("path", 5)
head_only = ScrutinyPlan(alphas=(1.0, 0.0, 0.0, 0.0, 0.0), budget=1.0)
one_hop = simulate(chain, head_only, DetectionParams(gamma=1.0, cost_k=1.0, trials=1000, seed=7))
cascading = simulate(
    chain,
    head_only,
    DetectionParams(gamma=1.0, cost_k=1.0, cascade=True, trials=1000, seed=7),
)
print("\nchain 0-1-2-3-4, all scrutiny on member 0, gamma=1:")
print("  one hop :", one_hop.per_member_prob)
print("  cascade :", cascading.per_member_prob)

# Multi-period horizons: direct draws repeat for still-hidden members, so
# their detection accumulates; indirect draws fire once, in the period
# their detector is caught. Member 0 falls in period 1 with certainty, so
# member 1 gets exactly one gamma chance (0.4) over the whole horizon.
multi = simulate(chain, head_only, DetectionParams(gamma=0.4, cost_k=1.0, trials=50_000, seed=3), periods=4)
print("\nfour periods, scrutiny only on member 0, gamma=0.4:")
print("  ", [round(x, 3) for x in multi.per_member_prob])

spread = ScrutinyPlan(alphas=(0.15,) * 5, budget=0.75)
for periods in (1, 2, 4):
    report = simulate(chain, spread, DetectionParams(gamma=0.4, cost_k=1.0, trials=50_000, seed=3), periods=periods)
    print(f"uniform scrutiny over {periods} period(s): expected detections {report.expected_detected:.3f}")
