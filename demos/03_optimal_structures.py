"""Exhaustive search for balance-optimal structures.

Enumerates every connected labeled graph of a small order, finds the
balance maximizers at several detection probabilities, and verifies the
two optimality claims (complete graph below p = 1/2, star above); a bound
on the balance by edge count lets two rivals stand for the whole space.
"""

from covertnet import SecrecyParams, enumerate_connected, find_optimal, verify_lemma

# The search space grows fast: 4, 38, 728, 26704 connected labeled graphs
# on 3..6 vertices.
for n in range(3, 7):
    print(f"connected labeled graphs on {n} vertices:", sum(1 for _ in enumerate_connected(n)))

N = 5
print(f"\nargmax of mu over all connected graphs on {N} vertices:")
for p in (0.1, 0.3, 0.5, 0.7, 0.9):
    result = find_optimal(N, SecrecyParams(p))
    shapes = sorted({tuple(sorted(g.degree_sequence())) for g in result.argmax_graphs})
    print(
        f"  p={p:.1f}: best mu={result.best_mu:.4f}, "
        f"{len(result.argmax_graphs)} maximizers, degree sequences {shapes}"
    )

print(
    "\nBelow 1/2 only the complete graph (degree sequence (4,4,4,4,4)) wins;\n"
    "above 1/2 every labeling of the star (1,1,1,1,4) wins; at exactly 1/2\n"
    "the tie also admits every other diameter-2 graph."
)

# The lemma checker sweeps a probability grid and reports the strongest
# rival at each point.
grid = [k / 10 for k in range(6)]  # 0.0 .. 0.5
report = verify_lemma("complete_optimal", N, grid)
print(f"\ncomplete-graph claim on {N} vertices, grid {grid}: all_passed={report.all_passed}")
for row in report.rows:
    print(f"  p={row.p:.1f}  mu(complete)={row.mu_claimed:.4f}  best rival={row.max_mu_other:.4f}")

grid = [0.5 + k / 10 for k in range(6)]  # 0.5 .. 1.0
report = verify_lemma("star_optimal", N, grid)
print(f"\nstar claim on {N} vertices, grid {grid}: all_passed={report.all_passed}")
for row in report.rows:
    print(f"  p={row.p:.1f}  mu(star)={row.mu_claimed:.4f}  best rival={row.max_mu_other:.4f}")
