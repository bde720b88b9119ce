"""Walkthrough: the brute-force oracle against the prediction.

The oracle builds the honest matrix of a contraction operator between
monomial bases and computes its rank exactly, one weight block at a time,
by the rule in the exact_rank docstring: a block already in echelon form
is of full rank with no arithmetic, one elimination modulo the fixed prime
2039 proves the other blocks of full rank, and Bareiss elimination proves
the rank of the rest, so every result is certified.  Its only symmetry is
the one it checks on the operator's own terms; it knows nothing about
representation theory, which is what makes the agreement meaningful.
"""

from asympure import (
    ContractionOperator,
    build_matrix,
    exact_rank,
    oracle_series,
    predict_map_analysis,
    special_fiber_operator,
)

print("=== A small matrix, printed in full ===")
op = special_fiber_operator(1, 1)  # x0 d0 + x1 d1 on P^1
matrix = build_matrix(op, 1, 1)
print(f"Sym^1 (x) Sym^1 -> Sym^2 (x) Sym^0, shape {matrix.shape}:")
for row in matrix.to_dense():
    print(f"  {row}")
result = exact_rank(matrix)
print(f"rank {result.rank}, kernel {result.kernel_dim} "
      f"(the one-dimensional SL(2)-invariant)\n")

print("=== The 550 -> 396 map: oracle vs prediction ===")
matrix = build_matrix(special_fiber_operator(2, 1), 9, 3)
result = exact_rank(matrix)
predicted = predict_map_analysis(2, 1, 9, 3)
print(f"  oracle:     rank {result.rank}, kernel {result.kernel_dim}, "
      f"cokernel {result.cokernel_dim} (certified: {result.certified})")
print(f"  prediction: kernel {predicted.kernel_dim}, cokernel {predicted.cokernel_dim}\n")

print("=== Degenerate operators are where the oracle earns its keep ===")
E0, E1 = (1, 0, 0), (0, 1, 0)
one_term = ContractionOperator(2, 1, ((1, E0, E0),))
two_term = ContractionOperator(2, 1, ((1, E0, E0), (1, E1, E1)))
print("one-term operator x0 (x) d0 (a singular bidegree-(1,1) form):")
for m, r in oracle_series(one_term, 1, 1, range(2, 9)):
    closed = (m**3 - m) // 2
    print(f"  m = {m}: kernel {r.kernel_dim}  vs closed form (m^3-m)/2 = {closed}")
print("cubic kernel growth on a threefold whose top self-intersection is 0:")
print("this class cannot be asymptotically pure.\n")

print("two-term operator x0 (x) d0 + x1 (x) d1:")
for m, r in oracle_series(two_term, 1, 1, range(2, 9)):
    print(f"  m = {m}: kernel {r.kernel_dim}")
print("still cubic (the alternating-sum syzygies), so again not pure;")
print("only the full-rank three-term form -- the smooth member -- is clean.")
