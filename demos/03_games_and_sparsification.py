"""Zero-sum games over 0/1 matrices: exact values, no-regret play, and
sparse equilibria whose support size depends only on the dual dimensions.

The solvers take any 0/1 array (nested lists, numpy arrays, or a concept
class's own ``matrix``, played as is) with the row player's payoffs.

The sparse solver is the engine behind compression: it replaces an optimal
mixed strategy by a small uniform multiset that still plays almost as well,
and certifies the exploitability exhaustively against the original matrix.
"""

import numpy as np

from vccompress import (
    ProbabilityVector,
    epsilon_approximation,
    intervals,
    random_vc_capped,
    solve_exact,
    solve_mw,
    sparse_epsilon_nash,
)
from vccompress.seeding import make_rng

# -- the 3x3 cyclic game has value exactly 2/3 ------------------------------
cyclic = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
exact = solve_exact(cyclic)
print(f"cyclic game: value {exact.exact_value} (float {exact.value_estimate:.6f}), "
      f"exploitability {exact.exploitability:.2e}")

# -- multiplicative weights agrees on a random game -------------------------
rng = make_rng(42)
matrix = rng.integers(0, 2, size=(40, 25))
reference = solve_exact(matrix)
played = solve_mw(matrix, target_exploitability=0.005)
gap = abs(played.value_estimate - float(reference.exact_value))
print(f"random 40x25 game: exact value {reference.exact_value}, "
      f"mw estimate {played.value_estimate:.4f} after {played.iterations} rounds "
      f"(gap {gap:.4f})")

# -- sparse equilibrium: support bounded by the dual dimensions -------------
payoffs = random_vc_capped(12, 2, 30, seed=5).matrix
equilibrium = sparse_epsilon_nash(payoffs, epsilon=0.125, seed=0)
print()
print(f"a VC-2 class as a game: value ~ {equilibrium.value_estimate:.3f}")
print(f"row multiset {len(equilibrium.row_multiset)} plays "
      f"(bound {equilibrium.row_support_bound}), "
      f"col multiset {len(equilibrium.col_multiset)} plays "
      f"(bound {equilibrium.col_support_bound})")
print(f"certified exploitability {equilibrium.certified_exploitability:.4f} "
      f"<= {equilibrium.epsilon}")

# Padding the matrix with duplicate rows/columns changes nothing: the
# supports depend on the matrix's distinct structure, not its shape.
padded = sparse_epsilon_nash(np.tile(payoffs, (5, 3)), 0.125, seed=0)
assert padded.row_multiset == equilibrium.row_multiset
assert padded.col_support_bound == equilibrium.col_support_bound
print("padding the matrix 5x3 leaves the sparse equilibrium unchanged")

# -- the same trick approximates plain distributions ------------------------
cls = intervals(20)
weights = np.linspace(1, 5, cls.domain_size)
mu = ProbabilityVector(weights / weights.sum())
cert = epsilon_approximation(cls, mu, epsilon=0.125, seed=1)
print()
print(f"eps-approximation of a skewed distribution over {cls.domain_size} points: "
      f"{len(cert.multiset)} draws (bound {cert.size_bound}), "
      f"max deviation {cert.max_deviation:.4f} <= 0.125")
