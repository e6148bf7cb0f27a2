"""Zero-sum games on binary payoff matrices.

A game is any nonempty 2-d 0/1 array, a class's ``matrix`` included: entry
(i, j) is the row player's payoff when the row player plays i and the
column player plays j, and rows and columns may repeat (pure strategies are
positional, unlike concept rows).  The row player maximizes, the column
player minimizes.  Three solvers:

* ``solve_exact`` — dense simplex with an integer-preserving tableau: integer
  entries over a common denominator, with exact division by the previous
  pivot.  The game is turned into the standard LP pair via a +1 payoff shift
  (making the value positive); Bland's rule guarantees termination, and both
  players' optimal strategies come out of one tableau as exact rationals.
  Basic slacks stay implicit (a slack column is stored only once that slack
  leaves the basis), and the tableau is an int64 array, guarded before each
  pivot against overflow, that turns into Python ints when the guard trips.
  Optimality is certified exactly, in integers, before the rationals are
  built.  The simplex itself is exact at any size, and the weak learner
  runs it uncapped; refusing games above EXACT_ENTRY_CAP entries is only
  the policy of ``solve_exact`` and ``sparse_epsilon_nash``.
* ``solve_mw`` — optimistic hedge for both players at one constant step,
  with no planned horizon: the averaged strategies are certified by their
  exploitability every 16 rounds; the weak learner never uses it.
* ``sparse_epsilon_nash`` — small multisets of pure strategies whose uniform
  play is an epsilon-equilibrium: each is an ``epsilon_approximation`` of
  an exact or near-optimal mixed strategy over the class of the other
  side's distinct pure strategies.  The support-size ceilings depend only
  on the VC dimensions of those classes, never on how often rows/columns
  repeat, and each multiset is the first certified draw below them.

Every exact solve, from ``solve_exact``, ``sparse_epsilon_nash`` or the weak
learner, takes one path (``_exact_solution``): the simplex, the float views
of its rationals, value_estimate = float(exact_value), and the exploitability
of the float strategies by the one formula (``_exploitability``) that MW's
certificate and ``sparse_epsilon_nash``'s re-verification also use.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approx import ProbabilityVector, epsilon_approximation
from .concepts import ConceptClass, _bit_matrix, _bit_rows, _row_ints, vc_dimension
from .errors import ConvergenceError, ExactSolverCapError
from .seeding import child_seeds

__all__ = [
    "EXACT_ENTRY_CAP",
    "MW_ITERATION_CAP",
    "GameSolution",
    "SparseEquilibrium",
    "solve_exact",
    "solve_mw",
    "sparse_epsilon_nash",
    "parse_payoff_matrix",
]

logger = logging.getLogger(__name__)

EXACT_ENTRY_CAP = 4096
MW_ITERATION_CAP = 1_000_000


@dataclass(frozen=True)
class GameSolution:
    """A strategy pair with a certified exploitability: the column strategy
    caps every row payoff at value+exploitability, and the row strategy
    secures at least value-exploitability against every column.  An exact
    solve also keeps the game value and the row strategy as the exact
    rationals whose float views the strategies are."""

    row_strategy: ProbabilityVector
    col_strategy: ProbabilityVector
    value_estimate: float
    exploitability: float
    exact_value: Fraction | None = None
    exact_row_strategy: tuple[Fraction, ...] | None = None
    iterations: int | None = None

    def __post_init__(self):
        if self.exploitability < 0:
            raise ValueError("exploitability cannot be negative")


@dataclass(frozen=True)
class SparseEquilibrium:
    """Multisets of pure strategies whose uniform play is within epsilon of
    the game value against every pure response (verified exhaustively).
    The row side's test dimension is the VC dimension of the distinct
    columns as concepts over the rows (the dual dimension of the row set),
    and symmetrically for columns.  The support bounds are the size
    ceilings T of the two epsilon-approximations; each multiset has a
    power-of-two length below T, or T."""

    row_multiset: tuple[int, ...]
    col_multiset: tuple[int, ...]
    epsilon: float
    certified_exploitability: float
    value_estimate: float
    row_support_bound: int
    col_support_bound: int
    row_test_dimension: int
    col_test_dimension: int

    def __post_init__(self):
        # 1e-12 absorbs float re-association in the exhaustive check; the
        # underlying inequality holds exactly in real arithmetic
        if self.certified_exploitability > self.epsilon + 1e-12:
            raise ValueError(
                f"certified exploitability {self.certified_exploitability} exceeds "
                f"epsilon {self.epsilon}"
            )


# -- exact simplex -----------------------------------------------------------


# While the tableau is int64, no entry exceeds this in magnitude, so the
# largest intermediate, a pivot's pivot*a - f*b or the ratio test's cross
# products, is at most 2*max|entry|**2 < 2**62; past it the tableau holds
# Python ints.
_INT64_SAFE_ENTRY = math.isqrt(2**61)


def _leaving_row(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """Ratio test: the row minimizing rhs_i/a_i over a_i > 0, ties to the
    lowest basic variable.  Comparisons are exact cross-multiplications; the
    float ratios only pick where to start, and they are monotone in the exact
    ones (int64 entries convert exactly, Python ints divide correctly
    rounded), so the loop below almost always runs once."""
    rows = np.flatnonzero(column > 0)
    if rows.size == 0:
        raise ArithmeticError("LP unbounded; impossible for shifted payoffs")
    a, b = column[rows], rhs[rows]
    k = int(np.argmin(b / a))
    while True:
        cross = b * a[k] - b[k] * a  # sign of b_i/a_i - b_k/a_k
        better = np.flatnonzero(cross < 0)
        if better.size == 0:
            break
        k = int(better[0])
    tied = rows[cross == 0]
    return int(tied[np.argmin(basis[tied])])


def _exact_minimax(entries: np.ndarray) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact game value and optimal strategies via one simplex run.

    Solves max 1.w  s.t. (M+1)w <= 1, w >= 0 with Bland's rule; the shifted
    value is 1/sum(w), the column strategy is w rescaled, and the row strategy
    is the dual solution read off the slack columns' reduced costs.

    The tableau is integer-preserving (Edmonds 1967; Bareiss 1968): it holds
    integers over one common denominator, the previous pivot, and each pivot
    divides exactly by it.  Signs and ratio comparisons are those of the
    rational tableau, so the pivot sequence is the same and the results are
    exact rationals.

    A basic slack's column is denom times a unit vector and its reduced cost
    is 0, so slack columns are implicit: one is stored, as denom at its row,
    only when that slack first leaves the basis.  Bland's rule takes the
    lowest variable index among the stored columns with positive reduced
    cost.  The tableau is an int64 array while every entry stays below
    _INT64_SAFE_ENTRY, checked before each pivot; from the first pivot that
    could overflow it holds Python ints, so the arithmetic is exact at any
    size (EXACT_ENTRY_CAP is a policy of solve_exact and sparse_epsilon_nash,
    not a limit of this solver).  Optimality is certified in integers on the
    duals and the primal before the Fractions are built.
    """
    m, n = entries.shape
    shifted = entries.astype(np.int64) + 1
    # rows: constraints then reduced costs; columns: rhs, structurals, then
    # each stored slack; all entries are over the common denominator denom
    tableau = np.ones((m + 1, n + 1), dtype=np.int64)
    tableau[:m, 1:] = shifted
    tableau[m, 0] = 0
    variables = np.arange(-1, n)  # variable of each column; -1 marks the rhs
    slack_column = np.zeros(m, dtype=np.intp)  # 0 while slack n+i is implicit
    basis = np.arange(n, n + m)
    denom = 1
    pivots = 0
    while True:
        if tableau.dtype != object and max(int(np.abs(tableau).max()), denom) > _INT64_SAFE_ENTRY:
            tableau = tableau.astype(object)
        positive = np.flatnonzero(tableau[m, 1:] > 0)
        if positive.size == 0:
            break
        enter = 1 + int(positive[np.argmin(variables[1 + positive])])  # Bland
        leave = _leaving_row(tableau[:m, enter], tableau[:m, 0], basis)
        if basis[leave] >= n and not slack_column[leave]:
            # the slack of row `leave` has been basic there since the start
            slack = np.zeros((m + 1, 1), dtype=tableau.dtype)
            slack[leave] = denom
            slack_column[leave] = tableau.shape[1]
            tableau = np.hstack((tableau, slack))
            variables = np.append(variables, basis[leave])
        pivot_row = tableau[leave].copy()
        pivot = pivot_row[enter]
        factors = tableau[:, enter, None].copy()
        tableau *= pivot
        tableau -= factors * pivot_row
        tableau //= denom
        tableau[leave] = pivot_row
        basis[leave] = variables[enter]
        denom = int(pivot)
        pivots += 1

    # w and the duals share the denominator denom, which cancels below
    w = np.zeros(n, dtype=tableau.dtype)
    structural = basis < n
    w[basis[structural]] = tableau[:m, 0][structural]
    stored = np.flatnonzero(slack_column)
    duals = np.zeros(m, dtype=tableau.dtype)
    duals[stored] = -tableau[m, slack_column[stored]]
    total = int(w.sum())
    logger.debug(
        "exact simplex %dx%d: %d pivots, %d stored slack columns, %s tableau",
        m, n, pivots, stored.size, "python-int" if tableau.dtype == object else "int64",
    )
    if total <= 0 or int(duals.sum()) != total:
        raise ArithmeticError("simplex did not reach a primal/dual optimal pair")
    # exact optimality certificate on the shifted matrix: the duals secure
    # denom/total against every column and w caps every row at it
    if (duals @ shifted).min() != denom or (shifted @ w).max() != denom:
        raise ArithmeticError("simplex optimum failed its exact certificate")
    q = [Fraction(wi, total) for wi in w.tolist()]
    p = [Fraction(yi, total) for yi in duals.tolist()]
    return Fraction(denom, total) - 1, p, q


def _exploitability(mf: np.ndarray, p: np.ndarray, q: np.ndarray, value: float) -> float:
    """How far the pair (p, q) is from an equilibrium at `value`: the larger
    of what q lets the best row win above it and what p lets the best column
    push below it, never negative; exhaustive over both pure strategy sets."""
    return max(float((mf @ q).max()) - value, value - float((p @ mf).min()), 0.0)


def _exact_solution(entries: np.ndarray) -> GameSolution:
    """The one exact path: ``_exact_minimax`` (whose optimality certificate
    is exact, in integers), then the float views of its rationals, the value
    estimate float(exact_value) and the float exploitability of the views;
    the exact value and row strategy are kept beside them.  No validation
    and no cap; callers pass a nonempty 0/1 array."""
    value, p, q = _exact_minimax(entries)
    row = ProbabilityVector([float(x) for x in p])
    col = ProbabilityVector([float(x) for x in q])
    v = float(value)
    exploit = _exploitability(entries.astype(np.float64), row.weights, col.weights, v)
    return GameSolution(row, col, v, exploit, exact_value=value, exact_row_strategy=tuple(p))


def solve_exact(matrix) -> GameSolution:
    """Exact minimax solution by a self-contained dense simplex with an
    integer-preserving tableau; the value and strategies are exact rationals
    whose optimality is certified exactly before the float views are taken.
    Matrices above EXACT_ENTRY_CAP entries are refused; use solve_mw."""
    m = _bit_matrix(matrix, "payoff matrix")
    if m.size > EXACT_ENTRY_CAP:
        raise ExactSolverCapError(
            f"{m.shape[0]}x{m.shape[1]} exceeds the {EXACT_ENTRY_CAP}-entry cap for the "
            "exact solver; use solve_mw"
        )
    return _exact_solution(m)


# -- multiplicative weights ----------------------------------------------------


# The step of both players' optimistic hedge, and how often the averages are
# certified; see solve_mw for the derivation of the step.
_MW_STEP = 0.5
_MW_CHECK_EVERY = 16


def _optimistic_hedge(payoffs: np.ndarray) -> np.ndarray:
    """Exponential weights at step _MW_STEP on a player's cumulative payoffs
    plus last round's, its prediction of the next."""
    logits = _MW_STEP * payoffs
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def solve_mw(matrix, target_exploitability: float = 0.01) -> GameSolution:
    """Multiplicative-weights solution certified to the target exploitability.

    Both players run optimistic hedge (Rakhlin & Sridharan 2013) at one
    constant step eta: each round, each plays exponential weights on its
    cumulative payoffs so far plus last round's once more, its prediction of
    the next round's.  The row player's payoffs are M q_t and the column
    player's are -p_t M.  Both update at once, each from the other's
    previous strategies, and the first round is uniform.

    The step comes from the RVU bound of Syrgkanis, Agarwal, Luo & Schapire
    (2015).  Optimistic hedge over N actions has regret at most
    alpha + beta sum_t |u_t - u_(t-1)|_inf^2 - gamma sum_t |w_t - w_(t-1)|_1^2
    with alpha = ln(N)/eta, beta = eta and gamma = 1/(4 eta).  With 0/1
    payoffs, a player's payoff vector moves by at most the L1 move of the
    other's strategy, so in the sum of the two regrets each beta term is
    cancelled by the other player's gamma term once eta <= 1/(4 eta).  The
    sum is then at most (ln m + ln n)/eta, and it is T times the duality
    gap max_i (M q_bar)_i - min_j (p_bar M)_j of the averages after T
    rounds.  The largest step allowed, eta = 1/2, minimizes that bound:
    the gap is at most 2 ln(mn)/T, with no horizon to plan.

    The averaged strategies are certified every _MW_CHECK_EVERY rounds by
    _exploitability, which is at most that gap, and returned as soon as
    they pass; hitting MW_ITERATION_CAP raises ConvergenceError carrying
    the best certified exploitability.  A target that is not a finite
    positive number raises ValueError.
    """
    if not 0 < target_exploitability < math.inf:  # NaN fails both
        raise ValueError(
            f"target exploitability must be a finite positive number, got {target_exploitability}"
        )
    mf = _bit_matrix(matrix, "payoff matrix").astype(np.float64)
    p_sum = np.zeros(mf.shape[0])
    q_sum = np.zeros(mf.shape[1])
    p = np.zeros(mf.shape[0])
    q = np.zeros(mf.shape[1])
    best_exploit = math.inf
    for t in range(1, MW_ITERATION_CAP + 1):
        p, q = _optimistic_hedge(mf @ (q_sum + q)), _optimistic_hedge(-(p_sum + p) @ mf)
        p_sum += p
        q_sum += q
        if t % _MW_CHECK_EVERY == 0 or t == MW_ITERATION_CAP:
            p_bar = p_sum / t
            q_bar = q_sum / t
            value = float(p_bar @ mf @ q_bar)
            exploit = _exploitability(mf, p_bar, q_bar, value)
            best_exploit = min(best_exploit, exploit)
            if exploit <= target_exploitability:
                logger.debug("mw certified after %d iterations (exploitability %.3g)", t, exploit)
                return GameSolution(
                    ProbabilityVector(p_bar),
                    ProbabilityVector(q_bar),
                    value,
                    exploit,
                    iterations=t,
                )
    raise ConvergenceError(
        f"no certificate at target {target_exploitability} within {MW_ITERATION_CAP} iterations "
        f"(best {best_exploit:.3g})",
        last_exploitability=best_exploit,
    )


# -- sparse equilibria ----------------------------------------------------------


def sparse_epsilon_nash(matrix, epsilon: float, seed: int) -> SparseEquilibrium:
    """Sparse epsilon-equilibrium with support-size ceilings governed by the
    VC dimensions of the strategy sets.

    Duplicate rows/columns are collapsed before solving (they change neither
    the value nor the dimensions), so padding a matrix with copies cannot
    inflate the supports.  Each side's multiset is an epsilon-approximation
    of its optimal strategy, tested on every pure strategy of the other
    side: the first draw of 1, 2, 4, ... strategies that certifies, so the
    reported support bounds are ceilings, not draw sizes.  The epsilon
    guarantee is re-verified against every pure strategy of the original
    matrix: the certified exploitability is that of the multisets'
    empirical frequencies, by the formula every solver's certificate uses.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    m = _bit_matrix(matrix, "payoff matrix")
    seeds = child_seeds(seed, 2)

    row_rep = np.sort(np.unique(m, axis=0, return_index=True)[1])
    col_rep = np.sort(np.unique(m.T, axis=0, return_index=True)[1])
    core = m[np.ix_(row_rep, col_rep)]

    if core.size <= EXACT_ENTRY_CAP:
        solution = _exact_solution(core)
        eps_sparsify = epsilon
    else:
        solution = solve_mw(core, target_exploitability=epsilon / 8)
        eps_sparsify = 0.75 * epsilon
    value_f = solution.value_estimate

    # the row multiset is drawn over core's rows and tested on its distinct
    # columns as concepts, so their VC dimension sets its ceiling; the
    # column multiset symmetrically
    columns = ConceptClass.from_row_ints(core.shape[0], _row_ints(core.T))
    rows = ConceptClass.from_row_ints(core.shape[1], _row_ints(core))
    row_cert = epsilon_approximation(columns, solution.row_strategy, eps_sparsify, seeds[0])
    col_cert = epsilon_approximation(rows, solution.col_strategy, eps_sparsify, seeds[1])
    row_multiset = tuple(row_rep[list(row_cert.multiset)].tolist())
    col_multiset = tuple(col_rep[list(col_cert.multiset)].tolist())

    # exhaustive verification on the ORIGINAL matrix, of the multisets'
    # empirical frequencies
    p = np.bincount(row_multiset, minlength=m.shape[0]) / len(row_multiset)
    q = np.bincount(col_multiset, minlength=m.shape[1]) / len(col_multiset)
    certified = _exploitability(m.astype(np.float64), p, q, value_f)

    return SparseEquilibrium(
        row_multiset=row_multiset,
        col_multiset=col_multiset,
        epsilon=float(epsilon),
        certified_exploitability=certified,
        value_estimate=value_f,
        row_support_bound=row_cert.size_bound,
        col_support_bound=col_cert.size_bound,
        row_test_dimension=vc_dimension(columns),
        col_test_dimension=vc_dimension(rows),
    )


# -- text format ------------------------------------------------------------------


def parse_payoff_matrix(text: str) -> np.ndarray:
    """Payoff matrices share the concept-class text format (header `n m`,
    then m rows of n characters), but rows are positional strategies: the
    read-only uint8 matrix keeps their order and their duplicates."""
    rows = _bit_rows(text, "num_columns num_rows", "matrix dimensions", "matrix")
    return _bit_matrix(np.array([list(row) for _, row in rows], dtype=np.uint8), "payoff matrix")
