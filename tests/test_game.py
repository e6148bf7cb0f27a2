"""Zero-sum solver tests.

The oracle here is LP duality itself: if a strategy pair (p, q) satisfies
min_j (p^T M)_j >= v and max_i (M q)_i <= v in exact arithmetic, then v IS
the game value and both strategies are optimal.  The checker below recomputes
that sandwich with Fractions, independently of the solver's internals.
"""

import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from vccompress import (
    ConceptClass,
    ConvergenceError,
    ExactSolverCapError,
    GameSolution,
    ParseError,
    ProbabilityVector,
    dual_class,
    parse_payoff_matrix,
    solve_exact,
    solve_mw,
    sparse_epsilon_nash,
    vc_dimension,
)
from vccompress import game
from vccompress.seeding import child_seeds, make_rng
from vccompress.approx import approximation_size_bound

CYCLIC = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
IDENTITY = [[1, 0], [0, 1]]


def exact_strategies(entries):
    """Exact (value, row strategy, column strategy) as Fractions."""
    return game._exact_minimax(np.array(entries, dtype=np.uint8))


def assert_exact_optimal(entries, value, p, q):
    rows, cols = len(entries), len(entries[0])
    assert sum(p) == 1 and all(x >= 0 for x in p)
    assert sum(q) == 1 and all(x >= 0 for x in q)
    secures = [
        sum(p[i] * Fraction(int(entries[i][j])) for i in range(rows)) for j in range(cols)
    ]
    caps = [
        sum(Fraction(int(entries[i][j])) * q[j] for j in range(cols)) for i in range(rows)
    ]
    assert min(secures) >= value
    assert max(caps) <= value


# -- exact solver --


def test_cyclic_three_by_three_value_is_two_thirds():
    sol = solve_exact(CYCLIC)
    assert sol.exact_value == Fraction(2, 3)
    assert sol.exploitability <= 1e-9


def test_identity_game_is_matching_pennies():
    value, p, q = exact_strategies(IDENTITY)
    assert value == Fraction(1, 2)
    assert p == [Fraction(1, 2), Fraction(1, 2)]
    assert q == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([[1]], Fraction(1)),
        ([[0]], Fraction(0)),
        ([[1, 1], [0, 0]], Fraction(1)),
        ([[0, 1]], Fraction(0)),
        ([[0], [1]], Fraction(1)),
        ([[1, 0, 1], [1, 1, 0]], Fraction(1, 2)),
    ],
)
def test_small_game_values(entries, expected):
    value, p, q = exact_strategies(entries)
    assert value == expected
    assert_exact_optimal(entries, value, p, q)


def test_random_games_pass_exact_duality_certificate():
    rng = np.random.default_rng(42)
    games = []
    for _ in range(20):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        games.append(rng.integers(0, 2, size=(r, c)))
    # tall and wide games, where many slacks leave the basis and some re-enter
    for _ in range(10):
        long_side, short_side = int(rng.integers(20, 121)), int(rng.integers(2, 9))
        games.append(rng.integers(0, 2, size=(long_side, short_side)))
        games.append(rng.integers(0, 2, size=(short_side, long_side)))
    for entries in games:
        value, p, q = exact_strategies(entries)
        assert_exact_optimal(entries.tolist(), value, p, q)
        assert 0 <= value <= 1


# Exact solutions of three games of the acceptance suite's size (criterion 5
# draws 2-50 rows and columns), pinned as Fractions: (seed, rows, cols, value,
# nonzero row weights, nonzero column weights).  The learner's exact
# strategies feed the compressed bytes, so a solver change must keep them.
GUARD_GAMES = [
    (
        1, 30, 50, "3693/8249",
        {
            0: "549/8249", 2: "965/8249", 5: "382/8249", 7: "382/8249", 9: "717/8249",
            12: "70/8249", 13: "269/8249", 14: "51/8249", 18: "304/8249", 19: "104/8249",
            20: "1316/8249", 21: "819/8249", 22: "508/8249", 23: "375/8249", 25: "241/8249",
            26: "548/8249", 28: "168/8249", 29: "481/8249",
        },
        {
            6: "624/8249", 8: "300/8249", 10: "46/8249", 11: "164/8249", 17: "424/8249",
            18: "620/8249", 19: "515/8249", 22: "483/8249", 25: "745/8249", 26: "914/8249",
            36: "327/8249", 38: "709/8249", 39: "658/8249", 42: "134/8249", 43: "263/8249",
            44: "396/8249", 45: "301/8249", 46: "626/8249",
        },
    ),
    (
        2, 50, 30, "10609/19225",
        {
            0: "2916/326825", 2: "2517/326825", 3: "453/7690", 4: "41349/653650", 5: "5583/653650",
            7: "15253/326825", 13: "856/65365", 15: "72771/653650", 17: "13167/326825",
            18: "6683/130730", 24: "60209/653650", 26: "47151/653650", 31: "852/326825",
            35: "11624/326825", 36: "14286/326825", 37: "681/19225", 39: "61313/653650",
            41: "55389/653650", 42: "4971/326825", 43: "3652/65365", 47: "12577/653650",
            49: "12991/326825",
        },
        {
            0: "886/19225", 2: "588/19225", 3: "1886/19225", 5: "1296/19225", 7: "2209/19225",
            9: "1033/19225", 11: "1066/19225", 12: "547/19225", 13: "417/19225", 14: "347/19225",
            15: "1279/19225", 16: "188/3845", 18: "634/19225", 19: "219/3845", 20: "159/3845",
            21: "517/19225", 22: "553/19225", 23: "103/19225", 25: "144/19225", 26: "894/19225",
            27: "1797/19225", 29: "199/19225",
        },
    ),
    (
        3, 40, 40, "318/589",
        {
            6: "4/589", 9: "33/589", 10: "23/589", 14: "99/589", 15: "118/589", 17: "51/589",
            19: "6/589", 22: "5/589", 24: "24/589", 28: "10/589", 31: "6/589", 32: "22/589",
            36: "50/589", 37: "21/589", 38: "29/589", 39: "88/589",
        },
        {
            1: "5/589", 8: "41/589", 9: "1/31", 16: "20/589", 20: "40/589", 22: "22/589",
            24: "2/31", 25: "10/589", 26: "66/589", 28: "30/589", 30: "45/589", 31: "44/589",
            32: "56/589", 34: "2/19", 35: "50/589", 36: "41/589",
        },
    ),
]


def _guard_matrix(seed, rows, cols):
    # random.Random.random() is reproducible across Python versions
    rnd = random.Random(seed)
    return [[int(rnd.random() < 0.5) for _ in range(cols)] for _ in range(rows)]


def _expand(weights, size):
    return [Fraction(weights.get(i, 0)) for i in range(size)]


def assert_pinned(seed, rows, cols, value, p_pinned, q_pinned):
    entries = _guard_matrix(seed, rows, cols)
    got_value, p, q = exact_strategies(entries)
    assert got_value == Fraction(value)
    assert p == _expand(p_pinned, rows)
    assert q == _expand(q_pinned, cols)
    assert_exact_optimal(entries, got_value, p, q)


@pytest.mark.parametrize("seed,rows,cols,value,p_pinned,q_pinned", GUARD_GAMES)
def test_exact_solutions_pinned_on_suite_sized_games(seed, rows, cols, value, p_pinned, q_pinned):
    assert_pinned(seed, rows, cols, value, p_pinned, q_pinned)


# Exact solutions on shapes the games above miss, pinned the same way: tall
# learner-shaped games (hypotheses by sample points), a 64x64 game whose
# tableau outgrows int64 and finishes in Python ints, and both one-line
# shapes at EXACT_ENTRY_CAP, where all but one or two slacks stay implicit.
SHAPE_GAMES = [
    (
        2, 81, 8, "4/5",
        {
            21: "1/5", 22: "1/5", 50: "1/5", 59: "1/5", 65: "1/5",
        },
        {
            0: "1/5", 1: "1/10", 2: "1/5", 4: "1/10", 5: "1/5", 6: "1/10", 7: "1/10",
        },
    ),
    (
        1, 300, 13, "23/30",
        {
            2: "1/10", 10: "1/6", 52: "3/20", 105: "1/30", 119: "1/15", 130: "1/12", 156: "1/60",
            164: "1/10", 243: "2/15", 258: "1/60", 268: "1/15", 271: "1/15",
        },
        {
            0: "1/30", 1: "1/10", 3: "1/10", 4: "1/15", 5: "1/10", 6: "2/15", 7: "1/15",
            8: "1/15", 9: "1/10", 10: "1/15", 11: "1/10", 12: "1/15",
        },
    ),
    (
        4, 64, 64, "106549360791/202986959104",
        {
            1: "17291927587/202986959104", 2: "2753881209/202986959104",
            7: "1331762317/101493479552", 9: "12125081757/202986959104",
            12: "198390885/50746739776", 15: "2992598751/202986959104",
            16: "202001125/25373369888", 17: "3313753441/202986959104",
            19: "4027834399/202986959104", 20: "217433405/25373369888",
            26: "4514865889/202986959104", 27: "1840612795/25373369888",
            28: "9885325841/202986959104", 29: "317336595/202986959104",
            30: "741351507/101493479552", 32: "6757228881/202986959104",
            34: "2028116247/50746739776", 35: "590317551/50746739776",
            38: "3122804723/101493479552", 40: "1735294969/202986959104",
            43: "6512879393/202986959104", 44: "656073585/202986959104",
            46: "21152268409/202986959104", 48: "1966059571/101493479552",
            51: "9868550257/202986959104", 52: "717712339/25373369888",
            53: "2536847667/202986959104", 54: "973411797/101493479552",
            55: "6320282419/202986959104", 56: "23599953/25373369888",
            57: "5411381269/101493479552", 60: "4380067773/101493479552",
            61: "6854448697/202986959104", 62: "764914111/12686684944",
        },
        {
            0: "4439530335/202986959104", 1: "919806937/25373369888", 2: "524205251/25373369888",
            4: "776020551/101493479552", 7: "11238043085/202986959104",
            8: "1314948341/25373369888", 9: "6643604739/202986959104",
            11: "2424696277/101493479552", 12: "3453366543/101493479552",
            13: "4729353565/202986959104", 16: "1370561931/101493479552",
            18: "4861829775/101493479552", 21: "6593295493/202986959104",
            22: "16079542861/202986959104", 23: "2340828483/202986959104",
            25: "7538949709/202986959104", 30: "10380644381/202986959104",
            32: "5540844373/202986959104", 33: "2672296397/50746739776",
            34: "3463071585/101493479552", 35: "173971903/202986959104",
            36: "3364189043/202986959104", 44: "386391813/202986959104",
            46: "5722032639/202986959104", 49: "8188775921/202986959104",
            50: "5113463501/202986959104", 51: "8706599487/202986959104",
            52: "8807516899/202986959104", 53: "1248009747/101493479552",
            54: "245195557/202986959104", 57: "2306835225/50746739776",
            58: "1804131671/101493479552", 61: "3912705067/202986959104",
            62: "1024946685/101493479552",
        },
    ),
    (
        1, 4096, 1, "1",
        {0: "1"},
        {0: "1"},
    ),
    (
        1, 1, 4096, "0",
        {0: "1"},
        {1: "1"},
    ),
]


@pytest.mark.parametrize(
    "seed,rows,cols,value,p_pinned,q_pinned",
    SHAPE_GAMES,
    ids=[f"{rows}x{cols}" for _, rows, cols, *_ in SHAPE_GAMES],
)
def test_exact_solutions_pinned_on_learner_and_cap_shapes(
    seed, rows, cols, value, p_pinned, q_pinned
):
    assert_pinned(seed, rows, cols, value, p_pinned, q_pinned)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_ratio_test_is_exact_where_float_ratios_tie(dtype):
    # (2**30-1)/2**30 and (2**30-2)/(2**30-1) differ by about 2**-60, below
    # double precision near 1: equal as floats, but the second is smaller
    column = np.array([2**30, 2**30 - 1, 5], dtype=dtype)
    rhs = np.array([2**30 - 1, 2**30 - 2, 10], dtype=dtype)
    assert rhs[0] / column[0] == rhs[1] / column[1]
    assert game._leaving_row(column, rhs, np.array([0, 1, 2])) == 1
    # exact ties go to the lowest basic variable, not the lowest row
    tied = np.array([2, 1, 4], dtype=dtype)
    assert game._leaving_row(tied, tied, np.array([7, 5, 6])) == 1


def test_exact_solver_logs_when_the_tableau_leaves_int64(caplog):
    caplog.set_level(logging.DEBUG, logger="vccompress.game")
    exact_strategies(_guard_matrix(4, 64, 64))
    exact_strategies(_guard_matrix(2, 81, 8))
    big, tall = [r.getMessage() for r in caplog.records if r.name == "vccompress.game"]
    assert big.startswith("exact simplex 64x64: ") and big.endswith(", python-int tableau")
    assert tall.startswith("exact simplex 81x8: ") and tall.endswith(", int64 tableau")


def test_solve_exact_reports_float_views():
    sol = solve_exact(CYCLIC)
    assert sol.value_estimate == pytest.approx(2 / 3)
    assert isinstance(sol.row_strategy, ProbabilityVector)
    assert sol.iterations is None


def test_exact_solver_refuses_oversized_matrices():
    big = np.zeros((65, 64), dtype=np.uint8)
    big[0, :] = 1
    with pytest.raises(ExactSolverCapError):
        solve_exact(big)
    # but the cap is on entries, not either dimension alone
    solve_exact(np.ones((64, 64), dtype=np.uint8))


# -- multiplicative weights --


def test_mw_certificate_brackets_true_value():
    sol = solve_mw(CYCLIC, target_exploitability=0.01)
    assert sol.exploitability <= 0.01
    assert abs(sol.value_estimate - 2 / 3) <= sol.exploitability + 1e-12
    assert sol.iterations is not None and sol.iterations >= 1


def test_mw_is_deterministic():
    a = solve_mw(CYCLIC, target_exploitability=0.02)
    b = solve_mw(CYCLIC, target_exploitability=0.02)
    assert a.value_estimate == b.value_estimate
    assert a.iterations == b.iterations
    assert np.array_equal(a.row_strategy.weights, b.row_strategy.weights)


def test_mw_agrees_with_exact_on_random_games():
    rng = np.random.default_rng(99)
    for _ in range(10):
        r = int(rng.integers(2, 13))
        c = int(rng.integers(2, 13))
        entries = rng.integers(0, 2, size=(r, c))
        exact = solve_exact(entries)
        approx = solve_mw(entries, target_exploitability=0.01)
        assert abs(approx.value_estimate - exact.value_estimate) <= 0.01 + 1e-12


MW_GAMES = {
    "identity": IDENTITY,
    "cyclic": CYCLIC,
    "1xn": [[1, 0, 1, 1, 0]],
    "nx1": [[1], [0], [1]],
    "all-zero": [[0] * 3] * 4,
    "all-one": [[1] * 5] * 3,
}


@pytest.mark.parametrize("entries", MW_GAMES.values(), ids=MW_GAMES.keys())
def test_mw_certifies_small_games_within_their_exploitability(entries):
    sol = solve_mw(entries, target_exploitability=0.01)
    assert sol.exploitability <= 0.01
    exact = solve_exact(entries)
    assert abs(sol.value_estimate - exact.value_estimate) <= sol.exploitability + 1e-12
    assert sol.iterations % game._MW_CHECK_EVERY == 0


def test_mw_certifies_within_the_rvu_horizon():
    # the averages' duality gap after T rounds is at most 2 ln(mn)/T, so
    # the first check at or past 2 ln(mn)/target certifies
    rng = np.random.default_rng(17)
    every = game._MW_CHECK_EVERY
    for _ in range(20):
        r, c = (int(x) for x in rng.integers(1, 30, size=2))
        entries = rng.integers(0, 2, size=(r, c))
        target = float(rng.choice([0.05, 0.02, 0.01]))
        horizon = 2 * math.log(r * c) / target
        sol = solve_mw(entries, target_exploitability=target)
        assert sol.iterations <= every * max(1, math.ceil(horizon / every))


def test_mw_raises_when_cap_blocks_certification(monkeypatch):
    monkeypatch.setattr(game, "MW_ITERATION_CAP", 2000)
    with pytest.raises(ConvergenceError) as info:
        # uniform play, where both players start, is no equilibrium here,
        # so the averages approach one only at rate 1/T
        solve_mw([[1, 0, 0], [0, 1, 1]], target_exploitability=1e-9)
    assert info.value.last_exploitability > 1e-9


def test_mw_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        solve_mw(CYCLIC, target_exploitability=0.0)


# -- sparse equilibria --


@pytest.mark.parametrize("seed", [1.5, "3", np.int64(3)], ids=["float", "str", "np.int64"])
def test_seeds_must_be_integers(seed):
    # int(seed) once made seed 1.5 draw as seed 1 and parsed "3" as 3
    if isinstance(seed, np.integer):
        assert child_seeds(seed, 2) == child_seeds(3, 2)
        assert make_rng(seed).integers(1 << 30) == make_rng(3).integers(1 << 30)
        eq, same = (sparse_epsilon_nash(IDENTITY, 0.3, s) for s in (seed, 3))
        assert (eq.row_multiset, eq.col_multiset) == (same.row_multiset, same.col_multiset)
        return
    uses = (make_rng, lambda s: child_seeds(s, 2), lambda s: sparse_epsilon_nash(IDENTITY, 0.3, s))
    for use in uses:
        with pytest.raises(ValueError, match="seed must be an integer"):
            use(seed)


def test_sparse_nash_identity_sizes_match_dimension_bound():
    eq = sparse_epsilon_nash(IDENTITY, epsilon=0.3, seed=11)
    # both strategy sets have VC dimension 1, so the ceiling is
    # ceil(16*2/0.09) = 356 draws; the first certified draw is smaller
    assert eq.row_test_dimension == 1 and eq.col_test_dimension == 1
    assert eq.row_support_bound == 356 and eq.col_support_bound == 356
    assert len(eq.row_multiset) <= 356 and len(eq.col_multiset) <= 356
    assert set(eq.row_multiset) <= {0, 1} and set(eq.col_multiset) <= {0, 1}
    # exact re-check: the optimal mixtures are uniform, so each side's
    # deviation is the gap between a strategy's share and 1/2
    for multiset in (eq.row_multiset, eq.col_multiset):
        shares = [Fraction(multiset.count(i), len(multiset)) for i in (0, 1)]
        assert max(abs(share - Fraction(1, 2)) for share in shares) <= Fraction(3, 10)
    assert eq.certified_exploitability <= 0.3
    assert eq.value_estimate == pytest.approx(0.5)


def test_sparse_nash_ignores_duplicate_padding():
    base = sparse_epsilon_nash(IDENTITY, epsilon=0.3, seed=5)
    padded_entries = np.tile(np.array(IDENTITY, dtype=np.uint8), (3, 2))
    padded = sparse_epsilon_nash(padded_entries, epsilon=0.3, seed=5)
    assert padded.row_support_bound == base.row_support_bound
    assert padded.col_support_bound == base.col_support_bound
    # representatives are first occurrences, so the multisets coincide too
    assert padded.row_multiset == base.row_multiset
    assert padded.col_multiset == base.col_multiset
    assert padded.value_estimate == base.value_estimate


def test_sparse_nash_certifies_against_every_pure_strategy():
    rng = np.random.default_rng(3)
    entries = rng.integers(0, 2, size=(8, 8))
    eq = sparse_epsilon_nash(entries, epsilon=0.25, seed=21)
    assert eq.certified_exploitability <= 0.25
    mf = entries.astype(float)
    worst_row = mf[list(eq.row_multiset), :].mean(axis=0).min()
    worst_col = mf[:, list(eq.col_multiset)].mean(axis=1).max()
    assert worst_row >= eq.value_estimate - 0.25 - 1e-12
    assert worst_col <= eq.value_estimate + 0.25 + 1e-12


def test_sparse_nash_certificate_is_the_exploitability_of_its_frequencies():
    # the multisets' empirical frequencies through the solvers' one
    # exploitability formula equal the uniform plays' worst-case gaps
    entries = np.tile(np.random.default_rng(5).integers(0, 2, size=(8, 8)), (10, 2))
    eq = sparse_epsilon_nash(entries, epsilon=0.25, seed=21)
    mf = entries.astype(float)
    row_play = mf[list(eq.row_multiset), :].mean(axis=0)
    col_play = mf[:, list(eq.col_multiset)].mean(axis=1)
    v = eq.value_estimate
    gaps = max(v - float(row_play.min()), float(col_play.max()) - v, 0.0)
    assert eq.certified_exploitability == gaps > 0


def test_sparse_nash_cyclic_keeps_exact_value():
    eq = sparse_epsilon_nash(CYCLIC, epsilon=0.25, seed=7)
    assert eq.value_estimate == pytest.approx(2 / 3)
    assert eq.certified_exploitability <= 0.25


def test_sparse_nash_above_the_exact_cap_sparsifies_an_mw_solution(monkeypatch):
    calls = []
    original = game.solve_mw

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(game, "solve_mw", counted)
    rnd = random.Random(3)
    entries = [[rnd.randrange(2) for _ in range(70)] for _ in range(70)]
    eq = sparse_epsilon_nash(entries, epsilon=0.25, seed=4)
    # the deduplicated core stays above EXACT_ENTRY_CAP, so MW solves it and
    # the sparsifier runs at 0.75 epsilon
    assert len(calls) == 1 and calls[0].exact_value is None
    assert eq.certified_exploitability <= 0.25
    assert all(0 <= i < 70 for i in eq.row_multiset + eq.col_multiset)
    mf = np.array(entries, dtype=float)
    worst_row = mf[list(eq.row_multiset), :].mean(axis=0).min()
    worst_col = mf[:, list(eq.col_multiset)].mean(axis=1).max()
    assert max(eq.value_estimate - worst_row, worst_col - eq.value_estimate) <= 0.25 + 1e-12


def _dual_dimension_of_strategies(entries):
    """VC dimension of the dual of the distinct rows as concepts over the
    columns: the dimension that bounds the row player's support."""
    row_ints = {int("".join(map(str, r)), 2) for r in entries.tolist()}
    rows = ConceptClass.from_row_ints(entries.shape[1], row_ints)
    return vc_dimension(dual_class(rows))


def test_sparse_nash_bounds_are_the_dual_dimension_ceilings():
    rng = np.random.default_rng(8)
    games = [rng.integers(0, 2, size=rng.integers(1, 7, size=2)) for _ in range(30)]
    games += [rng.integers(0, 2, size=(1, 6)), rng.integers(0, 2, size=(6, 1))]
    games += [np.ones((1, 1), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)]
    # padded with duplicate rows and columns
    games += [np.tile(g, (2, 3)) for g in games[:4]] + [np.repeat(g, 2, axis=0) for g in games[4:8]]
    for index, entries in enumerate(games):
        epsilon = (0.3, 0.25, 0.125)[index % 3]
        eq = sparse_epsilon_nash(entries, epsilon=epsilon, seed=index)
        row_dim = _dual_dimension_of_strategies(entries)
        col_dim = _dual_dimension_of_strategies(entries.T)
        assert (eq.row_test_dimension, eq.col_test_dimension) == (row_dim, col_dim)
        assert eq.row_support_bound == approximation_size_bound(row_dim, epsilon)
        assert eq.col_support_bound == approximation_size_bound(col_dim, epsilon)
        assert all(0 <= i < entries.shape[0] for i in eq.row_multiset)
        assert all(0 <= j < entries.shape[1] for j in eq.col_multiset)
        assert eq.certified_exploitability <= epsilon


def test_sparse_nash_validates_epsilon():
    with pytest.raises(ValueError):
        sparse_epsilon_nash(IDENTITY, epsilon=0.0, seed=1)
    with pytest.raises(ValueError):
        sparse_epsilon_nash(IDENTITY, epsilon=1.0, seed=1)


# -- containers and parsing --


SOLVERS = {
    "solve_exact": solve_exact,
    "solve_mw": solve_mw,
    "sparse_epsilon_nash": lambda matrix: sparse_epsilon_nash(matrix, 0.25, seed=0),
}


@pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
def test_every_solver_rejects_bad_entries(solver):
    with pytest.raises(ValueError):
        solver([[0, 2], [1, 0]])
    # each of these would pass if the entries were cast to uint8 first
    for entries in ([[0.5, 1]], [[-1, 1]], [[256, 0]]):
        with pytest.raises(ValueError, match="0 or 1"):
            solver(entries)
    with pytest.raises(ValueError):
        solver(np.zeros((0, 3), dtype=np.uint8))


def test_game_solution_rejects_negative_exploitability():
    with pytest.raises(ValueError):
        GameSolution(
            ProbabilityVector([1.0]),
            ProbabilityVector([1.0]),
            0.5,
            -0.1,
        )


def test_parse_payoff_matrix_keeps_order_and_duplicates():
    pm = parse_payoff_matrix("2 3\n10\n10\n01\n")
    assert isinstance(pm, np.ndarray) and pm.dtype == np.uint8
    assert not pm.flags.writeable
    assert pm.tolist() == [[1, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n10\n",
        "2 2\n10\n",
        "2 1\n10\n01\n",
        "2 1\n1x\n",
        "2 1\n101\n",
        "0 1\n\n",
    ],
)
def test_parse_payoff_matrix_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_payoff_matrix(text)
