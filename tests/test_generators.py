"""Generator tests with combinatorial count oracles.

Interval-union counts are checked against the closed form
sum_j C(n+1, 2j): rows with at most k maximal 1-runs are in bijection with
even-sized subsets of n+1 gap positions.  Union rows and halfspace labels
are also checked against entry-by-entry scalar oracles.
"""

import hashlib
import itertools
import logging
import math

import numpy as np
import pytest

from vccompress import ConfigError, generators, vc_dimension
from vccompress.concepts import ConceptClass, _row_ints, serialize_concept_class, shatters
from vccompress.generators import (
    _completed_set,
    _draws,
    full_cube,
    halfspaces_grid,
    intervals,
    k_interval_unions,
    make_concept_class,
    random_vc_capped,
)
from vccompress.seeding import child_seeds, make_rng


def union_count_oracle(n, k):
    return sum(math.comb(n + 1, 2 * j) for j in range(k + 1))


def union_rows_oracle(n, k):
    """Rows with at most k maximal 1-runs, counted by splitting the row's
    bit string at its 0s."""
    return tuple(
        value
        for value in range(1 << n)
        if sum(1 for block in format(value, f"0{n}b").split("0") if block) <= k
    )


def halfspaces_oracle(side, dim, count, seed):
    """Halfspace rows by a scalar loop over every (weight vector, point):
    the label is the sign of sum(w * c) over the coordinates in axis order,
    then the constant feature."""
    coords = []
    for index in range(side**dim):
        rest, point = index, []
        for _ in range(dim):
            rest, axis = divmod(rest, side)
            point.append(2 * axis - side + 1)
        coords.append(point + [1])
    weights = make_rng(seed).normal(size=(count, dim + 1))
    rows = {
        int("".join("1" if sum(w * c for w, c in zip(wv, cv)) > 0 else "0" for cv in coords), 2)
        for wv in weights
    }
    return tuple(sorted(rows))


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_interval_count_matches_closed_form(n):
    c = intervals(n)
    assert len(c.rows) == n * (n + 1) // 2 + 1
    assert c.domain_size == n


def test_interval_vc_dimension_is_two():
    assert vc_dimension(intervals(10)) == 2
    assert vc_dimension(intervals(2)) == 2
    assert vc_dimension(intervals(1)) == 1


@pytest.mark.parametrize(
    "n,k,count",
    [(5, 2, 31), (8, 2, 163), (10, 2, 386)],
)
def test_union_counts_frozen_values(n, k, count):
    c = k_interval_unions(n, k)
    assert len(c.rows) == count
    assert count == union_count_oracle(n, k)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_union_counts_match_oracle(n, k):
    rows = k_interval_unions(n, k).rows
    assert len(rows) == union_count_oracle(n, k)
    assert rows == union_rows_oracle(n, k)


def test_union_vc_dimension_is_twice_k():
    assert vc_dimension(k_interval_unions(8, 2)) == 4
    assert vc_dimension(k_interval_unions(6, 1)) == 2


def test_union_guard():
    with pytest.raises(ValueError):
        k_interval_unions(17, 2)


def test_full_cube_shatters_everything():
    c = full_cube(3)
    assert len(c.rows) == 8
    assert vc_dimension(c) == 3
    with pytest.raises(ValueError):
        full_cube(13)


def test_halfspaces_grid_properties():
    c = halfspaces_grid(4, 2, count=64, seed=3)
    assert c.domain_size == 16
    assert len(set(c.rows)) == len(c.rows)
    assert vc_dimension(c) <= 3
    again = halfspaces_grid(4, 2, count=64, seed=3)
    assert c == again
    assert halfspaces_grid(4, 2, count=64, seed=4) != c


@pytest.mark.parametrize(
    "side,dim", [(side, dim) for side in range(2, 9) for dim in range(1, 5) if side**dim <= 4096]
)
def test_halfspaces_grid_matches_the_scalar_loop(side, dim):
    for seed in (0, 1, 7):
        for count in (5, 64):
            c = halfspaces_grid(side, dim, count=count, seed=seed)
            assert c.domain_size == side**dim
            assert c.rows == halfspaces_oracle(side, dim, count, seed)


def test_random_vc_capped_respects_the_cap():
    c = random_vc_capped(7, 2, 24, seed=5)
    assert vc_dimension(c) <= 2
    assert 1 <= len(c.rows) <= 24
    assert c == random_vc_capped(7, 2, 24, seed=5)


def test_random_vc_capped_leaves_the_dimension_cache_alone():
    kept = ConceptClass.from_row_ints(5, [0, 3, 12, 17])
    vc_dimension(kept)
    before = vc_dimension.cache_info()
    random_vc_capped(12, 3, 60)
    assert vc_dimension.cache_info() == before
    vc_dimension(kept)
    assert vc_dimension.cache_info().hits == before.hits + 1


def test_random_vc_capped_singleton():
    c = random_vc_capped(6, 0, 1, seed=1)
    assert len(c.rows) == 1
    assert vc_dimension(c) == 0


def replayed_vc_capped(n, vc_cap, max_concepts, seed):
    """The class grown with no remembered sets: one row drawn per call, and
    one capped search over every distinct candidate's tentative class.
    Returns the rows and the number of candidates drawn."""
    rng = make_rng(seed)
    rows, draws = set(), 0
    for _ in range(50 * max_concepts):
        if len(rows) >= max_concepts:
            break
        draws += 1
        candidate = _row_ints(rng.integers(0, 2, size=(1, n)))[0]
        if candidate in rows:
            continue
        if vc_dimension(ConceptClass.from_row_ints(n, rows | {candidate}), vc_cap + 1) <= vc_cap:
            rows.add(candidate)
    return ConceptClass.from_row_ints(n, rows), draws


@pytest.mark.parametrize(
    "n, vc_cap, max_concepts, seed",
    [
        (7, 2, 24, 5),
        (10, 2, 40, 1),
        (12, 3, 60, 0),
        (6, 0, 1, 0),  # vc_cap = 0
        (5, 1, 6, 1),
        (9, 1, 20, 2),
        (6, 6, 64, 1),  # vc_cap + 1 > n: nothing is ever rejected
        (1, 0, 2, 0),  # n = 1
    ],
)
def test_random_vc_capped_replays_the_search_only_growth(n, vc_cap, max_concepts, seed):
    grown, _ = replayed_vc_capped(n, vc_cap, max_concepts, seed)
    assert random_vc_capped(n, vc_cap, max_concepts, seed) == grown


@pytest.mark.parametrize("n, count", [(1, 70_000), (7, 20_000), (3000, 50), (70_000, 3)])
def test_block_draws_take_the_stream_of_one_row_per_call(n, count):
    # blocks of max(1, 2**16 // n) rows: 65,536 and 9,362 rows, 21 rows, 1 row
    rng = make_rng(3)
    drawn = list(_draws(make_rng(3), n, count))
    one_by_one = np.vstack([rng.integers(0, 2, size=(1, n)) for _ in range(count)])
    assert drawn == _row_ints(one_by_one)


def kept_columns(n, rows):
    """random_vc_capped's columns, bit by bit: per row-int bit, the rows
    holding a 1 there, row i as bit i."""
    return [sum(1 << i for i, row in enumerate(rows) if row >> b & 1) for b in range(n)]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("vc_cap", range(4))
def test_completed_set_agrees_with_brute_force(n, vc_cap):
    # kept classes from the replayed growth, cut at several sizes; every row
    # not kept is a candidate
    k = vc_cap + 1
    for max_concepts, seed in [(3, 0), (9, 1), (40, 0), (40, 2)]:
        grown, _ = replayed_vc_capped(n, vc_cap, max_concepts, seed)
        rows, kept = list(grown.rows), ConceptClass.from_row_ints(n, grown.rows)
        columns = kept_columns(n, rows)
        for candidate in sorted(set(range(1 << n)) - set(rows)):
            tentative = ConceptClass.from_row_ints(n, [*rows, candidate])
            completed = [s for s in itertools.combinations(range(n), k) if shatters(tentative, s)]
            found, _ = _completed_set(candidate, rows, columns, k)
            assert bool(found) == bool(completed), (max_concepts, seed, candidate)
            if found:
                points = tuple(x for x in range(n) if found >> (n - 1 - x) & 1)
                assert found < 1 << n and len(points) == k
                assert points in completed and shatters(kept, points) is None


def test_random_vc_capped_logs_its_counts(caplog, monkeypatch):
    searches = []
    search = generators._completed_set

    def recorded(candidate, rows, columns, k):
        searches.append(search(candidate, rows, columns, k))
        return searches[-1]

    monkeypatch.setattr(generators, "_completed_set", recorded)
    with caplog.at_level(logging.DEBUG, logger="vccompress.generators"):
        c = random_vc_capped(12, 3, 60, seed=0)
    [record] = [r for r in caplog.records if r.name == "vccompress.generators"]
    candidates, duplicates, remembered, kept, rejected, nodes, stop = record.args[3:]
    _, draws = replayed_vc_capped(12, 3, 60, 0)
    assert candidates + duplicates == draws
    assert remembered + kept + rejected == candidates
    assert kept == len(c) == 60
    # one search per candidate no remembered set decides; each set found is
    # a 4-set, remembered
    assert len(searches) == kept + rejected
    assert sum(found != 0 for found, _ in searches) == rejected
    assert all(found.bit_count() == 4 for found, _ in searches if found)
    assert nodes == sum(visited for _, visited in searches) > 0
    assert stop == "at max_concepts"
    assert remembered > candidates / 2
    assert record.getMessage().startswith(
        f"random_vc_capped(12, 3, 60): {candidates} distinct candidates, {duplicates} duplicates; "
    )


@pytest.mark.parametrize(
    "args, replayed_max, stop",
    [
        ((4, 1, 10_000, 0), 5, "at the Sauer-Shelah bound"),  # C(4, 0) + C(4, 1) rows
        ((6, 7, 100, 1), 64, "at the Sauer-Shelah bound"),  # vc_cap > n: all 2^6 rows
        ((5, 3, 27, 1), 27, "with its draws exhausted"),  # stuck at 25 of the bound's 26
        ((7, 2, 24, 5), 24, "at max_concepts"),
    ],
)
def test_random_vc_capped_stops_at_the_sauer_shelah_bound(caplog, args, replayed_max, stop):
    # the bound's stop keeps the rows and draws no candidate after the last
    # row it keeps; without it (4, 1, 10_000) drew 500,000
    n, vc_cap, _, seed = args
    with caplog.at_level(logging.DEBUG, logger="vccompress.generators"):
        c = random_vc_capped(*args)
    [record] = [r for r in caplog.records if r.name == "vccompress.generators"]
    candidates, duplicates = record.args[3:5]
    grown, draws = replayed_vc_capped(n, vc_cap, replayed_max, seed)
    assert c == grown
    assert candidates + duplicates == draws
    assert record.getMessage().endswith(f"stopped {stop}")


# sha256 of the serialized rows of every parameter set the package, the
# demos, the benchmark and the tests grow, as the search-only growth made them
SUITE_4, SUITE_3 = child_seeds(0, 4), child_seeds(0, 3)  # run_suite(0)'s seeds
PINNED_ROWS = [
    ((7, 2, 24, SUITE_4[1]), "abe7282b2fcd872f3aba711a1763c0358132deaf022c8770f6428d457fb88cb6"),
    ((6, 0, 1, SUITE_4[2]), "9ace69f7b365b57868dbe643e537e4317dc480db67a73611a009468e40deed0d"),
    ((10, 2, 40, SUITE_3[1]), "288ca464f90d04a4a777de962d6a077ef0c9d4c9c9c00779ea6c29d77a4d320f"),
    ((12, 3, 60, SUITE_3[2]), "abfe91d4da64f2de69472b5ff094cae0d60177db32b2606d72e91e703ad6cd2c"),
    ((12, 2, 30, 5), "c5d784a243dd3a6cfd5a972a996ca856172317a2829796bf4752ee00748372e1"),
    ((10, 2, 40, 3), "15da310654148370ccb5eeebd3be968dd3cfbd5b662a920381b3fc10ff53f45a"),
    ((12, 3, 60, 0), "4451e67d42c0a5f62e851ad45efb1483492125d1eca60636c09804a0c0ed4054"),
    ((8, 2, 24, 1), "96ff8a7a0cceb26d43dad7b714170f4ed444100e896e07aa27c1f3e363fa018d"),
    ((7, 2, 24, 5), "4ec15eabcb41ee090eb4d2cd17b67d4b73909b09b5036393e44784c42054628a"),
    ((6, 0, 1, 1), "7845bab0b4a747e82a035d8126b3f188f2b0d608d14fd7427dbc29eeaf12bf8e"),
    ((5, 1, 6, 1), "e32f082d4331fdd0a042155c2c92aa00ab58919cbb9f376c2f2785537bcf2ee7"),
]


@pytest.mark.parametrize(
    "args, digest", PINNED_ROWS, ids=["-".join(map(str, args)) for args, _ in PINNED_ROWS]
)
def test_random_vc_capped_rows_are_pinned(args, digest):
    text = serialize_concept_class(random_vc_capped(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_make_concept_class_dispatch():
    c = make_concept_class({"kind": "intervals", "n": 5})
    assert c == intervals(5)


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 5},
        {"kind": "moebius", "n": 5},
        {"kind": "intervals"},
        {"kind": "intervals", "n": -2},
        {"kind": "intervals", "n": 5, "extra": 1},
        {"kind": "intervals", "n": 362},
        {"kind": "file", "path": "x"},
        # one margin past 2**24: two grid points, 2**23 + 1 weight vectors
        {"kind": "halfspaces_grid", "side": 2, "dim": 1, "count": (1 << 23) + 1},
    ],
)
def test_make_concept_class_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        make_concept_class(spec)


@pytest.mark.parametrize(
    "generator,params,name",
    [
        (intervals, {"n": 2.5}, "domain size"),
        (full_cube, {"n": 2.5}, "domain size"),
        (k_interval_unions, {"n": 6.0, "k": 1}, "domain size"),
        (k_interval_unions, {"n": 6, "k": 1.5}, "union count"),
        (halfspaces_grid, {"side": 2.5, "dim": 2}, "side"),
        (halfspaces_grid, {"side": 3, "dim": 2.0}, "dim"),
        (halfspaces_grid, {"side": 3, "dim": 2, "count": 4.5}, "count"),
        (random_vc_capped, {"n": 5.5, "vc_cap": 2, "max_concepts": 10}, "domain size"),
        (random_vc_capped, {"n": 5, "vc_cap": 1.5, "max_concepts": 10}, "vc_cap"),
        (random_vc_capped, {"n": 5, "vc_cap": 1, "max_concepts": 10.0}, "max_concepts"),
    ],
)
def test_generators_refuse_non_integer_sizes(generator, params, name):
    # each once escaped as a raw TypeError or was truncated (k = 1.5 built
    # the k = 1 class, vc_cap = 1.5 capped at 1)
    with pytest.raises(ValueError, match=f"{name} .* must be an integer"):
        generator(**params)
    with pytest.raises(ConfigError, match="must be an integer"):
        make_concept_class({"kind": generator.__name__, **params})


@pytest.mark.parametrize(
    "generator, params, message",
    [
        (k_interval_unions, {"n": 0, "k": 1}, "domain size and union count must be positive"),
        (k_interval_unions, {"n": 6, "k": 0}, "domain size and union count must be positive"),
        (full_cube, {"n": 0}, "domain size must be positive"),
        (halfspaces_grid, {"side": 1, "dim": 2}, "grid needs side >= 2 and dim >= 1"),
        (halfspaces_grid, {"side": 3, "dim": 0}, "grid needs side >= 2 and dim >= 1"),
        (halfspaces_grid, {"side": 65, "dim": 2}, r"grid too large; side\*\*dim must be <= 4096"),
        (halfspaces_grid, {"side": 3, "dim": 2, "count": 0}, "count must be positive"),
        (random_vc_capped, {"n": 0, "vc_cap": 1, "max_concepts": 5}, "need n >= 1"),
        (random_vc_capped, {"n": 5, "vc_cap": -1, "max_concepts": 5}, "vc_cap >= 0"),
        (random_vc_capped, {"n": 5, "vc_cap": 1, "max_concepts": 0}, "max_concepts >= 1"),
    ],
)
def test_generators_refuse_sizes_out_of_range(generator, params, message):
    with pytest.raises(ValueError, match=message) as exc:
        generator(**params)
    assert not isinstance(exc.value, ConfigError)
    with pytest.raises(ConfigError, match=message):
        make_concept_class({"kind": generator.__name__, **params})


def test_generators_accept_bools_and_numpy_integers():
    assert intervals(np.int64(5)) == intervals(5)
    assert full_cube(True) == full_cube(1)
    assert k_interval_unions(np.int32(6), np.int64(2)) == k_interval_unions(6, 2)
    assert halfspaces_grid(np.int64(3), 2, count=np.int64(8)) == halfspaces_grid(3, 2, count=8)
    assert random_vc_capped(5, np.int64(1), 6, seed=1) == random_vc_capped(5, 1, 6, seed=1)
