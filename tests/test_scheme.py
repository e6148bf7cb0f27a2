"""Round-trip and codec tests for the compression scheme.

Varint and side-info cases carry hand-computed byte strings as fixed oracles;
the scheme tests lean on exact reconstruction (a strict equality, not a
tolerance) plus the documented size bound.
"""

import collections
import dataclasses
import hashlib
import logging
import math
import random
import struct
import subprocess
import sys
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccompress import (
    ConceptClass,
    DecodeError,
    IntegrityError,
    LabeledSample,
    UnrealizableError,
    compress,
    deserialize_compressed,
    reconstruct,
    serialize_compressed,
    verify_round_trip,
)
from vccompress import approx, concepts, dual_class, game, generators, learner, scheme, vc_dimension
from vccompress.approx import approximation_size_bound
from vccompress.scheme import (
    MAGIC,
    MAX_VOTES,
    CompressedSample,
    _decode_varint,
    _encode_side_info,
    _encode_varint,
    decode_side_info,
    scheme_size_bound,
)


def intervals_class(n):
    rows = {0}
    for a in range(n):
        for b in range(a, n):
            rows.add(((1 << (b - a + 1)) - 1) << (n - 1 - b))
    return ConceptClass.from_row_ints(n, sorted(rows))


def _counted_mixture_class():
    """A class on 7 points whose concept 24, sampled everywhere, rounds to
    the votes ((10, 2), (15, 1), (19, 1), (21, 1)): four runs, one voting
    twice."""
    rows = [6, 9, 20, 22, 40, 43, 48, 49, 53, 56, 60, 74, 75, 77, 84, 95, 101, 102, 103]
    return ConceptClass.from_row_ints(7, rows + [106, 109, 112, 119, 121, 124, 126])


# -- varints --


@pytest.mark.parametrize(
    "value,encoded",
    [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
        (16384, b"\x80\x80\x01"),
    ],
)
def test_varint_known_encodings(value, encoded):
    assert _encode_varint(value) == encoded
    assert _decode_varint(encoded, 0) == (value, len(encoded))


def test_varint_rejects_truncation_and_overlength():
    with pytest.raises(DecodeError):
        _decode_varint(b"\x80", 0)
    with pytest.raises(DecodeError):
        _decode_varint(b"\x80" * 11, 0)
    with pytest.raises(ValueError):
        _encode_varint(-1)


def test_varint_rejects_overlong_encodings():
    # a zero final byte after a continuation byte spells a value a second way
    for overlong in (b"\x80\x00", b"\xff\x00", b"\xac\x82\x00", b"\x80\x80\x00"):
        with pytest.raises(DecodeError):
            _decode_varint(overlong, 0)
    # so a container cannot alias another through its domain-size varint
    c = intervals_class(10)
    compressed, _ = compress(c, LabeledSample.from_concept(c, 3, range(10)), seed=0)
    data = serialize_compressed(compressed)
    assert data[len(MAGIC)] == 10
    # (under a valid CRC, so that the varint is what gets rejected)
    aliased = _seal(b"\x8a\x00" + data[len(MAGIC) + 1 : -4])
    with pytest.raises(DecodeError, match="minimally"):
        deserialize_compressed(aliased)


@given(st.integers(min_value=0, max_value=2**63))
def test_varint_round_trip(value):
    encoded = _encode_varint(value)
    assert _decode_varint(encoded, 0) == (value, len(encoded))


# -- side info --


def test_side_info_round_trip_and_checksum():
    # three runs over a 6-point kernel, with no run count: each run's mask
    # (bit i for kernel position i) as one LSB-first byte and its count
    runs = ((0b100101, 2), (0, 1), (0b011010, 3))
    blob = _encode_side_info(runs, 6)
    assert blob == bytes([0b100101, 2, 0, 1, 0b011010, 3])
    assert decode_side_info(blob, 6) == runs
    # a lone run is implied: the whole kernel, voting once, spelled by no byte
    assert _encode_side_info(((0b111, 1),), 3) == b""
    assert decode_side_info(b"", 3) == ((0b111, 1),)
    # the container's CRC covers the side info: any flipped bit in it raises
    c = CompressedSample(8, (1, 2, 3, 4, 5, 7), 0b010101, runs)
    data = serialize_compressed(c)
    side_start = len(data) - 4 - len(blob)
    for index in range(side_start, len(data) - 4):
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[index] ^= 1 << bit
            with pytest.raises(IntegrityError):
                deserialize_compressed(bytes(corrupted))


def _seal(body):
    """A container of ``body``, the bytes after the magic, under a valid CRC."""
    return MAGIC + body + struct.pack("<I", zlib.crc32(body))


def test_side_info_rejects_masks_past_the_kernel_and_trailing_bytes():
    # the encoder sees only a container's runs, whose constructor refuses
    # masks past the kernel and any lone run but the whole kernel voting once;
    # runs go on to the buffer's end, so a byte past the last run starts a run
    blob = _encode_side_info([(0b11, 1), (0, 1)], 2)
    assert blob == b"\x03\x01\x00\x01"
    wide = _encode_side_info([(0x1FF, 1), (0, 1)], 9)
    assert wide == b"\xff\x01\x01\x00\x00\x01"
    for data, k, message in (
        (blob + b"\x00", 2, "varint truncated"),  # a mask past the last run, no count
        (b"\x03\x01", 2, "implied"),  # a lone run spells no subset
        (b"\x01\x01", 2, "implied"),  # ... nor does one run of part of the kernel
        (b"\x03\x02", 2, "implied"),  # ... nor one run voting twice
        (b"\x01", 0, "implied"),  # a k = 0 kernel's lone run, spelled by its count
        (b"\x03\x01\x00", 2, "varint truncated"),  # a run cut before its count
        (b"\x03\x01\x00\x81", 2, "varint truncated"),  # a run cut mid-count
        (wide[:4], 9, "subset mask truncated"),  # a run cut mid-mask
        (b"\x07\x01\x00\x01", 2, "nonzero padding"),
    ):
        with pytest.raises(DecodeError, match=message):
            decode_side_info(data, k)


@st.composite
def side_info_runs(draw):
    """A kernel size and two or more runs over it, with k-bit masks and
    counts up to 2^40; not necessarily canonical, since the side-info codec
    leaves that to the container."""
    k = draw(st.integers(min_value=0, max_value=20))
    mask = st.integers(min_value=0, max_value=(1 << k) - 1)
    count = st.integers(min_value=1, max_value=2**40)
    return k, tuple(draw(st.lists(st.tuples(mask, count), min_size=2, max_size=8)))


@given(side_info_runs())
def test_side_info_round_trip_any_subsets(case):
    k, runs = case
    blob = _encode_side_info(runs, k)
    assert len(blob) == sum((k + 7) // 8 + len(_encode_varint(n)) for _, n in runs)
    assert decode_side_info(blob, k) == runs
    lone = (((1 << k) - 1, 1),)
    assert _encode_side_info(lone, k) == b""
    assert decode_side_info(b"", k) == lone


# -- compress / reconstruct --


def test_interval_sample_round_trips_exactly():
    c = intervals_class(10)
    target = c.rows.index(0b0011111000)
    sample = LabeledSample.from_concept(c, target, range(10))
    compressed, report = compress(c, sample, seed=4)
    decoded = reconstruct(c, compressed)
    for point, label in sample.label_items:
        assert int(decoded[point]) == label
    assert report.kernel_size == len(compressed.kernel_points)
    assert report.scheme_size == report.kernel_size + report.info_bits
    assert report.details["min_majority_margin"] >= 1


def test_kernel_is_a_labeled_subsample():
    c = intervals_class(10)
    sample = LabeledSample.from_concept(c, 17, range(10))
    compressed, _ = compress(c, sample, seed=1)
    labels = dict(sample.label_items)
    for i, point in enumerate(compressed.kernel_points):
        assert labels[point] == compressed.kernel_labels >> i & 1


def test_singleton_sample_compresses_to_one_vote():
    c = intervals_class(6)
    sample = LabeledSample.from_pairs([(3, 1)])
    compressed, report = compress(c, sample, seed=0)
    assert report.subset_count == 1
    assert compressed.kernel_size <= 1
    decoded = reconstruct(c, compressed)
    assert int(decoded[3]) == 1


def test_empty_sample_round_trips():
    c = intervals_class(5)
    compressed, report = compress(c, LabeledSample.from_pairs([]), seed=0)
    assert compressed.kernel_points == ()
    assert report.kernel_size == 0
    reconstruct(c, compressed)


def test_compression_is_deterministic_per_seed():
    c = intervals_class(9)
    sample = LabeledSample.from_concept(c, 11, range(9))
    first = compress(c, sample, seed=8)
    second = compress(c, sample, seed=8)
    assert first[0] == second[0]
    assert serialize_compressed(first[0]) == serialize_compressed(second[0])


def test_duplicated_points_do_not_change_the_kernel():
    c = intervals_class(8)
    base = LabeledSample.from_concept(c, 9, range(8))
    fat = LabeledSample.from_concept(c, 9, list(range(8)) * 50)
    a, _ = compress(c, base, seed=2)
    b, _ = compress(c, fat, seed=2)
    assert a == b


def test_unrealizable_sample_is_rejected():
    c = intervals_class(6)
    # an interval cannot be 1 at both ends and 0 in the middle
    sample = LabeledSample.from_pairs([(0, 1), (3, 0), (5, 1)])
    with pytest.raises(UnrealizableError):
        compress(c, sample)


def test_point_outside_the_domain_is_rejected():
    c = intervals_class(6)
    sample = LabeledSample.from_pairs([(1, 1), (2, 1), (6, 0)])
    with pytest.raises(ValueError, match="point 6 outside domain of size 6") as exc:
        compress(c, sample)
    assert not isinstance(exc.value, UnrealizableError)


def test_scheme_size_respects_its_bound_and_ignores_sample_length():
    c = intervals_class(10)
    target = c.rows.index(0b0111110000)
    reports = []
    for count in (10, 200, 2000):
        rng = np.random.default_rng(count)
        points = rng.integers(0, 10, size=count)
        sample = LabeledSample.from_concept(c, target, points)
        _, report = compress(c, sample, seed=6)
        reports.append(report)
        bound = scheme_size_bound(
            report.details["vc_dimension"],
            report.details["dual_vc_dimension"],
            report.subset_budget,
        )
        assert report.scheme_size <= bound
    assert len({r.subset_budget for r in reports}) == 1


def test_verify_round_trip_passes_and_checks_hypotheses():
    c = intervals_class(10)
    for target in (0, 5, 25, 40):
        sample = LabeledSample.from_concept(c, target % len(c.rows), range(10))
        result = verify_round_trip(c, sample)
        assert result.passed
        assert result.hypotheses_match
        assert result.size_within_bound
        assert result.mismatches == ()


def _flips_a_byte(compressed):
    """serialize_compressed with one byte flipped after the CRC is taken."""
    data = serialize_compressed(compressed)
    return data[:-5] + bytes([data[-5] ^ 1]) + data[-4:]


def _spells_the_lone_run(runs, k):
    """_encode_side_info without its lone-run case."""
    return b"".join(scheme._pack_bits(mask, k) + scheme._encode_varint(count) for mask, count in runs)


@pytest.mark.parametrize(
    "name, broken, error",
    [
        ("serialize_compressed", _flips_a_byte, IntegrityError),
        ("_encode_side_info", _spells_the_lone_run, DecodeError),
    ],
    ids=["flipped-byte", "spelled-lone-run"],
)
def test_verify_round_trip_relearns_from_the_wire(monkeypatch, name, broken, error):
    # a point mass: one run, so its side info is empty on the wire
    c = intervals_class(10)
    sample = LabeledSample.from_concept(c, 17, range(10))
    assert verify_round_trip(c, sample).passed
    monkeypatch.setattr(scheme, name, broken)
    with pytest.raises(error):
        verify_round_trip(c, sample)


def test_random_classes_round_trip():
    rng = np.random.default_rng(77)
    for trial in range(8):
        matrix = rng.integers(0, 2, size=(30, 9))
        c = ConceptClass.from_rows(np.unique(matrix, axis=0).tolist())
        concept = int(rng.integers(0, len(c.rows)))
        points = rng.integers(0, 9, size=int(rng.integers(1, 15)))
        sample = LabeledSample.from_concept(c, concept, points)
        result = verify_round_trip(c, sample)
        assert result.passed, result


def test_reconstruct_rejects_mismatched_domains():
    c = intervals_class(6)
    compressed, _ = compress(c, LabeledSample.from_concept(c, 3, range(6)), seed=0)
    with pytest.raises(IntegrityError):
        reconstruct(intervals_class(7), compressed)


def test_reconstruct_rejects_inconsistent_subsets():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    bad = CompressedSample(2, (0, 1), 0b11, ((0b11, 1),))
    with pytest.raises(IntegrityError):
        reconstruct(c, bad)


# -- container serialization --


def test_serialized_container_round_trips():
    c = intervals_class(10)
    sample = LabeledSample.from_concept(c, 33, range(10))
    compressed, _ = compress(c, sample, seed=5)
    blob = serialize_compressed(compressed)
    assert blob.startswith(MAGIC)
    assert deserialize_compressed(blob) == compressed
    # a container is its four wire fields and caches nothing beside them
    assert vars(compressed).keys() == {"domain_size", "kernel_points", "kernel_labels", "runs"}


def test_deserialize_rejects_bad_magic_and_trailing_bytes():
    c = intervals_class(6)
    compressed, _ = compress(c, LabeledSample.from_concept(c, 2, range(6)), seed=0)
    blob = serialize_compressed(compressed)
    with pytest.raises(DecodeError):
        deserialize_compressed(b"XX" + blob[2:])
    with pytest.raises((DecodeError, IntegrityError)):
        deserialize_compressed(blob + b"\x00")


# `subsets` holds each case's runs over the kernel (1, 3): one (mask, count)
# pair per voter, bit i of the mask for kernel position i
@pytest.mark.parametrize(
    "subsets,message",
    [
        ((), "nonempty tuple"),
        ([(0b11, 1)], "nonempty tuple"),
        (((0b10, 1), (1.0, 1)), "nonnegative integers"),
        (((-1, 1),), "nonnegative integers"),
        (((0b01, 1), (-0b10, 1)), "nonnegative integers"),
        (((0b111, 1),), "exactly the kernel positions"),
        (((0b01, 1), (0b100, 1)), "exactly the kernel positions"),
        (((0b01, 1), (0, 1)), "exactly the kernel positions"),
        (((0b11,),), "a \\(subset, count\\) pair"),
        (((0b11, 1), 1), "a \\(subset, count\\) pair"),
    ],
)
def test_container_rejects_invalid_position_subsets(subsets, message):
    with pytest.raises(ValueError, match=message) as exc:
        CompressedSample(4, (1, 3), 0b01, subsets)
    assert not isinstance(exc.value, (DecodeError, IntegrityError))


@pytest.mark.parametrize(
    "fields,message",
    [
        ((4, [1, 3], 0b01, ((0b11, 1),)), "kernel points must be a tuple of integers"),
        ((4, (1.0, 3), 0b01, ((0b11, 1),)), "kernel points must be a tuple of integers"),
        ((4, (1, 3), 1.0, ((0b11, 1),)), "kernel labels must be an integer mask of k bits"),
        ((4, (1, 3), (1, 0), ((0b11, 1),)), "kernel labels must be an integer mask of k bits"),
        ((4, (1, 3), 0b01, ((3.0, 1),)), "run masks must be nonnegative"),
        ((4.5, (1, 3), 0b01, ((0b11, 1),)), "domain size must be a positive integer"),
        ((4, (1, 3), 0b01, ((0b11, 1.0),)), "run counts must be positive integers"),
        ((4, (1, 3), 0b01, ((1.0, 1), (2, 1))), "run masks must be nonnegative"),
        ((4, (1, 3), -1, ((0b11, 1),)), "kernel labels must be an integer mask of k bits"),
        ((4, (1, 3), 0b100, ((0b11, 1),)), "kernel labels must be an integer mask of k bits"),
        ((4, (1, 4), 0b01, ((0b11, 1),)), "kernel points must lie inside the domain"),
    ],
)
def test_container_requires_tuples_of_integers(fields, message):
    # without these checks each would construct, then fail to hash, compare,
    # encode or round-trip
    with pytest.raises(ValueError, match=message):
        CompressedSample(*fields)


def test_container_accepts_bools_as_the_integers_they_equal():
    ints = CompressedSample(4, (1, 3), 1, ((1, 1), (2, 1)))
    bools = CompressedSample(4, (True, 3), True, ((True, True), (2, True)))
    assert bools == ints
    assert serialize_compressed(bools) == serialize_compressed(ints)


def test_deserialize_reports_invalid_containers_as_decode_errors():
    valid = CompressedSample(4, (1, 3), 0b01, ((0b11, 1),))
    blob = serialize_compressed(valid)
    # the lone run spells no side info: the labels are followed by the CRC
    assert blob == _seal(bytes([4, 2, 1, 2, 0b01]))
    header = bytes([4, 2, 1, 2, 0b01])
    for side_info, message in (
        (b"\x01\x01\x00\x01", "cover exactly"),  # kernel position 1 left uncovered
        (b"\x03\x01", "implied"),  # the lone run spelled out: the whole kernel voting once
        (b"\x01\x01", "implied"),  # one spelled run of part of the kernel
        (b"\x03\x01\x00", "varint truncated"),  # a run cut before its count
        (b"\x03\x01\x01\x80", "varint truncated"),  # a run cut mid-count
    ):
        with pytest.raises(DecodeError, match=message):
            deserialize_compressed(_seal(header + side_info))
    # a 9-point kernel's second run cut mid-mask
    wide = serialize_compressed(CompressedSample(10, tuple(range(9)), 0, ((0x1FF, 1), (1, 1))))
    assert wide[-10:-4] == b"\xff\x01\x01\x01\x00\x01"
    with pytest.raises(DecodeError, match="subset mask truncated"):
        deserialize_compressed(_seal(wide[len(MAGIC) : -6]))
    # a k = 0 kernel decodes from no side info; a spelled run, or two, fail
    empty_kernel = CompressedSample(4, (), 0, ((0, 1),))
    assert serialize_compressed(empty_kernel) == _seal(bytes([4, 0]))
    for side_info, message in ((b"\x01", "implied"), (b"\x01\x01", "distinct")):
        with pytest.raises(DecodeError, match=message):
            deserialize_compressed(_seal(bytes([4, 0]) + side_info))
    # a VCSC02 container, under its own valid CRC
    body = bytes([4, 2, 1, 2, 0b01, 1])
    with pytest.raises(DecodeError, match="bad magic"):
        deserialize_compressed(b"VCSC02" + body + struct.pack("<I", zlib.crc32(body)))
    # kernel points 1, 1: a zero delta, rejected by the constructor
    with pytest.raises(DecodeError, match="strictly ascending"):
        deserialize_compressed(_seal(bytes([4, 2, 1, 0, 0b01])))
    # kernel points 1, 3 with their label byte cut off, under a valid CRC
    with pytest.raises(DecodeError, match="label bits truncated"):
        deserialize_compressed(_seal(bytes([4, 2, 1, 2])))
    # ... and with a label bit past k = 2 in their label byte
    with pytest.raises(DecodeError, match="nonzero padding in label bits"):
        deserialize_compressed(_seal(bytes([4, 2, 1, 2, 0b101])))
    # a container too short to hold its CRC
    with pytest.raises(DecodeError, match="shorter than its checksum"):
        deserialize_compressed(MAGIC + b"\x00\x00\x00")


# Each non-canonical form, as runs over the kernel (1, 3) of domain 4, as
# the side info that would spell it, and as the messages of the
# constructor's and the decoder's refusals: the decoder refuses mask bits
# past k as padding and a spelled lone run before the constructor sees
# them, and every other form for the constructor's own reason.
NON_CANONICAL = [
    ("repeated run subsets", ((0b11, 1), (0b11, 1)), b"\x03\x01\x03\x01", "distinct", "distinct"),
    ("a count of 0", ((0b11, 1), (0b01, 0)), b"\x03\x01\x01\x00", "positive", "positive"),
    ("counts with a gcd above 1", ((0b11, 2), (0b01, 4)), b"\x03\x02\x01\x04", "gcd", "gcd"),
    ("a lone run voting twice", ((0b11, 2),), b"\x03\x02", "gcd", "implied"),
    (
        "mask bits past k",
        ((0b111, 1), (0b01, 1)), b"\x07\x01\x01\x01", "kernel positions", "nonzero padding",
    ),
    (
        "over 2^32 votes",
        ((0b11, 1 << 31), (0b01, (1 << 31) + 1)),
        b"\x03" + _encode_varint(1 << 31) + b"\x01" + _encode_varint((1 << 31) + 1),
        "at most",
        "at most",
    ),
]


@pytest.mark.parametrize(
    "runs,side_info,message,decode_message",
    [case[1:] for case in NON_CANONICAL],
    ids=[case[0] for case in NON_CANONICAL],
)
def test_non_canonical_runs_are_refused(runs, side_info, message, decode_message):
    with pytest.raises(ValueError, match=message) as exc:
        CompressedSample(4, (1, 3), 0b01, runs)
    assert not isinstance(exc.value, (DecodeError, IntegrityError))
    with pytest.raises(DecodeError, match=decode_message):
        deserialize_compressed(_seal(bytes([4, 2, 1, 2, 0b01]) + side_info))


def test_the_vote_cap_admits_exactly_2_to_the_32_votes():
    at_cap = CompressedSample(4, (1, 3), 0b01, ((0b11, 1 << 31), (0b01, (1 << 31) - 1)))
    assert at_cap.subset_count == MAX_VOTES - 1
    assert deserialize_compressed(serialize_compressed(at_cap)) == at_cap
    full = CompressedSample(4, (1, 3), 0b01, ((0b11, (1 << 32) - 1), (0b01, 1)))
    assert full.subset_count == MAX_VOTES == 1 << 32


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=40), max_size=6),
        min_size=1,
        max_size=8,
        unique_by=frozenset,
    ),
    st.lists(st.integers(min_value=1, max_value=2**20), min_size=8, max_size=8),
    st.randoms(use_true_random=False),
)
def test_any_valid_container_encodes_its_subsets_and_round_trips(raw, counts, rnd):
    # the mask bits are ranks in the union of the drawn sets, which is also
    # the kernel, so the distinct masks cover it; counts divided by their
    # gcd make the runs canonical (a lone run votes once)
    kernel = sorted(set().union(*raw))
    rank = {x: i for i, x in enumerate(kernel)}
    g = math.gcd(*counts[: len(raw)])
    runs = tuple((sum(1 << rank[x] for x in s), n // g) for s, n in zip(raw, counts))
    labels = sum(rnd.randint(0, 1) << i for i in range(len(kernel)))
    c = CompressedSample(41, tuple(kernel), labels, runs)
    data = serialize_compressed(c)
    side_info = _encode_side_info(runs, len(kernel))
    assert data[-4 - len(side_info) : -4] == side_info
    assert deserialize_compressed(data) == c


def _spelled_longer(value):
    """``value``'s varint one byte longer: its last byte continued into a
    zero byte, so 0 is spelled 0x80 0x00."""
    encoded = _encode_varint(value)
    return encoded[:-1] + bytes((encoded[-1] | 0x80, 0))


def _spell(fields, longer=None):
    """Body bytes from ``fields``: bytes as they are, ints as varints, the
    one at index ``longer`` spelled one byte longer."""
    spelled = []
    for i, field in enumerate(fields):
        if isinstance(field, int):
            field = (_spelled_longer if i == longer else _encode_varint)(field)
        spelled.append(field)
    return b"".join(spelled)


def _decoded_or_refused(body):
    """The container that ``body`` under a valid CRC decodes to, after
    checking that it serializes back to the same bytes; None when the
    decoder refuses it with DecodeError or IntegrityError.  Anything else
    escapes."""
    data = _seal(body)
    try:
        decoded = deserialize_compressed(data)
    except (DecodeError, IntegrityError):
        return None
    assert serialize_compressed(decoded) == data
    return decoded


def _random_body(rng):
    """Container bytes after the magic, field by field: varints of one byte
    or several, values on both sides of the constructor's rules, and in a
    third of the bodies one varint spelled one byte longer; a fifth of the
    bodies then get one random byte changed, cut or added."""

    def bits(k):  # k bits, now and then with padding set
        width = (k + 7) // 8
        return (rng.getrandbits(k) if rng.random() < 0.9 else rng.getrandbits(8 * width)).to_bytes(
            width, "little"
        )

    k = rng.choice((0, 1, 2, 3, 4, 9, 130))
    gaps = (0, 1, 2, 5, 127, 128, 200, 16384)[rng.random() < 0.7 :]  # a zero gap repeats a point
    fields = [
        rng.choice((1, 2, 5, 127, 128, 300, 20000, 1 << 21)),
        k,
        *(rng.choice(gaps) for _ in range(k)),
        bits(k),
    ]
    for _ in range(rng.choice((0, 0, 0, 2, 2, 3))):
        fields += (bits(k), rng.choice((1, 2, 3, 127, 128, 300, 1 << 32)))
    varints = [i for i, field in enumerate(fields) if isinstance(field, int)]
    body = bytearray(_spell(fields, rng.choice(varints) if rng.random() < 0.3 else None))
    if rng.random() < 0.2:
        index = rng.randrange(len(body) + 1)
        edit = rng.randrange(3)
        if edit == 0 and index < len(body):
            body[index] = rng.randrange(256)
        elif edit == 1:
            del body[index:]
        else:
            body.insert(index, rng.randrange(256))
    return bytes(body)


def test_every_body_under_a_valid_crc_decodes_to_its_own_bytes_or_is_refused():
    # the decoder's side of the bijection: whatever it accepts serializes
    # back to the very bytes it read, and it refuses the rest with its own
    # two errors and nothing else
    rng = random.Random(55)
    accepted = [c for c in (_decoded_or_refused(_random_body(rng)) for _ in range(4000)) if c]
    # accepted containers hold varints of one byte and of several at every
    # position: domain size, kernel size, kernel gaps and run counts
    assert 400 < len(accepted) < 4000
    gaps = [b - a for c in accepted for a, b in zip((0,) + c.kernel_points, c.kernel_points)]
    counts = [count for c in accepted for _, count in c.runs]
    domain_sizes = [c.domain_size for c in accepted]
    kernel_sizes = [c.kernel_size for c in accepted]
    for values in (domain_sizes, kernel_sizes, gaps, counts):
        assert min(values) < 0x80 <= max(values)
    # and random bytes
    for _ in range(2000):
        _decoded_or_refused(rng.randbytes(rng.randrange(12)))


def test_a_varint_spelled_one_byte_longer_is_refused_at_every_position():
    # domain size 300 (two bytes), kernel size 3, gaps 0, 5 and 200 (two
    # bytes), the labels, then two runs with counts 1 and 130 (two bytes):
    # each varint, spelled one byte longer under a valid CRC, is refused,
    # the zero gap as 0x80 0x00.  The second container's domain and kernel
    # sizes are one byte each, so its header is the one the decoder reads
    # inline, and a longer spelling at either position must leave that read
    wide = CompressedSample(300, (0, 5, 205), 0b101, ((0b011, 1), (0b110, 130)))
    wide_fields = [300, 3, 0, 5, 200, bytes((0b101, 0b011)), 1, bytes((0b110,)), 130]
    narrow = CompressedSample(9, (0, 2, 7), 0b101, ((0b011, 1), (0b110, 130)))
    narrow_fields = [9, 3, 0, 2, 5, bytes((0b101, 0b011)), 1, bytes((0b110,)), 130]
    assert _spell(wide_fields, 2)[3:5] == b"\x80\x00"
    assert _spell(narrow_fields)[:2] == b"\x09\x03"
    assert _spell(narrow_fields, 0)[:3] == b"\x89\x00\x03"
    assert _spell(narrow_fields, 1)[:3] == b"\x09\x83\x00"
    for c, fields in ((wide, wide_fields), (narrow, narrow_fields)):
        assert _seal(_spell(fields)) == serialize_compressed(c)
        assert deserialize_compressed(serialize_compressed(c)) == c
        for longer in (0, 1, 2, 3, 4, 6, 8):  # domain, kernel, three gaps, two counts
            with pytest.raises(DecodeError, match="not minimally encoded"):
                deserialize_compressed(_seal(_spell(fields, longer)))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32), st.data())
def test_deserialize_survives_single_byte_corruption(seed, data):
    # the CRC covers every byte after the magic, so no single-byte change
    # anywhere decodes
    c = intervals_class(8)
    sample = LabeledSample.from_concept(c, seed % len(c.rows), range(8))
    compressed, _ = compress(c, sample, seed=0)
    blob = bytearray(serialize_compressed(compressed))
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    blob[index] ^= flip
    with pytest.raises((DecodeError, IntegrityError)):
        deserialize_compressed(bytes(blob))


def _flip_containers():
    """The golden containers and a mixture whose runs have counts 2, 1, 1, 1."""
    containers = []
    for _, make, concept, points, seed, *_ in GOLDEN_CONTAINERS:
        c = make()
        if concept is None:
            sample = LabeledSample.from_pairs([])
        else:
            sample = LabeledSample.from_concept(c, concept, points)
        containers.append(compress(c, sample, seed=seed)[0])
    c = _counted_mixture_class()
    containers.append(compress(c, LabeledSample.from_concept(c, 24, range(7)), seed=0)[0])
    return containers


def test_every_flipped_byte_of_golden_containers_raises():
    # each byte XORed with 0x01, 0x80 and 0xFF: a checksum over the side
    # info alone let such flips of kernel points or labels decode to
    # containers that voted wrong labels
    containers = _flip_containers()
    assert max(len(c.runs) for c in containers) == 4
    mutants = 0
    for compressed in containers:
        blob = serialize_compressed(compressed)
        for index in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                mutant = bytearray(blob)
                mutant[index] ^= mask
                with pytest.raises((DecodeError, IntegrityError)):
                    deserialize_compressed(bytes(mutant))
                mutants += 1
    assert mutants == 3 * sum(len(serialize_compressed(c)) for c in containers)


def test_fresh_process_reconstruction(tmp_path):
    c = intervals_class(10)
    target = c.rows.index(0b0001111110)
    sample = LabeledSample.from_concept(c, target, range(10))
    compressed, _ = compress(c, sample, seed=13)
    blob_path = tmp_path / "compressed.bin"
    blob_path.write_bytes(serialize_compressed(compressed))
    script = (
        "import sys\n"
        "from vccompress import deserialize_compressed, reconstruct, ConceptClass\n"
        "rows = {0}\n"
        "n = 10\n"
        "for a in range(n):\n"
        "    for b in range(a, n):\n"
        "        rows.add(((1 << (b - a + 1)) - 1) << (n - 1 - b))\n"
        "c = ConceptClass.from_row_ints(n, sorted(rows))\n"
        "blob = open(sys.argv[1], 'rb').read()\n"
        "labels = reconstruct(c, deserialize_compressed(blob))\n"
        "print(''.join(str(int(x)) for x in labels))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(blob_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == format(c.rows[target], "010b")


# -- golden bytes --

# (class, target concept, sample points, seed) -> SHA-256 of the serialized
# container, the reduced vote multiset and the smallest majority margin.
# Recorded before the vote pipeline was rewritten; any refactor of compress
# must reproduce them byte for byte.  The intervals(30) case, a value-1
# agreement game past the exact solver's cap, was recorded with the
# consistent-hypothesis fast path, the halfspaces case, whose one vote the
# double oracle used to find, with the teaching-subset search, and the two
# mixtures with the rounding of the learner's exact weights that keeps the
# first N = 1, 2, ... votes winning every sampled point (3 votes each).
# The digests were re-recorded when containers became VCSC02 (runs, an
# implied lone run, one CRC over the container), and again when they became
# VCSC03 (no run count, so a lone run spells no side info); every kernel,
# label and vote stayed as it was.
GOLDEN_CONTAINERS = [
    (
        "empty sample",
        lambda: generators.intervals(5),
        None,
        [],
        0,
        "f85e53bbbee1789a963721979d5cbbeb095b8bb19a48d0d9ba74947d15c0f3ec",
        ((0, 1),),
        1,
    ),
    (
        "point mass",
        lambda: generators.intervals(10),
        17,
        list(range(10)),
        1,
        "11dc90c00371e7555e098be6852f485d401851483f30faba6ae3cda9c9882e9b",
        ((17, 1),),
        1,
    ),
    (
        "random_vc_capped mixture",
        lambda: generators.random_vc_capped(12, 3, 60),
        30,
        [9, 3, 8, 2, 4, 2],
        1,
        "40022c4d643fa2176670e2098bb78855474e1a3dfc5e31bbc18cbdd7e77f506c",
        ((2, 1), (7, 1), (16, 1)),
        1,
    ),
    (
        "k_interval_unions mixture",
        lambda: generators.k_interval_unions(8, 2),
        158,
        [0, 3, 4, 1, 4, 2, 6, 7],
        102,
        "c8960a212a7a99e5bd3e5be9e17f70aa52a38c35ba700b5cf52f9b5147193ef6",
        ((83, 1), (120, 1), (136, 1)),
        1,
    ),
    (
        "halfspaces past the exhaustive cap",  # 60 distinct points, budget 3
        lambda: generators.halfspaces_grid(8, 2),
        7,
        [(7 * i) % 64 for i in range(60)],
        3,
        "9b0d6013a52651bb1c61e6a670dd3d38aca00f506389059e7e5bfe28623833cd",
        ((7, 1),),
        1,
    ),
    (
        "value-1 game past the exact cap",
        lambda: generators.intervals(30),
        400,
        list(range(30)),
        1,
        "a1f171c3288336b9d16137edcd353658e8407e4526c2771d507b13bd60c40e4a",
        ((400, 1),),
        1,
    ),
]


@pytest.mark.parametrize(
    "make,concept,points,seed,digest,votes,margin",
    [case[1:] for case in GOLDEN_CONTAINERS],
    ids=[case[0] for case in GOLDEN_CONTAINERS],
)
def test_golden_container_bytes(make, concept, points, seed, digest, votes, margin):
    c = make()
    if concept is None:
        sample = LabeledSample.from_pairs([])
    else:
        sample = LabeledSample.from_concept(c, concept, points)
    compressed, report = compress(c, sample, seed=seed)
    assert hashlib.sha256(serialize_compressed(compressed)).hexdigest() == digest
    assert report.details["vote_concepts"] == votes
    assert report.details["min_majority_margin"] == margin
    assert all(type(x) is int for pair in report.details["vote_concepts"] for x in pair)
    assert type(report.details["min_majority_margin"]) is int


def test_golden_mixture_draws_far_below_the_ceiling():
    # the rounding keeps the first winning N = 1, 2, ... votes; a return to
    # ceiling-sized vote counts (4,096 here) fails this test
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, 158, [0, 3, 4, 1, 4, 2, 6, 7])
    _, report = compress(c, sample, seed=102)
    assert report.details["draw_ceiling"] == 4096
    assert 0 < report.details["draw_count"] <= 64


# The six warm classes of the benchmark's round-trip workloads.
GOLDEN_ROSTER = (
    (generators.intervals, (10,)),
    (generators.intervals, (30,)),
    (generators.halfspaces_grid, (5, 2)),
    (generators.halfspaces_grid, (8, 2)),
    (generators.random_vc_capped, (12, 3, 60)),
    (generators.k_interval_unions, (8, 2)),
)


def _golden_ops(classes):
    """48 fixed (class, sample, seed) ops drawn from random.Random("golden"):
    per roster class, three samples of 1-8 points and three of 100-1000;
    the last two classes, the only ones whose samples come out as mixtures,
    get six more samples of 100-1000 points each."""
    rng = random.Random("golden")
    spec = [(index, length) for index in range(6) for length in [(1, 8)] * 3 + [(100, 1000)] * 3]
    spec += [(index, (100, 1000)) for index in (4, 5) for _ in range(6)]
    for index, (low, high) in spec:
        c = classes[index]
        target = rng.randrange(len(c))
        points = [rng.randrange(c.domain_size) for _ in range(rng.randint(low, high))]
        yield c, LabeledSample.from_concept(c, target, points), rng.randrange(1 << 32)


def test_golden_digest_over_the_roster():
    # one digest over the containers, vote multisets and margins of 48 ops,
    # re-recorded when mixtures' votes came to be rounded from the exact
    # weights (the point masses' containers kept every byte), and when
    # containers became VCSC02 and VCSC03 (no kernel, label or vote moved);
    # any change to compress that moves a byte of them fails here
    classes = [make(*args) for make, args in GOLDEN_ROSTER]
    digest = hashlib.sha256()
    mixtures = 0
    for c, sample, seed in _golden_ops(classes):
        compressed, report = compress(c, sample, seed=seed)
        known = report.known_details
        digest.update(serialize_compressed(compressed))
        digest.update(repr((known["vote_concepts"], known["min_majority_margin"])).encode())
        mixtures += known.get("draw_count", 0) > 0
    # the guard keeps covering the learner's game and the rounding
    assert mixtures >= 3
    assert digest.hexdigest() == (
        "32c89c2b866c4c251476c85eaf6c550eb201edf11483ba4d0646e60979c50ec4"
    )


# -- one pass per job --


def _counting(monkeypatch, name, module=scheme):
    """Replace module.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_everywhere(monkeypatch, fn):
    """Rebind every vccompress module's binding of `fn` to a wrapper that
    records its arguments; returns the list of recorded argument tuples."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "vccompress"]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300))
def test_reduced_votes_match_the_counting_loop(multiset):
    counts = {}
    for concept in multiset:  # dicts keep first-appearance order
        counts[concept] = counts.get(concept, 0) + 1
    g = math.gcd(*counts.values())
    expected = tuple((concept, count // g) for concept, count in counts.items())
    # the sampler's call: its draw counted in first-appearance order
    drawn = collections.Counter(multiset)
    votes = scheme._reduced_votes(drawn, drawn.values())
    assert votes == expected
    assert all(type(x) is int for pair in votes for x in pair)
    # the rounding's call: every pool concept in order, zero counts dropped
    pool = range(42)
    assert scheme._reduced_votes(pool, [counts.get(c, 0) for c in pool]) == tuple(sorted(expected))


def test_container_decodes_its_side_info_once(monkeypatch):
    # a point mass and a mixture: compress decodes nothing, and a full
    # round trip, verify_round_trip's own included, decodes once, in
    # deserialize_compressed
    decodes = _counting(monkeypatch, "decode_side_info")
    for c, target in ((generators.intervals(10), 17), (generators.k_interval_unions(8, 2), 30)):
        sample = LabeledSample.from_concept(c, target, range(c.domain_size))
        assert verify_round_trip(c, sample).passed
        assert len(decodes) == 1
        del decodes[:]
        compressed, _ = compress(c, sample, seed=1)
        assert decodes == []
        decoded = deserialize_compressed(serialize_compressed(compressed))
        reconstruct(c, decoded)
        assert decoded.subset_count == compressed.subset_count
        assert len(decodes) == 1
        del decodes[:]


def test_report_reads_the_dimension_the_learner_proved(caplog):
    # target 30 of k_interval_unions(8, 2) is a mixture: the learner's search
    # capped at 5 proves d = 4, so the report's first details read runs no
    # second primal search (the dual's ceiling is at most log2(8) = 3)
    c = generators.k_interval_unions(8, 2)
    vc_dimension.cache_clear()
    dual_class.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
        _, report = compress(c, LabeledSample.from_concept(c, 30, range(8)))
        assert report.details["vc_dimension"] == 4
    lines = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
    assert [line.partition(":")[0] for line in lines] == [
        "vc dimension 2 (ceiling 2)",
        "vc dimension 3 (ceiling 3)",
        "vc dimension 4 (ceiling 4)",
        "vc dimension 4 (ceiling 5)",
        "vc dimension 3 (ceiling 3)",  # the dual search, for details
    ]


def test_reconstruct_learns_each_distinct_subset_once(monkeypatch):
    # a mixture whose rounding gives concept 10 two of its five votes: one
    # run per distinct voter, the first counting 2
    c = _counted_mixture_class()
    sample = LabeledSample.from_concept(c, 24, range(7))
    compressed, report = compress(c, sample, seed=0)
    assert report.details["vote_concepts"] == ((10, 2), (15, 1), (19, 1), (21, 1))
    assert [count for _, count in compressed.runs] == [2, 1, 1, 1]
    assert compressed.subset_count == report.subset_count == 5
    erms = _counting(monkeypatch, "lowest_consistent_concept")
    labels = reconstruct(c, compressed)
    assert len(erms) == len(compressed.runs)
    assert all(int(labels[p]) == label for p, label in sample.label_items)


def test_verify_learns_each_distinct_subset_once(monkeypatch):
    # the vote and the hypotheses check share one ERM per distinct subset
    cases = [
        (generators.k_interval_unions(8, 2), 158, [0, 3, 4, 1, 4, 2, 6, 7], 102),
        (generators.random_vc_capped(12, 3, 60), 30, [9, 3, 8, 2, 4, 2], 1),
        (generators.intervals(10), 17, range(10), 0),
    ]
    for c, target, points, seed in cases:
        sample = LabeledSample.from_concept(c, target, points)
        compressed, _ = compress(c, sample, seed=seed)
        erms = _counting(monkeypatch, "lowest_consistent_concept")
        result = verify_round_trip(c, sample)
        assert result.passed and result.hypotheses_match
        assert len(erms) == len(compressed.runs)


def test_losing_vote_multiset_is_rejected(monkeypatch):
    # a three-vote mixture, so compress reaches the rounding
    c = generators.random_vc_capped(12, 3, 60)
    sample = LabeledSample.from_concept(c, 30, [9, 3, 8, 2, 4, 2])
    # concept 0 disagrees with the target at points 3, 4 and 9: it outvotes
    # the target 2 to 1 there
    assert [p for p, label in sample.label_items if c.value(0, p) != label] == [3, 4, 9]
    # a rounding that returns this multiset at every N loses below 3s, so
    # the search goes on, and at N = 3s, where a certified mixture's
    # majority is strict, the failure surfaces instead of the sampler
    losing = ((30, 1), (0, 2))
    monkeypatch.setattr(scheme, "_rounded_votes", lambda *args: losing)
    sampled = _counting(monkeypatch, "sparsify_mixture")
    with pytest.raises(IntegrityError) as exc:
        compress(c, sample, seed=1)
    assert str(exc.value) == "majority failed at point 3: 1 of 3 votes"
    assert sampled == []


def test_sampler_is_the_fallback_past_the_vote_ceiling(monkeypatch, caplog):
    # with a vote ceiling of 2, below 3s, no rounding up to it wins, so the
    # seeded sampler draws the votes; its votes are the ones it drew before
    # mixtures were rounded.  Only compress sees that ceiling: the
    # report's T and the size bound are the class's own
    certificates = []
    sparsify = scheme.sparsify_mixture

    def keep_certificate(*args):
        certificates.append(sparsify(*args))
        return certificates[-1]

    monkeypatch.setattr(scheme, "sparsify_mixture", keep_certificate)
    cases = [
        (
            generators.random_vc_capped(12, 3, 60), 30, [9, 3, 8, 2, 4, 2], 1,
            "5c4cadb25553238ee53ce6b54df6db9e8184b2df164d4fd98c1a6e22c3eb334c",
        ),
        (
            generators.k_interval_unions(8, 2), 158, [0, 3, 4, 1, 4, 2, 6, 7], 102,
            "0d63f144beb6ddaec71bfcbc9ca339f2ecbae2a340a96f82c485ea1d6b825cd2",
        ),
    ]
    for c, target, points, seed, digest in cases:
        sample = LabeledSample.from_concept(c, target, points)
        del certificates[:]
        caplog.clear()
        with monkeypatch.context() as low, caplog.at_level(logging.DEBUG, "vccompress.scheme"):
            low.setattr(scheme, "_vote_ceiling", lambda dual_dimension: 2)
            compressed, report = compress(c, sample, seed=seed)
        [certificate] = certificates
        [line] = [r.getMessage() for r in caplog.records if r.name == "vccompress.scheme"]
        assert line.endswith(f": {len(certificate.multiset)} votes by sampler")
        assert hashlib.sha256(serialize_compressed(compressed)).hexdigest() == digest
        details = report.details
        assert details["votes_from"] == "sampler"
        assert details["draw_count"] == len(certificate.multiset)
        assert details["draw_ceiling"] == certificate.size_bound
        assert details["sparsification_deviation"] == certificate.max_deviation
        drawn = collections.Counter(certificate.multiset)
        g = math.gcd(*drawn.values())
        assert details["vote_concepts"] == tuple((c, k // g) for c, k in drawn.items())
        # verify_round_trip checks this drawn container
        with monkeypatch.context() as drawn_once:
            drawn_once.setattr(scheme, "compress", lambda *args: (compressed, report))
            assert verify_round_trip(c, sample).passed


def test_each_vote_multiset_is_checked_once(monkeypatch):
    # a rounding checks each N it tries once, the winner included; a point
    # mass (the empty sample too) and a sampler's draw are checked once
    checks = _counting(monkeypatch, "_majority_margin")
    taught = generators.intervals(30)
    mixed = generators.random_vc_capped(12, 3, 60)
    mixture = LabeledSample.from_concept(mixed, 30, [9, 3, 8, 2, 4, 2])
    cases = [
        (taught, LabeledSample.from_concept(taught, 400, range(30)), 1),
        (taught, LabeledSample.from_pairs([]), 1),
        (mixed, mixture, 3),
    ]
    for c, sample, expected in cases:
        del checks[:]
        _, report = compress(c, sample, seed=1)
        assert len(checks) == expected == max(1, report.details["draw_count"])
    # past a vote ceiling of 2, N = 1 and 2 fail and the draw is checked
    monkeypatch.setattr(scheme, "_vote_ceiling", lambda dual_dimension: 2)
    del checks[:]
    _, report = compress(mixed, mixture, seed=1)
    assert report.details["votes_from"] == "sampler"
    assert len(checks) == 3


def _numpy_majority_margin(concept_class, votes, sample):
    """The re-check's earlier numpy formula, kept as its oracle."""
    concepts_, mults = np.array(votes, dtype=np.int64).T
    total_votes = int(mults.sum())
    points = sample.distinct_points
    labels = np.array([label for _, label in sample.label_items], dtype=np.uint8)
    agreement = concept_class.matrix[np.ix_(concepts_, points)] == labels
    margins = 2 * (mults @ agreement) - total_votes
    failing = np.flatnonzero(margins <= 0)
    if failing.size:
        i = int(failing[0])
        raise IntegrityError(
            f"majority failed at point {points[i]}: "
            f"{(total_votes + int(margins[i])) // 2} of {total_votes} votes"
        )
    return int(margins.min())


@st.composite
def votes_over_samples(draw):
    """A random class, a vote multiset over it (multiplicities up to 5, a
    concept may repeat) and a sample with repeated points, labeled by the
    first vote's concept except at a few flipped points."""
    n = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=24))
    c = ConceptClass.from_row_ints(n, rows)
    concept = st.integers(min_value=0, max_value=len(c.rows) - 1)
    votes = draw(
        st.lists(st.tuples(concept, st.integers(min_value=1, max_value=5)), min_size=1, max_size=6)
    )
    points = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=24))
    flipped = draw(st.sets(st.sampled_from(points), max_size=3))
    target = votes[0][0]
    sample = LabeledSample.from_pairs((p, c.value(target, p) ^ (p in flipped)) for p in points)
    return c, tuple(votes), sample


@settings(max_examples=300, deadline=None)
@given(votes_over_samples())
def test_integer_majority_recheck_matches_the_numpy_formula(case):
    c, votes, sample = case
    try:
        expected = _numpy_majority_margin(c, votes, sample)
    except IntegrityError as exc:
        with pytest.raises(IntegrityError) as got:
            scheme._majority_margin(c, votes, sample.label_items)
        assert str(got.value) == str(exc)
    else:
        margin = scheme._majority_margin(c, votes, sample.label_items)
        assert type(margin) is int
        assert margin == expected


@st.composite
def certified_mixtures(draw):
    """An exact mixture p over s <= 12 rows, and 0/1 agreement columns on
    each of which the agreeing rows carry mass at least 2/3: all ones,
    plus columns that disagree on a maximal set of rows, in a drawn order,
    whose mass stays within 1/3 (the hardest columns to win)."""
    s = draw(st.integers(min_value=1, max_value=12))
    weights = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=s, max_size=s))
    p = [Fraction(w, sum(weights)) for w in weights]
    columns = [[1] * s]
    for order in draw(st.lists(st.permutations(range(s)), max_size=8)):
        against = Fraction(0)
        column = [1] * s
        for i in order:
            if against + p[i] <= Fraction(1, 3):
                against += p[i]
                column[i] = 0
        columns.append(column)
    return p, columns


@settings(max_examples=300, deadline=None)
@given(certified_mixtures())
def test_rounding_at_three_s_keeps_every_majority_strict(case):
    p, columns = case
    s = len(p)
    denominator = math.lcm(*(x.denominator for x in p))
    numerators = [x.numerator * (denominator // x.denominator) for x in p]
    votes = scheme._rounded_votes(range(s), numerators, denominator, 3 * s)
    counts = dict(votes)
    total = sum(counts.values())
    scale = 3 * s // total  # the gcd the counts were divided by
    assert scale * total == 3 * s
    assert math.gcd(*counts.values()) == 1
    # largest remainder moves each count by less than 1
    assert all(abs(scale * counts.get(i, 0) - 3 * s * x) < 1 for i, x in enumerate(p))
    for column in columns:
        assert 2 * sum(counts.get(i, 0) for i in range(s) if column[i]) > total
    # the search over N = 1, 2, ... stops by 3s on a class whose rows agree
    # with an all-ones sample as the columns say; a flag point per row keeps
    # the rows distinct
    m = len(columns)
    rows = [
        int("".join(str(column[i]) for column in columns) + "0" * i + "1" + "0" * (s - 1 - i), 2)
        for i in range(s)
    ]
    c = ConceptClass.from_row_ints(m + s, rows)
    hypotheses = [c.rows.index(row) for row in rows]
    n, rounded, margin = scheme._round_mixture(c, hypotheses, p, [(j, 1) for j in range(m)])
    assert n <= 3 * s
    assert margin == scheme._majority_margin(c, rounded, [(j, 1) for j in range(m)]) > 0


@pytest.mark.parametrize("agreement, votes_per_hypothesis", [("2/3", 3), ("3/4", 2)])
def test_sure_count_is_the_least_n_the_margin_makes_strict(
    monkeypatch, agreement, votes_per_hypothesis
):
    # the least N with N * (2a - 1) >= s: with every rounding refused, the
    # search tries N = 1, 2, ... and re-raises at that N
    monkeypatch.setattr(scheme, "WEAK_AGREEMENT", Fraction(agreement))
    tried = []

    def recorded(concepts, numerators, denominator, n):
        tried.append(n)
        return ((concepts[0], 1),)

    def refused(*args):
        raise IntegrityError("no strict majority")

    monkeypatch.setattr(scheme, "_rounded_votes", recorded)
    monkeypatch.setattr(scheme, "_majority_margin", refused)
    p = [Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 4)]  # s = 3
    with pytest.raises(IntegrityError, match="no strict majority"):
        scheme._round_mixture(intervals_class(4), [0, 1, 2, 3], p, [])
    assert tried == list(range(1, 3 * votes_per_hypothesis + 1))


def test_the_sparsifier_keeps_the_weak_margin_strict():
    # a draw within 1/8 of every point's label mass of at least 2/3 leaves
    # the label more than half of the votes
    assert scheme.WEAK_AGREEMENT is learner.WEAK_AGREEMENT
    assert Fraction(scheme.SPARSIFY_EPSILON) < learner.WEAK_AGREEMENT - Fraction(1, 2)


def _reference_container(concept_class, sample, hypothesis_set, votes):
    """The container by the union rule alone, for any number of voters: the
    kernel is the sorted union of the voters' provenance subsets, each run's
    mask has bit i for kernel position i, and the labels are the sample's."""
    provenance_of = dict(zip(hypothesis_set.hypotheses, hypothesis_set.provenance))
    kernel = sorted(set().union(*(provenance_of[concept] for concept, _ in votes)))
    labels = dict(sample.label_items)
    return CompressedSample(
        concept_class.domain_size,
        tuple(kernel),
        sum(labels[x] << i for i, x in enumerate(kernel)),
        tuple(
            (sum(1 << i for i, x in enumerate(kernel) if x in provenance_of[concept]), count)
            for concept, count in votes
        ),
    )


def _round_trip_every_sample(monkeypatch, n, masks, repeats):
    """verify_round_trip on every concept and every point subset (the empty
    one too) of each class on n points whose rows are the set bits of a
    mask, the subset's points taken once per entry of `repeats`.  Each
    container must be ``_reference_container``'s for the learner's pool and
    the reduced votes.  Returns the sha256 over the containers and vote
    multisets, the run, mixture and escalation counts, and how many classes'
    largest kernel exceeds d by 0, 1, ...."""
    containers, pools = [], []
    original_compress, original_build = scheme.compress, scheme.build_hypothesis_set

    def keep_container(*args):
        containers.append(original_compress(*args))
        return containers[-1]

    def keep_pool(*args):
        pools.append(original_build(*args))
        return pools[-1]

    monkeypatch.setattr(scheme, "compress", keep_container)
    monkeypatch.setattr(scheme, "build_hypothesis_set", keep_pool)
    digest = hashlib.sha256()
    runs = mixtures = escalated = 0
    kernel_excess = collections.Counter()
    for mask in masks:
        c = ConceptClass.from_row_ints(n, [row for row in range(1 << n) if mask >> row & 1])
        d = vc_dimension(c)
        ceiling = approximation_size_bound(vc_dimension(dual_class(c)), 1 / 8)
        largest_kernel = 0
        for concept in range(len(c)):
            for subset in range(1 << n):
                points = [x for x in range(n) if subset >> x & 1]
                for repeat in repeats:
                    sample = LabeledSample.from_concept(c, concept, points * repeat)
                    result = verify_round_trip(c, sample)
                    [(compressed, report)] = containers
                    [(hypothesis_set, _)] = pools
                    del containers[:], pools[:]
                    assert report is result.report
                    details = report.known_details
                    assert compressed == _reference_container(
                        c, sample, hypothesis_set, details["vote_concepts"]
                    )
                    assert result.passed, (c.rows, concept, points)
                    assert report.subset_count <= ceiling
                    assert max(m.bit_count() for m, _ in compressed.runs) <= report.subset_budget
                    assert details.get("votes_from", "rounding") == "rounding"
                    if len(compressed.runs) == 1:
                        # a lone run spells no side info: the CRC is all
                        assert report.info_bits == 32
                        assert report.scheme_size == report.kernel_size + 32
                    digest.update(serialize_compressed(compressed))
                    digest.update(repr(details["vote_concepts"]).encode())
                    runs += 1
                    largest_kernel = max(largest_kernel, report.kernel_size)
                    k = len(sample.distinct_points)
                    budget = min(max(1, d), k)
                    if "votes_from" in details:
                        mixtures += 1
                        _, solution = learner.build_hypothesis_set(c, sample)
                        support = sum(1 for x in solution.exact_row_strategy if x)
                        assert details["draw_count"] <= 3 * support
                    else:
                        # a point mass reports its teaching set's size, also
                        # when it was taught only after the budget escalated
                        assert report.subset_budget == min(max(1, report.kernel_size), k)
                        escalated += report.kernel_size > budget
        kernel_excess[largest_kernel - d] += 1
    return digest.hexdigest(), (runs, mixtures, escalated), dict(kernel_excess)


def test_every_sample_on_three_points_round_trips(monkeypatch):
    # all 255 classes on 3 points, every concept, every point subset (the
    # empty one too), each point once and twice: 16,384 round trips, 30 of
    # them mixtures; every mixture is rounded, never sampled, by N = 3s
    digest, counts, kernel_excess = _round_trip_every_sample(monkeypatch, 3, range(1, 256), (1, 2))
    assert counts == (16384, 30, 170)
    # the largest kernel exceeds d on 47 classes, always as d + 1 (the
    # paper promises no kernel of d points)
    assert kernel_excess == {0: 208, 1: 47}
    # the containers and vote multisets, re-recorded when containers became
    # VCSC02 and VCSC03 (no kernel, label or vote moved)
    assert digest == "6340b8e9b39d316d1dda57f4244a5c8a9f0e0388fc209ae67f5f0418086828dc"


def test_seeded_slice_of_the_four_point_classes_round_trips(monkeypatch):
    # 120 of the 65,535 classes on 4 points, every concept and point subset:
    # 14,832 round trips, 121 of them mixtures, all rounded
    masks = random.Random(4).sample(range(1, 1 << 16), 120)
    digest, counts, kernel_excess = _round_trip_every_sample(monkeypatch, 4, masks, (1,))
    assert counts == (14832, 121, 1)
    # the largest kernel reaches d + 2 on nine classes, all at d = 2
    assert kernel_excess == {0: 84, 1: 27, 2: 9}
    assert digest == "b56f88ddc2fa2b22e2af4e57e0df9efac416b3182b9d5fb439e5b476f47d4bc5"


def test_taught_point_masses_share_one_solution(monkeypatch):
    built = _counting(monkeypatch, "__init__", approx.ProbabilityVector)
    c = generators.intervals(12)
    first = LabeledSample.from_concept(c, 30, [1, 4, 7])
    second = LabeledSample.from_concept(c, 50, [2, 9, 2, 10, 11])  # 4 distinct points
    for sample in (first, second):
        _, report = compress(c, sample, seed=0)
        assert len(report.details["vote_concepts"]) == 1
        assert report.details["draw_count"] == 0
    _, one = learner.build_hypothesis_set(c, first)
    _, other = learner.build_hypothesis_set(c, second)
    assert built == []
    assert one is other
    assert one.exact_value == 1 and one.exploitability == 0.0
    assert not one.row_strategy.weights.flags.writeable
    assert not one.col_strategy.weights.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.value_estimate = 0.5


def test_fresh_taught_class_runs_no_full_dimension_search(monkeypatch):
    # a relabelled intervals(16) is in no cache; its point masses of at most
    # d = 2 points need only "is d >= 2?", and verification checks the size
    # bound at d* = 0 first, so neither compress nor verify_round_trip runs
    # an uncapped VC search or builds the dual class
    moved = random.Random(16).sample(range(16), 16)
    c = ConceptClass.from_rows(generators.intervals(16).matrix[:, moved])
    dimensions = _counting_everywhere(monkeypatch, concepts.vc_dimension)
    duals = _counting_everywhere(monkeypatch, concepts.dual_class)
    for target in (17, 60, 136):
        sample = LabeledSample.from_concept(c, target, range(16))
        _, report = compress(c, sample)
        assert report.known_details["draw_count"] == 0 and report.kernel_size <= 2
        assert verify_round_trip(c, sample).passed
    assert dimensions and all(len(args) == 2 and args[1] <= 2 for args in dimensions)
    assert duals == []
    # the report computes d, d* and the subset budget on first read
    assert report.subset_budget == 2
    assert report.details["vc_dimension"] == report.details["dual_vc_dimension"] == 2
    assert (c,) in dimensions and duals == [(c,)]


def test_verify_checks_the_exact_bound_only_when_the_lower_one_fails(monkeypatch):
    c = generators.intervals(10)
    sample = LabeledSample.from_concept(c, 30, range(10))
    bounds = []

    def recorded(*args):
        bounds.append(args)
        return scheme_size_bound(*args)

    monkeypatch.setattr(scheme, "scheme_size_bound", recorded)
    assert verify_round_trip(c, sample).passed
    assert bounds == [(0, 0, 2)]
    del bounds[:]

    def failing_at_zero(*args):
        bounds.append(args)
        return -1 if args[:2] == (0, 0) else scheme_size_bound(*args)

    # the fallback asks for d* alone (the bound ignores d), so no uncapped
    # search of the primal class runs
    dimensions = _counting_everywhere(monkeypatch, concepts.vc_dimension)
    monkeypatch.setattr(scheme, "scheme_size_bound", failing_at_zero)
    result = verify_round_trip(c, sample)
    assert result.passed and result.size_within_bound
    assert bounds == [(0, 0, 2), (0, 2, 2)]
    assert (c,) not in dimensions
    assert [args for args in dimensions if len(args) == 1] == [(dual_class(c),)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=300),
)
def test_size_bound_is_nondecreasing_in_the_dual_dimension_and_the_budget(d, d_star, budget):
    bound = scheme_size_bound(d, d_star, budget)
    assert bound <= scheme_size_bound(d, d_star + 1, budget)
    assert bound <= scheme_size_bound(d, d_star, budget + 1)
    # so a size within the bound at d* = 0 and a smaller budget is within it
    assert scheme_size_bound(d, 0, budget // 2) <= bound


@st.composite
def votes_over_classes(draw):
    """A random class and (concept, count) votes over it, a concept possibly
    in several votes (as when distinct subsets learn one concept), with
    counts up to 2^31, so that totals pass 2^32."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=20))
    c = ConceptClass.from_row_ints(n, rows)
    concept = st.integers(min_value=0, max_value=len(c) - 1)
    count = st.integers(min_value=1, max_value=2**31)
    votes = draw(st.lists(st.tuples(concept, count), min_size=1, max_size=40))
    return c, votes


@settings(max_examples=300, deadline=None)
@given(votes_over_classes())
def test_majority_vote_matches_the_row_sum_formula(case):
    # the oracle sums the rows in Python integers, so no overflow hides
    c, votes = case
    labels = scheme._majority_vote(c, votes)
    total = sum(count for _, count in votes)
    sums = [sum(count * c.value(k, x) for k, count in votes) for x in range(c.domain_size)]
    expected = np.array([2 * v > total for v in sums], dtype=np.uint8)
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, expected)


def test_hostile_repeated_subsets_reconstruct_in_memory_bounded_by_the_class():
    # a 12-byte side info casting 2^32 - 1 votes in two runs, mask 1 (the
    # kernel point) 2^31 times and mask 0 2^31 - 1 times, over a
    # two-concept class on 20,000 points; one row copy per vote would need
    # 86 TB, past the 512 MiB address-space cap the child sets itself, and
    # concept 1 wins point 0 by a single vote
    script = """
import resource, sys
from vccompress import ConceptClass, deserialize_compressed, reconstruct, serialize_compressed
from vccompress.scheme import CompressedSample, _encode_side_info
n = 20_000
c = ConceptClass.from_row_ints(n, [0, 1 << (n - 1)])
compressed = CompressedSample(n, (0,), 1, ((1, 1 << 31), (0, (1 << 31) - 1)))
assert deserialize_compressed(serialize_compressed(compressed)) == compressed
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
labels = reconstruct(c, compressed)
print(len(_encode_side_info(compressed.runs, 1)), compressed.subset_count, labels.tolist() == c.matrix[1].tolist())
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    size, votes, exact = out.stdout.split()
    assert (int(size), int(votes), exact) == (12, 2**32 - 1, "True")


def test_one_distinct_voter_reconstructs_a_fresh_row():
    cube_ends = ConceptClass.from_rows([[0, 0, 0], [1, 1, 1]])
    c = generators.intervals(10)
    point_mass, _ = compress(c, LabeledSample.from_concept(c, 17, range(10)), seed=0)
    cases = [
        (c, point_mass),
        # a lone run over two kernel points
        (cube_ends, CompressedSample(3, (0, 2), 0b11, ((0b11, 1),))),
        # distinct subsets whose ERM is the same concept, voting once each
        (cube_ends, CompressedSample(3, (0, 1, 2), 0b111, ((0b001, 1), (0b110, 1)))),
        # ... and with counts
        (cube_ends, CompressedSample(3, (0, 1, 2), 0b111, ((0b001, 2), (0b110, 3)))),
    ]
    for cls, compressed in cases:
        votes = scheme._subset_erms(cls, compressed)
        assert len({concept for concept, _ in votes}) == 1
        labels = reconstruct(cls, compressed)
        assert labels.dtype == np.uint8
        assert labels.flags.writeable
        assert not np.shares_memory(labels, cls.matrix)
        concepts_, counts = zip(*votes)
        sums = np.array(counts) @ cls.matrix[list(concepts_)]
        general = (2 * sums > sum(counts)).astype(np.uint8)
        assert np.array_equal(labels, general)


def test_point_mass_skips_the_game_and_the_sparsifier(monkeypatch, caplog):
    calls = {
        name: _counting(monkeypatch, name, module)
        for module, name in (
            (game, "_exact_minimax"),
            (scheme, "sparsify_mixture"),
            (scheme, "dual_class"),
            (scheme, "child_seeds"),
        )
    }
    # the learner's ERM alone decides realizability: the class-wide scan is
    # counted wherever the package binds it, and must never run
    scans = _counting_everywhere(monkeypatch, concepts.consistent_concepts)
    c = generators.intervals(30)
    _, report = compress(c, LabeledSample.from_concept(c, 400, range(30)), seed=1)
    assert {name: len(made) for name, made in calls.items()} == {
        "_exact_minimax": 0,
        "sparsify_mixture": 0,
        "dual_class": 0,
        "child_seeds": 0,
    }
    # the report computes d* and the vote ceiling on first read
    d_star = vc_dimension(dual_class(c))
    assert report.details["dual_vc_dimension"] == d_star
    assert report.details["draw_ceiling"] == approximation_size_bound(d_star, 1 / 8)
    assert report.details["vote_concepts"] == ((400, 1),)
    assert report.details["draw_count"] == 0
    assert report.details["draw_ceiling"] == 1024 * (report.details["dual_vc_dimension"] + 1)
    assert "votes_from" not in report.details
    assert "sparsification_deviation" not in report.details
    assert report.details["certified_agreement"] == 1.0
    # nor does the empty sample, a taught point mass on concept 0
    del calls["dual_class"][:]
    c = generators.intervals(7)
    _, report = compress(c, LabeledSample.from_pairs([]), seed=0)
    assert calls["dual_class"] == calls["child_seeds"] == []
    d_star = vc_dimension(dual_class(c))
    assert report.details["dual_vc_dimension"] == d_star
    assert report.details["draw_ceiling"] == approximation_size_bound(d_star, 1 / 8)
    assert report.details["vote_concepts"] == ((0, 1),)
    assert report.details["draw_count"] == 0
    assert report.details["certified_agreement"] == 1.0
    assert report.subset_budget == 0
    # a mixture solves its game, but its rounding needs neither d*, nor the
    # sampler, nor a seed; its report fills in d* and the ceiling T on
    # first read
    mixtures = [
        (generators.random_vc_capped(12, 3, 60), 30, [9, 3, 8, 2, 4, 2], 1),
        (generators.k_interval_unions(8, 2), 158, [0, 3, 4, 1, 4, 2, 6, 7], 102),
    ]
    for c, target, points, seed in mixtures:
        del calls["_exact_minimax"][:], calls["dual_class"][:]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vccompress.scheme"):
            _, report = compress(c, LabeledSample.from_concept(c, target, points), seed=seed)
        [line] = [r.getMessage() for r in caplog.records if r.name == "vccompress.scheme"]
        assert line.startswith("mixture of ") and line.endswith(" hypotheses: 3 votes by rounding")
        assert len(calls["_exact_minimax"]) > 0
        assert calls["dual_class"] == calls["sparsify_mixture"] == calls["child_seeds"] == []
        assert "dual_vc_dimension" not in report.known_details
        assert "draw_ceiling" not in report.known_details
        assert report.details["votes_from"] == "rounding"
        assert report.details["draw_count"] == 3 == len(report.details["vote_concepts"])
        d_star = vc_dimension(dual_class(c))
        assert report.details["dual_vc_dimension"] == d_star
        assert report.details["draw_ceiling"] == approximation_size_bound(d_star, 1 / 8) == 4096
        assert "sparsification_deviation" not in report.details
    assert scans == []


def test_round_trips_never_import_numpy_ma():
    # np.unique(..., axis=1) without a return_* output calls np.ma.is_masked,
    # and its first call imports numpy.ma: tens of milliseconds and about
    # 1 MB once per process, which a short benchmark run pays in full
    script = """
import sys
from vccompress import (
    LabeledSample, compress, deserialize_compressed, generators, reconstruct,
    serialize_compressed,
)
taught = generators.intervals(30)
mixed = generators.random_vc_capped(12, 3, 60)
cases = [
    (taught, LabeledSample.from_concept(taught, 400, range(30))),
    (mixed, LabeledSample.from_concept(mixed, 30, [9, 3, 8, 2, 4, 2])),
    (taught, LabeledSample.from_pairs([])),
]
for c, sample in cases:
    compressed, report = compress(c, sample, seed=1)
    reconstruct(c, deserialize_compressed(serialize_compressed(compressed)))
    print(len(report.details["vote_concepts"]))
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    # a point mass, a mixture of three votes and the empty sample's one vote
    assert out.stdout.split() == ["1", "3", "1", "False"]


def test_report_shape_leaves_the_class_out():
    # details is a property: asdict shows known_details and the learner's
    # subset_budget, and the class the report keeps for details stays out
    # of repr and equality
    c = generators.intervals(6)
    _, report = compress(c, LabeledSample.from_concept(c, 3, range(6)), seed=0)
    assert "concept_class" not in repr(report)
    assert dataclasses.replace(report, concept_class=generators.intervals(7)) == report
    assert dataclasses.replace(report, subset_budget=3) != report
    fields = dataclasses.asdict(report)
    assert "details" not in fields
    assert fields["known_details"] == report.known_details
    assert fields["subset_budget"] == report.subset_budget == 2
    for computed in ("vc_dimension", "dual_vc_dimension", "draw_ceiling"):
        assert computed not in report.known_details
    assert report.details["dual_vc_dimension"] == report.details["vc_dimension"] == 2
    assert "distinct_point_count" not in report.details
    assert "learner_budget" not in report.details


def test_report_budget_of_a_point_mass_taught_after_an_escalation():
    # d = 1, and c0 = concept 2 needs two of the three points: the learner
    # escalates its budget to 2 before teaching it, and the report keeps 2
    c = ConceptClass.from_row_ints(3, [0b001, 0b010, 0b011])
    sample = LabeledSample.from_concept(c, 2, range(3))
    _, report = compress(c, sample)
    assert report.known_details["draw_count"] == 0 and report.kernel_size == 2
    assert learner.build_hypothesis_set(c, sample)[0].budget == report.subset_budget == 2
    assert min(max(1, vc_dimension(c)), 3) == 1


def test_report_budget_of_a_point_mass_taught_below_the_budget_of_d():
    # d = 2, and an all-negative sample of three points is taught by the
    # empty subset: the learner certifies it at min(max(1, 0), 3) = 1, and
    # the report gives that budget, not min(max(1, d), k) = 2
    c = generators.intervals(10)
    sample = LabeledSample.from_pairs([(2, 0), (5, 0), (7, 0)])
    _, report = compress(c, sample)
    assert report.kernel_size == 0 and report.known_details["vote_concepts"] == ((0, 1),)
    assert learner.build_hypothesis_set(c, sample)[0].budget == report.subset_budget == 1
    assert vc_dimension(c) == 2
    assert verify_round_trip(c, sample).size_within_bound
