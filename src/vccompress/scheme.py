"""The compression scheme: compress, reconstruct, verify, and the wire codec.

A compressed sample is a small labeled kernel plus the subsets of kernel
positions that its side information names, each with the number of votes
its hypothesis casts.  Reconstruction reruns the deterministic ERM on each
named subset and takes a per-point majority vote over the resulting
hypotheses, weighted by those counts, so the decompressor needs nothing
beyond the concept class and the bytes.

Pipeline, the same for every sample: certify a weak mixture of subset-ERM
hypotheses (learner), turn it into a small voting multiset, and check once
that every sampled point wins that multiset's integer majority strictly
before anything is encoded.  The learner owns the subset budget max(1, d)
and asks the VC search only "is d >= s?" for the sizes s it tries.
compress runs one dimension search of its own, d* by
``vc_dimension(dual_class(...))``, and only when a mixture's rounding
passes N = 1024 (below); no other.  A taught point mass (one
hypothesis consistent with the whole sample) votes once; the empty sample
is one, on concept 0, taught by the empty subset.  A larger mixture's exact rational
weights p are rounded to N = 1, 2, ... votes: each hypothesis gets the
floor of N*p and the largest remainders (ties to the lower pool index) one
vote more.  The first N whose votes win every point is kept.  Each of
these three branches (point mass, rounding, sampler) writes its own
details, and compress constructs the report once.

One margin carries every vote count.  p gives every sampled point's label
mass at least a = ``WEAK_AGREEMENT`` = 2/3.  Rounding moves each of p's s
support counts by less than 1 and keeps their sum N, so the label's count,
summed over the set A of hypotheses that agree, moves by less than both
|A| and s - |A| (not at all when A is the whole support), hence by less
than s/2.  The label then gets more than N*a - s/2 of N votes: a strict
majority once N*(2a - 1) >= s.  The least such N, 3s at a = 2/3, is the
sure count, so rounding needs no seed or draw.  The search stops at the
paper's vote ceiling T (``_vote_ceiling``, the sparsifier's size at d* and
1/8), computing d* only past T's least value 1024.  When the sure count
exceeds T and no N up to T wins, the seeded 1/8-sparsifier (approx) draws
the votes instead: its draws move every point's label mass by at most
``SPARSIFY_EPSILON`` = 1/8 < a - 1/2, so they keep a strict majority too.
Rounded and drawn counts alike are divided by their gcd (majorities are
scale-invariant) by one reducer.

The majority re-check reads the class's packed integer rows, independently
of the learner's point bitsets: each vote's wrong points are one bitset
over the sample, and only points that some vote gets wrong are counted, so
a point mass costs one XOR.  Reconstruction reads each distinct voter's
row once, weighted by its count, so its memory is bounded by the class and
not by the vote count.  A single vote's row is its own majority, so a
lone run's reconstruction is a fresh copy of its concept's row, returned
before any tally is built.

A container holds its votes as runs: one (mask, count) pair per distinct
voter, in vote order, exactly the reduced votes; bit i of a mask is kernel
position i.  Its wire format spells only what a decoder cannot infer:
unsigned LEB128 varints, delta-coded kernel points, LSB-first label bits,
then the side info: for R >= 2 runs, each run's k-bit LSB-first mask with
its count, and no run count, since the CRC marks where the runs end.  A
lone run is implied (the whole kernel, voting once), so it spells no side
info at all, and a point mass's info bits are the CRC's 32 alone.  One
trailing CRC-32 covers every byte after the magic, so every single-byte
corruption is detected before anything is parsed.  A one-byte varint
(a lone byte below 0x80) is always minimal, so the decoder reads the
domain size, the kernel size and each gap inline when it is one such byte,
and a kernel of 1 to 7 points' label byte when no padding bit is set; it
calls the strict decoders otherwise.  Decoders reject
truncation, nonzero padding, a spelled lone run and every non-canonical
form, so bytes and containers are in bijection.  A container is exactly
its four wire fields: the domain size, the kernel points, the kernel
labels as the k-bit mask the bytes hold, and the runs.  Its constructor
alone judges canonical runs; serialize_compressed, the one public encoder,
encodes the side info where it writes it, and only deserialize_compressed
decodes side info.
"""

from __future__ import annotations

import collections
import functools
import logging
import math
import operator
import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .approx import ProbabilityVector, approximation_size_bound, sparsify_mixture
from .concepts import ConceptClass, LabeledSample, dual_class, vc_dimension
from .errors import DecodeError, IntegrityError, UnrealizableError
from .learner import WEAK_AGREEMENT, build_hypothesis_set, lowest_consistent_concept
from .seeding import child_seeds

__all__ = [
    "MAGIC",
    "MAX_VOTES",
    "SPARSIFY_EPSILON",
    "CompressedSample",
    "SchemeReport",
    "VerificationResult",
    "decode_side_info",
    "compress",
    "reconstruct",
    "verify_round_trip",
    "scheme_size_bound",
    "serialize_compressed",
    "deserialize_compressed",
]

logger = logging.getLogger(__name__)

MAGIC = b"VCSC03"
SPARSIFY_EPSILON = 0.125
# The most votes a container may cast: keeps every vote tally, and twice it,
# inside int64.
MAX_VOTES = 1 << 32


def _vote_ceiling(dual_dimension: int) -> int:
    """The paper's vote ceiling T = approximation_size_bound(d*, 1/8): the
    sparsifier's draw count, and the most votes a container casts."""
    return approximation_size_bound(dual_dimension, SPARSIFY_EPSILON)


# -- varints -----------------------------------------------------------------


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if 0 <= value < 0x80:  # one byte, the common case
        return bytes((value,))
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Value and the offset just past it; strict about truncation/overlength.
    Only the minimal encoding is accepted: a zero final byte after a
    continuation byte would give a second spelling of the same value."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise DecodeError("varint truncated", offset)
        if pos - offset >= 10:
            raise DecodeError("varint longer than 10 bytes", offset)
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            if byte == 0 and pos - offset > 1:
                raise DecodeError("varint not minimally encoded", offset)
            return result, pos
        shift += 7


# -- bit strings ----------------------------------------------------------------


def _pack_bits(bits: int, width: int) -> bytes:
    """The low ``width`` bits of ``bits``, LSB first, in ceil(width / 8) bytes."""
    return bits.to_bytes((width + 7) // 8, "little")


def _unpack_bits(data: bytes, pos: int, width: int, what: str) -> tuple[int, int]:
    """Strict inverse of _pack_bits at ``pos``: the bits and the offset just
    past them; truncation and nonzero padding are DecodeErrors."""
    end = pos + (width + 7) // 8
    if end > len(data):
        raise DecodeError(f"{what} truncated", pos)
    bits = int.from_bytes(data[pos:end], "little")
    if bits >> width:
        raise DecodeError(f"nonzero padding in {what}", pos)
    return bits, end


# -- side information ---------------------------------------------------------


def _encode_side_info(runs: Sequence[tuple[int, int]], kernel_size: int) -> bytes:
    """Nothing for a lone run; for R >= 2 runs, each run's mask as
    ``kernel_size`` LSB-first bits, then its count as a varint, with no run
    count.  The runs are a container's, so a lone run is the whole kernel
    voting once, which the decoder infers from the empty side info."""
    if len(runs) == 1:
        return b""
    return b"".join(_pack_bits(mask, kernel_size) + _encode_varint(count) for mask, count in runs)


def decode_side_info(data: bytes, kernel_size: int) -> tuple[tuple[int, int], ...]:
    """Strict inverse of ``_encode_side_info`` over the whole buffer: the
    empty buffer is the lone run, and any other is (mask, count) runs up to
    its end, which the container's CRC marks.  Each run takes at least its
    count's byte, so the runs end even when a k = 0 kernel's masks take
    none.  A buffer that spells exactly one run is refused here, not by the
    container's constructor: the container it would build is the lone
    run's, whose one spelling is the empty side info."""
    if not data:
        return (((1 << kernel_size) - 1, 1),)
    runs = []
    pos = 0
    while pos < len(data):
        mask, pos = _unpack_bits(data, pos, kernel_size, "subset mask")
        count, pos = _decode_varint(data, pos)
        runs.append((mask, count))
    if len(runs) == 1:
        raise DecodeError("a lone run is implied, never spelled", 0)
    return tuple(runs)


# -- containers ---------------------------------------------------------------


@dataclass(frozen=True)
class CompressedSample:
    """A labeled kernel plus its votes as runs ``((mask, count), ...)``,
    exactly the four fields the container writes.  ``kernel_labels`` is one
    k-bit mask, bit i the label of kernel point i; each run's mask is a
    subset of the k kernel positions, bit i for position i, whose ERM casts
    ``count`` votes, in vote order.  Valid by construction, and then
    canonical: the kernel points are a tuple of ints; the labels an int in
    [0, 2^k); the runs a nonempty tuple of (mask, count) pairs whose masks
    are distinct nonnegative ints that OR to exactly (1 << k) - 1, and
    whose counts are positive ints with a gcd of 1 summing to at most
    MAX_VOTES.  So a lone run is the whole kernel voting once, and equal
    containers are equal bytes (the encoding is a bijection).  The
    constructor is the only judge of canonical runs: the side-info encoder
    trusts it."""

    domain_size: int
    kernel_points: tuple[int, ...]
    kernel_labels: int
    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.domain_size, int) or self.domain_size < 1:
            raise ValueError("domain size must be a positive integer")
        pts, labels = self.kernel_points, self.kernel_labels
        # a float equal to an int would compare and hash as that int but not encode
        if not (isinstance(pts, tuple) and all(map(int.__instancecheck__, pts))):
            raise ValueError("kernel points must be a tuple of integers")
        if not all(map(operator.lt, pts, pts[1:])):
            raise ValueError("kernel points must be strictly ascending")
        if pts and not (0 <= pts[0] and pts[-1] < self.domain_size):
            raise ValueError("kernel points must lie inside the domain")
        if not (isinstance(labels, int) and 0 <= labels < 1 << len(pts)):
            raise ValueError("kernel labels must be an integer mask of k bits")
        runs = self.runs
        if not (isinstance(runs, tuple) and runs):
            raise ValueError("runs must be a nonempty tuple of (subset, count) pairs")
        covered, gcd, total = 0, 0, 0
        for run in runs:
            if not (isinstance(run, tuple) and len(run) == 2):
                raise ValueError("each run must be a (subset, count) pair")
            mask, count = run
            if not (isinstance(mask, int) and mask >= 0):
                raise ValueError("run masks must be nonnegative integers")
            if not (isinstance(count, int) and count >= 1):
                raise ValueError("run counts must be positive integers")
            covered |= mask
            gcd = math.gcd(gcd, count)
            total += count
        # no bit past the kernel and every kernel position named
        if covered != (1 << len(pts)) - 1:
            raise ValueError("the run masks must cover exactly the kernel positions")
        if len(runs) > 1 and len({mask for mask, _ in runs}) != len(runs):
            raise ValueError("run masks must be distinct")
        if gcd != 1:
            raise ValueError("run counts must have a gcd of 1")
        if total > MAX_VOTES:
            raise ValueError(f"runs must cast at most {MAX_VOTES} votes")

    @property
    def subset_count(self) -> int:
        """The votes cast: each run's subset counted ``count`` times."""
        return sum(count for _, count in self.runs)

    @property
    def kernel_size(self) -> int:
        return len(self.kernel_points)


@dataclass(frozen=True)
class SchemeReport:
    """Size accounting for one compression.  scheme_size = kernel points plus
    ``info_bits``, the side info's bits and the container CRC's 32 (the
    CRC guards the side info along with the rest); a point mass's lone run
    spells no side info, so its ``info_bits`` is 32.  ``subset_count`` is
    the votes cast, the run counts' sum; ``subset_budget`` is the budget
    the learner certified at (``HypothesisSet.budget``), a point mass's
    teaching-set size or a mixture's image budget: no side-info subset has
    more points, so the size is within ``scheme_size_bound`` at it.

    ``known_details`` holds what ``compress`` knew: ``epsilon``, ``seed``,
    ``vote_concepts`` (the reduced (concept, count) votes),
    ``min_majority_margin`` (the votes' certificate),
    ``certified_agreement`` (the learner game's exact value, correctly
    rounded to a float) and ``draw_count``, the N votes rounded or drawn
    before the gcd reduction (0 for a point mass, whose one vote is the
    mixture, at certified agreement 1.0).  A mixture adds ``votes_from``,
    "rounding" or "sampler", and only the sampler a
    ``sparsification_deviation``.

    ``details`` is ``known_details`` plus ``vc_dimension``,
    ``dual_vc_dimension`` and ``draw_ceiling``, the vote ceiling
    T = ceil(16 (d*+1) / epsilon^2),
    computed on first read from the class kept in ``concept_class``.  Being
    a property, it is not a dataclass field: ``dataclasses.asdict`` shows
    ``known_details`` instead, and ``==`` compares report contents, not
    the class or its dimensions."""

    kernel_size: int
    info_bits: int
    subset_count: int
    scheme_size: int
    subset_budget: int
    known_details: dict
    concept_class: ConceptClass = field(repr=False, compare=False)

    @functools.cached_property
    def details(self) -> dict:
        dual_dimension = vc_dimension(dual_class(self.concept_class))
        return {
            "vc_dimension": vc_dimension(self.concept_class),
            "dual_vc_dimension": dual_dimension,
            **self.known_details,
            "draw_ceiling": _vote_ceiling(dual_dimension),
        }


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    report: SchemeReport
    mismatches: tuple[int, ...]
    hypotheses_match: bool
    size_within_bound: bool


# -- the scheme ---------------------------------------------------------------


def _majority_margin(
    concept_class: ConceptClass,
    votes: Sequence[tuple[int, int]],
    label_items: Sequence[tuple[int, int]],
) -> int:
    """The smallest majority margin (votes for the label minus votes against)
    over the labeled points, re-checked on the integer concept rows; raises
    IntegrityError at the lowest point whose margin is not positive.

    Each vote's wrong points are one bitset over the sample, so only points
    that some vote gets wrong are counted one by one; every other point has
    the full margin, and a consistent point mass has no such point.
    """
    n = concept_class.domain_size
    rows = concept_class.rows
    sampled = positive = 0
    for point, label in label_items:
        bit = 1 << (n - 1 - point)
        sampled |= bit
        if label:
            positive |= bit
    wrong = []
    total = contested = 0
    for concept, mult in votes:
        mask = (rows[concept] ^ positive) & sampled
        wrong.append((mask, mult))
        total += mult
        contested |= mask
    margin = total
    while contested:
        # the highest bit is the lowest point (point 0 is the top bit)
        bit = 1 << (contested.bit_length() - 1)
        contested ^= bit
        against = sum(mult for mask, mult in wrong if mask & bit)
        if 2 * against >= total:
            raise IntegrityError(
                f"majority failed at point {n - bit.bit_length()}: "
                f"{total - against} of {total} votes"
            )
        margin = min(margin, total - 2 * against)
    return margin


def _reduced_votes(concepts, counts) -> tuple[tuple[int, int], ...]:
    """(concept, count) pairs in the order given, zero counts dropped and
    the rest divided by their gcd.  Majority votes only see count ratios,
    so this is lossless for reconstruction."""
    g = math.gcd(*counts)
    return tuple((concept, count // g) for concept, count in zip(concepts, counts) if count)


def _rounded_votes(concepts, numerators, denominator, n) -> tuple[tuple[int, int], ...]:
    """n votes over ``concepts`` in proportion to numerators/denominator
    (the numerators sum to the denominator), by largest remainder: each
    concept gets the floor of its share of n, and the n - sum(floors)
    largest remainders, ties to the earlier concept, one vote more, so each
    count is within 1 of its share; then ``_reduced_votes``."""
    floors, remainders = zip(*(divmod(n * a, denominator) for a in numerators))
    counts = list(floors)
    by_remainder = sorted(range(len(counts)), key=remainders.__getitem__, reverse=True)
    for i in by_remainder[: n - sum(floors)]:
        counts[i] += 1
    return _reduced_votes(concepts, counts)


def _round_mixture(concept_class, hypotheses, p, label_items):
    """(N, votes, margin) for the first N = 1, 2, ... whose
    ``_rounded_votes`` of the exact mixture p over ``hypotheses`` pass
    ``_majority_margin``, with that margin; None when no N up to the vote
    ceiling T does.  A failure at the sure count (the module docstring)
    means p is no certificate, and its IntegrityError propagates."""
    support = [(concept, x) for concept, x in zip(hypotheses, p) if x]
    concepts = [concept for concept, _ in support]
    denominator = math.lcm(*(x.denominator for _, x in support))
    numerators = [x.numerator * (denominator // x.denominator) for _, x in support]
    # the least N with N * (2 * WEAK_AGREEMENT - 1) >= s
    certain = math.ceil(len(support) / (2 * WEAK_AGREEMENT - 1))
    least = _vote_ceiling(0)  # T at d* = 0, the least of any class
    for n in range(1, certain + 1):
        if n > least and n > _vote_ceiling(vc_dimension(dual_class(concept_class))):
            return None
        votes = _rounded_votes(concepts, numerators, denominator, n)
        try:
            margin = _majority_margin(concept_class, votes, label_items)
        except IntegrityError:
            if n == certain:
                raise
            continue
        return n, votes, margin


def compress(
    concept_class: ConceptClass,
    sample: LabeledSample,
    seed: int = 0,
) -> tuple[CompressedSample, SchemeReport]:
    """Compress a realizable labeled sample to a kernel and side info, by
    the vote pipeline of the module docstring.

    The kernel is the union of the subsets behind the voting hypotheses,
    each of at most the learner's subset budget: its size is governed by
    the class's VC dimension and the dual VC dimension, never by the
    sample length.  Every sampled point's majority is verified as a strict
    integer inequality before encoding.  The seed feeds only the sampler
    fallback: the hypothesis pool, its certificate and the rounding are
    deterministic.  Its one dimension search of its own is the module
    docstring's: d*, once a mixture's rounding passes N = 1024 (the
    report's ``details`` computes d and d* when read).

    Each branch builds ``known_details`` whole, in the key order
    ``SchemeReport`` documents, and the report is constructed once.  Its
    ``subset_count`` comes from the votes at hand: 1 for a point mass, the
    counts' sum for a mixture, which is the runs' sum that the container's
    ``subset_count`` reads.

    Only the learner's ERM (``lowest_consistent_concept``) checks the
    sample: ValueError for a point outside the domain, UnrealizableError
    for an unrealizable sample.
    """
    hypothesis_set, solution = build_hypothesis_set(concept_class, sample)

    if len(hypothesis_set.hypotheses) == 1:
        # the taught point mass (a certified game never has a one-row
        # support: one row reaches 2/3 only by agreeing with every label,
        # and then it is c0, whose teaching set the learner tries first)
        [concept] = hypothesis_set.hypotheses
        votes = ((concept, 1),)
        margin = _majority_margin(concept_class, votes, sample.label_items)
        known_details = {
            "epsilon": SPARSIFY_EPSILON,
            "seed": seed,
            "vote_concepts": votes,
            "min_majority_margin": margin,
            "certified_agreement": solution.value_estimate,
            "draw_count": 0,
        }
        subset_count = 1
        # the kernel is the teaching set, ascending as the learner found it,
        # and its one run is the whole kernel voting once; c0 is consistent
        # with the whole sample, so its row holds the kernel's labels
        [kernel_points] = hypothesis_set.provenance
        runs = (((1 << len(kernel_points)) - 1, 1),)
        row, top = concept_class.rows[concept], concept_class.domain_size - 1
        kernel_labels = 0
        for i, x in enumerate(kernel_points):
            kernel_labels |= (row >> (top - x) & 1) << i
    else:
        p = solution.exact_row_strategy
        rounded = _round_mixture(concept_class, hypothesis_set.hypotheses, p, sample.label_items)
        if rounded is not None:
            draw_count, votes, margin = rounded
            known_details = {
                "epsilon": SPARSIFY_EPSILON,
                "seed": seed,
                "vote_concepts": votes,
                "min_majority_margin": margin,
                "certified_agreement": solution.value_estimate,
                "votes_from": "rounding",
                "draw_count": draw_count,
            }
        else:
            full_weights = np.zeros(len(concept_class.rows))
            full_weights[list(hypothesis_set.hypotheses)] = solution.row_strategy.weights
            [sparsify_seed] = child_seeds(seed, 1)
            certificate = sparsify_mixture(
                concept_class, ProbabilityVector(full_weights), SPARSIFY_EPSILON, sparsify_seed
            )
            drawn = collections.Counter(certificate.multiset)
            votes = _reduced_votes(drawn, drawn.values())
            margin = _majority_margin(concept_class, votes, sample.label_items)
            known_details = {
                "epsilon": SPARSIFY_EPSILON,
                "seed": seed,
                "vote_concepts": votes,
                "min_majority_margin": margin,
                "certified_agreement": solution.value_estimate,
                "votes_from": "sampler",
                "draw_count": len(certificate.multiset),
                "sparsification_deviation": certificate.max_deviation,
            }
        subset_count = sum(count for _, count in votes)
        logger.debug(
            "mixture of %d hypotheses: %d votes by %s",
            sum(1 for x in p if x),
            known_details["draw_count"],
            known_details["votes_from"],
        )
        # the kernel is the union of the voters' subsets; a hypothesis's
        # provenance is a subset whose ERM it is, so distinct voters have
        # distinct subsets: one run per (concept, count) vote
        provenance_of = dict(zip(hypothesis_set.hypotheses, hypothesis_set.provenance))
        kernel_points = tuple(sorted({x for concept, _ in votes for x in provenance_of[concept]}))
        position_of = {x: i for i, x in enumerate(kernel_points)}
        runs = tuple(
            (sum(1 << position_of[x] for x in provenance_of[concept]), count)
            for concept, count in votes
        )
        labels_by_point = dict(sample.label_items)
        kernel_labels = sum(labels_by_point[x] << i for i, x in enumerate(kernel_points))

    compressed = CompressedSample(concept_class.domain_size, kernel_points, kernel_labels, runs)
    kernel_size = len(kernel_points)
    info_bits = 8 * (len(_encode_side_info(runs, kernel_size)) + 4)
    report = SchemeReport(
        kernel_size,
        info_bits,
        subset_count,
        kernel_size + info_bits,
        hypothesis_set.budget,
        known_details,
        concept_class,
    )
    return compressed, report


def reconstruct(concept_class: ConceptClass, compressed: CompressedSample) -> np.ndarray:
    """Labels over the whole domain by majority vote of the subset ERMs.

    Exact on every point of the originally compressed sample; ties (possible
    only off-sample) resolve to 0.
    """
    return _majority_vote(concept_class, _subset_erms(concept_class, compressed))


def _majority_vote(concept_class: ConceptClass, votes: Sequence[tuple[int, int]]) -> np.ndarray:
    """Each point's strict majority label over (concept, count) votes (ties
    to 0), as a fresh uint8 array.  A single vote (a lone run's) is its own
    majority whatever its count, so its row is copied before any tally is
    built.  Otherwise the counts of a concept that several runs learned are
    added first, so each distinct voter's row is read once and memory is
    bounded by the class, however many votes or runs a container names;
    when those runs all learned one concept, the weighted sum gives that
    concept's row too."""
    if len(votes) == 1:
        return concept_class.matrix[votes[0][0]].copy()
    tally: dict[int, int] = {}
    for concept, count in votes:
        tally[concept] = tally.get(concept, 0) + count
    counts = np.fromiter(tally.values(), dtype=np.int64, count=len(tally))
    sums = counts @ concept_class.matrix[list(tally)]
    return (2 * sums > counts.sum()).astype(np.uint8)


def _subset_erms(
    concept_class: ConceptClass, compressed: CompressedSample
) -> tuple[tuple[int, int], ...]:
    """(ERM concept, count) for each run, in run order, once the container's
    domain matches the class; run masks are distinct, so each subset is
    learned once.  A lone run is the whole kernel voting once: one ERM over
    the kernel, with no mask to read."""
    if compressed.domain_size != concept_class.domain_size:
        raise IntegrityError(
            f"compressed domain size {compressed.domain_size} does not match "
            f"the class domain {concept_class.domain_size}"
        )
    labels = compressed.kernel_labels
    pairs = []
    for x in compressed.kernel_points:
        pairs.append((x, labels & 1))
        labels >>= 1
    runs = compressed.runs
    try:
        if len(runs) == 1:
            return ((lowest_consistent_concept(concept_class, pairs), 1),)
        full = (1 << len(pairs)) - 1
        votes = []
        for mask, count in runs:
            subset = pairs if mask == full else [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            votes.append((lowest_consistent_concept(concept_class, subset), count))
    except UnrealizableError as exc:
        raise IntegrityError("a side-info subset is inconsistent with every concept") from exc
    return tuple(votes)


def scheme_size_bound(vc_dim: int, dual_vc_dim: int, subset_budget: int) -> int:
    """Worst-case scheme size (kernel points + side-info bits + the 32 CRC
    bits) as a function of the two dimensions and the subset budget alone,
    notably independent of the sample length; ``vc_dim`` does not enter.
    The votes, hence the runs, number at most the vote ceiling T at d*, and
    each run's subset has at most subset_budget points, so the kernel has at
    most K = T * subset_budget points.  The worst case is T runs, each a
    ceil(K / 8)-byte mask plus a count of at most T, with no run count:
    quadratic in T, where position lists would be linear, though realized
    containers need only a byte or two per run, and a lone run none."""
    max_votes = _vote_ceiling(dual_vc_dim)
    max_kernel = max_votes * subset_budget
    run_bytes = (max_kernel + 7) // 8 + len(_encode_varint(max_votes))
    return max_kernel + 8 * (max_votes * run_bytes + 4)


def verify_round_trip(concept_class: ConceptClass, sample: LabeledSample) -> VerificationResult:
    """Compress, pass the container through its wire format, reconstruct
    from the decoded bytes, and check everything that should hold: labels
    reproduce exactly on the sample, the decompressor's hypotheses are the
    very ones the compressor voted, and the size respects its bound at the
    report's ``subset_budget``, the budget the learner certified at.  Each
    run's subset is learned once, for both the vote and that check.  A
    codec fault surfaces as the decoder's DecodeError or IntegrityError.

    The bound is checked from below first.  It is nondecreasing in d*, so
    a size within the bound at d* = 0 is within the exact one.  Only a
    size above that is checked against the bound at the exact d*, which
    needs the dual VC search; the bound ignores d, so d is not computed."""
    compressed, report = compress(concept_class, sample)
    votes = _subset_erms(concept_class, deserialize_compressed(serialize_compressed(compressed)))
    decoded = _majority_vote(concept_class, votes)
    mismatches = tuple(
        point for point, label in sample.label_items if int(decoded[point]) != label
    )
    hypotheses_match = votes == report.known_details["vote_concepts"]
    size_within_bound = report.scheme_size <= scheme_size_bound(
        0, 0, report.subset_budget
    ) or report.scheme_size <= scheme_size_bound(
        0, vc_dimension(dual_class(concept_class)), report.subset_budget
    )
    return VerificationResult(
        passed=not mismatches and hypotheses_match and size_within_bound,
        report=report,
        mismatches=mismatches,
        hypotheses_match=hypotheses_match,
        size_within_bound=size_within_bound,
    )


# -- container serialization ----------------------------------------------------


def serialize_compressed(compressed: CompressedSample) -> bytes:
    """Magic, domain size, kernel size, delta-coded kernel points, LSB-first
    label bits, the side info, then a little-endian CRC-32 of every byte
    after the magic."""
    out = bytearray(MAGIC)
    out += _encode_varint(compressed.domain_size)
    out += _encode_varint(len(compressed.kernel_points))
    previous = 0
    for point in compressed.kernel_points:
        out += _encode_varint(point - previous)
        previous = point
    out += _pack_bits(compressed.kernel_labels, len(compressed.kernel_points))
    out += _encode_side_info(compressed.runs, len(compressed.kernel_points))
    out += struct.pack("<I", zlib.crc32(out[len(MAGIC) :]))
    return bytes(out)


def deserialize_compressed(data: bytes) -> CompressedSample:
    """Strict inverse of serialize_compressed; any deviation is a DecodeError
    (structure) or IntegrityError (checksum).  The CRC is checked before
    anything is parsed.  When the domain size and the kernel size are one
    byte each below 0x80, both are read inline, as the gaps are: a lone
    byte below 0x80 is always minimal.  Any other header goes through
    ``_decode_varint``, so an overlong spelling such as ``0x80 0x00`` is
    refused at both header positions.  Likewise a label byte of k = 1..7
    bits is read inline when its padding is zero, and ``_unpack_bits``
    reads and judges any other.  The side info is decoded here,
    once, and the container is built from its runs; what its constructor
    rejects (repeated kernel points, or a non-canonical run, say) is a
    DecodeError."""
    if data[: len(MAGIC)] != MAGIC:
        raise DecodeError("bad magic", 0)
    if len(data) < len(MAGIC) + 4:
        raise DecodeError("container shorter than its checksum", len(MAGIC))
    body, checksum = data[:-4], data[-4:]
    if struct.pack("<I", zlib.crc32(body[len(MAGIC) :])) != checksum:
        raise IntegrityError("container failed its checksum")
    pos = len(MAGIC)
    if len(body) > pos + 1 and body[pos] < 0x80 and body[pos + 1] < 0x80:
        domain_size, kernel_size = body[pos], body[pos + 1]
        pos += 2
    else:
        domain_size, pos = _decode_varint(body, pos)
        kernel_size, pos = _decode_varint(body, pos)
    points = []
    point = 0
    for _ in range(kernel_size):
        if pos < len(body) and body[pos] < 0x80:  # a lone byte is always minimal
            point += body[pos]
            pos += 1
        else:
            delta, pos = _decode_varint(body, pos)
            point += delta
        points.append(point)
    if 0 < kernel_size < 8 and pos < len(body) and not body[pos] >> kernel_size:
        labels = body[pos]
        pos += 1
    else:
        labels, pos = _unpack_bits(body, pos, kernel_size, "label bits")
    runs = decode_side_info(body[pos:], kernel_size)
    try:
        return CompressedSample(domain_size, tuple(points), labels, runs)
    except ValueError as exc:
        raise DecodeError(str(exc), pos) from exc
