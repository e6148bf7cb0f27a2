"""Compress a labeled sample down to a few kernel points, then rebuild it.

The compressor never stores the sample itself.  It keeps a handful of kernel
points with their labels plus a short side-info string saying which kernel
subsets to feed back into the learner, each a bit mask over the kernel
positions, and how many votes each one's hypothesis casts (one run per
subset); majority vote over the rebuilt hypotheses reproduces every sample
label exactly.
"""

from vccompress import (
    LabeledSample,
    compress,
    deserialize_compressed,
    intervals,
    reconstruct,
    serialize_compressed,
    verify_round_trip,
)


def bit_string(mask, k):
    """A k-bit mask as k characters, bit 0 first."""
    return "".join(str(mask >> i & 1) for i in range(k))


cls = intervals(30)
print(f"concept class: {len(cls.rows)} interval concepts on {cls.domain_size} points")

# A realizable sample: points labeled by the interval [8, 19], with repeats.
target = [(5, 0), (8, 1), (12, 1), (12, 1), (19, 1), (20, 0), (27, 0), (8, 1)]
sample = LabeledSample.from_pairs(target)
print(f"sample: {sample.size} labeled points ({len(sample.distinct_points)} distinct)")

compressed, report = compress(cls, sample)
print()
print(f"kernel points : {compressed.kernel_points}")
# the labels are one mask, bit i the label of kernel point i; each run is a
# (mask, count) pair, bit i of its mask naming kernel position i
k = compressed.kernel_size
print(f"kernel labels : {bit_string(compressed.kernel_labels, k)} (kernel point 0 first)")
for mask, count in compressed.runs:
    print(f"vote run      : mask {bit_string(mask, k)} (kernel position 0 first), {count} vote(s)")
print(f"kernel size {report.kernel_size}, side info and CRC {report.info_bits} bits, "
      f"scheme size {report.scheme_size}")

labels = reconstruct(cls, compressed)
mismatches = [(x, y) for x, y in sample.label_items if labels[x] != y]
print(f"reconstruction mismatches on the sample: {len(mismatches)}")
assert not mismatches

# The container format survives a byte-level round trip.
blob = serialize_compressed(compressed)
assert deserialize_compressed(blob) == compressed
print(f"serialized container: {len(blob)} bytes")

# One call that does all of the above and checks the size bound too.
result = verify_round_trip(cls, sample)
print(f"verify_round_trip passed: {result.passed}")
