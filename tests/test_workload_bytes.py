"""The benchmark's containers, pinned byte for byte.

``perfbench`` reports ``scheme_bits_mean`` and a digest of every container
it writes, but only when the benchmark runs.  This test compresses one
seed-2 round of each workload, built by ``perfbench/workloads.py`` (read,
never changed), and pins the SHA-256 of the serialized containers and
their summed ``scheme_size``.  So a change that moves a container's bytes,
or the size the benchmark reports, fails the test suite, and is re-recorded
here on purpose.  The same round also pins that no size of the learner's
subset walk hits its prefix cap: a cut walk logs one debug line, and none
may appear.

The round is then replayed once as the benchmark's op (compress,
serialize, deserialize, reconstruct, and the report's ``details`` read)
under ``perfbench/tracing.py``'s wrappers, and the count metrics that
``layer_metrics`` reports are pinned per workload.  The tracer counts calls
through the module globals it rebinds, so a change that inlines or skips
such a call (an ERM, a side-info decode, an exact game) moves a count here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import hashlib, itertools, json, logging, sys
sys.path[:0] = sys.argv[1:]
import tracing, workloads
from vccompress import (
    ConceptClass, compress, deserialize_compressed, reconstruct, serialize_compressed
)
messages = []
handler = logging.Handler()
handler.emit = lambda record: messages.append(record.getMessage())
logger = logging.getLogger("vccompress.learner")
logger.setLevel(logging.DEBUG)
logger.addHandler(handler)
roster = workloads.build_roster()
rounds = {}
for name in ("roundtrip_short", "roundtrip_long"):
    ops = workloads.roundtrip_ops(name, 2, roster)
    rounds[name] = list(itertools.islice(ops, len(workloads.design(name, roster))))
rounds["cold_class"] = workloads.cold_ops(2, len(workloads.COLD_ROUND))
out = {}
for name, ops in rounds.items():
    digest, bits = hashlib.sha256(), []
    for op in ops:
        cls = op.concept_class or ConceptClass.from_row_ints(op.domain_size, op.rows)
        compressed, report = compress(cls, op.sample, op.seed)
        digest.update(serialize_compressed(compressed))
        bits.append(report.scheme_size)
    out[name] = [digest.hexdigest(), len(bits), sum(bits), max(bits)]
cuts = [message for message in messages if message.startswith("subset walk cut")]
tracer = tracing.Tracer()
tracing.install(tracer)
counts = {}
for name, ops in rounds.items():
    tracer.counts.clear()
    for op in ops:
        cls = op.concept_class or ConceptClass.from_row_ints(op.domain_size, op.rows)
        compressed, report = compress(cls, op.sample, op.seed)
        reconstruct(cls, deserialize_compressed(serialize_compressed(compressed)))
        report.details
    metrics = tracing.layer_metrics(tracer).items()
    counts[name] = {key: value for key, (value, unit) in metrics if unit == "count"}
    counts[name]["game.point_masses"] = tracer.counts["game.point_masses"]
print(json.dumps({"containers": out, "cuts": cuts, "counts": counts}))
"""

# workload -> (containers' SHA-256, ops, summed scheme_size, largest
# scheme_size); the means are 33.5, 35.4 and 33.6 bits.
PINNED = {
    "roundtrip_short": (
        "700dabd5e0123031c6bdf8cb9c199f02bf612ec553e65d5ea35f28edaf78ca42", 349, 11685, 83
    ),
    "roundtrip_long": (
        "d22c48c23f76f32501d8437161927a27d98b5462819c7a9315562b683946e305", 144, 5104, 85
    ),
    "cold_class": (
        "4567f871bec90d214e1a22321680542814f86ac4385fc786c9695cbabab24b3f", 18, 604, 35
    ),
}

# workload -> the count metrics of one traced replay of the round, and the
# point masses behind game.point_mass_ratio; every other count metric
# (game.mw_calls, game.mw_iterations, learner.escalations, approx.draws,
# approx.attempts) reads 0 on all three workloads
TRACE_COUNTS = {
    "roundtrip_short": {
        "learner.erm_calls": 349,
        "scheme.reconstruct_erm_calls": 351,
        "scheme.side_info_decodes": 349,
        "learner.pool_size": 353,
        "game.point_masses": 348,
        "game.exact_calls": 1,
        "game.exact_entries": 25,
    },
    "roundtrip_long": {
        "learner.erm_calls": 144,
        "scheme.reconstruct_erm_calls": 152,
        "scheme.side_info_decodes": 144,
        "learner.pool_size": 167,
        "game.point_masses": 140,
        "game.exact_calls": 4,
        "game.exact_entries": 234,
    },
    "cold_class": {
        "learner.erm_calls": 18,
        "scheme.reconstruct_erm_calls": 18,
        "scheme.side_info_decodes": 18,
        "learner.pool_size": 18,
        "game.point_masses": 18,
        "game.exact_calls": 0,
        "game.exact_entries": 0,
    },
}
ZERO_COUNTS = (
    "game.mw_calls", "game.mw_iterations", "learner.escalations", "approx.draws", "approx.attempts"
)


@pytest.fixture(scope="module")
def seed_2_round():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_one_round_of_each_workload_keeps_its_bytes(seed_2_round):
    measured = seed_2_round["containers"]
    assert {name: tuple(values) for name, values in measured.items()} == PINNED


def test_no_subset_walk_of_the_round_hits_its_cap(seed_2_round):
    assert seed_2_round["cuts"] == []


def test_one_round_of_each_workload_keeps_its_trace_counts(seed_2_round):
    expected = {
        name: {**counts, **dict.fromkeys(ZERO_COUNTS, 0)} for name, counts in TRACE_COUNTS.items()
    }
    assert seed_2_round["counts"] == expected
