"""The benchmark's tracer wraps vccompress functions by name, and its
worker calls the package through a fixed surface.

A cleanup that deletes or renames one of those names breaks
``perfbench/run.py --trace 1`` and ``--self-test``; these tests make it fail
the test suite too.  The worker's op checks read compress's seed argument,
the three-argument ``scheme_size_bound``, the report's ``details`` keys and
``subset_budget``, and the dimension caches' ``cache_clear``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    script = "import sys; sys.path[:0] = sys.argv[1:]; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_point_masses_and_pool_sizes():
    # the tracer reads the pool size and the point-mass flag from
    # build_hypothesis_set's result; a taught point mass, a mixture and
    # the empty sample (a point mass on concept 0) must each count once,
    # and the mixture's one pattern game (its 4 undominated hypotheses by
    # their 4 distinct agreement patterns) must reach the wrapped exact
    # solver, which the learner calls only through game
    script = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing
from vccompress import LabeledSample, compress, generators, learner
taught = generators.intervals(30)
mixed = generators.random_vc_capped(12, 3, 60)
cases = [
    (taught, LabeledSample.from_concept(taught, 400, range(30))),
    (mixed, LabeledSample.from_concept(mixed, 30, [9, 3, 8, 2, 4, 2])),
    (taught, LabeledSample.from_pairs([])),
]
pools = [len(learner.build_hypothesis_set(c, s)[0]) for c, s in cases]
tracer = tracing.Tracer()
tracing.install(tracer)
for c, s in cases:
    compress(c, s, seed=1)
print(json.dumps({"counts": tracer.counts, "pools": pools}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    counts, pools = result["counts"], result["pools"]
    assert pools[0] == pools[2] == 1 < pools[1]
    assert counts["learner.build"] == 3
    assert counts["game.point_masses"] == 2
    assert counts["learner.pool_size"] == sum(pools)
    assert counts["game.exact"] == 1
    assert counts["game.exact_entries"] == 16


def test_worker_runs_one_op_of_each_workload():
    # the benchmark's own op, with its checks (labels, the codec round trip
    # and size within the bound), from empty dimension caches as its set-up
    # starts; the first op of each round-trip workload and one cold op
    script = """
import json, sys
sys.path[:0] = sys.argv[1:]
import vccompress
from vccompress import concepts
import worker, workloads
concepts.vc_dimension.cache_clear()
concepts.dual_class.cache_clear()
roster = workloads.build_roster()
names = ("roundtrip_short", "roundtrip_long")
ops = [next(workloads.roundtrip_ops(name, 2, roster)) for name in names]
ops += workloads.cold_ops(2, 1)
results = [worker.run_op(op, vccompress) for op in ops]
print(json.dumps([[result["bits"], result["bound"]] for result in results]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout.splitlines()[-1])
    assert len(sizes) == 3
    assert all(0 < bits <= bound for bits, bound in sizes)
