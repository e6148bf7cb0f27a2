"""One workload in one process: set up, run ops, check every output, report.

Started by ``run.py`` as a fresh child per workload; prints human-readable
lines and, last, one JSON object for the parent.

    worker.py --workload W --seed N --ops K --mode plain|traced

Runs K ops rounded up to whole rounds (see workloads.py), so that every run of
a workload does the same work; ``traced`` installs the spans first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Address-space cap for this process only: classes past the dimension
# search's memory ceiling fail fast with MemoryError instead of pushing the
# machine into the OOM killer.  The largest warm-up (intervals(30)) peaks
# near 0.9 GiB.
ADDRESS_SPACE_CAP = 1536 << 20
SETUP_REPEATS = 3
# The speed of a shared machine drifts, by up to 2x within minutes on the
# 2-core reference machine, and every timing drifts with it.  So the worker times a fixed reference kernel
# every CALIBRATE_EVERY_S and reports each time scaled by REFERENCE_S over the
# median kernel time of its phase (set-up or ops): times at the speed the
# kernel had when REFERENCE_S was measured.  Of the kernels tried (integer
# loop, Fraction pivots, numpy draws), the integer loop tracked the ops best:
# over 20 windows of the same 15 s of short round trips, it cut the spread of
# their summed time from 6.7% to 3.7% (on cold ops it made no difference).
# The raw times are printed too.
REFERENCE_S = 1.1e-3
CALIBRATE_EVERY_S = 0.5

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class WrongAnswer(Exception):
    pass


def reference_kernel() -> int:
    x = 0
    for i in range(8000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


class Calibration:
    """Reference-kernel times through one phase of a run."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.sample()

    def sample(self) -> None:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
        self.kernel_s.append(statistics.median(times))

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.kernel_s)


def import_package():
    if not (SRC / "vccompress" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vccompress sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vccompress

    if Path(vccompress.__file__).resolve().parent != SRC / "vccompress":
        sys.exit(f"perfbench: imported vccompress from {vccompress.__file__}, not {SRC}")
    return vccompress


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_provenance(vccompress) -> None:
    import numpy

    print(f"vccompress: {vccompress.__file__}")
    print(f"commit: {git_commit()}")
    print(f"python: {platform.python_version()}  numpy: {numpy.__version__}")
    print(f"nproc: {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})")


class Workload:
    """Set-up state plus the op stream of one workload.  Set-up runs
    SETUP_REPEATS times from empty dimension caches; the median is reported,
    scaled by the reference kernel timed around the set-ups, and the last
    one's inputs are used."""

    def __init__(self, workloads, name: str, seed: int, min_ops: int):
        from vccompress import concepts

        self.name, self.seed = name, seed
        calibration = Calibration()
        setups, builds = [], []
        for _ in range(SETUP_REPEATS):
            concepts.vc_dimension.cache_clear()
            concepts.dual_class.cache_clear()
            start = time.perf_counter()
            builds.append(self._set_up(workloads, min_ops))
            setups.append(time.perf_counter() - start)
            calibration.sample()
        self.raw_setup_s = statistics.median(setups)
        self.setup_s = calibration.scale * self.raw_setup_s
        self.generators_build_s = calibration.scale * statistics.median(builds)

    def _set_up(self, workloads, min_ops: int) -> float:
        """Build inputs for at least `min_ops` ops, in whole rounds; returns
        the seconds spent building classes."""
        from vccompress import LabeledSample, compress

        start = time.perf_counter()
        if self.name == "cold_class":
            self.op_count = -(-min_ops // len(workloads.COLD_ROUND)) * len(workloads.COLD_ROUND)
            self.ops = workloads.cold_ops(self.seed, self.op_count)
            return time.perf_counter() - start
        roster = workloads.build_roster()
        build_s = time.perf_counter() - start
        for _, cls in roster:
            # fills the dimension caches and the class views every op reuses
            compress(cls, LabeledSample.from_concept(cls, 0, [0]), seed=0)
        round_size = len(workloads.design(self.name, roster))
        self.op_count = -(-min_ops // round_size) * round_size
        self.ops = workloads.roundtrip_ops(self.name, self.seed, roster)
        return build_s


def run_op(op, vccompress) -> dict:
    """Steps 1-4 timed, then step 5: the checks."""
    from vccompress import concepts, scheme

    start = time.perf_counter()
    cls = op.concept_class
    if cls is None:
        cls = concepts.ConceptClass.from_row_ints(op.domain_size, op.rows)
    compressed, report = scheme.compress(cls, op.sample, op.seed)
    compressed_at = time.perf_counter()
    data = scheme.serialize_compressed(compressed)
    read_at = time.perf_counter()
    decoded = scheme.deserialize_compressed(data)
    labels = scheme.reconstruct(cls, decoded)
    end = time.perf_counter()

    bound = vccompress.scheme_size_bound(
        report.details["vc_dimension"], report.details["dual_vc_dimension"], report.subset_budget
    )
    wrong = [p for p, label in op.sample.label_items if int(labels[p]) != label]
    if wrong:
        raise WrongAnswer(f"{op.label}: labels differ at points {wrong[:8]}")
    if decoded != compressed:
        raise WrongAnswer(f"{op.label}: container changed in its serialize round trip")
    if report.scheme_size > bound:
        raise WrongAnswer(f"{op.label}: scheme_size {report.scheme_size} > bound {bound}")
    return {
        "op_s": end - start,
        "compress_s": compressed_at - start,
        "read_s": end - read_at,
        "bits": report.scheme_size,
        "bound": bound,
        "votes": len(report.details["vote_concepts"]),
        "data": data,
    }


def probe_ceiling(workloads, vccompress, resource_errors) -> int:
    """Compress one class just past the memory ceiling; 1 if it fails."""
    probe = workloads.ceiling_op()
    start = time.perf_counter()
    try:
        run_op(probe, vccompress)
        outcome, failures = "completed", 0
    except resource_errors as exc:
        outcome, failures = type(exc).__name__, 1
    print(f"ceiling probe, relabelled {probe.label}: {outcome} after "
          f"{time.perf_counter() - start:.2f} s under a {ADDRESS_SPACE_CAP >> 20} MiB address-space cap")
    return failures


def summarize(results, failures) -> None:
    attempted = len(results) + len(failures)
    bits = [r["bits"] for r in results]
    bounds = [r["bound"] for r in results]
    print(f"{attempted} ops, {len(failures)} resource failures "
          f"(error_rate {len(failures) / attempted:.4f})")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    print(f"scheme_size bits: mean {statistics.fmean(bits):.1f}, p50 {statistics.median(bits):g}, "
          f"max {max(bits)}  vs  scheme_size_bound: p50 {statistics.median(bounds):g}, "
          f"min {min(bounds)}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    vccompress = import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    print_provenance(vccompress)
    resource_errors = (
        MemoryError,
        vccompress.ApproximationBudgetError,
        vccompress.BudgetExceededError,
        vccompress.ConvergenceError,
        vccompress.ExactSolverCapError,
    )
    workload = Workload(workloads, args.workload, args.seed, args.ops)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results, failures = [], []
    inputs_sha, containers_sha = hashlib.sha256(), hashlib.sha256()
    calibration = Calibration()
    next_sample = time.perf_counter() + CALIBRATE_EVERY_S
    for index, op in zip(range(workload.op_count), workload.ops):
        if time.perf_counter() >= next_sample:
            calibration.sample()
            next_sample = time.perf_counter() + CALIBRATE_EVERY_S
        if tracer is not None:
            tracer.op = index
        inputs_sha.update(op.fingerprint())
        try:
            result = run_op(op, vccompress)
        except resource_errors as exc:
            failures.append(f"{op.label}: {type(exc).__name__}")
            continue
        except WrongAnswer as exc:
            print(f"WRONG ANSWER: {exc}")
            print(json.dumps({"correct": False, "attempted": index + 1, "failed": len(failures)}))
            return 1
        containers_sha.update(result.pop("data"))
        results.append(result)
    calibration.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not results:
        print("perfbench: no op completed")
        return 1
    summarize(results, failures)
    print(f"op inputs sha256 {inputs_sha.hexdigest()}")
    print(f"containers sha256 {containers_sha.hexdigest()} over {len(results)} ops")
    scale = calibration.scale
    raw_op_ms = [1000 * r["op_s"] for r in results]
    op_ms = [scale * t for t in raw_op_ms]
    op_s_total = sum(op_ms) / 1000
    print(f"calibration: reference kernel p50 {1000 * REFERENCE_S / scale:.4f} ms over "
          f"{len(calibration.kernel_s)} samples, op times scaled by {scale:.4f}; raw op p50 "
          f"{statistics.median(raw_op_ms):.4f} ms, raw set-up {workload.raw_setup_s:.4f} s")

    out = {
        "attempted": len(results) + len(failures),
        "failed": len(failures),
        "op_inputs_sha256": inputs_sha.hexdigest(),
        "containers_sha256": containers_sha.hexdigest(),
        "op_s_total": op_s_total,
        "end_to_end": {
            "ops_per_s": (len(results) / op_s_total, "1/s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(op_ms, n=10, method="inclusive")[8], "ms"),
            "compress_p50_ms": (scale * statistics.median(1000 * r["compress_s"] for r in results), "ms"),
            "reconstruct_p50_ms": (scale * statistics.median(1000 * r["read_s"] for r in results), "ms"),
            "setup_s": (workload.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "scheme_bits_mean": (statistics.fmean(r["bits"] for r in results), "bits"),
        },
        "per_layer": {
            "scheme.distinct_votes_mean": (statistics.fmean(r["votes"] for r in results), "count"),
            "scheme.bound_ratio_mean": (statistics.fmean(r["bits"] / r["bound"] for r in results), "ratio"),
            "generators.build_s": (workload.generators_build_s, "s"),
        },
    }
    if tracer is not None:
        for name, (value, unit) in tracing.layer_metrics(tracer).items():
            out["per_layer"][name] = (scale * value if unit == "s" else value, unit)
        tracing.write_spans(tracer, ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json")
    # After measuring, so its allocations reach neither the op times nor peak_rss_mb.
    ceiling_failures = 0
    if args.workload == "cold_class":
        ceiling_failures = probe_ceiling(workloads, vccompress, resource_errors)
    out["per_layer"]["concepts.ceiling_failures"] = (ceiling_failures, "count")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
