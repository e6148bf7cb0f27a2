"""vccompress benchmark: compress -> serialize -> deserialize -> reconstruct.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root; vccompress is imported from ``src/``.  Each
workload runs closed-loop with a single client in a fresh child process
(``worker.py``) that caps its own address space and pins BLAS to one thread.

``--trace 0`` prints the end-to-end metrics of one untraced pass.
``--trace 1`` runs a shorter list of ops twice, untraced and then traced, and
prints the per-layer metrics of the traced pass plus the tracing overhead.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  Exits 1 on a wrong answer (labels, container round trip, size
bound) and 2 when the sources are missing or a worker fails otherwise;
resource failures (MemoryError, typed budget errors) are counted, not fatal.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip_short", "roundtrip_long", "cold_class")
# Every run does a fixed amount of work, --seconds times these rates rounded
# up to whole rounds, so the runs of one workload differ only in op order,
# compress seeds and timing.  The rates are about the ops per second of the
# commit the benchmark was defined on (2 cores, Python 3.11, numpy 2.4),
# except that roundtrip_long runs two rounds (288 ops, about 35 s): with one
# round, op_p90_ms rested on 14 ops and moved by 30% between runs.
OPS_PER_SECOND = {"roundtrip_short": 200, "roundtrip_long": 14.4, "cold_class": 12}
# A trace run makes two passes, untraced and traced, over fewer ops.
TRACE_OPS_PER_SECOND = {"roundtrip_short": 60, "roundtrip_long": 3, "cold_class": 4}
MIN_OPS = 100  # so that at least 10 ops lie beyond op_p90_ms
SELF_TEST_OPS = {"roundtrip_short": 300, "roundtrip_long": 24, "cold_class": 32}
TIME_LIMIT_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(Exception):
    def __init__(self, message: str, result: dict | None = None):
        super().__init__(message)
        self.result = result


def run_worker(workload, seed, mode, ops, deadline) -> dict:
    env = dict(os.environ, **{name: "1" for name in THREAD_PINS}, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--ops", str(ops),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(f"[{mode}] {line}")
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"[{mode}] {lines[-1]}")
    if proc.returncode != 0 or result is None:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}", result)
    return result


def as_metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not trace:
        ops = max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))
        result = run_worker(workload, seed, "plain", ops, deadline)
        return {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": as_metrics(result["end_to_end"]),
        }
    ops = max(1, round(seconds * TRACE_OPS_PER_SECOND[workload]))
    plain = run_worker(workload, seed, "plain", ops, deadline)
    traced = run_worker(workload, seed, "traced", ops, deadline)
    # tracing must observe the program, never change what it computes
    same = all(plain[k] == traced[k] for k in ("op_inputs_sha256", "containers_sha256", "failed"))
    if not same:
        print("WRONG ANSWER: the traced pass computed other containers than the untraced pass")
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_ratio"] = (traced["op_s_total"] / plain["op_s_total"], "ratio")
    return {
        "correct": same,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": as_metrics(metrics),
    }


def self_test() -> bool:
    """Same seed: identical op inputs, containers and per-layer counts.
    Other seed: other op inputs."""
    ok = True
    for workload in WORKLOADS:
        ops = SELF_TEST_OPS[workload]
        deadline = time.monotonic() + TIME_LIMIT_S
        first, second = (run_worker(workload, 1, "traced", ops, deadline) for _ in range(2))
        other = run_worker(workload, 2, "plain", ops, deadline)
        checks = {
            "same seed, same op inputs": first["op_inputs_sha256"] == second["op_inputs_sha256"],
            "same seed, same containers": first["containers_sha256"] == second["containers_sha256"],
            "same seed, same counts": {
                k: v for k, v in first["per_layer"].items() if v[1] == "count"
            } == {k: v for k, v in second["per_layer"].items() if v[1] == "count"},
            "other seed, other op inputs": first["op_inputs_sha256"] != other["op_inputs_sha256"],
        }
        for name, passed in checks.items():
            print(f"self-test {workload}: {name}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "vccompress" / "__init__.py").is_file():
        print(f"perfbench: no vccompress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if exc.result is None or exc.result.get("correct", True):
            return 2
        result = {k: exc.result[k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = {}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
