"""Command-line interface.

    vccompress vc          --class-file C            class stats and dimensions
    vccompress dual        --class-file C            emit the dual class (text)
    vccompress approx      --class-file C --epsilon E  certified approximation
    vccompress game        --matrix-file M           solve a zero-sum game
    vccompress nash        --matrix-file M --epsilon E  sparse equilibrium
    vccompress compress    --class-file C --sample-file S --out B  compress
    vccompress reconstruct --class-file C --in B     decode and vote
    vccompress verify      --class-file C --sample-file S  round-trip check
    vccompress experiment  --class-file C            generalization run
    vccompress suite                                  acceptance criteria

Classes come from a text file (--class-file) or an inline generator spec
(--class-spec '{"kind": "intervals", "n": 10}').  Samples are text files of
"point label" lines.  Results are JSON on stdout; exact rationals are printed
as fraction strings.  Exit codes: 0 success, 1 a verification or suite run
failed or a solver ran out of budget (ApproximationBudgetError,
ConvergenceError), 2 bad input or configuration, or memory ran out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from .approx import ProbabilityVector, epsilon_approximation
from .concepts import (
    LabeledSample,
    dual_class,
    parse_concept_class,
    serialize_concept_class,
    vc_dimension,
)
from .errors import ApproximationBudgetError, ConfigError, ConvergenceError, ParseError
from .experiment import generalization_experiment
from .game import EXACT_ENTRY_CAP, parse_payoff_matrix, solve_exact, solve_mw, sparse_epsilon_nash
from .generators import make_concept_class
from .scheme import (
    compress,
    deserialize_compressed,
    reconstruct,
    serialize_compressed,
    verify_round_trip,
)
from .suite import run_suite

__all__ = ["main"]


def _json_ready(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _emit(payload, out: str | None = None):
    text = json.dumps(payload, indent=2, default=_json_ready)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_class(args):
    if getattr(args, "class_spec", None):
        return make_concept_class(json.loads(args.class_spec))
    if getattr(args, "class_file", None):
        return parse_concept_class(Path(args.class_file).read_text())
    raise ConfigError("provide --class-file or --class-spec")


def _parse_sample_text(text: str) -> LabeledSample:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'point label'", lineno)
        try:
            point, label = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("point and label must be integers", lineno) from None
        if label not in (0, 1):
            raise ParseError("label must be 0 or 1", lineno)
        pairs.append((point, label))
    return LabeledSample.from_pairs(pairs)


def _parse_distribution(spec: str, size: int) -> ProbabilityVector:
    """The --distribution option: 'uniform', 'point:IDX' or comma-separated
    weights; ConfigError, naming the option, when IDX or a weight is not a
    number."""
    if spec == "uniform":
        return ProbabilityVector.uniform(size)
    point_mass = spec.startswith("point:")
    try:
        if point_mass:
            index = int(spec.split(":", 1)[1])
        else:
            weights = [float(part) for part in spec.split(",")]
    except ValueError:
        raise ConfigError(
            f"--distribution needs 'uniform', 'point:IDX' or comma-separated weights, "
            f"got {spec!r}"
        ) from None
    if point_mass:
        return ProbabilityVector.point_mass(size, index)
    return ProbabilityVector(weights)


# -- subcommands --


def _cmd_vc(args) -> int:
    cls = _load_class(args)
    payload = {
        "domain_size": cls.domain_size,
        "concepts": len(cls.rows),
        "vc_dimension": vc_dimension(cls),
    }
    if args.with_dual:
        dual = dual_class(cls)
        payload["dual_concepts"] = len(dual.rows)
        payload["dual_vc_dimension"] = vc_dimension(dual)
    _emit(payload, args.out)
    return 0


def _cmd_dual(args) -> int:
    text = serialize_concept_class(dual_class(_load_class(args)))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_approx(args) -> int:
    cls = _load_class(args)
    mu = _parse_distribution(args.distribution, cls.domain_size)
    certificate = epsilon_approximation(cls, mu, args.epsilon, args.seed)
    _emit(
        {
            "epsilon": certificate.epsilon,
            "size": len(certificate.multiset),
            "size_bound": certificate.size_bound,
            "max_deviation": certificate.max_deviation,
            "multiset": list(certificate.multiset),
        },
        args.out,
    )
    return 0


def _cmd_game(args) -> int:
    matrix = parse_payoff_matrix(Path(args.matrix_file).read_text())
    method = args.method
    if method == "auto":
        method = "exact" if matrix.size <= EXACT_ENTRY_CAP else "mw"
    if method == "exact":
        solution = solve_exact(matrix)
    else:
        solution = solve_mw(matrix, target_exploitability=args.target)
    _emit(
        {
            "method": method,
            "rows": matrix.shape[0],
            "cols": matrix.shape[1],
            "value": solution.value_estimate,
            "exact_value": solution.exact_value,
            "exploitability": solution.exploitability,
            "iterations": solution.iterations,
            "row_strategy": solution.row_strategy.weights.tolist(),
            "col_strategy": solution.col_strategy.weights.tolist(),
        },
        args.out,
    )
    return 0


def _cmd_nash(args) -> int:
    matrix = parse_payoff_matrix(Path(args.matrix_file).read_text())
    eq = sparse_epsilon_nash(matrix, args.epsilon, args.seed)
    _emit(dataclasses.asdict(eq), args.out)
    return 0


def _cmd_compress(args) -> int:
    cls = _load_class(args)
    sample = _parse_sample_text(Path(args.sample_file).read_text())
    compressed, report = compress(cls, sample)
    blob = serialize_compressed(compressed)
    Path(args.out).write_bytes(blob)
    payload = {
        "out": args.out,
        "bytes": len(blob),
        "kernel_size": report.kernel_size,
        "info_bits": report.info_bits,
        "subset_count": report.subset_count,
        "subset_budget": report.subset_budget,
        "scheme_size": report.scheme_size,
        "details": report.known_details,
    }
    _emit(payload, args.report)
    return 0


def _cmd_reconstruct(args) -> int:
    cls = _load_class(args)
    compressed = deserialize_compressed(Path(args.infile).read_bytes())
    labels = reconstruct(cls, compressed)
    _emit(
        {
            "domain_size": cls.domain_size,
            "kernel_size": compressed.kernel_size,
            "subset_count": compressed.subset_count,
            "labels": "".join(str(int(x)) for x in labels),
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    cls = _load_class(args)
    sample = _parse_sample_text(Path(args.sample_file).read_text())
    result = verify_round_trip(cls, sample)
    _emit(
        {
            "passed": result.passed,
            "mismatches": list(result.mismatches),
            "hypotheses_match": result.hypotheses_match,
            "size_within_bound": result.size_within_bound,
            "kernel_size": result.report.kernel_size,
            "scheme_size": result.report.scheme_size,
            "details": result.report.known_details,
        },
        args.out,
    )
    return 0 if result.passed else 1


def _cmd_experiment(args) -> int:
    cls = _load_class(args)
    report = generalization_experiment(
        cls,
        epsilon=args.epsilon,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        pilot_runs=args.pilot_runs,
    )
    _emit({**dataclasses.asdict(report), "within_tolerance": report.within_tolerance}, args.out)
    return 0


def _cmd_suite(args) -> int:
    criteria = None
    if args.criteria is not None:
        try:
            criteria = [int(part) for part in args.criteria.split(",")]
        except ValueError:
            raise ConfigError(
                f"--criteria needs comma-separated integers, got {args.criteria!r}"
            ) from None
    report = run_suite(seed=args.seed, criteria=criteria, echo=True)
    if args.out:
        _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vccompress",
        description="sample compression for finite binary concept classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_options(p):
        p.add_argument("--class-file", help="concept class in the text format")
        p.add_argument(
            "--class-spec", help='generator spec JSON, e.g. {"kind": "intervals", "n": 10}'
        )

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("vc", help="dimensions of a concept class")
    add_class_options(p)
    p.add_argument("--with-dual", action="store_true", help="also compute the dual dimensions")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_vc)

    p = sub.add_parser("dual", help="emit the dual class in the text format")
    add_class_options(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("approx", help="certified epsilon-approximation of a distribution")
    add_class_options(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument(
        "--distribution",
        default="uniform",
        help="'uniform', 'point:IDX', or comma-separated weights",
    )
    add_common(p)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("game", help="solve a zero-sum 0/1 game")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--method", choices=("auto", "exact", "mw"), default="auto")
    p.add_argument("--target", type=float, default=0.01, help="mw exploitability target")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("nash", help="sparse epsilon-equilibrium with support bounds")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_nash)

    p = sub.add_parser("compress", help="compress a labeled sample")
    add_class_options(p)
    p.add_argument("--sample-file", required=True)
    p.add_argument("--out", required=True, help="where to write the binary blob")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("reconstruct", help="decode a blob and vote out the labels")
    add_class_options(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("verify", help="compress + reconstruct and check everything")
    add_class_options(p)
    p.add_argument("--sample-file", required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="generalization experiment")
    add_class_options(p)
    p.add_argument("--epsilon", type=float, default=1 / 3)
    p.add_argument("--delta", type=float, default=1 / 3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--pilot-runs", type=int, default=32)
    add_common(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,5,9")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ApproximationBudgetError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
