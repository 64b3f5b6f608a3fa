"""Command-line interface: tables for densities, moments, reliability, MTTF,
reproducible sampling, and the self-verification suite.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 when
a verification fails, 2 on usage errors and on results outside double range.
CSV output uses a header row, comma delimiter, '.' decimal separator, LF line
endings, and 17 significant digits, so values round-trip exactly through float
parsing; JSON writes non-finite values as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Sequence

import numpy as np

from .family import DistSpec, check_count, check_positive, member_by_name
from .numerics import integrate
from .reliability import ExponentialStandby, StandbyModel, mttf_table
from .sums import SumSpec
from .validation import VerifyConfig, sample_sum, verify_all

__all__ = ["DEFAULT_SEED", "SEED_ENV_VAR", "build_parser", "main"]

DEFAULT_SEED = 42
SEED_ENV_VAR = "LINDSUM_SEED"

_MOMENT_VERIFY_BOUND = 1e-6


def _fmt(value: float, decimals: int | None = None) -> str:
    if decimals is not None:
        return format(float(value), f".{decimals}f")
    return format(float(value), ".17g")


def _emit_table(
    columns: list[str],
    rows: list[list],
    fmt: str,
    decimals: int | None = None,
) -> None:
    """Write a table of str or float cells as csv, json (non-finite floats as
    null), or aligned plain text."""
    if fmt == "json":
        records = [
            {
                col: cell if isinstance(cell, str) else float(cell) if math.isfinite(cell) else None
                for col, cell in zip(columns, row)
            }
            for row in rows
        ]
        print(json.dumps(records, indent=2))
        return
    cells = [
        [cell if isinstance(cell, str) else _fmt(cell, decimals) for cell in row] for row in rows
    ]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    print("  ".join(name.ljust(w) for name, w in zip(columns, widths)))
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _arg_type(parse, check, expected: str):
    """An argparse type that parses, then checks; a failure exits 2 naming the flag."""

    def convert(raw: str):
        try:
            return check(parse(raw))
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}") from None

    return convert


def _at_least(low: float):
    def check(value):
        if math.isfinite(value) and value >= low:
            return value
        raise ValueError(value)

    return check


def _count(low: int):
    return _arg_type(int, lambda v: check_count(v, "value", low), f"an integer >= {low}")


def _comma_list(item):
    return lambda raw: [item(piece) for piece in raw.split(",")]


_POSITIVE = _arg_type(float, lambda v: check_positive(v, "value"), "a positive finite number")
_MEMBER = _arg_type(str, member_by_name, "a family member name")
_FINITE = _arg_type(float, _at_least(-math.inf), "a finite number")
_NONNEGATIVE = _arg_type(float, _at_least(0.0), "a finite number >= 0")
_COUNT, _DECIMALS, _POINTS = _count(1), _count(0), _count(2)


def _resolve_seed(parser: argparse.ArgumentParser, seed: int | None) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        parser.error(f"environment variable {SEED_ENV_VAR} must be an integer, got {raw!r}")


def cmd_pdf(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = SumSpec(DistSpec(args.dist, args.theta), args.n)
    if args.x is not None:
        grid = np.array([args.x], dtype=float)
    else:
        hi = args.x_max if args.x_max is not None else 5.0 * spec.mean()
        if not hi > args.x_min:
            parser.error(f"grid upper bound must exceed lower bound, got [{args.x_min}, {hi}]")
        grid = np.linspace(args.x_min, hi, args.points)
    rows = [
        [float(x), spec.pdf(float(x)), float(cdf), float(survival)]
        for x, cdf, survival in zip(grid, spec.cdf(grid), spec.survival(grid))
    ]
    _emit_table(["x", "pdf", "cdf", "survival"], rows, args.format)
    return 0


def cmd_moments(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = SumSpec(DistSpec(args.dist, args.theta), args.n)

    labels = [f"moment[{m}]" for m in range(1, args.m_max + 1)]
    values = [spec.moment(m) for m in range(1, args.m_max + 1)]
    if args.central:
        m1, m2, m3, m4 = (spec.moment(m) for m in range(1, 5))
        mean = m1
        variance = m2 - m1 * m1
        sd = math.sqrt(variance)
        skewness = (m3 - 3.0 * mean * variance - mean**3) / sd**3
        kurtosis = (m4 - 4.0 * mean * m3 + 6.0 * mean**2 * m2 - 3.0 * mean**4) / variance**2
        labels += ["mean", "variance", "skewness", "kurtosis"]
        values += [mean, variance, skewness, kurtosis]

    if not args.verify:
        rows = [[label, value] for label, value in zip(labels, values)]
        _emit_table(["statistic", "value"], rows, args.format)
        return 0

    scale = max(1.0, spec.mean())
    rows = []
    worst = 0.0
    for m in range(1, args.m_max + 1):
        closed = spec.moment(m)
        numeric = integrate(
            lambda x: x**m * spec.pdf(x), 0.0, math.inf, 1e-9, scale=scale
        ).value
        rel = abs(closed - numeric) / closed
        worst = max(worst, rel)
        rows.append([f"moment[{m}]", closed, numeric, rel])
    _emit_table(["statistic", "value", "quadrature", "rel_error"], rows, args.format)
    if worst > _MOMENT_VERIFY_BOUND:
        print(
            f"moment verification failed: worst relative error {worst:.3g} "
            f"exceeds {_MOMENT_VERIFY_BOUND:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_reliability(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    model = StandbyModel(DistSpec(args.dist, args.theta), args.n)
    if args.t is not None:
        grid = np.array([args.t], dtype=float)
    else:
        grid = np.linspace(0.0, args.t_max, args.points)
    values = np.asarray(model.reliability(grid), dtype=float)
    columns = ["t", f"R_{args.dist.name.lower()}"]
    table = [grid, values]
    if args.compare_exponential:
        comparator = ExponentialStandby(args.theta, args.n)
        table.append(np.asarray(comparator.reliability(grid), dtype=float))
        columns.append("R_exponential")
    rows = [[float(col[i]) for col in table] for i in range(len(grid))]
    _emit_table(columns, rows, args.format)
    return 0


def cmd_mttf(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    columns = ["theta", "mttf_lindley", "mttf_exponential"]
    columns += [f"mttf_{m.name.lower()}" for m in args.dist]
    rows = [
        [*row, *(StandbyModel(DistSpec(m, row.theta), args.n).mttf() for m in args.dist)]
        for row in mttf_table(args.theta, args.n)
    ]
    _emit_table(columns, rows, args.format, decimals=args.decimals)
    return 0


def cmd_sample(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(parser, args.seed)
    spec = SumSpec(DistSpec(args.dist, args.theta), args.n)
    rng = np.random.default_rng(seed)
    draws = sample_sum(spec, rng, args.count)
    sys.stdout.write("".join(f"{_fmt(v)}\n" for v in draws))
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    members = tuple(m.name for m in args.member) if args.member else None
    only = tuple(args.only.split(",")) if args.only else None
    report = verify_all(VerifyConfig(members=members, only=only, sample_count=args.samples))
    if not report.results:
        parser.error(f"--only {args.only!r} matched no checks")
    if args.format == "plain":
        for line in report.to_lines():
            print(line)
    else:
        columns = ["check_id", "status", "value", "bound", "detail", "elapsed_s"]
        rows = [
            [r.check_id, r.status, r.value, r.bound, r.detail, r.elapsed_s]
            for r in report.results
        ]
        _emit_table(columns, rows, args.format)
    if not report.all_passed:
        failed = sum(1 for r in report.results if r.status != "pass")
        print(f"{failed} of {len(report.results)} checks did not pass", file=sys.stderr)
        return 1
    return 0


def _add_format(sub: argparse.ArgumentParser, default: str = "csv") -> None:
    sub.add_argument(
        "--format",
        choices=("csv", "json", "plain"),
        default=default,
        help=f"output format (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindsum",
        description=(
            "Closed-form sums of Lindley-family lifetimes and 1-out-of-n "
            "cold-standby reliability."
        ),
        epilog=(
            f"The default sampling seed is {DEFAULT_SEED}; set {SEED_ENV_VAR} "
            "to override it without passing --seed."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    pdf = subparsers.add_parser("pdf", help="density, cdf, and survival of an n-fold sum")
    pdf.add_argument(
        "--dist", type=_MEMBER, required=True, help="family member name (case-insensitive)"
    )
    pdf.add_argument("--theta", type=_POSITIVE, required=True, help="rate parameter, > 0")
    pdf.add_argument("--n", type=_COUNT, default=1, help="number of summands (default 1)")
    pdf.add_argument("--x", type=_FINITE, default=None, help="single evaluation point")
    pdf.add_argument("--x-min", type=_FINITE, default=0.0, help="grid start (default 0)")
    pdf.add_argument("--x-max", type=_FINITE, default=None, help="grid end (default 5*mean)")
    pdf.add_argument("--points", type=_POINTS, default=101, help="grid size (default 101)")
    _add_format(pdf)
    pdf.set_defaults(func=cmd_pdf)

    moments = subparsers.add_parser("moments", help="raw moments of an n-fold sum")
    moments.add_argument("--dist", type=_MEMBER, required=True)
    moments.add_argument("--theta", type=_POSITIVE, required=True)
    moments.add_argument("--n", type=_COUNT, default=1)
    moments.add_argument("--m-max", type=_COUNT, default=4, help="highest moment (default 4)")
    moments.add_argument(
        "--central",
        action="store_true",
        help="also report mean, variance, skewness, and kurtosis",
    )
    moments.add_argument(
        "--verify",
        action="store_true",
        help="cross-check each moment against quadrature; exit 1 on disagreement",
    )
    _add_format(moments)
    moments.set_defaults(func=cmd_moments)

    reliability = subparsers.add_parser(
        "reliability", help="cold-standby reliability curve or point value"
    )
    reliability.add_argument(
        "--dist", type=_MEMBER, default="lindley", help="family member (default lindley)"
    )
    reliability.add_argument("--theta", type=_POSITIVE, required=True)
    reliability.add_argument("--n", type=_COUNT, default=5, help="number of units (default 5)")
    reliability.add_argument("--t", type=_NONNEGATIVE, default=None, help="single time point")
    reliability.add_argument(
        "--t-max", type=_POSITIVE, default=100.0, help="grid end (default 100)"
    )
    reliability.add_argument("--points", type=_POINTS, default=101, help="grid size (default 101)")
    reliability.add_argument(
        "--compare-exponential",
        action="store_true",
        help="add the exponential-component reliability column",
    )
    _add_format(reliability)
    reliability.set_defaults(func=cmd_reliability)

    mttf = subparsers.add_parser("mttf", help="MTTF comparison table")
    mttf.add_argument(
        "--theta",
        type=_comma_list(_POSITIVE),
        required=True,
        help="comma-separated list of rates, e.g. 0.1,0.5,1,3",
    )
    mttf.add_argument("--n", type=_COUNT, default=5, help="number of units (default 5)")
    mttf.add_argument(
        "--dist",
        type=_comma_list(_MEMBER),
        default=(),
        help="comma-separated member names for extra MTTF columns",
    )
    mttf.add_argument(
        "--decimals",
        type=_DECIMALS,
        default=None,
        help="fixed-decimal rendering for csv/plain output (e.g. 2)",
    )
    _add_format(mttf)
    mttf.set_defaults(func=cmd_mttf)

    sample = subparsers.add_parser("sample", help="reproducible draws of n-fold sums")
    sample.add_argument("--dist", type=_MEMBER, required=True)
    sample.add_argument("--theta", type=_POSITIVE, required=True)
    sample.add_argument("--n", type=_COUNT, default=1, help="summands per draw (default 1)")
    sample.add_argument("--count", type=_COUNT, required=True, help="number of draws")
    sample.add_argument("--seed", type=int, default=None, help=f"RNG seed (default {DEFAULT_SEED})")
    sample.set_defaults(func=cmd_sample)

    verify = subparsers.add_parser("verify", help="run the cross-check suite")
    verify.add_argument(
        "--only", default=None,
        help="comma-separated check-id prefixes, e.g. mttf-reference,reductions"
    )
    verify.add_argument(
        "--member",
        type=_comma_list(_MEMBER),
        default=None,
        help="comma-separated member names to restrict member checks",
    )
    verify.add_argument(
        "--samples", type=_COUNT, default=1_000_000, help="Monte Carlo sample count (default 1e6)"
    )
    _add_format(verify, default="plain")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ArithmeticError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
