"""Command-line interface: tables for densities, moments, reliability, MTTF,
reproducible sampling, and the self-verification suite.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 when
a verification fails, 2 on usage errors, on results outside double range and
on a quadrature cross-check that cannot converge.
CSV output uses a header row, comma delimiter, '.' decimal separator, LF line
endings, and 17 significant digits, so values round-trip exactly through float
parsing; JSON writes non-finite values as null.

Only what every command needs is imported at the top: a command imports
reliability, validation or json inside its own function, by reading the name
from the module at call time.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections.abc import Sequence

from .family import LINDLEY, DistSpec, check_count, check_positive, member_by_name
from .numerics import QuadratureError, np
from .sums import SumSpec, sample_sum

__all__ = ["DEFAULT_SEED", "SEED_ENV_VAR", "build_parser", "main"]

DEFAULT_SEED = 42
SEED_ENV_VAR = "LINDSUM_SEED"


def _fmt(value: float, decimals: int | None = None) -> str:
    if decimals is not None:
        return format(float(value), f".{decimals}f")
    return format(float(value), ".17g")


def _emit_table(
    columns: Sequence[str],
    rows: Sequence[Sequence],
    fmt: str,
    decimals: int | None = None,
) -> None:
    """Write a table of str or float cells as csv, json (non-finite floats as
    null), or aligned plain text."""
    if fmt == "json":
        import json

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
    widths = [max(map(len, column)) for column in zip(columns, *cells)]
    for row in [columns, *cells]:  # the last column unpadded: no line ends in spaces
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


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


def _nonempty(value: str) -> str:
    if value:
        return value
    raise ValueError(value)


def _count(low: int):
    return _arg_type(int, lambda v: check_count(v, "value", low), f"an integer >= {low}")


def _comma_list(item):
    return lambda raw: [item(piece) for piece in raw.split(",")]


_POSITIVE = _arg_type(float, lambda v: check_positive(v, "value"), "a positive finite number")
_MEMBER = _arg_type(str, member_by_name, "a family member name")
_FINITE = _arg_type(float, _at_least(-math.inf), "a finite number")
_NONNEGATIVE = _arg_type(float, _at_least(0.0), "a finite number >= 0")
_PREFIX = _arg_type(str, _nonempty, "a nonempty check-id prefix")
_COUNT, _DECIMALS, _POINTS = _count(1), _count(0), _count(2)


def _sum_spec(args: argparse.Namespace) -> SumSpec:
    return SumSpec(DistSpec(args.dist, args.theta), args.n)


def _grid(args, parser, point: float | None, lo: float, hi: float | None) -> list[float]:
    """[point] if one was given, else args.points evenly spaced values on [lo, hi],
    as Python floats bit-identical to np.linspace(lo, hi, args.points)."""
    if point is not None:
        return [point]
    if not hi > lo:
        parser.error(f"grid upper bound must exceed lower bound, got [{lo}, {hi}]")
    delta = hi - lo
    if not math.isfinite(delta):
        parser.error(f"grid span must be finite, got [{lo}, {hi}]")
    div = args.points - 1
    step = delta / div
    if step:
        return [lo + i * step for i in range(div)] + [hi]
    # linspace's branch for a step that underflows to 0 (a subnormal span)
    return [lo + i / div * delta for i in range(div)] + [hi]


def cmd_pdf(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _sum_spec(args)
    hi = 5.0 * spec.mean() if args.x is None and args.x_max is None else args.x_max
    grid = _grid(args, parser, args.x, args.x_min, hi)
    # one survival call per row: cdf is 1 - survival, as ErlangMixture.cdf takes it
    rows = [[x, spec.pdf(x), 1.0 - (s := spec.survival(x)), s] for x in grid]
    _emit_table(["x", "pdf", "cdf", "survival"], rows, args.format)
    return 0


def cmd_moments(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _sum_spec(args)
    rows = [[f"moment[{m}]", spec.moment(m)] for m in range(1, args.m_max + 1)]
    if args.central:
        # cumulants add over the n IID summands, kappa_j(S_n) = n kappa_j(X), so
        # the shape rows come from one summand's moments; the sum's own raw
        # moments would cancel in all but a few digits once n is large
        x1, x2, x3, x4 = map(SumSpec(spec.dist, 1).moment, range(1, 5))
        k2 = x2 - x1**2
        k3 = x3 - 3.0 * x1 * x2 + 2.0 * x1**3
        k4 = x4 - 4.0 * x1 * x3 + 6.0 * x1**2 * x2 - 3.0 * x1**4 - 3.0 * k2**2
        rows += [
            ["mean", spec.mean()],
            ["variance", spec.variance()],
            ["skewness", k3 / k2**1.5 / math.sqrt(spec.n)],
            ["kurtosis", 3.0 + k4 / (spec.n * k2**2)],
        ]
    columns = ["statistic", "value"]
    if args.verify:
        from .validation import MOMENT_BOUND, _relative_error, quadrature_moment

        worst = 0.0
        columns += ["quadrature", "rel_error"]
        for m, row in enumerate(rows[: args.m_max], start=1):
            numeric = quadrature_moment(spec, m)
            row += [numeric, _relative_error(numeric, row[1])]
            worst = max(worst, row[3])
        for row in rows[args.m_max :]:  # the central rows have no quadrature check
            row += [math.nan, math.nan]
    _emit_table(columns, rows, args.format)
    if args.verify and worst > MOMENT_BOUND:
        print(
            f"moment verification failed: worst relative error {worst:.3g} "
            f"exceeds {MOMENT_BOUND:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_reliability(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .reliability import StandbyModel

    grid = _grid(args, parser, args.t, 0.0, args.t_max)
    routes = [StandbyModel.of(DistSpec(args.dist, args.theta), args.n).reliability]
    columns = ["t", f"R_{args.dist.name.lower()}"]
    if args.compare_exponential:
        routes.append(StandbyModel.exponential(args.theta, args.n).reliability)
        columns.append("R_exponential")
    rows = [[t, *(route(t) for route in routes)] for t in grid]
    _emit_table(columns, rows, args.format)
    return 0


def cmd_mttf(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .reliability import StandbyModel

    # each member once; Lindley is always a column
    extra = [m for m in dict.fromkeys(args.dist) if m is not LINDLEY]
    columns = ["theta", "mttf_lindley", "mttf_exponential"]
    columns += [f"mttf_{m.name.lower()}" for m in extra]
    rows = [
        [theta, *(model.mttf() for model in (
            StandbyModel.of(DistSpec(LINDLEY, theta), args.n),
            StandbyModel.exponential(theta, args.n),
            *(StandbyModel.of(DistSpec(m, theta), args.n) for m in extra),
        ))]
        for theta in args.theta
    ]
    _emit_table(columns, rows, args.format, decimals=args.decimals)
    return 0


def cmd_sample(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    draws = sample_sum(_sum_spec(args), np.random.default_rng(args.seed), args.count)
    sys.stdout.write("".join(f"{v:.17g}\n" for v in draws.tolist()))
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .validation import CheckResult, VerifyConfig, verify_all

    members = tuple(m.name for m in args.member) if args.member else None
    only = tuple(args.only) if args.only else None
    # --samples defaults to VerifyConfig's own count
    samples = {} if args.samples is None else {"sample_count": args.samples}
    report = verify_all(VerifyConfig(members=members, only=only, **samples))
    if not report.results:
        parser.error(f"--only {','.join(args.only)!r} matched no checks")
    if args.format == "plain":
        for line in report.to_lines():
            print(line)
    else:
        rows = [[getattr(r, c) for c in CheckResult._fields] for r in report.results]
        _emit_table(CheckResult._fields, rows, args.format)
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


def _add_spec_flags(sub: argparse.ArgumentParser, dist: str | None = None, n: int = 1) -> None:
    """--dist (required unless given a default), --theta and --n of one n-fold sum."""
    sub.add_argument(
        "--dist", type=_MEMBER, required=dist is None, default=dist,
        help="family member name, case-insensitive" + (f" (default {dist})" if dist else ""),
    )
    sub.add_argument("--theta", type=_POSITIVE, required=True, help="rate parameter, > 0")
    sub.add_argument("--n", type=_COUNT, default=n, help=f"number of summands (default {n})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindsum",
        description=(
            "Closed-form sums of Lindley-family lifetimes and 1-out-of-n "
            "cold-standby reliability."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        """A subcommand whose func takes its own parser, for its usage errors."""
        sub = subparsers.add_parser(name, help=help)
        sub.set_defaults(func=lambda args: func(args, sub))
        return sub

    pdf = command("pdf", cmd_pdf, "density, cdf, and survival of an n-fold sum")
    _add_spec_flags(pdf)
    pdf.add_argument("--x", type=_FINITE, default=None,
                     help="single evaluation point; give e-notation negatives as --x=-2e0")
    pdf.add_argument("--x-min", type=_FINITE, default=0.0,
                     help="grid start (default 0); give e-notation negatives as --x-min=-1e-3")
    pdf.add_argument("--x-max", type=_FINITE, default=None,
                     help="grid end (default 5*mean); give e-notation negatives as --x-max=-1e-3")
    pdf.add_argument("--points", type=_POINTS, default=101, help="grid size (default 101)")
    _add_format(pdf)

    moments = command("moments", cmd_moments, "raw moments of an n-fold sum")
    _add_spec_flags(moments)
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

    reliability = command(
        "reliability", cmd_reliability, "cold-standby reliability curve or point value"
    )
    _add_spec_flags(reliability, dist="lindley", n=5)
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

    mttf = command("mttf", cmd_mttf, "MTTF comparison table")
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

    sample = command("sample", cmd_sample, "reproducible draws of n-fold sums")
    _add_spec_flags(sample)
    sample.add_argument("--count", type=_COUNT, required=True, help="number of draws")
    # argparse converts a str default with type= too: a bad LINDSUM_SEED is a usage error
    from_env = f" ({SEED_ENV_VAR} sets the default)" if SEED_ENV_VAR in os.environ else ""
    sample.add_argument(
        "--seed", default=os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)),
        type=_arg_type(int, lambda v: check_count(v, "value", 0), f"an integer >= 0{from_env}"),
        help=f"RNG seed, >= 0 (default: ${SEED_ENV_VAR}, else {DEFAULT_SEED})",
    )

    verify = command("verify", cmd_verify, "run the cross-check suite")
    verify.add_argument(
        "--only", type=_comma_list(_PREFIX), default=None,
        help="comma-separated check-id prefixes, e.g. mttf-reference,reductions"
    )
    verify.add_argument(
        "--member",
        type=_comma_list(_MEMBER),
        default=None,
        help="comma-separated member names to restrict member checks",
    )
    verify.add_argument(
        "--samples", type=_COUNT, default=None,
        help="Monte Carlo sums drawn per seed (default: VerifyConfig.sample_count); "
        "each ks/* check pools the three seeds' samples",
    )
    _add_format(verify, default="plain")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, QuadratureError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
