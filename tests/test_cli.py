"""End-to-end tests for the command-line interface, run in-process."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from exact_moments import central_summaries

import lindsum
import lindsum.numerics
import lindsum.reliability
from lindsum import cli
from lindsum.cli import DEFAULT_SEED, SEED_ENV_VAR, main
from lindsum.family import AKASH, LINDLEY, RAM_AWADH, RANI, SHANKER, DistSpec
from lindsum.numerics import QuadratureError, QuadratureResult
from lindsum.reliability import StandbyModel, lindley_mttf
from lindsum.sums import SumSpec


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_expecting_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


class TestPdfCommand:
    def test_single_point_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, ["pdf", "--dist", "lindley", "--theta", "1", "--x", "0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,pdf,cdf,survival"
        assert lines[1] == "0,0.5,0,1"

    def test_negative_point_in_e_notation_joined_to_its_flag(self, capsys):
        # argparse (3.11) reads the split form --x -2e0 as two flags, so the
        # help gives the joined form
        code, out, _ = run_cli(capsys, ["pdf", "--dist", "lindley", "--theta", "1", "--n", "2",
                                        "--x=-2e0"])
        assert code == 0
        assert out.splitlines()[1] == "-2,0,0,1"

    def test_grid_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, ["pdf", "--dist", "lindley", "--theta", "1", "--n", "5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 102  # header + 101 grid rows
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0
        np.testing.assert_allclose(float(last[0]), 37.5, rtol=1e-12)  # 5 * mean

    def test_values_match_library(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["pdf", "--dist", "akash", "--theta", "2", "--n", "3", "--x", "1.25"],
        )
        row = out.splitlines()[1].split(",")
        spec = SumSpec(DistSpec(AKASH, 2.0), 3)
        np.testing.assert_allclose(float(row[1]), spec.pdf(1.25), rtol=1e-15)
        np.testing.assert_allclose(float(row[3]), spec.survival(1.25), rtol=1e-15)

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["pdf", "--dist", "rani", "--theta", "1", "--x", "2", "--format", "json"],
        )
        records = json.loads(out)
        assert len(records) == 1
        assert set(records[0]) == {"x", "pdf", "cdf", "survival"}

    def test_unknown_member_exits_2(self, capsys):
        err = run_cli_expecting_usage_error(
            capsys, ["pdf", "--dist", "weibull", "--theta", "1", "--x", "1"]
        )
        assert "--dist" in err and "weibull" in err

    def test_nonpositive_theta_exits_2(self, capsys):
        err = run_cli_expecting_usage_error(
            capsys, ["pdf", "--dist", "lindley", "--theta", "0", "--x", "1"]
        )
        assert "--theta" in err


class TestMomentsCommand:
    def test_first_moment_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--dist", "lindley", "--theta", "1", "--n", "5", "--m-max", "1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "statistic,value"
        label, value = lines[1].split(",")
        assert label == "moment[1]"
        np.testing.assert_allclose(float(value), 7.5, rtol=1e-12)

    def test_central_summaries(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["moments", "--dist", "shanker", "--theta", "1", "--central"],
        )
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert {"moment[1]", "mean", "variance", "skewness", "kurtosis"} <= set(rows)
        single = SumSpec(DistSpec(SHANKER, 1.0), 1)
        np.testing.assert_allclose(float(rows["mean"]), single.moment(1), rtol=1e-12)
        np.testing.assert_allclose(
            float(rows["variance"]), single.moment(2) - single.moment(1) ** 2, rtol=1e-12
        )

    @pytest.mark.parametrize("n", [10, 1000, 10_000])
    @pytest.mark.parametrize("member", [LINDLEY, RAM_AWADH], ids=lambda m: m.name)
    def test_central_rows_against_exact_values(self, capsys, member, n):
        argv = ["moments", "--dist", member.name, "--theta", "1", "--n", str(n), "--central"]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        rows = {r["statistic"]: r["value"] for r in json.loads(out)}
        variance, skewness, kurtosis = central_summaries(member.degree, n)
        np.testing.assert_allclose(rows["variance"], variance, rtol=1e-13, atol=0)
        np.testing.assert_allclose(rows["skewness"], skewness, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rows["kurtosis"], kurtosis, rtol=1e-12, atol=0)

    def test_verify_mode_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "moments", "--dist", "pranav", "--theta", "0.5", "--n", "2",
                "--m-max", "3", "--verify",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "statistic,value,quadrature,rel_error"
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0].startswith("moment["):
                assert float(parts[3]) <= 1e-6

    def test_verify_keeps_the_central_rows(self, capsys):
        argv = ["moments", "--dist", "shanker", "--theta", "1", "--n", "5", "--central"]
        _, plain, _ = run_cli(capsys, argv)
        code, out, _ = run_cli(capsys, argv + ["--verify", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        expected = dict(line.split(",") for line in plain.splitlines()[1:])
        assert [r["statistic"] for r in records] == list(expected)
        assert [r["value"] for r in records] == [float(v) for v in expected.values()]
        for record in records[:4]:
            assert record["rel_error"] <= 1e-6
        for record in records[4:]:
            assert record["quadrature"] is None and record["rel_error"] is None
        np.testing.assert_allclose(
            records[5]["value"], SumSpec(DistSpec(SHANKER, 1.0), 5).variance(), rtol=0
        )

    def test_verify_reaches_moments_whose_power_overflows(self, capsys):
        # x^150 alone overflows past x ~ 113; moment[150] ~ 4.34e264 is finite
        code, out, err = run_cli(
            capsys,
            ["moments", "--dist", "lindley", "--theta", "1", "--n", "1", "--m-max", "150",
             "--verify"],
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 150
        assert max(float(row["rel_error"]) for row in rows) <= 1e-12

    @pytest.mark.parametrize("theta, m_max", [("1e100", "3"), ("1e150", "2")])
    def test_verify_reaches_sums_whose_mass_lies_far_below_1(self, capsys, theta, m_max):
        # the quadrature's scale hint is the sum's mean, 3e-100 or 3e-150 here;
        # floored at 1, it put no node on the mass and read 0 (rel_error 1)
        code, out, err = run_cli(
            capsys,
            ["moments", "--dist", "lindley", "--theta", theta, "--n", "3", "--m-max", m_max,
             "--verify"],
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == int(m_max)
        assert max(float(row["rel_error"]) for row in rows) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_verify_reaches_the_last_finite_moment(self, capsys):
        # moment[168] ~ 5.35e307 is finite and moment[169] is not; unscaled,
        # the rule's sums for x^168 pdf(x) overflowed
        code, out, err = run_cli(
            capsys,
            ["moments", "--dist", "lindley", "--theta", "1", "--n", "2", "--m-max", "168",
             "--verify"],
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 168
        assert max(float(row["rel_error"]) for row in rows) <= 1e-12

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        # a quadrature 1e-3 off the closed form fails the 1e-6 bound; the table
        # is still written
        real = lindsum.validation.quadrature_moment
        monkeypatch.setattr(
            lindsum.validation, "quadrature_moment", lambda spec, m: real(spec, m) * 1.001
        )
        argv = ["moments", "--dist", "lindley", "--theta", "1", "--n", "2", "--verify"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert all(abs(float(row["rel_error"]) - 1e-3) <= 1e-12 for row in rows)
        assert err == "moment verification failed: worst relative error 0.001 exceeds 1e-06\n"


class TestReliabilityCommand:
    def test_single_time_with_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "reliability", "--theta", "1", "--n", "1", "--t", "1",
                "--compare-exponential",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,R_lindley,R_exponential"
        _, r_lindley, r_exponential = lines[1].split(",")
        np.testing.assert_allclose(float(r_lindley), 1.5 * math.exp(-1.0), rtol=1e-12)
        np.testing.assert_allclose(float(r_exponential), math.exp(-1.0), rtol=1e-12)

    def test_grid_dominance(self, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "reliability", "--theta", "0.5", "--n", "5",
                "--t-max", "100", "--points", "101", "--compare-exponential",
            ],
        )
        lines = out.splitlines()
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        for line in lines[1:]:
            _, lin, exp_ = (float(v) for v in line.split(","))
            assert lin >= exp_ - 1e-12

    def test_other_members_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["reliability", "--dist", "ishita", "--theta", "1", "--n", "2", "--t", "3"],
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "t,R_ishita"

    def test_rows_share_one_mixture_and_plan_per_route(self, capsys, monkeypatch):
        plans, mixtures = [], []

        class CountedSeries(lindsum.numerics._Series):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        def counted_mixture(self):
            real_check(self)
            mixtures.append(self)

        real_check = lindsum.numerics.ErlangMixture.__post_init__
        monkeypatch.setattr(lindsum.numerics, "_Series", CountedSeries)
        monkeypatch.setattr(lindsum.numerics.ErlangMixture, "__post_init__", counted_mixture)
        code, out, _ = run_cli(capsys, ["reliability", "--theta", "0.7", "--compare-exponential"])
        assert code == 0 and len(out.splitlines()) == 102
        # one mixture and one survival plan each for Lindley and exponential
        assert len(mixtures) == 2
        assert len(plans) == 2


RAMAWADH_PDF_ARGV = ["pdf", "--dist", "ramawadh", "--n", "50", "--points", "101"]


def _table(out, fmt):
    """The rows of a csv or json table as lists of floats, in column order."""
    if fmt == "json":
        return [list(record.values()) for record in json.loads(out)]
    return [[float(cell) for cell in row] for row in list(csv.reader(io.StringIO(out)))[1:]]


class TestTableRows:
    """pdf and reliability build their rows from Python floats: the grid is
    np.linspace bit for bit, and every cell is the library's scalar call; the
    pdf tails are within 1e-14 of the array calls that built their columns
    before.  Every mttf cell is a StandbyModel mean."""

    @pytest.mark.parametrize(
        "lo, hi, points, zero_step",
        [
            (0.0, 5.0 * SumSpec(DistSpec(RAM_AWADH, 1.3), 50).mean(), 101, False),
            (0.0, 100.0, 101, False),
            (-2.5, 7.0, 11, False),
            (-1e-3, 1.0, 2, False),
            (0.0, 1e-310, 3, False),
            (0.0, 1e-322, 101, True),
            (-1e-322, 1e-322, 101, True),
        ],
        ids=["pdf-default", "reliability-default", "negative-start", "two-points",
             "subnormal-step", "zero-step", "zero-step-negative-start"],
    )
    def test_grid_is_linspace_bit_for_bit(self, lo, hi, points, zero_step):
        assert ((hi - lo) / (points - 1) == 0.0) is zero_step
        grid = cli._grid(argparse.Namespace(points=points), None, None, lo, hi)
        assert all(type(x) is float for x in grid)
        assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(lo, hi, points).tolist()]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pdf_rows_are_the_scalar_calls(self, capsys, fmt):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.3), 50)
        argv = RAMAWADH_PDF_ARGV + ["--theta", "1.3", "--x-min", "-20", "--format", fmt]
        _, out, _ = run_cli(capsys, argv)
        grid = np.linspace(-20.0, 5.0 * spec.mean(), 101).tolist()
        expected = [[x, spec.pdf(x), spec.cdf(x), spec.survival(x)] for x in grid]
        assert _table(out, fmt) == expected

    def test_pdf_row_makes_two_series_calls(self, capsys, monkeypatch):
        # cdf is printed as 1 - survival, so a row evaluates pdf and survival once each
        calls = []
        real = lindsum.numerics._pointwise

        def counting(x, plan, log=False):
            calls.append(type(x))
            return real(x, plan, log)

        monkeypatch.setattr(lindsum.numerics, "_pointwise", counting)
        run_cli(capsys, RAMAWADH_PDF_ARGV + ["--theta", "1.3"])
        assert calls == [float] * (2 * 101)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reliability_rows_are_the_scalar_calls(self, capsys, fmt):
        model, system = StandbyModel.of(DistSpec(LINDLEY, 0.7), 5), StandbyModel.exponential(0.7, 5)
        argv = ["reliability", "--theta", "0.7", "--compare-exponential", "--format", fmt]
        _, out, _ = run_cli(capsys, argv)
        grid = np.linspace(0.0, 100.0, 101).tolist()
        expected = [[t, model.reliability(t), system.reliability(t)] for t in grid]
        assert _table(out, fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mttf_rows_are_the_standby_means(self, capsys, fmt):
        thetas = [0.1, 0.5, 1.0, 3.0]
        argv = ["mttf", "--theta", "0.1,0.5,1,3", "--dist", "akash,rani", "--format", fmt]
        _, out, _ = run_cli(capsys, argv)
        expected = [
            [theta, *(model.mttf() for model in (
                StandbyModel.of(DistSpec(LINDLEY, theta), 5),
                StandbyModel.exponential(theta, 5),
                StandbyModel.of(DistSpec(AKASH, theta), 5),
                StandbyModel.of(DistSpec(RANI, theta), 5),
            ))]
            for theta in thetas
        ]
        rows = _table(out, fmt)
        assert rows == expected
        # the paper's closed forms, within 1e-15 of the mixture means
        np.testing.assert_allclose(
            [row[1:3] for row in rows],
            [[lindley_mttf(theta, 5), 5 / theta] for theta in thetas],
            rtol=1e-15, atol=0.0,
        )

    @pytest.mark.parametrize("theta", [0.5, 1.157, 2.0])
    def test_rows_agree_with_the_array_calls(self, capsys, theta):
        spec = SumSpec(DistSpec(RAM_AWADH, theta), 50)
        _, out, _ = run_cli(capsys, RAMAWADH_PDF_ARGV + ["--theta", str(theta)])
        x, _, cdf, survival = np.array(_table(out, "csv")).T
        np.testing.assert_allclose(survival, spec.survival(x), rtol=1e-14, atol=0.0)
        # cdf = 1 - survival carries survival's absolute error, which near 1 is
        # many times a small cdf
        np.testing.assert_allclose(cdf, spec.cdf(x), rtol=0.0, atol=1e-14)


PLAIN_ARGV = {
    "mttf": ["mttf", "--theta", "0.5,1", "--dist", "akash"],
    "mttf-decimals": ["mttf", "--theta", "0.1,0.5,1,3", "--decimals", "2"],
    "pdf": ["pdf", "--dist", "lindley", "--theta", "1", "--n", "3", "--x-min", "-1",
            "--points", "7"],
    "moments": ["moments", "--dist", "shanker", "--theta", "1", "--n", "5", "--central",
                "--verify"],
    "reliability": ["reliability", "--theta", "0.7", "--compare-exponential", "--points", "11"],
}


@pytest.mark.parametrize("argv", PLAIN_ARGV.values(), ids=PLAIN_ARGV)
def test_plain_table_is_the_csv_aligned(capsys, argv):
    # the csv's cells, each column starting where its header does, two spaces
    # apart at least, and no line ending in whitespace
    _, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    expected = list(csv.reader(io.StringIO(out)))
    code, out, _ = run_cli(capsys, argv + ["--format", "plain"])
    assert code == 0
    lines = out.splitlines()
    assert [line.split() for line in lines] == expected
    assert all(line == line.rstrip() for line in lines)
    (starts,) = {tuple(m.start() for m in re.finditer(r"\S+", line)) for line in lines}
    assert all(line[start - 2:start] == "  " for line in lines for start in starts[1:])


class TestMttfCommand:
    def test_reference_table_rounded(self, capsys):
        code, out, _ = run_cli(
            capsys, ["mttf", "--theta", "0.1,0.5,1,3", "--n", "5", "--decimals", "2"]
        )
        assert code == 0
        assert out.splitlines() == [
            "theta,mttf_lindley,mttf_exponential",
            "0.10,95.45,50.00",
            "0.50,16.67,10.00",
            "1.00,7.50,5.00",
            "3.00,2.08,1.67",
        ]

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, ["mttf", "--theta", "0.1,3", "--n", "5"])
        for line in out.splitlines()[1:]:
            theta, lindley, exponential = (float(v) for v in line.split(","))
            np.testing.assert_allclose(lindley, lindley_mttf(theta, 5), rtol=1e-15)
            np.testing.assert_allclose(exponential, 5.0 / theta, rtol=1e-15)

    def test_extra_member_columns(self, capsys):
        _, out, _ = run_cli(
            capsys, ["mttf", "--theta", "1", "--n", "2", "--dist", "akash,rani"]
        )
        lines = out.splitlines()
        assert lines[0] == "theta,mttf_lindley,mttf_exponential,mttf_akash,mttf_rani"
        row = [float(v) for v in lines[1].split(",")]
        for value, member in ((row[3], AKASH), (row[4], RANI)):
            single = SumSpec(DistSpec(member, 1.0), 1)
            np.testing.assert_allclose(value, 2 * single.moment(1), rtol=1e-12)

    def test_repeated_members_give_one_column_each(self, capsys):
        # Lindley is always a column, so naming it adds none; a repeat adds none
        _, out, _ = run_cli(
            capsys, ["mttf", "--theta", "0.3", "--dist", "lindley,akash,AKASH,lindley"]
        )
        assert out.splitlines()[0] == "theta,mttf_lindley,mttf_exponential,mttf_akash"

    def test_json_lindley_column_is_the_standby_mean(self, capsys):
        _, out, _ = run_cli(
            capsys, ["mttf", "--theta", "0.3", "--dist", "lindley,akash", "--format", "json"]
        )
        (record,) = json.loads(out)
        assert list(record) == ["theta", "mttf_lindley", "mttf_exponential", "mttf_akash"]
        # one ulp below the closed form lindley_mttf(0.3, 5)
        assert record["mttf_lindley"] == StandbyModel.of(DistSpec(LINDLEY, 0.3), 5).mttf()

    def test_subnormal_mean_is_printed(self, capsys):
        # the mean 1/theta is below the smallest normal double, but not 0
        code, out, err = run_cli(capsys, ["mttf", "--theta", "1e308", "--n", "1"])
        assert code == 0 and err == ""
        assert [float(v) for v in out.splitlines()[1].split(",")] == [1e308, 1e-308, 1e-308]

    def test_theta_required(self, capsys):
        err = run_cli_expecting_usage_error(capsys, ["mttf", "--n", "5"])
        assert "--theta" in err

    def test_malformed_theta_list_exits_2(self, capsys):
        err = run_cli_expecting_usage_error(capsys, ["mttf", "--theta", "0.1,,3"])
        assert "--theta" in err


class TestSampleCommand:
    def test_deterministic_for_equal_seeds(self, capsys):
        argv = ["sample", "--dist", "lindley", "--theta", "1", "--count", "5", "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert len(first.splitlines()) == 5

    def test_seed_env_var(self, capsys, monkeypatch):
        base = ["sample", "--dist", "akash", "--theta", "2", "--count", "4"]
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        _, via_env, _ = run_cli(capsys, base)
        monkeypatch.delenv(SEED_ENV_VAR)
        _, via_flag, _ = run_cli(capsys, base + ["--seed", "7"])
        assert via_env == via_flag

    def test_flag_overrides_env(self, capsys, monkeypatch):
        base = ["sample", "--dist", "akash", "--theta", "2", "--count", "4"]
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        _, out, _ = run_cli(capsys, base + ["--seed", "7"])
        monkeypatch.delenv(SEED_ENV_VAR)
        _, reference, _ = run_cli(capsys, base + ["--seed", "7"])
        assert out == reference

    def test_default_seed_documented_and_used(self, capsys):
        assert DEFAULT_SEED == 42
        base = ["sample", "--dist", "lindley", "--theta", "1", "--count", "3"]
        _, implicit, _ = run_cli(capsys, base)
        _, explicit, _ = run_cli(capsys, base + ["--seed", "42"])
        assert implicit == explicit

    def test_sums_shift_location(self, capsys):
        argv = [
            "sample", "--dist", "lindley", "--theta", "1", "--n", "5",
            "--count", "2000", "--seed", "7",
        ]
        _, out, _ = run_cli(capsys, argv)
        draws = np.array([float(v) for v in out.splitlines()])
        assert abs(draws.mean() - 7.5) < 0.3

    def test_bad_count_exits_2(self, capsys):
        err = run_cli_expecting_usage_error(
            capsys, ["sample", "--dist", "lindley", "--theta", "1", "--count", "0"]
        )
        assert "--count" in err


class TestVerifyCommand:
    def test_fast_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--only", "mttf-reference,reductions"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS ") for line in lines)

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--only", "mttf-reference", "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert [r["check_id"] for r in records] == ["mttf-reference/lindley", "mttf-reference/exponential"]
        assert all(r["status"] == "pass" for r in records)

    def test_member_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--only", "moment-forms", "--member", "ishita"],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 and "moment-forms/ishita" in lines[0]

    def test_unconverged_oracle_exits_1(self, capsys, unconverged_quadrature):
        code, out, _ = run_cli(capsys, ["verify", "--only", "normalization/lindley"])
        assert code == 1
        assert out.splitlines()[0].startswith("ERROR")

    def test_csv_carries_error_detail(self, capsys, unconverged_quadrature):
        code, out, _ = run_cli(
            capsys, ["verify", "--only", "normalization/lindley", "--format", "csv"]
        )
        assert code == 1
        (record,) = csv.DictReader(io.StringIO(out))
        assert list(record) == ["check_id", "status", "value", "bound", "detail", "elapsed_s"]
        assert record["status"] == "error"
        assert record["detail"] != ""
        assert float(record["elapsed_s"]) > 0.0

    def test_unmatched_only_exits_2(self, capsys):
        err = run_cli_expecting_usage_error(capsys, ["verify", "--only", "nonsense"])
        assert "--only" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--only", "nonsense"], "--only 'nonsense' matched no checks"),
            (["pdf", "--dist", "lindley", "--theta", "1", "--x-min", "5", "--x-max", "1"],
             "grid upper bound must exceed lower bound, got [5.0, 1.0]"),
            (["pdf", "--dist", "lindley", "--theta", "1", "--x-min=-1.7e308", "--x-max",
              "1.7e308", "--points", "5"],
             "grid span must be finite, got [-1.7e+308, 1.7e+308]"),
            # the default grid end, 5 * mean, overflows
            (["pdf", "--dist", "lindley", "--theta", "3e-308", "--points", "3"],
             "grid span must be finite, got [0.0, inf]"),
        ],
        ids=["verify-only", "pdf-grid", "pdf-grid-span", "pdf-default-grid-span"],
    )
    def test_command_error_prints_its_own_usage(self, capsys, argv, message):
        err = run_cli_expecting_usage_error(capsys, argv)
        assert err.startswith(f"usage: lindsum {argv[0]} [-h] ")
        assert err.endswith(f"lindsum {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("only", ["", "mttf,", ",reductions", "mttf,,reductions"])
    def test_empty_only_item_exits_2(self, capsys, only):
        # an empty prefix would match every check id
        err = run_cli_expecting_usage_error(capsys, ["verify", "--only", only])
        assert "argument --only" in err and "''" in err

    def test_repeated_member_reports_each_check_once(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--only", "moment-forms,convolution", "--member", "lindley,LINDLEY,akash",
             "--format", "csv"],
        )
        assert code == 0
        assert [r["check_id"] for r in csv.DictReader(io.StringIO(out))] == [
            "convolution/lindley",
            "moment-forms/lindley",
            "convolution/akash",
            "moment-forms/akash",
        ]


class TestArgumentDomains:
    """Each flag's domain is checked while parsing: a value outside it is a usage
    error that names the flag, never a NaN row or a traceback."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["reliability", "--theta", "1", "--t", "nan"], "--t"),
            (["reliability", "--theta", "1", "--t-max", "inf"], "--t-max"),
            (["mttf", "--theta", "1", "--decimals", "-3"], "--decimals"),
            (["sample", "--dist", "lindley", "--theta", "1", "--count", "2", "--seed", "-1"],
             "--seed"),
        ],
    )
    def test_out_of_domain_value_exits_2(self, capsys, argv, flag):
        err = run_cli_expecting_usage_error(capsys, argv)
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("raw", ["-1", "seven"])
    def test_bad_seed_env_var_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(SEED_ENV_VAR, raw)
        err = run_cli_expecting_usage_error(
            capsys, ["sample", "--dist", "lindley", "--theta", "1", "--count", "2"]
        )
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "argument --seed:" in line and SEED_ENV_VAR in line and repr(raw) in line

    def test_flag_seed_overrides_a_bad_env_var(self, capsys, monkeypatch):
        argv = ["sample", "--dist", "lindley", "--theta", "1", "--count", "2", "--seed", "7"]
        _, reference, _ = run_cli(capsys, argv)
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert run_cli(capsys, argv) == (0, reference, "")


class TestTopLevel:
    def test_no_subcommand_exits_2(self, capsys):
        run_cli_expecting_usage_error(capsys, [])

    def test_unknown_subcommand_exits_2(self, capsys):
        run_cli_expecting_usage_error(capsys, ["frobnicate"])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mttf", "--theta", "1e-308", "--dist", "lindley"], "beyond double range"),
            (["moments", "--dist", "lindley", "--theta", "1", "--n", "2", "--m-max", "200"],
             "m=169 .* beyond double range"),
            (["moments", "--dist", "lindley", "--theta", "1e200", "--n", "3", "--verify"],
             "m=2 .* below double range"),
            (["sample", "--dist", "lindley", "--theta", "1e-308", "--n", "5", "--count", "2"],
             "theta=1e-308, n=5 .* beyond double range"),
        ],
        ids=["mttf-overflow", "moment-overflow", "moment-underflow",
             "sample-overflow"],
    )
    def test_result_outside_double_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert re.search(f"^lindsum {argv[0]}: error: .*{message}", err)

    @pytest.mark.filterwarnings("error")
    def test_unconverged_quadrature_exits_2(self, capsys, monkeypatch):
        def unconverged(spec, m):
            raise QuadratureError(
                "quadrature did not converge: value inf is not finite",
                QuadratureResult(math.inf, math.inf, 21),
            )

        monkeypatch.setattr(lindsum.validation, "quadrature_moment", unconverged)
        argv = ["moments", "--dist", "lindley", "--theta", "1", "--n", "2", "--verify"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert re.search("^lindsum moments: error: quadrature did not converge", err)


MTTF_ARGV = ["mttf", "--theta", "0.1,0.5,1,3", "--dist", "akash"]


class TestImportCost:
    """No route loads scipy: not the import, not mttf, and not the quadrature
    behind moments --verify.  numpy loads on first use: the import, --help, a
    usage error, mttf, moments with and without --verify, pdf, reliability, a
    library MTTF, a sum's and a member's density and tails and a sum's log
    density at Python floats, and integrate on a pure-Python integrand leave
    its core unloaded; sample loads it; and lindsum shares one numpy with code
    that imports it before or after lindsum, registers nothing in sys.modules
    itself, and loads it whole when threads first touch it at once.  The
    value classes derive from numerics._Record, so those numpy-free routes
    leave dataclasses and inspect unloaded too, and sample, whose numpy
    imports inspect, leaves dataclasses unloaded."""

    @staticmethod
    def _run(code, package="scipy"):
        """Run code in a fresh interpreter; whether package or one of its
        submodules is then in sys.modules, as "True" or "False"."""
        env = dict(os.environ)
        src = str(Path(lindsum.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            f"{code}\n"
            "import sys\n"
            f"print(any(m == {package!r} or m.startswith({package + '.'!r}) for m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @staticmethod
    def _cli(argv, code=0):
        """Code that runs main(argv), output discarded, and checks its exit code."""
        return (
            "import contextlib, io\n"
            "from lindsum.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            f"assert code == {code}, code\n"
        )

    def test_import_leaves_scipy_unloaded(self):
        assert self._run("import lindsum") == "False"

    def test_mttf_runs_without_scipy(self):
        assert self._run(self._cli(MTTF_ARGV)) == "False"

    def test_moments_verify_runs_without_scipy(self):
        argv = ["moments", "--dist", "ramawadh", "--theta", "1", "--n", "5", "--verify"]
        assert self._run(self._cli(argv)) == "False"

    numpy_free_routes = pytest.mark.parametrize(
        "code",
        [
            "import lindsum",
            _cli(["--help"]),
            _cli(["mttf", "--theta", "-1"], code=2),
            _cli(MTTF_ARGV),
            _cli(["moments", "--dist", "ramawadh", "--theta", "1", "--n", "5", "--central"]),
            "from lindsum import LINDLEY, DistSpec, StandbyModel\n"
            "assert abs(StandbyModel.of(DistSpec(LINDLEY, 1.0), 5).mttf() - 7.5) < 1e-12\n",
            "import math\n"
            "from lindsum import LINDLEY, RAM_AWADH, DistSpec, StandbyModel, SumSpec\n"
            "spec = SumSpec(DistSpec(RAM_AWADH, 1.3), 50)\n"
            "assert spec.pdf(0.0) == 0.0 < spec.pdf(40.0) and spec.cdf(-1.0) == 0.0\n"
            "assert 0.0 < spec.survival(200.0) < 1.0\n"
            "assert spec.mixture().log_pdf(40.0) > spec.mixture().log_pdf(0.0) == -math.inf\n"
            "assert 0.0 < StandbyModel.of(DistSpec(LINDLEY, 1.0), 5).reliability(2.0) < 1.0\n"
            "member = SumSpec(DistSpec(LINDLEY, 1.2), 1)\n"
            "assert member.pdf(0.0) > member.pdf(1.0) > 0.0\n",
            _cli(RAMAWADH_PDF_ARGV + ["--theta", "1.3", "--x-min", "-5"]),
            _cli(["pdf", "--dist", "lindley", "--theta", "1", "--n", "2", "--x", "0"]),
            _cli(["reliability", "--theta", "0.7", "--compare-exponential"]),
            _cli(["reliability", "--theta", "0.7", "--t", "1", "--compare-exponential"]),
            _cli(["moments", "--dist", "ramawadh", "--theta", "1", "--n", "5", "--verify"]),
            "import math\n"
            "from lindsum.numerics import integrate\n"
            "result = integrate(lambda x: [math.exp(-v) for v in x], 0.0, math.inf)\n"
            "assert abs(result.value - 1.0) < 1e-12\n",
        ],
        ids=["import", "help", "usage-error", "mttf", "moments-central", "library-mttf",
             "library-sum-scalars", "pdf-grid", "pdf-x-0", "reliability-grid", "reliability-t-1",
             "moments-verify", "integrate"],
    )

    @numpy_free_routes
    def test_route_leaves_numpy_unloaded(self, code):
        assert self._run(code, "numpy._core") == "False"

    @numpy_free_routes
    def test_route_leaves_dataclasses_and_inspect_unloaded(self, code):
        check = (
            f"{code}\n"
            "import sys\n"
            "loaded = sorted({'dataclasses', 'inspect'}.intersection(sys.modules))\n"
            "assert not loaded, loaded\n"
        )
        self._run(check)

    @pytest.mark.parametrize(
        "argv",
        [["sample", "--dist", "lindley", "--theta", "1", "--n", "2", "--count", "3"]],
        ids=["sample"],
    )
    def test_route_loads_numpy(self, argv):
        assert self._run(self._cli(argv), "numpy._core") == "True"

    def test_sample_leaves_dataclasses_unloaded(self):
        argv = ["sample", "--dist", "lindley", "--theta", "1", "--n", "2", "--count", "3"]
        assert self._run(self._cli(argv), "dataclasses") == "False"

    @pytest.mark.parametrize(
        "code, unloaded",
        [
            ("import lindsum", ("reliability", "validation", "cli")),
            (_cli(MTTF_ARGV), ("validation",)),
            (_cli(["reliability", "--theta", "0.7", "--compare-exponential"]), ("validation",)),
            (_cli(RAMAWADH_PDF_ARGV + ["--theta", "1.3"]), ("reliability", "validation")),
            (_cli(["moments", "--dist", "ramawadh", "--theta", "1", "--n", "5", "--central"]),
             ("reliability", "validation")),
            (_cli(["sample", "--dist", "lindley", "--theta", "1", "--n", "2", "--count", "3"]),
             ("reliability", "validation")),
            ("import numpy as np\n"
             "from lindsum import LINDLEY, DistSpec, SumSpec, sample_sum\n"
             "assert sample_sum(SumSpec(DistSpec(LINDLEY, 1.0), 3), np.random.default_rng(1)) > 0\n",
             ("reliability", "validation")),
        ],
        ids=["import", "mttf", "reliability", "pdf", "moments-central", "sample", "library-sample"],
    )
    def test_route_leaves_submodules_unloaded(self, code, unloaded):
        # lindsum imports reliability, validation and cli on first use, and the
        # CLI imports reliability and validation only in the commands that use them
        check = (
            f"{code}\n"
            "import sys\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('lindsum.'))\n"
            f"assert not {{'lindsum.' + m for m in {unloaded!r}}}.intersection(loaded), loaded\n"
        )
        self._run(check)

    def test_verify_loads_numpy_before_the_first_check(self):
        # numpy's load on first use is not timed as part of the first check
        code = (
            "import sys\n"
            "from lindsum import validation\n"
            "seen = []\n"
            "def stub(curves):\n"
            "    seen.append('numpy._core' in sys.modules)\n"
            "    return 0.0\n"
            "validation._check_dominance = stub\n"
            "report = validation.verify_all(validation.VerifyConfig(only=('dominance',)))\n"
            "assert report.all_passed and seen == [True], seen\n"
        )
        self._run(code)

    def test_numpy_imported_first_is_reused(self):
        code = (
            "import sys\n"
            "import numpy\n"
            "import lindsum.numerics\n"
            "assert lindsum.numerics.np is sys.modules['numpy'] is numpy\n"
            "assert type(numpy) is type(sys)\n"
        )
        assert self._run(code, "numpy._core") == "True"

    def test_numpy_imported_after_works(self):
        code = (
            "import lindsum.numerics\n"
            "import numpy\n"
            "assert numpy.arange(3).sum() == 3 == lindsum.numerics.np.arange(3).sum()\n"
            "assert lindsum.numerics.np.ndarray is numpy.ndarray\n"
        )
        assert self._run(code, "numpy._core") == "True"

    def test_import_registers_no_numpy(self):
        assert self._run("import lindsum", "numpy") == "False"

    def test_numpy_imported_after_is_a_plain_module(self):
        code = (
            "import sys\n"
            "import lindsum\n"
            "import numpy\n"
            "assert type(numpy) is type(sys), type(numpy)\n"
        )
        self._run(code)

    def test_threads_first_touch_numpy_together(self):
        # threads released at once all wait for the one load, none sees a
        # half-built numpy; more threads than cores, switching often
        code = (
            "import sys, threading\n"
            "import lindsum.numerics as nm\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(4)\n"
            "errors = []\n"
            "def touch():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        assert nm.np.arange(3).sum() == 3\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=touch) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=30)\n"
            "assert not any(thread.is_alive() for thread in threads)\n"
            "assert not errors, errors\n"
        )
        for _ in range(5):
            self._run(code)
