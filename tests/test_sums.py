"""Tests for n-fold sum distributions: the series density, the Erlang mixture
representation, tails, and moments.

The n = 2 and n = 3 densities are re-derived here by expanding the convolution
by hand for each family member, giving polynomial-bracket oracles that share no
code with the implementation.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from exact_moments import central_summaries, raw_moments
from hypothesis import given, settings, strategies as st
from mpmath_oracle import SumOracle

from lindsum.family import (
    AKASH,
    ISHITA,
    LINDLEY,
    MEMBERS,
    PRANAV,
    RAM_AWADH,
    RANI,
    SHANKER,
    AlphaKind,
    DistSpec,
)
from lindsum.numerics import _BLOCK, _finite_below, integrate
from lindsum.reliability import StandbyModel, lindley_reliability
from lindsum.sums import ErlangMixture, SumSpec

# Hand-expanded convolution brackets: pdf = c^n * exp(-theta x) * bracket(theta, x).
BRACKETS = {
    (LINDLEY.name, 2): lambda th, x: x + x**2 + x**3 / 6,
    (LINDLEY.name, 3): lambda th, x: x**2 / 2 + x**3 / 2 + x**4 / 8 + x**5 / 120,
    (SHANKER.name, 2): lambda th, x: th**2 * x + th * x**2 + x**3 / 6,
    (SHANKER.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**3 / 2 + th * x**4 / 8 + x**5 / 120,
    (AKASH.name, 2): lambda th, x: x + 2 * x**3 / 3 + x**5 / 30,
    (AKASH.name, 3): lambda th, x: x**2 / 2 + x**4 / 4 + x**6 / 60 + x**8 / 5040,
    (ISHITA.name, 2): lambda th, x: th**2 * x + 2 * th * x**3 / 3 + x**5 / 30,
    (ISHITA.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**4 / 4 + th * x**6 / 60 + x**8 / 5040,
    (PRANAV.name, 2): lambda th, x: th**2 * x + th * x**4 / 2 + x**7 / 140,
    (PRANAV.name, 3): lambda th, x: th**3 * x**2 / 2 + 3 * th**2 * x**5 / 20 + 3 * th * x**8 / 1120 + x**11 / 184800,
    (RANI.name, 2): lambda th, x: th**2 * x + 2 * th * x**5 / 5 + x**9 / 630,
    (RANI.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**6 / 10 + th * x**10 / 2100 + x**14 / 6306300,
    (RAM_AWADH.name, 2): lambda th, x: th**2 * x + th * x**6 / 3 + x**11 / 2772,
    (RAM_AWADH.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**7 / 14 + th * x**12 / 11088 + x**17 / 205837632,
}


class TestErlangMixtureValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.5, 0.5), (1, 2, 3))

    def test_rejects_unsorted_shapes(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.5, 0.5), (2, 1))

    def test_rejects_weights_off_unity(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.6, 0.5), (1, 2))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ErlangMixture(0.0, (1.0,), (1,))

    def test_rejects_infinite_rate(self):
        with pytest.raises(ValueError, match="rate must be a positive finite number"):
            ErlangMixture(math.inf, (1.0,), (2,))

    @pytest.mark.parametrize("shapes", [(1.5, 2.5), (2.0, 3), (True, 2), ("1", 2)])
    def test_rejects_non_integer_shapes(self, shapes):
        with pytest.raises(TypeError, match="shapes must be integers"):
            ErlangMixture(1.0, (0.5, 0.5), shapes)

    @pytest.mark.parametrize("shapes", [(0, 2), (-3, 2)])
    def test_rejects_shapes_below_one(self, shapes):
        with pytest.raises(ValueError, match="shapes must be positive integers"):
            ErlangMixture(1.0, (0.5, 0.5), shapes)

    def test_rejects_negative_and_nan_weights(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (-0.5, 1.5), (1, 2))
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (math.nan, 1.0), (1, 2))

    def test_components_pairs(self):
        mixture = ErlangMixture(2.0, (0.25, 0.75), (1, 3))
        assert mixture.components == ((0.25, 1), (0.75, 3))


class TestSumSpecValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            SumSpec(DistSpec(LINDLEY, 1.0), 0)

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            SumSpec(DistSpec(LINDLEY, 1.0), 2.5)


class TestSingleTermReduction:
    """A sum of one draw, the member's distribution, against references that
    share no code with its mixture: mpmath and exact Fractions."""

    def test_density_matches_base_distribution(self):
        xs = np.linspace(0.0, 25.0, 101)
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                dist = DistSpec(member, theta)
                oracle = SumOracle(theta, dist.alpha, member.degree, 1)
                truth = [oracle.pdf(x) for x in xs.tolist()]
                np.testing.assert_allclose(
                    SumSpec(dist, 1).pdf(xs), truth, rtol=1e-12, atol=1e-300
                )

    def test_tail_matches_base_distribution(self):
        for member in MEMBERS:
            dist = DistSpec(member, 1.0)
            oracle = SumOracle(1.0, dist.alpha, member.degree, 1)
            for x in (0.0, 0.3, 2.0, 9.0):
                np.testing.assert_allclose(
                    SumSpec(dist, 1).survival(x), oracle.survival(x), rtol=1e-12
                )

    def test_moments_match_base_distribution(self):
        theta = Fraction(1.3)  # the double 1.3, exactly
        for member in MEMBERS:
            dist = DistSpec(member, 1.3)
            exact = raw_moments(member.degree, 1, theta, Fraction(dist.alpha))
            for m in range(5):
                np.testing.assert_allclose(SumSpec(dist, 1).moment(m), float(exact[m]), rtol=1e-12)


class TestDensityAgainstHandExpansion:
    def test_all_members_n2_n3(self):
        for member in MEMBERS:
            for n in (2, 3):
                bracket = BRACKETS[(member.name, n)]
                for theta in (0.5, 1.0, 2.0):
                    dist = DistSpec(member, theta)
                    spec = SumSpec(dist, n)
                    k = member.degree
                    c = theta ** (k + 1) / (dist.alpha * theta**k + math.factorial(k))
                    for x in np.linspace(0.1, 8.0 / theta, 13):
                        expected = c**n * math.exp(-theta * x) * bracket(theta, float(x))
                        np.testing.assert_allclose(spec.pdf(float(x)), expected, rtol=1e-11)

    def test_frozen_value_shanker_pair(self):
        # theta=1: c=1/2, bracket(1,1) = 1 + 1 + 1/6 = 13/6
        value = SumSpec(DistSpec(SHANKER, 1.0), 2).pdf(1.0)
        np.testing.assert_allclose(value, 0.25 * math.exp(-1.0) * (13.0 / 6.0), rtol=1e-13)

    def test_frozen_value_ram_awadh_triple(self):
        # theta=1: c=1/121, bracket(1,2) = 2 + 2^7/14 + 2^12/11088 + 2^17/205837632
        bracket = 2.0 + 128.0 / 14.0 + 4096.0 / 11088.0 + 131072.0 / 205837632.0
        value = SumSpec(DistSpec(RAM_AWADH, 1.0), 3).pdf(2.0)
        np.testing.assert_allclose(value, (1.0 / 121.0) ** 3 * math.exp(-2.0) * bracket, rtol=1e-13)

    def test_zero_and_negative_arguments(self):
        spec = SumSpec(DistSpec(AKASH, 1.0), 3)
        assert spec.pdf(-1.0) == 0.0
        assert spec.pdf(0.0) == 0.0
        # at n = 1 the density at 0 is c * alpha = theta^2 / (theta + 1)
        single = SumSpec(DistSpec(LINDLEY, 2.0), 1)
        np.testing.assert_allclose(single.pdf(0.0), 4.0 / 3.0, rtol=1e-15)


class TestScalarDensityPath:
    """Python int/float and np.float64 arguments in (0, inf) take a math-module
    path; it must agree with the array evaluator, which takes every array.  At
    the edges such a scalar gets _pointwise's edge value without numpy, which
    must equal the array path's."""

    def test_matches_array_path(self):
        for member in MEMBERS:
            for theta in (0.1, 0.5, 1.0, 2.0, 3.0):
                for n in (1, 2, 3, 5, 10, 50):
                    spec = SumSpec(DistSpec(member, theta), n)
                    xs = np.linspace(0.0, 6.0 * spec.mean(), 60)[1:]
                    scalars = [spec.pdf(x) for x in xs.tolist()]
                    assert all(type(scalar) is float for scalar in scalars)
                    np.testing.assert_allclose(scalars, spec.pdf(xs), rtol=1e-12, atol=0.0,
                                               err_msg=f"{member.name} {theta} {n}")

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_edge_arguments_take_array_path(self, n, x):
        spec = SumSpec(DistSpec(RANI, 1.5), n)
        expected = spec.pdf(np.array([x]))[0]
        for arg in (x, np.float64(x), np.array(x)):
            got = spec.pdf(arg)
            assert type(got) is float
            assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_positive_argument_types(self):
        spec = SumSpec(DistSpec(PRANAV, 0.5), 3)
        assert spec.pdf(np.float64(2.0)) == spec.pdf(2.0)
        assert spec.pdf(2) == spec.pdf(2.0)
        # a 0-d array is an array: it takes the array path, bit for bit
        assert spec.pdf(np.array(2.0)) == spec.pdf(np.array([2.0]))[0]


class TestScalarSurvivalPath:
    """Python int/float and np.float64 arguments in (0, inf) sum the survival
    series on Python floats; it must agree with the array evaluator, which
    takes every array.  At the edges such a scalar gets _pointwise's edge
    value without numpy, which must equal the array path's."""

    def test_matches_array_path(self):
        for member in MEMBERS:
            for theta in (0.1, 0.5, 1.0, 2.0, 3.0):
                for n in (1, 2, 5, 10, 50, 200):
                    spec = SumSpec(DistSpec(member, theta), n)
                    ts = np.linspace(0.0, 4.0 * spec.mean(), 7)[1:]
                    scalars = [spec.survival(t) for t in ts.tolist()]
                    assert all(type(scalar) is float for scalar in scalars)
                    np.testing.assert_allclose(scalars, spec.survival(ts), rtol=1e-12, atol=0.0,
                                               err_msg=f"{member.name} {theta} {n}")

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_edge_arguments_take_array_path(self, n, t):
        spec = SumSpec(DistSpec(RANI, 1.5), n)
        expected = spec.survival(np.array([t]))[0]
        for arg in (t, np.float64(t), np.array(t)):
            got = spec.survival(arg)
            assert type(got) is float
            assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_positive_argument_types(self):
        spec = SumSpec(DistSpec(PRANAV, 0.5), 3)
        assert spec.survival(np.float64(2.0)) == spec.survival(2.0)
        assert type(spec.survival(np.float64(2.0))) is float
        assert spec.survival(2) == spec.survival(2.0)
        # a 0-d array is an array: it takes the array path, bit for bit
        assert spec.survival(np.array(2.0)) == spec.survival(np.array([2.0]))[0]

    def test_cdf_is_the_complement(self):
        spec = SumSpec(DistSpec(AKASH, 2.0), 5)
        for t in (0.0, 1e-3, 0.5, spec.mean(), 40.0, math.inf):
            assert spec.cdf(t) == 1.0 - spec.survival(t)


def _reference_at(plan, x: float) -> float:
    """_Series.at written apart: a side of one block returns its offset plus
    the log of its sum, and the log-sum-exp of more blocks starts from
    (-inf, 0).  The offsets are finite, so its arithmetic is at's."""
    y = plan.rate * x
    high = y > 1.0
    v = y ** (-plan.g if high else plan.g)
    blocks = plan._sides[high]
    single, log, exp = len(blocks) == 1, math.log, math.exp
    top, total = -math.inf, 0.0
    for r, inverse, constant, coefficients in blocks:
        acc = 0.0
        for c in coefficients:
            acc = acc * v + c
        if not r:
            offset = constant - y
        elif y >= sys.float_info.min:
            u = y * inverse
            offset = constant - r * (u - 1.0 - log(u))
        else:  # y subnormal or 0: ln u = ln rate + ln x - ln r
            ln_u = log(plan.rate) + log(x) - log(r)
            offset = constant - r * (y * inverse - 1.0 - ln_u)
        if single:
            return offset + log(acc)
        if offset > top:  # rescale the blocks so far (0 before the first)
            total = total * exp(top - offset) + acc
            top = offset
        else:
            total += acc * exp(offset - top)
    return top + log(total)


class TestScalarEvaluatorReference:
    """plan.at equals _reference_at bit for bit: on every member's density
    and survival plans, at sums of one block and of many, on both sides of
    y = rate x = 1 and where y is subnormal."""

    YS = (1e-310, 1e-3, 0.5, 1.0, 1.7, 6.0, 30.0, 300.0, 3e3, 3e4)

    @pytest.mark.parametrize("theta", [1e-200, 1.0, 1e5, 1e200])
    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_equals_reference(self, member, theta):
        blocks = set()
        for n in (1, 5, 50, 300):
            mixture = SumSpec(DistSpec(member, theta), n).mixture()
            xs = [y / mixture.rate for y in self.YS] + [5e-324]
            for plan in (mixture._density_plan, mixture._survival_plan):
                blocks.update(map(len, plan._sides))
                for x in xs:
                    if 0.0 < x < plan.bound:
                        assert plan.at(x) == _reference_at(plan, x), (member.name, theta, n, x)
        assert 1 in blocks and max(blocks) > 1


class TestOneBlockScalarPath:
    """At these theta every plan of n <= 5 has one block, which the scalar
    evaluator's one loop takes as the whole log-sum-exp: its offset plus the
    log of its sum.  It must agree with the array series to 1e-14, on both
    sides of y = rate x = 1 and where y is subnormal, which takes the
    ln u = ln rate + ln x - ln r branch."""

    YS = (1e-310, 1e-3, 0.5, 1.0, 1.7, 6.0, 30.0)

    @pytest.mark.parametrize("theta", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_matches_array_series(self, member, theta):
        for n in range(1, 6):
            mixture = SumSpec(DistSpec(member, theta), n).mixture()
            rate = mixture.rate
            xs = [y / rate for y in self.YS if y / rate > 0.0] + [5e-324]
            # at theta = 1e200 no positive float gives a subnormal y
            assert theta > 1.0 or any(rate * x < sys.float_info.min for x in xs)
            for plan, routes in ((mixture._density_plan, (mixture.pdf, mixture.log_pdf)),
                                 (mixture._survival_plan, (mixture.survival,))):
                assert len(plan._sides[0]) == len(plan._sides[1]) == 1
                for route in routes:
                    scalars = [route(x) for x in xs]
                    np.testing.assert_allclose(scalars, route(np.array(xs)), rtol=1e-14,
                                               atol=0.0, err_msg=f"{member.name} {theta} {n}")


class TestKernelMemory:
    """On many points pdf, log_pdf and survival run their blocked series in
    chunks of points whose working buffer stays within _CHUNK_BYTES (4 MB), so
    the traced peak is about one chunk's buffer plus a few arrays of the
    points' size, however many blocks the plan has: without chunks, survival
    at Lindley n = 5000 peaked at 45 MB on these 10k points."""

    def test_one_buffer_per_call(self):
        for member, theta, n in ((RAM_AWADH, 0.5, 50), (LINDLEY, 1.0, 5000)):
            mixture = SumSpec(DistSpec(member, theta), n).mixture()
            x = np.linspace(0.0, 3.0 * mixture.mean(), 10_000)
            for route in (mixture.pdf, mixture.log_pdf, mixture.survival):
                route(x)  # builds the cached plans
                tracemalloc.start()
                try:
                    route(x)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                # the documented 4 MB chunk budget, not the module constant, so
                # that raising it fails here
                bound = 1.25 * (4 << 20) + 8 * x.nbytes
                assert peak <= bound, (n, route.__name__, peak / 2**20)


class TestLogDensity:
    def test_log_of_the_array_path(self):
        for n in (1, 2, 5):
            mixture = SumSpec(DistSpec(RANI, 1.5), n).mixture()
            x = np.linspace(0.0, 30.0, 61)[1:]
            np.testing.assert_allclose(
                mixture.log_pdf(x), np.log(mixture.pdf(x)), rtol=0.0, atol=1e-14
            )

    def test_finite_where_the_density_underflows(self):
        # Lindley theta = 1: pdf(x) = (1 + x) e^{-x} / 2
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 1).mixture()
        assert mixture.pdf(1000.0) == 0.0
        np.testing.assert_allclose(
            mixture.log_pdf(1000.0), math.log1p(1000.0) - 1000.0 - math.log(2.0), rtol=1e-14
        )

    def test_edge_arguments(self):
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 1).mixture()
        got = mixture.log_pdf(np.array([-1.0, 0.0, math.inf, math.nan]))
        assert got[0] == -math.inf and got[2] == -math.inf and math.isnan(got[3])
        np.testing.assert_allclose(got[1], math.log(0.5), rtol=1e-15)
        assert SumSpec(DistSpec(LINDLEY, 1.0), 2).mixture().log_pdf(0.0) == -math.inf


class TestMixtureRepresentation:
    def test_frozen_weights_single_lindley(self):
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 1).mixture()
        np.testing.assert_allclose(mixture.weights, (0.5, 0.5), rtol=1e-14)
        assert mixture.shapes == (1, 2)
        assert mixture.rate == 1.0

    def test_frozen_weights_lindley_pair(self):
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 2).mixture()
        np.testing.assert_allclose(mixture.weights, (0.25, 0.5, 0.25), rtol=1e-14)
        assert mixture.shapes == (2, 3, 4)

    def test_shapes_step_by_degree(self):
        mixture = SumSpec(DistSpec(RAM_AWADH, 1.0), 4).mixture()
        assert mixture.shapes == (4, 9, 14, 19, 24)

    def test_weights_sum_to_one_up_to_twenty_terms(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                for n in range(1, 21):
                    weights = SumSpec(DistSpec(member, theta), n).mixture().weights
                    assert abs(math.fsum(weights) - 1.0) <= 1e-10, (member.name, theta, n)

    def test_mixture_density_equals_series_density(self):
        for member in MEMBERS:
            for n in (1, 2, 5, 10):
                dist = DistSpec(member, 1.0)
                spec = SumSpec(dist, n)
                mixture = spec.mixture()
                xs = np.linspace(0.05, 6.0 * spec.mean(), 40)
                np.testing.assert_allclose(mixture.pdf(xs), spec.pdf(xs), rtol=1e-10, atol=1e-280)


class TestTailFunctions:
    def test_boundaries(self):
        spec = SumSpec(DistSpec(ISHITA, 1.0), 3)
        assert spec.survival(0.0) == 1.0
        assert spec.survival(-4.0) == 1.0
        assert spec.cdf(0.0) == 0.0

    def test_against_density_quadrature(self):
        for member, n in [(LINDLEY, 2), (AKASH, 3), (RAM_AWADH, 2)]:
            spec = SumSpec(DistSpec(member, 1.0), n)
            for x in (1.0, spec.mean(), 3.0 * spec.mean()):
                mass = integrate(spec.pdf, 0.0, float(x), 1e-12).value
                np.testing.assert_allclose(spec.survival(x), 1.0 - mass, atol=1e-10)

    def test_complementarity_and_monotonicity(self):
        spec = SumSpec(DistSpec(PRANAV, 0.5), 4)
        xs = np.linspace(0.0, 12.0 * spec.mean(), 300)
        tail = spec.survival(xs)
        assert np.all(np.abs(tail + spec.cdf(xs) - 1.0) <= 1e-12)
        assert np.all(np.diff(tail) <= 1e-12)
        assert np.all((tail >= 0.0) & (tail <= 1.0))


class TestMoments:
    def test_zeroth_is_one(self):
        for member in MEMBERS:
            np.testing.assert_allclose(SumSpec(DistSpec(member, 0.8), 6).moment(0), 1.0, rtol=1e-12)

    def test_mean_is_n_times_base_mean(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                dist = DistSpec(member, theta)
                for n in (1, 2, 5, 10):
                    np.testing.assert_allclose(
                        SumSpec(dist, n).mean(), n * SumSpec(dist, 1).moment(1), rtol=1e-12
                    )

    def test_frozen_mean_lindley_five(self):
        np.testing.assert_allclose(SumSpec(DistSpec(LINDLEY, 1.0), 5).mean(), 7.5, rtol=1e-13)

    def test_variance_is_n_times_base_variance(self):
        for member in (SHANKER, RANI):
            dist = DistSpec(member, 1.0)
            base = SumSpec(dist, 1)
            base_var = base.moment(2) - base.moment(1) ** 2
            for n in (2, 7):
                np.testing.assert_allclose(
                    SumSpec(dist, n).variance(), n * base_var, rtol=1e-10
                )

    def test_series_form_matches_mixture_form(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                for n in (1, 2, 3, 5, 10):
                    spec = SumSpec(DistSpec(member, theta), n)
                    for m in range(5):
                        np.testing.assert_allclose(
                            spec.moment_series(m), spec.moment(m), rtol=1e-10
                        )

    def test_against_quadrature(self):
        spec = SumSpec(DistSpec(ISHITA, 1.0), 4)
        for m in range(1, 5):
            numeric = integrate(
                lambda x: np.asarray(x) ** m * spec.pdf(x),
                0.0,
                math.inf,
                1e-11,
                scale=spec.mean() * (m + 1),
            ).value
            np.testing.assert_allclose(spec.moment(m), numeric, rtol=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            SumSpec(DistSpec(LINDLEY, 1.0), 2).moment(-1)


class TestExactMoments:
    """Raw moments and the variance against exact rational values at theta = 1."""

    @pytest.mark.parametrize("n", [50, 1000])
    @pytest.mark.parametrize("member", [LINDLEY, RAM_AWADH], ids=lambda m: m.name)
    def test_raw_moments(self, member, n):
        spec = SumSpec(DistSpec(member, 1.0), n)
        exact = raw_moments(member.degree, n)
        for m in range(1, 5):
            np.testing.assert_allclose(spec.moment(m), float(exact[m]), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [10, 1000, 10_000])
    @pytest.mark.parametrize("member", [LINDLEY, RAM_AWADH], ids=lambda m: m.name)
    def test_variance(self, member, n):
        variance, _, _ = central_summaries(member.degree, n)
        np.testing.assert_allclose(
            SumSpec(DistSpec(member, 1.0), n).variance(), variance, rtol=1e-13, atol=0
        )

    def test_variance_beyond_double_range(self):
        # the mean is about 2e154 and the variance about 2e308
        spec = SumSpec(DistSpec(LINDLEY, 1e-154), 1)
        assert math.isfinite(spec.mean())
        with pytest.raises(OverflowError, match="m=2.*beyond double range"):
            spec.variance()


class TestMomentSeriesSmallP:
    def test_matches_mean_where_p_underflows(self):
        # p = theta^6/(theta^6 + 120) underflows to 0 at theta = 1e-60
        spec = SumSpec(DistSpec(RAM_AWADH, 1e-60), 3)
        assert spec.dist.mixture_weight == 0.0
        np.testing.assert_allclose(spec.moment_series(1), spec.mean(), rtol=1e-12)
        np.testing.assert_allclose(spec.mean(), 18e60, rtol=1e-12)


class TestMomentSeriesRange:
    """moment_series fails where moment does, with the same errors."""

    def test_beyond_double_range(self):
        spec = SumSpec(DistSpec(LINDLEY, 1.0), 2)
        for route in (spec.moment, spec.moment_series):
            with pytest.raises(OverflowError, match="m=200.*beyond double range"):
                route(200)

    def test_below_double_range(self):
        # E[S^3] is about 1e-900 at theta = 1e300; moment_series returned 0.0
        spec = SumSpec(DistSpec(LINDLEY, 1e300), 2)
        for route in (spec.moment, spec.moment_series):
            with pytest.raises(ArithmeticError, match="m=3.*below double range"):
                route(3)


class TestLargeN:
    def test_ram_awadh_fifty_terms_stable(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 50)
        xs = np.linspace(1.0, 500.0, 250)
        density = spec.pdf(xs)
        tail = spec.survival(xs)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        assert np.all(np.isfinite(tail))
        mass = integrate(
            spec.pdf, 0.0, math.inf, 1e-9, scale=spec.mean()
        ).value
        np.testing.assert_allclose(mass, 1.0, atol=1e-6)

    def test_peak_location_near_mean(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 50)
        xs = np.linspace(200.0, 400.0, 2001)
        peak = float(xs[int(np.argmax(spec.pdf(xs)))])
        assert abs(peak - spec.mean()) <= 10.0


class TestZeroWeightComponents:
    """A component whose weight is 0 contributes nothing: the mixture must
    agree with the one built without it, and not fail to build."""

    def test_matches_mixture_without_the_component(self):
        padded = ErlangMixture(1.5, (0.0, 1.0), (2, 5))
        single = ErlangMixture(1.5, (1.0,), (5,))
        xs = np.array([-1.0, 0.0, 0.3, 2.0, 7.5, 40.0])
        np.testing.assert_array_equal(padded.pdf(xs), single.pdf(xs))
        np.testing.assert_array_equal(padded.survival(xs), single.survival(xs))
        assert padded.pdf(2.0) == single.pdf(2.0)
        for m in range(5):
            assert padded.moment(m) == single.moment(m)

    @pytest.mark.parametrize("theta", [1e-200, 0.1, 1.0, 1e17, 1e200])
    def test_member_and_single_sum_share_weights(self, theta):
        for member in MEMBERS:
            dist = DistSpec(member, theta)
            # the sum of one draw reads the member's own two-component mixture
            mixture = SumSpec(dist, 1).mixture()
            assert mixture == dist.sum_mixture(1)
            assert mixture.shapes == (1, member.degree + 1)

    def test_lindley_keeps_its_small_erlang_branch(self):
        # at theta = 1e17 the Erlang weight 1 - p = 1/(theta + 1) is about 1e-17,
        # below the rounding of p itself; it must still be there
        theta = 1e17
        dist = DistSpec(LINDLEY, theta)
        q = 1.0 / (theta + 1.0)
        p = theta * q
        spec = SumSpec(dist, 1)
        np.testing.assert_allclose(spec.mixture().weights[1], q, rtol=1e-14)
        for x in (1e-18, 1e-17, 3e-17, 2e-16):
            expected = (p + q * (1.0 + theta * x)) * math.exp(-theta * x)
            np.testing.assert_allclose(spec.survival(x), expected, rtol=1e-15)
        np.testing.assert_allclose(spec.moment(1), (p + 2.0 * q) / theta, rtol=1e-13)


def _oracle(dist: DistSpec, n: int) -> SumOracle:
    return SumOracle(dist.theta, dist.alpha, dist.member.degree, n)


class TestUnderflowedWeightSum:
    """RamAwadh at theta = 0.1 with n = 50: the r = 0 mixture weight p^50
    (p ~ 8.3e-9) underflows to 0, which once made the mixture fail to build."""

    def test_against_mpmath_series(self):
        dist = DistSpec(RAM_AWADH, 0.1)
        spec = SumSpec(dist, 50)
        assert spec.mixture().weights[0] == 0.0
        oracle = _oracle(dist, 50)
        mean = oracle.mean()
        np.testing.assert_allclose(spec.mean(), mean, rtol=1e-12)
        sd = math.sqrt(spec.variance())
        for x in (mean - 2.0 * sd, mean, mean + 2.0 * sd):
            tail, density = oracle.survival(x), oracle.pdf(x)
            np.testing.assert_allclose(spec.survival(x), tail, rtol=1e-12)
            np.testing.assert_allclose(spec.cdf(x), 1.0 - tail, rtol=1e-12)
            # the log density is a sum of terms near theta * x = 300 in size,
            # so a few hundred ulp of relative error is inherent
            np.testing.assert_allclose(spec.pdf(x), density, rtol=2e-12)
            np.testing.assert_allclose(spec.pdf(np.array([x]))[0], density, rtol=2e-12)


class TestNonFiniteArguments:
    """Density and tails are 0 at +inf and NaN at NaN, on every route, with no
    floating-point warning."""

    def test_infinity_and_nan(self):
        dist = DistSpec(RANI, 1.5)
        spec, single = SumSpec(dist, 2), SumSpec(dist, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (math.inf, np.float64(math.inf), np.array(math.inf)):
                assert spec.pdf(arg) == 0.0
                assert spec.survival(arg) == 0.0
                assert spec.cdf(arg) == 1.0
                assert single.pdf(arg) == 0.0
                assert single.survival(arg) == 0.0
                assert StandbyModel.exponential(1.0, 3).reliability(arg) == 0.0
            for route in (spec.pdf, spec.survival, spec.cdf, single.pdf, single.survival):
                assert math.isnan(route(math.nan))
            values = spec.survival(np.array([-math.inf, 0.0, 1.0, math.inf, math.nan]))
        assert values[0] == 1.0 and values[1] == 1.0 and values[3] == 0.0
        assert 0.0 < values[2] < 1.0 and math.isnan(values[4])


class TestOverflowingArgument:
    """At a finite t where rate * t overflows (or nearly does) the tails are
    exactly 0 and 1 and the density 0, on the scalar and the array path, with
    no floating-point warning."""

    @pytest.mark.parametrize("theta, t", [(2.0, 1e308), (0.5, sys.float_info.max)])
    def test_scalar_and_arrays(self, theta, t):
        spec = SumSpec(DistSpec(LINDLEY, theta), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (t, np.float64(t)):
                assert spec.survival(arg) == 0.0 and type(spec.survival(arg)) is float
                assert spec.cdf(arg) == 1.0
                assert spec.pdf(arg) == 0.0
            for route, edge in ((spec.survival, 0.0), (spec.cdf, 1.0), (spec.pdf, 0.0)):
                np.testing.assert_array_equal(route(np.array([t])), [edge])
                np.testing.assert_array_equal(route(np.array([t, 1.0])), [edge, route(1.0)])

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_past_double_range(self, theta, sign):
        # a Python int no float can hold takes the edge of the infinity of its
        # sign: at theta = 0.5 the series range has no finite bound
        spec = SumSpec(DistSpec(LINDLEY, theta), 2)
        routes = (spec.pdf, spec.survival, spec.cdf, spec.mixture().log_pdf,
                  StandbyModel.exponential(theta, 3).reliability)
        for route in routes:
            got = route(sign * 10**400)
            assert type(got) is float
            assert got.hex() == route(sign * math.inf).hex(), route
        # lindley_reliability, which requires t >= 0, takes it as it takes
        # +inf, and rejects it below 0 as it rejects -inf
        route = partial(lindley_reliability, theta, 3)
        if sign > 0:
            got = route(10**400)
            assert type(got) is float and got.hex() == route(math.inf).hex() == "0x0.0p+0"
        else:
            for t in (-(10**400), -math.inf):
                with pytest.raises(ValueError, match="t must be nonnegative"):
                    route(t)

    @pytest.mark.parametrize("member, theta, x", [
        (LINDLEY, 2.0, 1e308),  # theta * x overflows
        (RAM_AWADH, 1.0, 1e100),  # x^5 overflows
        (AKASH, 1e3, 6e153),  # c * x^2 overflows
        (RAM_AWADH, 3e-54, 2.2e61),  # x^5 is finite, theta * x = 6.6e7
    ])
    def test_member_density(self, member, theta, x):
        dist = DistSpec(member, theta)
        assert _oracle(dist, 1).pdf(x) == 0.0
        spec = SumSpec(dist, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.pdf(x) == 0.0
            np.testing.assert_array_equal(spec.pdf(np.array([x, 1.0])), [0.0, spec.pdf(1.0)])


class TestSweepAccuracy:
    """Survival, on the scalar path and through the array evaluator, against
    the mpmath tail at the grid workload's specs, wherever the tail is at
    least 1e-300 (past rate * t = 745 too, where e^{-rate t} underflows)."""

    MEAN_MULTIPLES = {1: (0.05, 0.4, 1.0, 2.5, 6.0), 5: (0.2, 0.6, 1.0, 2.0, 4.0),
                      50: (0.8, 1.0, 1.3)}

    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_against_mpmath(self, member):
        checked = 0
        for theta in (0.5, 2.0):
            for n, multiples in self.MEAN_MULTIPLES.items():
                dist = DistSpec(member, theta)
                spec = SumSpec(dist, n)
                ts = [m * spec.mean() for m in multiples]
                array = spec.survival(np.array(ts))
                oracle = _oracle(dist, n)
                for t, from_array in zip(ts, array):
                    truth = oracle.survival(t)
                    if truth < 1e-300:
                        continue
                    for got in (spec.survival(t), from_array):
                        assert abs(got - truth) <= 1e-13 * truth, (theta, n, t, got, truth)
                    checked += 1
        assert checked == 26  # every point: no tail is below 1e-300

    @pytest.mark.parametrize("member, n, t", [(RAM_AWADH, 200, None), (LINDLEY, 500, 1000.0)],
                             ids=["RamAwadh-200-mean", "Lindley-500-t1000"])
    def test_past_the_start_underflow(self, member, n, t):
        # theta t near 1192 and 1000, where e^{-theta t} underflows: once 0.0,
        # the tails are 0.4965 and 5.275e-15
        dist = DistSpec(member, 1.0)
        spec, oracle = SumSpec(dist, n), _oracle(dist, n)
        t = t or oracle.mean()
        truth = oracle.survival(t)
        assert truth > 1e-15
        for got in (spec.survival(t), spec.survival(np.array([t]))[0]):
            assert abs(got - truth) <= 2e-15 * t * truth, (got, truth)

    def test_plan_skips_zero_weights(self):
        # RamAwadh theta = 1, n = 200: 29 of the 201 weights underflow to 0
        dist = DistSpec(RAM_AWADH, 1.0)
        spec = SumSpec(dist, 200)
        mixture = spec.mixture()
        plan = mixture._survival_plan
        assert sum(w == 0.0 for w in mixture.weights) == 29
        # one block per _BLOCK terms W_j y^j / j! up to the last shape; the block
        # from b keeps r = b, its constant ln W_b - ln(b! e^b / b^b), and for
        # y <= 1 the ratios of its terms to the first at y = 1, highest first:
        # the tail weights, the fsum of the positive weights on shapes above
        # b+i, over W_b, times b!/(b+i)!, each to a few ulp
        positive = [(w, s) for w, s in mixture.components if w > 0.0]
        assert len(plan._sides[0]) == math.ceil(mixture.shapes[-1] / _BLOCK) == 38
        for b, (r, _, constant, coefficients) in zip(range(0, mixture.shapes[-1], _BLOCK),
                                                     plan._sides[0]):
            assert r == b
            tail_weights = [
                math.fsum(w for w, s in positive if s > b + i) for i in range(len(coefficients))
            ]
            with mpmath.workdps(30):
                scale = mpmath.log(mpmath.factorial(b)) - b * mpmath.log(b) + b if b else 0
                expected = float(mpmath.log(tail_weights[0]) - scale)
            assert abs(constant - expected) <= 1e-15 + 4 * math.ulp(expected)
            expected = [weight / tail_weights[0] / math.perm(b + i, i)
                        for i, weight in enumerate(tail_weights)]
            np.testing.assert_allclose(coefficients[::-1], expected, rtol=2e-15)
        # below rate * t = 700 the tail is near 1: nearly all weight sits on shapes past 1000
        truth = _oracle(dist, 200).survival(690.0)
        for got in (spec.survival(690.0), spec.survival(np.array([690.0]))[0]):
            assert abs(got - truth) <= 1e-13 * truth, (got, truth)
        padded = ErlangMixture(1.5, (0.0, 1.0), (2, 5))._survival_plan
        plain = ErlangMixture(1.5, (1.0,), (5,))._survival_plan
        assert padded._sides == plain._sides


class TestSweepBlocks:
    """The blocked survival series at top shapes on both sides of a block
    boundary, some mixtures with zero weights, against mpmath's regularized
    incomplete gamma function, on the scalar path and through the array
    evaluator; also past rate t = 745, where e^{-rate t} underflows but the
    tail does not, and its exact 0 where rate t overflows."""

    RATE = 1.3
    MIXTURES = [
        ((1.0,), (1,)),
        ((0.4, 0.6), (1, 2)),
        ((0.0, 1.0), (1, 2)),
        ((1.0,), (15,)),
        ((0.25, 0.0, 0.75), (3, 9, 16)),
        ((0.5, 0.5), (1, 16)),
        ((0.2, 0.3, 0.0, 0.5), (2, 7, 12, 17)),
        ((0.0, 0.7, 0.3), (5, 16, 32)),
        ((0.1, 0.6, 0.0, 0.3), (1, 17, 20, 33)),
        ((0.5, 0.5), (1, 32)),
        ((0.2, 0.0, 0.8), (31, 40, 65)),
    ]

    @staticmethod
    def _truth(mixture, x) -> tuple[float, float]:
        """The tail at x = rate t and its complement, the cdf, at 50 digits."""
        with mpmath.workdps(50):
            tail = mpmath.fsum(
                mpmath.mpf(w) * mpmath.gammainc(s, mpmath.mpf(x), regularized=True)
                for w, s in mixture.components
            )
            return float(tail), float(1 - tail)

    @pytest.mark.parametrize("weights, shapes", MIXTURES, ids=str)
    def test_against_mpmath(self, weights, shapes):
        mixture = ErlangMixture(self.RATE, weights, shapes)
        top = max(s for w, s in mixture.components if w > 0.0)
        assert len(mixture._survival_plan._sides[0]) == math.ceil(top / _BLOCK)
        xs = [1e-3, 0.3, 1.0, 4.0, 12.0, 25.0, 40.0, 60.0, 100.0]
        ts = [x / self.RATE for x in xs]
        array = mixture.survival(np.array(ts))
        for t, from_array in zip(ts, array):
            truth = self._truth(mixture, self.RATE * t)[0]
            if truth < 1e-300:
                continue
            for got in (mixture.survival(t), from_array):
                assert abs(got - truth) <= 1e-13 * truth, (t, got, truth)

    @pytest.mark.parametrize(
        "weights, shapes",
        MIXTURES[::3] + [((0.5, 0.5), (40, 3000)), ((0.3, 0.7), (700, 800))], ids=str,
    )
    def test_past_the_start_underflow(self, weights, shapes):
        # within 1e-12 up to y = rate t = 1000, then 2e-15 y: e^{-y} has
        # condition number y; tails below the smallest normal double are not
        # compared, and where rate t overflows both are exact
        mixture = ErlangMixture(self.RATE, weights, shapes)
        ts = [x / self.RATE for x in (700.0, 745.0, 746.0, 800.0, 1000.0, 1500.0, 2383.0, 1e4)]
        far = math.nextafter(_finite_below(self.RATE), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails, cdfs = mixture.survival(np.array(ts)), mixture.cdf(np.array(ts))
            for t, from_array, cdf_from_array in zip(ts, tails, cdfs):
                y = self.RATE * t
                bound = max(1e-12, 2e-15 * y)
                tail, cdf = self._truth(mixture, y)
                if tail >= sys.float_info.min:
                    for got in (mixture.survival(t), from_array):
                        assert abs(got - tail) <= bound * tail, (y, got, tail)
                for got in (mixture.cdf(t), cdf_from_array):
                    assert abs(got - cdf) <= bound * cdf, (y, got, cdf)
            assert mixture.survival(far) == 0.0 and mixture.cdf(far) == 1.0
            np.testing.assert_array_equal(mixture.survival(np.array([far, far])), 0.0)
            # a point where the tail is positive beside it leaves it 0 and 1
            np.testing.assert_array_equal(
                mixture.cdf(np.array([far, 1.0])), [1.0, mixture.cdf(1.0)]
            )


class TestGappedLattice:
    """Mixtures whose positive-weight shapes skip points of their lattice, so
    that density blocks hold zero coefficients between their terms: pdf,
    log_pdf and survival on the scalar path and through the array evaluator,
    against 40-digit sums of Erlang terms.  The worst relative error seen is 3.2e-14,
    the density of the mixture on shapes (1, 4, 40) at y = rate x = 1.17, where
    its one block of the powers 0 to 39 is anchored at 39."""

    RATE = 1.3
    MIXTURES = [
        ((0.2, 0.3, 0.5), (1, 3, 4)),
        ((0.5, 0.25, 0.25), (2, 5, 6)),
        ((0.4, 0.35, 0.25), (1, 4, 40)),  # a lattice of step 3 in the powers s - 1
        ((0.1, 0.2, 0.3, 0.4), (3, 4, 9, 11)),
    ]
    XS = [1e-3, 0.2, 0.9, 2.5, 6.0, 15.0, 30.0, 45.0, 80.0]

    @classmethod
    def _truth(cls, mixture, x: float) -> tuple[float, float, float]:
        """The density, its log and the survival at x, at 40 digits."""
        with mpmath.workdps(40):
            y = cls.RATE * mpmath.mpf(x)
            pdf = mpmath.fsum(
                w * cls.RATE * y ** (s - 1) * mpmath.exp(-y) / mpmath.factorial(s - 1)
                for w, s in mixture.components
            )
            tail = mpmath.fsum(
                w * mpmath.gammainc(s, y, regularized=True) for w, s in mixture.components
            )
            return float(pdf), float(mpmath.log(pdf)), float(tail)

    @pytest.mark.parametrize("weights, shapes", MIXTURES, ids=str)
    def test_against_mpmath(self, weights, shapes):
        mixture = ErlangMixture(self.RATE, weights, shapes)
        assert any(0.0 in row for side in mixture._density_plan._sides for *_, row in side)
        truths = list(zip(*(self._truth(mixture, x) for x in self.XS)))
        routes = (mixture.pdf, mixture.log_pdf, mixture.survival)
        for route, truth, log in zip(routes, truths, (False, True, False)):
            for got in ([route(x) for x in self.XS], route(np.array(self.XS))):
                error = np.abs(np.subtract(got, truth))
                scale = np.maximum(1.0, np.abs(truth)) if log else np.abs(truth)
                assert np.all(error <= 1e-13 * scale), (route.__name__, got, truth)


def _mp_log_pdf(oracle: SumOracle, x: float) -> float:
    """ln of the oracle's density at x, at 50 digits: finite where the density
    itself underflows."""
    with mpmath.workdps(50):
        y = oracle.theta * mpmath.mpf(x)
        series = mpmath.fsum(
            w * oracle.theta * y ** (s - 1) / mpmath.factorial(s - 1) for w, s in oracle.components
        )
        return float(mpmath.log(series) - y)


class TestDensityInY:
    """The n-fold density against SumOracle at 0.5, 1 and 2 times the mean, for
    theta from 1e-300 to 1e300, on the scalar path and through the array
    evaluator.  Each term's
    log is taken in y = theta x, so nothing cancels: adding s ln theta and
    (s-1) ln x apart lost up to 2e-11 here."""

    THETAS = (1e-300, 1e-250, 1e-100, 1e-10, 1e10, 1e100, 1e250, 1e300)
    # (member, n): the points where the truth is a normal double
    CHECKED = {("Lindley", 1): 24, ("Lindley", 3): 24, ("Lindley", 10): 24, ("Lindley", 50): 22,
               ("RamAwadh", 1): 24, ("RamAwadh", 3): 24, ("RamAwadh", 10): 23,
               ("RamAwadh", 50): 22}

    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    @pytest.mark.parametrize("member", [LINDLEY, RAM_AWADH], ids=lambda m: m.name)
    def test_against_mpmath(self, member, n):
        checked = 0
        for theta in self.THETAS:
            dist = DistSpec(member, theta)
            spec, oracle = SumSpec(dist, n), _oracle(dist, n)
            xs = [f * oracle.mean() for f in (0.5, 1.0, 2.0)]
            array = spec.pdf(np.array(xs))
            for i, x in enumerate(xs):
                truth = oracle.pdf(x)
                if truth < sys.float_info.min:
                    continue
                checked += 1
                for got in (spec.pdf(x), array[i]):
                    assert abs(got - truth) <= 1e-12 * truth, (theta, x, got, truth)
        assert checked == self.CHECKED[member.name, n]


class TestPointwiseOverTheDomain:
    """pdf and survival of the n-fold sum at a Python float against SumOracle,
    jointly over any member, theta log-uniform on [1e-200, 1e200], n up to
    1000 and t log-uniform from 1e-6 to 50 times the mean, within 1e-12
    relative wherever the truth is at least 1e-300 (ROADMAP item 6; the cdf
    waits for item 1's lower tail)."""

    @given(
        member=st.sampled_from(MEMBERS),
        theta=st.floats(-200.0, 200.0).map(lambda e: 10.0**e),
        n=st.integers(1, 1000),
        factor=st.floats(-6.0, math.log10(50.0)).map(lambda e: 10.0**e),
    )
    @settings(max_examples=40, deadline=None)
    def test_pdf_and_survival_match_mpmath(self, member, theta, n, factor):
        dist = DistSpec(member, theta)
        spec, oracle = SumSpec(dist, n), _oracle(dist, n)
        t = factor * oracle.mean()
        for route, truth in ((spec.pdf, oracle.pdf), (spec.survival, oracle.survival)):
            got, expected = route(t), truth(t)
            if expected >= 1e-300:
                assert abs(got - expected) <= 1e-12 * expected, (route.__name__, t, got, expected)


class TestSumOracleSurvival:
    """SumOracle's survival, one Poisson sum over the tail weights, against
    the route it replaced: one 50-digit regularized gammainc per component."""

    @pytest.mark.parametrize(
        "member, theta, n, factor",
        [(LINDLEY, 1.0, 1, 0.5), (RAM_AWADH, 2.0, 5, 3.0), (AKASH, 1e-100, 50, 1.0),
         (RAM_AWADH, 1e100, 200, 0.2), (SHANKER, 0.3, 20, 8.0)],
        ids=["lindley-1", "ramawadh-5-tail", "akash-50-tiny-theta", "ramawadh-200-huge-theta",
             "shanker-20-deep-tail"],
    )
    def test_poisson_sum_matches_gammainc(self, member, theta, n, factor):
        oracle = _oracle(DistSpec(member, theta), n)
        t = factor * oracle.mean()
        with mpmath.workdps(50):
            y = oracle.theta * mpmath.mpf(t)
            route = mpmath.fsum(
                w * mpmath.gammainc(s, y, regularized=True) for w, s in oracle.components
            )
            assert abs(oracle.survival_mpf(t) - route) <= mpmath.mpf("1e-40") * route


class TestDensityHardCases:
    """Inputs that break a naive Horner sum or a log taken after rounding."""

    @staticmethod
    def _check(dist: DistSpec, n: int, xs: list[float]) -> int:
        spec, oracle = SumSpec(dist, n), _oracle(dist, n)
        routes = (spec.pdf(np.array(xs)), [spec.pdf(x) for x in xs])
        checked = 0
        for route in routes:
            assert np.all(np.isfinite(route)) and np.all(np.asarray(route) >= 0.0)
        for i, x in enumerate(xs):
            truth = oracle.pdf(x)
            if truth < sys.float_info.min:
                continue
            checked += 1
            for route in routes:
                assert abs(route[i] - truth) <= 1e-12 * truth, (x, route[i], truth)
        return checked

    @pytest.mark.parametrize("n", [10, 50])
    def test_ram_awadh_tiny_theta(self, n):
        # the weights grow by about 1e61 a step; a Horner sum normalised to its
        # first coefficient overflowed here
        dist = DistSpec(RAM_AWADH, 1e-10)
        mean = SumSpec(dist, n).mean()
        xs = [f * mean for f in (1e-3, 0.05, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0)]
        assert self._check(dist, n, xs) >= 6

    def test_subnormal_first_weight(self):
        dist = DistSpec(LINDLEY, 1e-155)
        assert 0.0 < SumSpec(dist, 2).mixture().weights[0] < sys.float_info.min
        xs = [y / dist.theta for y in (1e-200, 1e-30, 1e-3, 0.5, 3.0, 30.0, 700.0)]
        assert self._check(dist, 2, xs) >= 3

    @pytest.mark.parametrize("weights, shapes", [
        ((0.5, 0.5), (40, 3000)), ((0.3, 0.7), (2, 500)), ((2e-320, 1.0), (77, 448)),
    ])
    def test_wide_shape_gaps(self, weights, shapes):
        # the terms' ratio across a gap of hundreds of shapes is below the
        # smallest double (or, from a subnormal weight, both tiny and huge):
        # each term takes a block of its own
        mixture = ErlangMixture(1.3, weights, shapes)
        xs = [20.0, 300.0, 340.0, 1500.0]
        for x, from_array in zip(xs, mixture.pdf(np.array(xs))):
            with mpmath.workdps(50):
                y = 1.3 * mpmath.mpf(x)
                truth = float(mpmath.fsum(
                    w * 1.3 * y ** (s - 1) * mpmath.exp(-y) / mpmath.factorial(s - 1)
                    for w, s in mixture.components
                ))
            if truth < sys.float_info.min:
                continue
            for got in (mixture.pdf(x), from_array):
                assert abs(got - truth) <= 1e-12 * truth, (x, got, truth)

    @pytest.mark.parametrize("theta, n, x", [
        (1e10, 2, 1e-320),  # theta x = 1e-310 is subnormal
        (1e5, 2, 3e-315),
        (1e-10, 1, 1e-320),  # theta x underflows to 0
    ])
    def test_subnormal_y(self, theta, n, x):
        assert theta * x < sys.float_info.min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._check(DistSpec(LINDLEY, theta), n, [x, 1.0 / theta]) == 2

    @pytest.mark.parametrize("member, theta, n", [
        (LINDLEY, 2.0, 50), (RAM_AWADH, 2.0, 5), (AKASH, 1e100, 1), (RAM_AWADH, 1e-10, 10),
    ])
    def test_log_density_near_the_overflow_bound(self, member, theta, n):
        dist = DistSpec(member, theta)
        mixture, oracle = SumSpec(dist, n).mixture(), _oracle(dist, n)
        bound = _finite_below(theta) if theta > 1.0 else sys.float_info.max
        xs = [math.nextafter(bound, 0.0), 0.5 * bound, 1e-3 * bound]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, value in zip(xs, mixture.log_pdf(np.array(xs))):
                truth = _mp_log_pdf(oracle, x)
                assert abs(value - truth) <= 1e-12 * abs(truth), (x, value, truth)


class TestDensityDomain:
    """Across theta in double range and theta x from 1e-320 to the largest
    double, on an array and at Python floats, pdf is finite and log_pdf
    finite, and pdf is 0 only where log_pdf is below the smallest normal
    double's log: no NaN, no inf, no spurious 0."""

    @pytest.mark.parametrize("member", [LINDLEY, AKASH, RAM_AWADH], ids=lambda m: m.name)
    def test_no_spurious_values(self, member):
        scaled = [10.0**e for e in range(-320, 309, 4)]
        for theta in (1e-300, 1e-200, 1e-100, 1e-20, 0.5, 2.0, 1e20, 1e100, 1e200, 1e300):
            for n in (1, 2, 5, 20, 50):
                mixture = SumSpec(DistSpec(member, theta), n).mixture()
                bound = _finite_below(theta)
                xs = np.array([x for x in (y / theta for y in scaled) if 0.0 < x < bound])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for density, log_density in (
                        (mixture.pdf(xs), mixture.log_pdf(xs)),
                        (np.array([mixture.pdf(x) for x in xs.tolist()]),
                         np.array([mixture.log_pdf(x) for x in xs.tolist()])),
                    ):
                        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
                        assert np.all(np.isfinite(log_density))
                        assert np.all(density[log_density > -708.0] > 0.0)
                        normal = log_density > -700.0
                        np.testing.assert_allclose(
                            density[normal], np.exp(log_density[normal]), rtol=1e-15
                        )


def _exact_weights(member, theta: Fraction, n: int) -> list[float]:
    """C(n,r) p^(n-r) q^r, each rounded once from exact integers: with p = P/D
    and q = Q/D, T_r = C(n,r) P^(n-r) Q^r is walked in integers and T_r / D^n
    is a correctly rounded int division."""
    alpha = Fraction(1) if member.alpha_kind is AlphaKind.UNIT else theta
    head = alpha * theta**member.degree
    p = head / (head + math.factorial(member.degree))
    big_p, den = p.numerator, p.denominator
    big_q, scale = den - big_p, den**n
    term, out = big_p**n, []
    for r in range(n + 1):
        out.append(term / scale)
        term = term * (n - r) * big_q // ((r + 1) * big_p)
    return out


class TestSumWeightsExact:
    """sum_mixture's weights against exact rational ones at theta = 1/2, 1 and
    2, where p is rational: every weight of at least 1e-300 within 1e-13.
    Weights taken as differences of lgammas were off by 1.3e-11 at n = 5000."""

    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_against_integers(self, member):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for n in (1, 2, 7, 50, 1000, 5000):
                got = DistSpec(member, float(theta)).sum_mixture(n).weights
                for r, exact in enumerate(_exact_weights(member, theta, n)):
                    if exact >= 1e-300:
                        assert abs(got[r] - exact) <= 1e-13 * exact, (theta, n, r, got[r], exact)

    @pytest.mark.parametrize("theta", [1e-300, 1e300])
    def test_mass_at_an_end_past_double_range(self, theta):
        for member in MEMBERS:
            dist = DistSpec(member, theta)
            for n in (1, 5, 50):
                weights = dist.sum_mixture(n).weights
                end = weights[-1] if theta < 1.0 else weights[0]
                assert end == 1.0, (member.name, n, weights[:3])
                oracle = _oracle(dist, n)
                for got, (truth, _) in zip(weights, oracle.components):
                    assert abs(got - float(truth)) <= 1e-13 * float(truth) + 1e-320
