"""Tests for the log-space primitives, the Erlang(n) tail (through its one
route, StandbyModel.exponential), the Erlang-mixture moments, and the adaptive
Gauss-Kronrod quadrature."""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaincc

from lindsum.family import AKASH, LINDLEY, DistSpec
from lindsum.numerics import (
    ErlangMixture,
    QuadratureError,
    _GK21_TABLES,
    _MAX_INTERVALS,
    integrate,
    ln_binomial,
    ln_factorial,
    logsumexp,
)
from lindsum.reliability import StandbyModel
from lindsum.sums import SumSpec


class TestLnFactorial:
    def test_zero_and_one(self):
        assert ln_factorial(0) == 0.0
        assert ln_factorial(1) == 0.0

    def test_matches_exact_integer_products(self):
        # oracle: repeated integer multiplication, exact in Python
        product = 1
        for n in range(1, 21):
            product *= n
            np.testing.assert_allclose(ln_factorial(n), math.log(product), rtol=1e-14)

    def test_large_argument_matches_log_sum(self):
        # oracle: sum of logs, accumulated exactly
        expected = math.fsum(math.log(i) for i in range(1, 101))
        np.testing.assert_allclose(ln_factorial(100), expected, rtol=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ln_factorial(-1)


class TestLnBinomial:
    def test_matches_pascal_triangle(self):
        row = [1]
        for n in range(13):
            for r, coefficient in enumerate(row):
                np.testing.assert_allclose(
                    ln_binomial(n, r), math.log(coefficient), rtol=1e-13, atol=1e-13
                )
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]

    def test_ten_choose_two(self):
        np.testing.assert_allclose(ln_binomial(5, 2), math.log(10.0), rtol=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ln_binomial(3, 4)
        with pytest.raises(ValueError):
            ln_binomial(3, -1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be a nonnegative integer, got -1"):
            ln_binomial(-1, 0)


class TestErlangTail:
    def test_at_zero(self):
        assert StandbyModel.exponential(2.0, 1).reliability(0.0) == 1.0
        assert StandbyModel.exponential(0.3, 7).reliability(0.0) == 1.0

    def test_single_stage_is_exponential(self):
        np.testing.assert_allclose(
            StandbyModel.exponential(2.0, 1).reliability(1.0), math.exp(-2.0), rtol=1e-14
        )

    def test_truncated_series_value(self):
        # direct evaluation of e^{-2} * (1 + 2 + 2^2/2)
        np.testing.assert_allclose(
            StandbyModel.exponential(1.0, 3).reliability(2.0), math.exp(-2.0) * 5.0, rtol=1e-14
        )

    def test_matches_incomplete_gamma(self):
        for shape in (1, 2, 5, 30, 300):
            for rate in (0.3, 1.0, 4.0):
                for t in (0.1, 1.0, 10.0, 100.0):
                    np.testing.assert_allclose(
                        StandbyModel.exponential(rate, shape).reliability(t),
                        gammaincc(shape, rate * t),
                        rtol=1e-12,
                        atol=1e-300,
                    )

    def test_matches_density_quadrature(self):
        for shape in (2, 5, 30):
            rate = 1.5

            def density(u: list[float]) -> np.ndarray:
                u = np.asarray(u)
                return np.exp(
                    shape * math.log(rate)
                    + (shape - 1) * np.log(u)
                    - rate * u
                    - math.lgamma(shape)
                )

            for t in (0.5, 3.0, 20.0):
                mass = integrate(density, 0.0, t, 1e-12).value
                np.testing.assert_allclose(
                    StandbyModel.exponential(rate, shape).reliability(t), 1.0 - mass, atol=1e-10
                )

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 0.5, 2.0, 40.0])
        system = StandbyModel.exponential(0.7, 4)
        vec = system.reliability(ts)
        assert isinstance(vec, np.ndarray)
        scalars = [system.reliability(t) for t in ts.tolist()]
        np.testing.assert_allclose(vec, scalars, rtol=1e-14, atol=0.0)

    def test_bounded_for_extreme_arguments(self):
        value = StandbyModel.exponential(1.0, 300).reliability(500.0)
        assert 0.0 <= value <= 1.0
        assert StandbyModel.exponential(1.0, 2).reliability(1e6) == 0.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            StandbyModel.exponential(1.0, 0)
        with pytest.raises(ValueError):
            StandbyModel.exponential(0.0, 2)

    @given(
        shape=st.integers(min_value=1, max_value=40),
        rate=st.floats(min_value=0.01, max_value=50.0),
        t=st.floats(min_value=0.0, max_value=200.0),
        dt=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_monotone_in_time_and_shape(self, shape, rate, t, dt):
        here = StandbyModel.exponential(rate, shape).reliability(t)
        assert 0.0 <= here <= 1.0
        assert StandbyModel.exponential(rate, shape).reliability(t + dt) <= here + 1e-12
        assert StandbyModel.exponential(rate, shape + 1).reliability(t) >= here - 1e-12


class TestLogSumTerms:
    def test_small_exact_values(self):
        np.testing.assert_allclose(math.exp(logsumexp([math.log(2.0)])), 2.0, rtol=1e-14)
        np.testing.assert_allclose(
            math.exp(logsumexp([math.log(2.0), math.log(3.0)])), 5.0, rtol=1e-14
        )

    def test_huge_magnitudes_stay_finite_on_log_scale(self):
        result = logsumexp([1000.0, 1000.0])
        np.testing.assert_allclose(result, 1000.0 + math.log(2.0), rtol=1e-15)

    def test_shift_invariance(self):
        base = [0.3, -1.2, 0.9]
        shifted = [v + 500.0 for v in base]
        np.testing.assert_allclose(
            logsumexp(shifted) - 500.0, logsumexp(base), rtol=1e-14
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])

    def test_infinite_terms(self):
        # an infinite term is the sum; all -inf is the log of an empty sum
        assert logsumexp([0.5, math.inf, -3.0]) == math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    @given(
        st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=40)
    )
    def test_agrees_with_direct_summation(self, logs):
        direct = math.fsum(math.exp(v) for v in logs)
        np.testing.assert_allclose(math.exp(logsumexp(logs)), direct, rtol=1e-12)


class TestIntegrate:
    def test_exponential_mass(self):
        result = integrate(lambda x: np.exp(-np.asarray(x)), 0.0, math.inf, 1e-10)
        np.testing.assert_allclose(result.value, 1.0, atol=1e-10)
        assert result.error_estimate <= 1e-10
        assert result.evaluations == 189

    def test_gamma_integrals(self):
        # integral of x^k e^{-theta x} over [0, inf) is k!/theta^{k+1}
        for k in range(11):
            for theta in (0.5, 1.0, 2.0):
                expected = math.factorial(k) / theta ** (k + 1)
                result = integrate(
                    lambda x: np.asarray(x) ** k * np.exp(-theta * np.asarray(x)),
                    0.0,
                    math.inf,
                    1e-10,
                    scale=(k + 1) / theta,
                )
                np.testing.assert_allclose(result.value, expected, rtol=1e-9)

    def test_finite_interval(self):
        result = integrate(np.sin, 0.0, math.pi, 1e-12)
        np.testing.assert_allclose(result.value, 2.0, rtol=1e-12)
        assert result.evaluations == 21

    def test_empty_interval(self):
        result = integrate(np.ones_like, 3.0, 3.0)
        assert result.value == 0.0

    def test_scale_hint_centers_remote_mass(self):
        # unit Gaussian bump centered at 300: invisible near u=0 without a hint
        center, width = 300.0, 5.0

        def bump(x: list[float]) -> np.ndarray:
            z = (np.asarray(x) - center) / width
            return np.exp(-0.5 * z * z) / (width * math.sqrt(2.0 * math.pi))

        result = integrate(bump, 0.0, math.inf, 1e-10, scale=center)
        np.testing.assert_allclose(result.value, 1.0, atol=1e-9)
        assert result.evaluations == 483

    def test_budget_exhaustion_raises_with_best_estimate(self):
        # the default budget: every interval is used, each rule once per piece
        budget = f"{_MAX_INTERVALS} of at most {_MAX_INTERVALS} intervals"
        with pytest.raises(QuadratureError, match=budget) as excinfo:
            integrate(lambda x: np.sin(1e6 * np.asarray(x)), 0.0, 1.0, 1e-13)
        best = excinfo.value.best
        assert math.isfinite(best.value)
        assert best.evaluations == 21 * (2 * _MAX_INTERVALS - 1)

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError, match="not finite") as excinfo:
            integrate(lambda x: np.where(np.asarray(x) > 0.5, math.nan, 1.0), 0.0, 1.0)
        assert excinfo.value.best.evaluations > 0

    def test_divergent_tail_raises(self):
        # the error piles up at u -> 1 until the worst piece cannot be bisected
        with pytest.raises(QuadratureError, match="too narrow to bisect"):
            integrate(lambda x: 1.0 / (1.0 + np.asarray(x)), 0.0, math.inf)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, scale=-1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, -math.inf, 0.0)
        with pytest.raises(ValueError, match="upper bound nan"):
            integrate(lambda x: x, 0.0, math.nan)

    @pytest.mark.parametrize("upper", [1.0, math.inf])
    def test_scalar_integrand_rejected(self, upper):
        with pytest.raises(ValueError, match=r"one value per node.*shape \(\)"):
            integrate(lambda x: 1.0, 0.0, upper)
        with pytest.raises(ValueError, match=r"one value per node.*shape \(1,\)"):
            integrate(lambda x: np.ones(1), 0.0, upper)

    def test_one_call_per_rule(self):
        sizes = []

        def counting(x: list[float]) -> np.ndarray:
            sizes.append(len(x))
            return np.exp(-np.asarray(x))

        result = integrate(counting, 0.0, math.inf, 1e-10)
        assert result.evaluations == 189
        assert sizes == [21] * (189 // 21)

    def test_sequence_and_array_returns_agree(self):
        def as_list(x: list[float]) -> list[float]:
            assert type(x) is list and all(type(v) is float for v in x)
            return [math.sin(v) for v in x]

        expected = integrate(as_list, 0.0, math.pi, 1e-12)
        np.testing.assert_allclose(expected.value, 2.0, rtol=1e-12)
        for wrap in (tuple, np.array):
            assert integrate(lambda x: wrap(as_list(x)), 0.0, math.pi, 1e-12) == expected

    def test_opposite_infinities_raise(self):
        # +inf and -inf at different nodes: their sum is NaN, not a ValueError
        with pytest.raises(QuadratureError, match="not finite"):
            integrate(lambda x: [math.inf if v < 0.5 else -math.inf for v in x], 0.0, 1.0)

    def test_overflowing_weighted_sum_raises(self):
        # every node finite, the Kronrod sum of 1e308 (weights summing to 2) is not
        with pytest.raises(QuadratureError, match="not finite"):
            integrate(lambda x: [1e308] * len(x), 0.0, 1.0)

    def test_interval_wider_than_double_range(self):
        # b - a overflows; the centre and half-width are taken from a/2 and b/2
        result = integrate(lambda x: [1e-300] * len(x), -1e308, 1e308)
        np.testing.assert_allclose(result.value, 2e8, rtol=1e-15)
        assert result.evaluations == 21


class TestGaussKronrodRule:
    def test_gauss_nodes_and_weights_match_leggauss(self):
        gauss = [(x, k - d) for x, k, d in zip(*_GK21_TABLES) if k != d]
        nodes, weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose([x for x, _ in gauss], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose([w for _, w in gauss], weights, rtol=0, atol=1e-15)

    def test_kronrod_rule_exact_through_degree_31(self):
        nodes, kronrod, _ = _GK21_TABLES
        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            value = math.fsum(w * x**d for w, x in zip(kronrod, nodes))
            assert abs(value - exact) <= 1e-14, d


class TestIntegrateAgainstMpmath:
    """integrate against mpmath.quad at 30 digits, to 1e-12 relative."""

    def test_gamma_integrals(self):
        with mpmath.workdps(30):
            for k in range(11):
                for theta in (0.5, 1.0, 2.0):
                    result = integrate(
                        lambda x: np.asarray(x) ** k * np.exp(-theta * np.asarray(x)),
                        0.0,
                        math.inf,
                        1e-13,
                        scale=(k + 1) / theta,
                    )
                    reference = mpmath.quad(
                        lambda x: x**k * mpmath.exp(-theta * x), [0, mpmath.inf]
                    )
                    np.testing.assert_allclose(result.value, float(reference), rtol=1e-12)

    def test_remote_gaussian_bump(self):
        center, width = 300.0, 5.0

        def bump(x: list[float]) -> np.ndarray:
            z = (np.asarray(x) - center) / width
            return np.exp(-0.5 * z * z) / (width * math.sqrt(2.0 * math.pi))

        with mpmath.workdps(30):
            reference = mpmath.quad(
                lambda x: mpmath.npdf(x, center, width),
                [0, center - 10 * width, center, center + 10 * width, mpmath.inf],
            )
        result = integrate(bump, 0.0, math.inf, 1e-13, scale=center)
        np.testing.assert_allclose(result.value, float(reference), rtol=1e-12)

    def test_two_fold_convolution(self):
        # f * f at x for the Akash density theta^3 / (theta^2 + 2) (1 + u^2) e^{-theta u}
        theta, x = 0.7, 6.5
        single = SumSpec(DistSpec(AKASH, theta), 1)

        def akash(u):
            return theta**3 / (theta**2 + 2) * (1 + u * u) * mpmath.exp(-theta * u)

        with mpmath.workdps(30):
            reference = mpmath.quad(lambda u: akash(u) * akash(x - u), [0, x])
        result = integrate(
            lambda u: single.pdf(np.asarray(u)) * single.pdf(x - np.asarray(u)), 0.0, x, 1e-13
        )
        np.testing.assert_allclose(result.value, float(reference), rtol=1e-12)


def test_mixture_moment_beyond_double_range_names_the_order():
    mixture = DistSpec(LINDLEY, 1.0).sum_mixture(2)
    assert math.isfinite(mixture.moment(150))
    with pytest.raises(OverflowError, match="m=200.*beyond double range"):
        mixture.moment(200)


def test_mixture_moment_below_double_range_names_the_order():
    # the third moment of a 3-fold sum at theta = 1e150 is about 1e-448
    mixture = DistSpec(LINDLEY, 1e150).sum_mixture(3)
    assert mixture.moment(2) > 0.0
    with pytest.raises(ArithmeticError, match="m=3.*below double range"):
        mixture.moment(3)


def test_mixture_mean_at_the_edges_of_double_range():
    # 2 / rate rounds to inf here while ln 2 - ln rate stays below ln(max):
    # the exact mean raises OverflowError, and never returns inf
    edge = ErlangMixture(1.1125369292536007e-308, (1.0,), (2,))
    assert math.log(2.0) - math.log(edge.rate) <= math.log(sys.float_info.max)
    with pytest.raises(OverflowError, match="m=1.*beyond double range"):
        edge.mean()
    # a subnormal mean is returned: 1 / 1e308 is not 0
    assert ErlangMixture(1e308, (1.0,), (1,)).mean() == 1e-308


def test_mixture_tables_are_cached_on_the_instance():
    mixture = DistSpec(LINDLEY, 2.0).sum_mixture(5)
    mixture.pdf(np.linspace(0.5, 5.0, 4))
    mixture.survival(1.5)
    for name in ("_density_plan", "_survival_plan"):
        assert name in vars(mixture)
        assert getattr(mixture, name) is getattr(mixture, name)


_LINDLEY_2 = DistSpec(LINDLEY, 2.0)


@pytest.mark.parametrize(
    "x",
    [-1, -0.0, 0, 0.0, sys.float_info.max / 2.0, math.inf, math.nan,
     5e-324, 0.5, 3, np.float64(1.5), 40.0, math.nextafter(sys.float_info.max / 2.0, 0.0)],
    ids=["-1", "-0.0", "0", "0.0", "max/rate", "inf", "nan",
         "subnormal", "0.5", "3", "np.float64", "40.0", "below-max/rate"],
)
@pytest.mark.parametrize(
    "route",
    [
        _LINDLEY_2.sum_mixture(1).pdf,  # a shape-1 component: positive at 0
        _LINDLEY_2.sum_mixture(3).pdf,
        _LINDLEY_2.sum_mixture(1).log_pdf,
        _LINDLEY_2.sum_mixture(3).log_pdf,
        _LINDLEY_2.sum_mixture(3).survival,
        _LINDLEY_2.sum_mixture(3).cdf,
        SumSpec(_LINDLEY_2, 1).pdf,  # the member's density, under its former DistSpec id
    ],
    ids=["pdf-n1", "pdf-n3", "log_pdf-n1", "log_pdf-n3", "survival", "cdf", "DistSpec.pdf"],
)
def test_scalar_edges_match_the_0d_array(route, x):
    # _pointwise gives a Python int or float (np.float64 included) its edge
    # value, or inside the series range the scalar evaluator, without numpy; a
    # 0-d array still goes through np.asarray: the same edge value bit for
    # bit, and inside the array series, within 1e-14 of the scalar evaluator
    got, from_array = route(x), route(np.asarray(x, dtype=float))
    assert type(got) is float and type(from_array) is float
    if 0.0 < x < sys.float_info.max / 2.0:
        np.testing.assert_allclose(got, from_array, rtol=1e-14, atol=0.0)
    else:
        assert got.hex() == from_array.hex()
