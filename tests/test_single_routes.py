"""Each quantity has one code path: the cdf is the mixture's complement of its
survival, the Erlang(n) tail is ExponentialStandby's, and one helper turns
scalar and array arguments into the kernels' flat arrays and back."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lindsum.family import LINDLEY, RAM_AWADH, DistSpec
from lindsum.reliability import ExponentialStandby, exponential_reliability
from lindsum.sums import SumSpec

ROUTES = {
    "SumSpec": SumSpec(DistSpec(RAM_AWADH, 0.7), 4),
    "DistSpec": DistSpec(LINDLEY, 1.3),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("points", [10_000, 1])
def test_cdf_is_one_minus_survival_bit_for_bit(route, points):
    spec = ROUTES[route]
    x = np.linspace(-1.0, 40.0, points) if points > 1 else np.array([2.5])
    cdf = spec.cdf(x)
    assert cdf.shape == x.shape
    assert np.array_equal(cdf, 1.0 - spec.survival(x))


@pytest.mark.parametrize("theta,n", [(0.5, 1), (1.0, 5), (3.0, 12)])
def test_exponential_routes_agree_at_nonnegative_times(theta, n):
    system = ExponentialStandby(theta, n)
    times = np.array([0.0, 0.1, 1.0, 4.0, 30.0, math.inf])
    on_grid = system.reliability(times)
    for t, value in zip(times, on_grid):
        assert exponential_reliability(theta, n, t) == value == system.reliability(float(t))


def test_exponential_routes_differ_only_below_zero():
    system = ExponentialStandby(2.0, 3)
    assert system.reliability(-1.0) == 1.0
    assert np.array_equal(system.reliability(np.array([-5.0, -0.1])), [1.0, 1.0])
    with pytest.raises(ValueError, match="t must be nonnegative"):
        exponential_reliability(2.0, 3, -1.0)


MIXTURE = SumSpec(DistSpec(RAM_AWADH, 0.7), 4).mixture()
WRAPPED = {
    "ErlangMixture.pdf": MIXTURE.pdf,
    "ErlangMixture.survival": MIXTURE.survival,
    "DistSpec.pdf": DistSpec(LINDLEY, 1.3).pdf,
}


@pytest.mark.parametrize("route", sorted(WRAPPED))
def test_zero_dimensional_input_gives_a_python_float(route):
    fn = WRAPPED[route]
    for x in (np.array(2.0), np.array(-1.0), np.array(math.nan)):
        value = fn(x)
        assert type(value) is float
        assert value == fn(np.array([float(x)]))[0] or math.isnan(value)


@pytest.mark.parametrize("route", sorted(WRAPPED))
@pytest.mark.parametrize("shape", [(1,), (7,), (2, 3), (2, 1, 4)])
def test_array_input_keeps_its_shape(route, shape):
    fn = WRAPPED[route]
    x = np.linspace(0.0, 9.0, math.prod(shape)).reshape(shape)
    out = fn(x)
    assert isinstance(out, np.ndarray) and out.shape == shape
    assert np.array_equal(out.ravel(), fn(x.ravel()))
