"""Each quantity has one code path: the cdf is the mixture's complement of its
survival, the Erlang(n) tail is StandbyModel.exponential's, and one frame,
numerics._pointwise, decides where every density and tail is evaluated.  It
sums the series only at 0 < x < _finite_below(rate), gives x < 0, x == 0 and
x at or past that bound (+inf included) their edge values and NaN a NaN, and
returns a Python float for 0-d input and an array of x's shape otherwise."""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np
import pytest

from lindsum.family import LINDLEY, RAM_AWADH, DistSpec
from lindsum.numerics import _finite_below
from lindsum.reliability import StandbyModel, lindley_reliability
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
    system = StandbyModel.exponential(theta, n)
    times = np.array([0.0, 0.1, 1.0, 4.0, 30.0, math.inf])
    on_grid = system.reliability(times)
    for t, value in zip(times.tolist(), on_grid):
        np.testing.assert_allclose(system.reliability(t), value, rtol=1e-14, atol=0.0)


def test_exponential_tail_is_one_below_zero():
    system = StandbyModel.exponential(2.0, 3)
    assert system.reliability(-1.0) == 1.0
    assert np.array_equal(system.reliability(np.array([-5.0, -0.1])), [1.0, 1.0])


MIXTURE = SumSpec(DistSpec(RAM_AWADH, 0.7), 4).mixture()  # shapes 4, 9, ..., 24
SINGLE = DistSpec(LINDLEY, 1.3)
WRAPPED = {
    "ErlangMixture.pdf": MIXTURE.pdf,
    "ErlangMixture.log_pdf": MIXTURE.log_pdf,
    "ErlangMixture.survival": MIXTURE.survival,
    "ErlangMixture.cdf": MIXTURE.cdf,
    "DistSpec.pdf": SINGLE.pdf,
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


# route: (rate, value at x < 0, at x == 0, at or past _finite_below(rate)); NaN
# gives NaN.  A ValueError entry means the route raises it there.
W0 = SINGLE.sum_mixture(1).weights[0]  # weight on shape 1, rate 1.3
EDGES = {
    "ErlangMixture.pdf": (0.7, 0.0, 0.0, 0.0),
    "ErlangMixture.log_pdf": (0.7, -math.inf, -math.inf, -math.inf),
    "ErlangMixture.survival": (0.7, 1.0, 1.0, 0.0),
    "ErlangMixture.cdf": (0.7, 0.0, 0.0, 1.0),
    "DistSpec.pdf": (1.3, 0.0, pytest.approx(1.3**2 / 2.3, rel=1e-14), 0.0),
    "lindley_reliability": (1.3, ValueError, 1.0, 0.0),
    "ErlangMixture.pdf, shape 1": (1.3, 0.0, W0 * 1.3, 0.0),
    "ErlangMixture.log_pdf, shape 1": (1.3, -math.inf, math.log(W0) + math.log(1.3), -math.inf),
    "DistSpec.survival": (1.3, 1.0, 1.0, 0.0),
}
# routes whose documented edges are checked, beyond WRAPPED: the Lindley double
# series, and a mixture with a positive weight on shape 1 (a positive density
# at 0) and rate > 1 (a finite overflow bound)
FRAMED = {
    **WRAPPED,
    "lindley_reliability": partial(lindley_reliability, 1.3, 3),
    "ErlangMixture.pdf, shape 1": SINGLE.sum_mixture(1).pdf,
    "ErlangMixture.log_pdf, shape 1": SINGLE.sum_mixture(1).log_pdf,
    "DistSpec.survival": SINGLE.survival,
}
assert sorted(EDGES) == sorted(FRAMED)
KINDS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "1-D array": lambda x: np.array([x]),
}


def _edge_points(route):
    rate, negative, zero, far = EDGES[route]
    points = [(-1.0, negative), (-0.0, zero), (0.0, zero), (math.inf, far), (math.nan, math.nan)]
    if rate > 1.0:
        bound = _finite_below(rate)
        # just below the bound rate * x is finite: the series itself gives the edge
        # value there (log_pdf gives about -rate * x, the largest double negated)
        below = pytest.approx(-sys.float_info.max, rel=1e-12) if "log_pdf" in route else far
        points += [(bound, far), (math.nextafter(bound, 0.0), below)]
    return points


def _evaluate(fn, kind, x):
    value = fn(KINDS[kind](x))
    if kind == "1-D array":
        assert isinstance(value, np.ndarray) and value.shape == (1,)
        return float(value[0])
    assert type(value) is float
    return value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", sorted(FRAMED))
def test_edge_values_for_every_input_kind(route):
    fn = FRAMED[route]
    for x, expected in _edge_points(route):
        if expected is ValueError:
            for kind in KINDS:
                with pytest.raises(ValueError, match="t must be nonnegative"):
                    fn(KINDS[kind](x))
            continue
        values = [_evaluate(fn, kind, x) for kind in KINDS]
        for kind, value in zip(KINDS, values):
            if isinstance(expected, float) and math.isnan(expected):
                assert math.isnan(value), (x, kind, value)
            else:
                assert value == expected, (x, kind, value)
        assert len({v for v in values if not math.isnan(v)}) <= 1, (x, values)
