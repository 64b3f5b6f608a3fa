"""Every public constructor and function that takes theta or n checks it the
same way: theta is a positive finite real, n an integer >= 1 (numpy integers
included), and a bool is neither.  Sizes, moment orders and sample counts share
the one check_count."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lindsum.family import (
    LINDLEY,
    RANI,
    DistSpec,
    check_count,
    check_n,
    check_theta,
)
from lindsum.reliability import StandbyModel, lindley_mttf, lindley_reliability
from lindsum.sums import SumSpec, sample_sum
from lindsum.validation import VerifyConfig

DIST = DistSpec(RANI, 1.5)

# each entry point called with theta (default 1.0) and n (default 3); the
# standby systems under the ids StandbyModel (StandbyModel.of) and
# ExponentialStandby (StandbyModel.exponential), and the exponential system's
# reliability at t = 1 and MTTF under the ids exponential_reliability and
# exponential_mttf
THETA_ROUTES = {
    "DistSpec": lambda theta: DistSpec(LINDLEY, theta),
    "ExponentialStandby": lambda theta: StandbyModel.exponential(theta, 3),
    "lindley_reliability": lambda theta: lindley_reliability(theta, 3, 1.0),
    "lindley_mttf": lambda theta: lindley_mttf(theta, 3),
    "exponential_reliability": lambda theta: StandbyModel.exponential(theta, 3).reliability(1.0),
    "exponential_mttf": lambda theta: StandbyModel.exponential(theta, 3).mttf(),
}
N_ROUTES = {
    "SumSpec": lambda n: SumSpec(DIST, n),
    "sum_mixture": lambda n: DIST.sum_mixture(n),
    "StandbyModel": lambda n: StandbyModel.of(DIST, n),
    "ExponentialStandby": lambda n: StandbyModel.exponential(1.0, n),
    "lindley_reliability": lambda n: lindley_reliability(1.0, n, 1.0),
    "lindley_mttf": lambda n: lindley_mttf(1.0, n),
    "exponential_reliability": lambda n: StandbyModel.exponential(1.0, n).reliability(1.0),
    "exponential_mttf": lambda n: StandbyModel.exponential(1.0, n).mttf(),
}


@pytest.mark.parametrize("route", sorted(THETA_ROUTES))
@pytest.mark.parametrize("theta", [True, False, 0.0, -1.0, math.nan, math.inf, "1", None])
def test_theta_rejected(route, theta):
    with pytest.raises(ValueError, match="theta"):
        THETA_ROUTES[route](theta)


@pytest.mark.parametrize("route", sorted(THETA_ROUTES))
@pytest.mark.parametrize("theta", [2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)])
def test_theta_accepted(route, theta):
    assert THETA_ROUTES[route](theta) == THETA_ROUTES[route](2.0)


@pytest.mark.parametrize("route", sorted(N_ROUTES))
@pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "2", None])
def test_non_integer_n_is_a_type_error(route, n):
    with pytest.raises(TypeError, match="n must be an integer"):
        N_ROUTES[route](n)


@pytest.mark.parametrize("route", sorted(N_ROUTES))
@pytest.mark.parametrize("n", [0, -3, np.int64(0)])
def test_n_below_one_is_a_value_error(route, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        N_ROUTES[route](n)


@pytest.mark.parametrize("route", sorted(N_ROUTES))
@pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_n_accepted(route, n):
    assert N_ROUTES[route](n) == N_ROUTES[route](3)


def test_stored_parameters_are_python_numbers():
    assert type(DistSpec(LINDLEY, np.int64(2)).theta) is float
    assert type(SumSpec(DIST, np.int64(3)).n) is int
    model = StandbyModel.of(DIST, np.int64(3))
    assert model.label == "rani theta=1.5 n=3" and type(model.mixture.shapes[0]) is int
    standby = StandbyModel.exponential(np.float32(0.5), np.int64(3))
    assert type(standby.mixture.rate) is float and type(standby.mixture.shapes[0]) is int
    assert standby.label == "exponential theta=0.5 n=3"


def test_checks_return_the_coerced_value():
    assert check_theta(np.int64(4)) == 4.0 and type(check_theta(np.int64(4))) is float
    assert check_n(np.int64(4)) == 4 and type(check_n(np.int64(4))) is int


# the shared check behind the size, moment-order and sample-count arguments
COUNT_ROUTES = {
    "sample_sum size": (lambda v: sample_sum(SumSpec(DIST, 2), np.random.default_rng(1), v), 1),
    "DistSpec.sample size": (lambda v: DIST.sample(np.random.default_rng(1), v), 1),
    "DistSpec.sample size entry": (lambda v: DIST.sample(np.random.default_rng(1), (2, v)), 1),
    "check_count": (lambda v: check_count(v, "decimals", 0), 0),
    "ErlangMixture.moment order": (lambda v: DIST.sum_mixture(2).moment(v), 0),
    "SumSpec.moment_series order": (lambda v: SumSpec(DIST, 2).moment_series(v), 0),
    "VerifyConfig sample_count": (lambda v: VerifyConfig(sample_count=v), 1),
}


@pytest.mark.parametrize("route", sorted(COUNT_ROUTES))
@pytest.mark.parametrize("value", [True, False, 2.0, "3"])
def test_non_integer_count_is_a_type_error(route, value):
    call, _ = COUNT_ROUTES[route]
    with pytest.raises(TypeError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("route", sorted(COUNT_ROUTES))
def test_count_below_its_bound_is_a_value_error(route):
    call, low = COUNT_ROUTES[route]
    with pytest.raises(ValueError, match=f">= {low}"):
        call(low - 1)
    call(np.int64(low + 1))


@pytest.mark.parametrize("field", ["members", "only"])
def test_verify_config_bare_str_is_a_type_error(field):
    # a bare "ks" would be taken as the prefixes "k" and "s"
    with pytest.raises(TypeError, match=f"{field} must be a sequence of strings"):
        VerifyConfig(**{field: "ks"})
    assert getattr(VerifyConfig(**{field: ("ks",)}), field) == ("ks",)


def test_empty_size_tuple_is_a_value_error():
    with pytest.raises(ValueError, match="nonempty tuple"):
        DIST.sample(np.random.default_rng(1), ())
