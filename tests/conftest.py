"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import lindsum.validation
from lindsum.numerics import integrate


@pytest.fixture
def unconverged_quadrature(monkeypatch):
    """Every quadrature check of verify_all asks for a tolerance below what
    adaptive quadrature can certify, so it raises a real QuadratureError,
    whether the check passes its own tolerance by position, by keyword or
    not at all.  The error estimate is floored at 50 eps times the rule on
    |f| and measured against max(1, |integral|), so an integral far below 1
    can meet 1e-15; none meets 1e-300."""

    def below_certifiable(f, lower, upper, tol=None, **options):
        return integrate(f, lower, upper, 1e-300, **options)

    monkeypatch.setattr(lindsum.validation, "integrate", below_certifiable)
