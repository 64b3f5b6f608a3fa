"""Fixtures shared by the test modules."""

from __future__ import annotations

import functools

import pytest

import lindsum.validation
from lindsum.numerics import integrate


@pytest.fixture
def unconverged_quadrature(monkeypatch):
    """Every quadrature check of verify_all asks for a tolerance below what
    adaptive quadrature can certify, so it raises a real QuadratureError."""
    monkeypatch.setattr(lindsum.validation, "integrate", functools.partial(integrate, tol=1e-15))
