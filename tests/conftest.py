from fractions import Fraction as Q

import pytest

from flatpencil.coxeter import coxeter_pencil
from flatpencil.exprparse import parse_expr
from flatpencil.frobenius import FrobeniusData, to_flat_pencil

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves
    pass
else:
    # Same examples on every run, no example database, and a bounded cost.
    settings.register_profile("flatpencil", derandomize=True, database=None, deadline=None, max_examples=150)
    settings.load_profile("flatpencil")


@pytest.fixture(scope="session")
def cubic():
    """One-variable manifold with potential t^3/6."""
    return FrobeniusData(
        n=1,
        eta=[[Q(1)]],
        potential=parse_expr("1/6*t1^3", 1),
        euler_linear=[[Q(1)]],
        euler_const=[Q(0)],
        unity=0,
        d=Q(0),
    )


@pytest.fixture(scope="session")
def cp1():
    """Two-variable manifold with an exponential potential and charge 1."""
    return FrobeniusData(
        n=2,
        eta=[[Q(0), Q(1)], [Q(1), Q(0)]],
        potential=parse_expr("1/2*t1^2*t2 + exp(t2)", 2),
        euler_linear=[[Q(1), Q(0)], [Q(0), Q(0)]],
        euler_const=[Q(0), Q(2)],
        unity=0,
        d=Q(1),
    )


@pytest.fixture(scope="session")
def cubic_pencil(cubic):
    return to_flat_pencil(cubic)


@pytest.fixture(scope="session")
def cp1_pencil(cp1):
    return to_flat_pencil(cp1)


@pytest.fixture(scope="session")
def a1():
    return coxeter_pencil(1)


@pytest.fixture(scope="session")
def a2():
    return coxeter_pencil(2)


@pytest.fixture(scope="session")
def a3():
    return coxeter_pencil(3)
