"""Shared fixtures: canonical contexts, potentials, and polynomial
families built once per session.

Every library entry point pins its own working precision internally, so
fixtures may be built under any ambient precision.  Test-side arithmetic
(forming residuals, comparing against closed forms) is a different
matter: at the interpreter default of 53 bits a subtraction of two
256-bit values would round to doubles and drown every tolerance below
1e-16.  The autouse fixture therefore raises the ambient precision for
the duration of each test.
"""

import sys

import pytest
from mpmath import mp

from skewrh.numerics import Poly, PrecisionContext
from skewrh.potentials import Potential, get_weight_table
from skewrh.skewalg import skew_orthogonal_family

AMBIENT_BITS = 320


@pytest.fixture(autouse=True)
def _ambient_precision():
    old = mp.prec
    mp.prec = AMBIENT_BITS
    yield
    mp.prec = old


@pytest.fixture(scope="session")
def ctx():
    with mp.workprec(AMBIENT_BITS):
        return PrecisionContext(mantissa_bits=256,
                                quad_tol=mp.mpf("1e-30"),
                                verify_tol=mp.mpf("1e-20"))


@pytest.fixture(scope="session")
def gauss():
    """V = x^2/2, the weight exp(-x^2/2)."""
    with mp.workprec(AMBIENT_BITS):
        return Potential.parse("0,0,0.5")


@pytest.fixture(scope="session")
def quartic():
    """V = x^2/2 + x^4."""
    with mp.workprec(AMBIENT_BITS):
        return Potential.parse("0,0,0.5,0,1")


@pytest.fixture(scope="session")
def w_function():
    """w_n(x) = exp(-V(x)) * (2 * int_{-inf}^x y^n exp(-V) dy - m_n), read
    from the shared weight table grown to cover it."""
    def w(V, n, x, ctx):
        table = get_weight_table(V, ctx, i_max=max(n, 4), w_max=n)
        return table.weights_at(mp.mpf(x), n + 1)[2][n]
    return w


@pytest.fixture(scope="session")
def fam1_gauss(gauss, ctx):
    return skew_orthogonal_family(gauss, 1, 8, ctx)


@pytest.fixture(scope="session")
def fam1_quartic(quartic, ctx):
    return skew_orthogonal_family(quartic, 1, 8, ctx)


@pytest.fixture(scope="session")
def fam4_gauss(gauss, ctx):
    return skew_orthogonal_family(gauss, 4, 8, ctx)


@pytest.fixture(scope="session")
def fam4_quartic(quartic, ctx):
    return skew_orthogonal_family(quartic, 4, 8, ctx)


def _deep_size(obj, seen):
    """Bytes reachable from obj through containers and mpmath numbers."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        parts = obj
    elif isinstance(obj, mp.mpf):
        parts = [obj._mpf_]
    elif isinstance(obj, mp.mpc):
        parts = [obj._mpc_]
    elif isinstance(obj, Poly):
        parts = [obj.coeffs]
    else:
        parts = ()
    return sys.getsizeof(obj) + sum(_deep_size(p, seen) for p in parts)


@pytest.fixture(scope="session")
def deep_size():
    """Bytes reachable from an object through containers and mpmath
    numbers, for tests that bound what a call leaves behind."""
    return lambda obj: _deep_size(obj, set())
