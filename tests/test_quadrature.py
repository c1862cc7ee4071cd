"""Line integration and boundary limits."""

import random

import pytest
from mpmath import mp

from skewrh.errors import QuadratureFailure
from skewrh.quadrature import (
    QuadraturePlan,
    boundary_deltas,
    integrate_line,
    richardson_limit,
)


@pytest.fixture(scope="module")
def plan():
    with mp.workprec(320):
        return QuadraturePlan(radius=mp.mpf(12), target_tol=mp.mpf("1e-30"),
                              prec=256)


def gauss2(x):
    return mp.e ** (-x * x)


def test_plan_validation():
    with pytest.raises(ValueError):
        QuadraturePlan(radius=1, target_tol=mp.mpf("1e-20"), rule="simpson")
    with pytest.raises(ValueError):
        QuadraturePlan(radius=0, target_tol=mp.mpf("1e-20"))
    with pytest.raises(ValueError):
        QuadraturePlan(radius=1, target_tol=0)


def test_integrate_line_gaussian(plan):
    v = integrate_line(gauss2, plan)
    assert abs(v - mp.sqrt(mp.pi)) <= mp.mpf("1e-28") * mp.sqrt(mp.pi)


def test_integrate_line_odd_integrand(plan):
    v = integrate_line(lambda x: x * gauss2(x), plan)
    assert abs(v) <= mp.mpf("1e-30")


def test_integrate_line_second_moment(plan):
    v = integrate_line(lambda x: x * x * gauss2(x), plan)
    assert abs(v - mp.sqrt(mp.pi) / 2) <= mp.mpf("1e-28")


def test_rules_agree(plan):
    ts = integrate_line(gauss2, plan)
    gl = integrate_line(gauss2, plan.with_rule("gauss-legendre"))
    assert abs(ts - gl) <= mp.mpf("1e-28")


def test_integrate_line_linear_in_integrand(plan):
    rng = random.Random(4004)
    base = [gauss2, lambda x: x * x * gauss2(x),
            lambda x: mp.e ** (-x * x / 2)]
    parts = [integrate_line(f, plan) for f in base]
    for _ in range(6):
        cs = [mp.mpf(rng.randint(-20, 20)) / 8 for _ in base]
        v = integrate_line(
            lambda x: sum(c * f(x) for c, f in zip(cs, base)), plan)
        expect = sum(c * p for c, p in zip(cs, parts))
        assert abs(v - expect) <= mp.mpf("1e-27") * (1 + abs(expect))


def test_boundary_deltas_ladder():
    ds = boundary_deltas(10, 20)
    assert len(ds) == 11
    assert ds[0] == mp.mpf(2) ** -10 and ds[-1] == mp.mpf(2) ** -20
    for a, b in zip(ds, ds[1:]):
        assert b == a / 2


def test_richardson_limit_exact_on_polynomial_error():
    ds = boundary_deltas(10, 16)
    target = mp.mpf("2.5")
    vals = [target + 3 * d + 2 * d * d for d in ds]
    assert abs(richardson_limit(ds, vals) - target) <= mp.mpf("1e-40")


def test_quadrature_failure_on_kink():
    with mp.workprec(320):
        tight = QuadraturePlan(radius=mp.mpf(12), target_tol=mp.mpf("1e-30"),
                               prec=256, max_level=6)
    with pytest.raises(QuadratureFailure):
        integrate_line(lambda x: abs(x) * gauss2(x), tight)
