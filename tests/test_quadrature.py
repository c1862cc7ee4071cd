"""Line integrals on the tanh-sinh nodes, boundary limits, and the
tail-bound failure."""

import pytest
from mpmath import mp

from skewrh.errors import QuadratureFailure
from skewrh.potentials import Potential, truncation_radius
from skewrh.quadrature import (
    boundary_deltas,
    richardson_limit,
    ts_halfline_nodes,
    ts_mapped_level,
)


@pytest.fixture(scope="module")
def gauss_integral():
    """f -> integral of f(x) exp(-x^2) on tanh-sinh nodes over [-12, 12];
    the cut tails are ~1e-63."""
    with mp.workprec(320):
        xs, ws = ts_mapped_level(-12, 12, 256, 7)
    return lambda f: mp.fsum(w * f(x) * mp.e ** (-x * x) for x, w in zip(xs, ws))


def test_integrate_line_gaussian(gauss_integral):
    v = gauss_integral(lambda x: 1)
    assert abs(v - mp.sqrt(mp.pi)) <= mp.mpf("1e-28") * mp.sqrt(mp.pi)


def test_integrate_line_odd_integrand(gauss_integral):
    assert abs(gauss_integral(lambda x: x)) <= mp.mpf("1e-30")


def test_integrate_line_second_moment(gauss_integral):
    v = gauss_integral(lambda x: x * x)
    assert abs(v - mp.sqrt(mp.pi) / 2) <= mp.mpf("1e-28")


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


def test_ts_mapped_level_integrates_monomials():
    # the level the benchmark generates: symmetric nodes on [-1, 1] whose
    # weights integrate x^s to 2/(s+1) for even s and to 0 for odd s
    xs, ws = ts_mapped_level(-1, 1, 272, 9)
    assert xs[0] == 0
    assert xs[1::2] == [-x for x in xs[2::2]]
    assert ws[1::2] == ws[2::2]

    def moment(s):
        return mp.fsum(w * x ** s for x, w in zip(xs, ws))

    for s in (0, 2, 8):
        assert abs(moment(s) - mp.mpf(2) / (s + 1)) <= mp.mpf("1e-70"), s
    assert abs(moment(3)) <= mp.mpf("1e-70")
    # level 9 reuses the entries of level 8 at its even indices
    fine, coarse = ts_halfline_nodes(272, 9), ts_halfline_nodes(272, 8)
    assert len(fine[::2]) == len(coarse)
    assert all(a is b for a, b in zip(fine[::2], coarse))


def test_quadrature_failure_on_unreachable_tail():
    # R^4 exp(-1e-30 R^2) < 1e-32 has no root below 2^40
    with pytest.raises(QuadratureFailure, match="cannot satisfy tail bound"):
        truncation_radius(Potential.parse("0,0,1e-30"), 4, mp.mpf("1e-30"))
