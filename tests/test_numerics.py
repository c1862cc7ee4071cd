"""Polynomial arithmetic, evaluation, and dense linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from skewrh.errors import SingularSystem
from skewrh.numerics import (
    CPoly,
    Poly,
    PrecisionContext,
    determinant,
    exp_e,
    fixed,
    fixed_round,
    linear_solve,
    mat_identity,
    mat_inf_norm,
    mat_mul,
    exact_dot,
    log_slope,
    loglog_slope,
    poly_derivative,
)
from skewrh.quadrature import boundary_deltas
from skewrh import rhp
from skewrh.rhp import RHSolution


def mat_vec(A, x):
    return [mp.fdot(row, x) for row in A]


# The raw-tuple fast paths must give the bits of the mpmath expressions
# they stand for, at every working precision; they lean on mpmath.libmp
# and mp._prec_rounding, so these tests also catch a change there.
RAW_PRECS = (53, 128, 272)


def _random_reals(rng, n, zeros=True):
    """n reals with full mantissas over a wide exponent range, some
    negative, a few exactly zero."""
    out = []
    for _ in range(n):
        if zeros and rng.random() < 0.1:
            out.append(mp.mpf(0))
            continue
        man = rng.randint(-(2 ** 300), 2 ** 300)
        out.append(mp.mpf(man) * mp.mpf(2) ** rng.randint(-340, -280))
    return out


def _bits(values):
    return [v._mpf_ for v in values]


def test_poly_eval_constant_term():
    p = Poly([mp.mpf("-0.5"), 0, 1])
    assert p(mp.mpf(0)) == mp.mpf("-0.5")


def test_poly_eval_identity_polynomial():
    p = Poly([0, 1])
    z = mp.mpc(3, 4)
    assert p(z) == z


def test_poly_eval_at_root():
    p = Poly([mp.mpf("-0.5"), 0, 1])
    r = mp.sqrt(mp.mpf("0.5"))
    assert abs(p(r)) <= mp.mpf(2) ** -300


def test_poly_derivative_constant():
    assert poly_derivative(Poly([7])) == Poly([0])
    assert poly_derivative(Poly([7])).is_zero


def test_poly_derivative_square():
    assert poly_derivative(Poly([0, 0, 1])) == Poly([0, 2])


def test_poly_derivative_term_by_term():
    assert poly_derivative(Poly([1, 1, 1, 1])) == Poly([1, 2, 3])


def test_poly_eval_additive_random():
    rng = random.Random(1001)
    for _ in range(25):
        p = Poly([rng.randint(-40, 40) for _ in range(rng.randint(1, 9))])
        q = Poly([rng.randint(-40, 40) for _ in range(rng.randint(1, 9))])
        z = mp.mpc(rng.randint(-300, 300), rng.randint(-300, 300)) / 64
        lhs = (p + q)(z)
        rhs = p(z) + q(z)
        scale = 1 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= mp.mpf(2) ** -290 * scale


def test_product_rule_coefficient_exact():
    rng = random.Random(2002)
    for _ in range(25):
        p = Poly([rng.randint(-25, 25) for _ in range(rng.randint(1, 8))])
        q = Poly([rng.randint(-25, 25) for _ in range(rng.randint(1, 8))])
        lhs = poly_derivative(p * q)
        rhs = poly_derivative(p) * q + p * poly_derivative(q)
        assert lhs == rhs


def test_poly_algebra_basics():
    p = Poly([1, 2])
    assert p.shift_up(2) == Poly([0, 0, 1, 2])
    assert Poly([2, 4]).monic() == Poly([mp.mpf("0.5"), 1])
    assert Poly([1, 2]).coeff(5) == 0
    assert (-p) == Poly([-1, -2])
    with pytest.raises(ValueError):
        Poly([0]).monic()


def test_cpoly_promotion():
    p = Poly([1, 1])
    z = p.scale(mp.mpc(0, 1))
    assert isinstance(z, CPoly)
    assert z.coeffs == (mp.mpc(0, 1), mp.mpc(0, 1))


def test_linear_solve_identity(ctx):
    A = mat_identity(3)
    x = linear_solve(A, [mp.mpf(1), mp.mpf(2), mp.mpf(3)], ctx)
    assert [v for v in x] == [1, 2, 3]


def test_linear_solve_permutation(ctx):
    A = [[mp.mpf(0), mp.mpf(1)], [mp.mpf(1), mp.mpf(0)]]
    x = linear_solve(A, [mp.mpf(5), mp.mpf(7)], ctx)
    assert abs(x[0] - 7) <= ctx.verify_tol and abs(x[1] - 5) <= ctx.verify_tol


def test_linear_solve_hilbert_block(ctx):
    A = [[mp.mpf(1), mp.mpf(1) / 2], [mp.mpf(1) / 2, mp.mpf(1) / 3]]
    b = mat_vec(A, [mp.mpf(1), mp.mpf(1)])
    x = linear_solve(A, b, ctx)
    assert max(abs(v - 1) for v in x) <= ctx.verify_tol


def test_linear_solve_residual_random_sizes(ctx):
    rng = random.Random(3003)
    for n in (3, 10, 25, 60):
        A = [[mp.mpf(rng.randint(-64, 64)) / 256 + (8 if i == j else 0)
              for j in range(n)] for i in range(n)]
        x_true = [mp.mpf(rng.randint(-50, 50)) for _ in range(n)]
        b = mat_vec(A, x_true)
        x = linear_solve(A, b, ctx)
        resid = max(abs(r) for r in
                    [ax - bv for ax, bv in zip(mat_vec(A, x), b)])
        bnorm = max(abs(v) for v in b)
        assert resid <= ctx.verify_tol * max(1, bnorm)


def test_linear_solve_singular(ctx):
    A = [[mp.mpf(1), mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]]
    with pytest.raises(SingularSystem):
        linear_solve(A, [mp.mpf(1), mp.mpf(2)], ctx)


def test_determinant_known_values(ctx):
    assert determinant(mat_identity(4), ctx) == 1
    A = [[mp.mpf(2), mp.mpf(1)], [mp.mpf(5), mp.mpf(3)]]
    assert abs(determinant(A, ctx) - 1) <= mp.mpf("1e-70")
    # antisymmetric odd size is exactly singular
    B = [[mp.mpf(0), mp.mpf(2), mp.mpf(-1)],
         [mp.mpf(-2), mp.mpf(0), mp.mpf(4)],
         [mp.mpf(1), mp.mpf(-4), mp.mpf(0)]]
    assert abs(determinant(B, ctx)) <= mp.mpf("1e-70")


def test_matrix_helpers_exact():
    A = [[mp.mpf(1), mp.mpf(2)], [mp.mpf(3), mp.mpf(4)]]
    B = [[mp.mpf(0), mp.mpf(1)], [mp.mpf(1), mp.mpf(0)]]
    assert mat_mul(A, B) == [[2, 1], [4, 3]]
    assert mat_inf_norm(A) == 4  # entrywise max-abs norm


def test_precision_context_protocol(ctx):
    assert ctx.mantissa_bits == 256
    with ctx.workprec():
        assert mp.prec == 256
    c2 = PrecisionContext(mantissa_bits=128, quad_tol=mp.mpf("1e-20"),
                          verify_tol=mp.mpf("1e-12"))
    with c2.workprec():
        assert mp.prec == 128


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_exp_e_matches_mpmath_bit_for_bit(prec):
    rng = random.Random(4004 + prec)
    with mp.workprec(prec):
        ts = [mp.mpf(v) for v in (0, 1, -1, 2, -3, 7, -40,
                                  "0.5", "-0.5", "1.5", "-2.5", "7.5",
                                  "-0.3", "-1.7", "-12.345", "3.25", "-700.1")]
        # mpf_pow's own branches for these differ from exp(t * log(e)) in
        # the last bit at some |t| of a few hundred
        ts += [mp.mpf(k) / 2 for k in range(-800, 801)]
        ts += [mp.mpf(2) ** -300, -mp.mpf(2) ** -200, mp.mpf("1e-30"),
               mp.inf, -mp.inf, mp.nan]
        ts += [v * 60 for v in _random_reals(rng, 200, zeros=False)]
        for t in ts:
            assert exp_e(t)._mpf_ == (mp.e ** t)._mpf_, (prec, t)


def fixed_dot(a, b):
    """The dot of two held vectors (mans, exp), rounded once."""
    return fixed_round(*exact_dot(a, b))


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_raw_sums_dots_and_products_match_mpmath_bit_for_bit(prec):
    rng = random.Random(5005 + prec)
    with mp.workprec(prec):
        for n in (0, 1, 7, 300):
            A, B, C = (_random_reals(rng, n) for _ in range(3))
            fa, fb, fc = (fixed(_bits(v)) for v in (A, B, C))
            assert fixed_dot(fa, fb)._mpf_ == mp.fdot(A, B)._mpf_
            assert fixed_dot(fa, ([1] * n, 0))._mpf_ == mp.fsum(A)._mpf_
            if n:
                # real times complex: one real dot per part
                Z = [mp.mpc(b, c) for b, c in zip(B, C)]
                got = (fixed_dot(fa, fb)._mpf_, fixed_dot(fa, fc)._mpf_)
                assert got == mp.fdot(A, Z)._mpc_


def _exact(raw):
    """The exact value of a raw finite mpf, as a Fraction."""
    sign, man, exp, _ = raw
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _top(raw):
    return raw[2] + raw[3]


@st.composite
def _raw_vectors(draw):
    """A working precision and two raw real vectors of one length: mixed
    signs, exact zeros, mantissas from 1 bit to prec bits, and exponents
    spread up to 3 * prec bits, past mpf_sum's 2 * prec window."""
    prec = draw(st.sampled_from(RAW_PRECS))
    n = draw(st.integers(0, 24))
    spread = draw(st.integers(0, 3 * prec))
    base = draw(st.integers(-400, 400))

    def entry():
        if draw(st.integers(0, 9)) == 0:
            return (0, 0, 0, 0)
        bits = draw(st.integers(1, prec))
        man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        man = -man if draw(st.booleans()) else man
        return from_man_exp(man, base + draw(st.integers(0, spread)) - bits, prec)

    return (prec, [entry() for _ in range(n)], [entry() for _ in range(n)],
            draw(st.integers(0, 1)))


def _rounded_once(q, prec):
    """The Fraction q rounded once to prec bits, to nearest, as a raw mpf."""
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


@settings(max_examples=300, deadline=None)
@given(_raw_vectors())
def test_fixed_holds_every_entry_and_dots_round_once(case):
    prec, A, B, start = case
    with mp.workprec(prec):
        a, b = fixed(A), fixed(B)
        # every entry is held exactly, also one more than 2 prec bits below
        # the vector's largest
        for raw, (mans, exp) in ((A, a), (B, b)):
            assert [Fraction(m) * Fraction(2) ** exp for m in mans] == \
                [_exact(x) for x in raw]
        # the full vectors and their coarse halves, sliced at one exponent
        for sa, sb, SA, SB in ((a, b, A, B),
                               ((a[0][start::2], a[1]), (b[0][start::2], b[1]),
                                A[start::2], B[start::2])):
            # exact_dot is the exact dot, and one rounding makes it the
            # correctly rounded dot
            man, exp = exact_dot(sa, sb)
            exact = sum((_exact(x) * _exact(y) for x, y in zip(SA, SB)),
                        Fraction(0))
            assert Fraction(man) * Fraction(2) ** exp == exact
            got = fixed_round(man, exp)
            assert got._mpf_ == _rounded_once(exact, prec)
            assert got._mpf_ == fixed_dot(sa, sb)._mpf_
            exps = [x[2] + y[2] for x, y in zip(SA, SB) if x[1] and y[1]]
            if not exps or max(exps) - min(exps) <= 2 * prec:
                # mpf_sum drops no term here: mp.fdot's bits
                want = mp.fdot([mp.make_mpf(x) for x in SA],
                               [mp.make_mpf(x) for x in SB])
                assert got._mpf_ == want._mpf_


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_fixed_keeps_a_term_past_2prec_through_cancellation(prec):
    # 1 - 1 + 2^-(3 prec): the small term lies 3 prec bits below the
    # largest, and after the cancellation it is the whole sum
    with mp.workprec(prec):
        tiny = mp.ldexp(1, -3 * prec)
        xs = fixed([mp.mpf(1)._mpf_, mp.mpf(-1)._mpf_, tiny._mpf_])
        assert fixed_round(*exact_dot(xs, ([1, 1, 1], 0))) == tiny
        assert fixed_round(*exact_dot(xs, ([1, 0, 1], 0))) == 1


def test_fixed_refuses_special_values_and_rounds_once():
    with mp.workprec(53):
        with pytest.raises(ValueError):
            fixed([mp.inf._mpf_])
        with pytest.raises(ValueError):
            fixed([mp.mpf(1)._mpf_, mp.nan._mpf_])
        assert fixed([]) == ([], 0)
        assert fixed([mp.mpf(0)._mpf_] * 3) == ([0, 0, 0], 0)
        assert fixed_round(2 ** 60 + 1, -60) == 1  # 1 + 2^-60 rounds to 1
        assert fixed_round(-3, 5) == -96


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_real_horner_matches_object_loop_bit_for_bit(prec):
    def reference(p, z):
        acc = p.coeffs[-1]
        for c in reversed(p.coeffs[:-1]):
            acc = acc * z + c
        return acc

    rng = random.Random(6006 + prec)
    polys = [Poly([0]), Poly(_random_reals(rng, 1, zeros=False)),
             Poly([mp.mpf(rng.randint(1, 2 ** 200)) / 3 ** 50 for _ in range(7)]),
             Poly(_random_reals(rng, 7, zeros=False))]
    assert [p.degree for p in polys] == [0, 0, 6, 6]
    with mp.workprec(prec):
        zs = [mp.mpf(0), mp.mpf(-1), mp.mpf("0.40625"), mp.mpf("-7.3")]
        zs += [v * 2 ** 300 for v in _random_reals(rng, 6)]
        for p in polys:
            for z in zs:
                assert p(z)._mpf_ == reference(p, z)._mpf_, (prec, p, z)


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_batched_near_kernels_match_per_delta_formula(prec):
    # the integer kernel against 1/(x_k - z) at twice its precision: each
    # part of each K_k within 2 units of its exponent, the largest entry
    # between 2^(prec + G - 2) and 2^(prec + G) units, G = rhp._GUARD; x0
    # on a lattice node (0, 13/32) and between nodes, delta from 2^-20 up
    # and below the axis (Im z < 0)
    rng = random.Random(7007 + prec)
    level, ks, G = 3, range(-40, 41), rhp._GUARD
    with mp.workprec(prec):
        x0s = [mp.mpf(0), mp.mpf(13) / 32, mp.mpf("0.37")]
        x0s += [v * 2 ** 300 for v in _random_reals(rng, 2, zeros=False)]
        deltas = boundary_deltas() + (-mp.mpf(2) ** -20, mp.mpf("-0.7"),
                                      mp.mpf(3))
        for x0 in x0s:
            batched = list(RHSolution._kernels(ks, level, x0, deltas))
            assert len(batched) == len(deltas)
            for delta, (re, im, exp) in zip(deltas, batched):
                top = max(map(abs, re + im))
                assert 2 ** (prec + G - 2) <= top <= 2 ** (prec + G)
                with mp.workprec(2 * (prec + G)):
                    unit = mp.ldexp(1, exp)
                    for k, a, b in zip(ks, re, im):
                        K = 1 / (mp.ldexp(k, -level) - mp.mpc(x0, delta))
                        assert abs(a * unit - K.real) < 2 * unit, (x0, delta, k)
                        assert abs(b * unit - K.imag) < 2 * unit, (x0, delta, k)


@pytest.mark.parametrize("prec", RAW_PRECS)
def test_log_slope_is_loglog_slope_bit_for_bit(prec):
    # log_slope takes the logs of the abscissae once for many fits; the
    # slopes keep loglog_slope's bits
    rng = random.Random(9009 + prec)
    with mp.workprec(prec):
        xs = [mp.mpf(100) * mp.mpf(10) ** (mp.mpf(i) / 2) for i in range(5)]
        logs = [mp.log(x) for x in xs]
        for _ in range(20):
            ys = [abs(v) * 2 ** rng.randint(-40, 40)
                  for v in _random_reals(rng, 5, zeros=False)]
            assert log_slope(logs, ys)._mpf_ == loglog_slope(xs, ys)._mpf_
