"""Skew factorization, Pfaffians, and the polynomial families."""

import random

import pytest
from mpmath import mp

from skewrh.errors import DegenerateInnerProduct
from skewrh.moments import build_skew_moment_matrix, inner_2, skew_inner_1
from skewrh.numerics import Poly, determinant, mat_inf_norm
from skewrh.potentials import get_weight_table
from skewrh.skewalg import (
    SkewFactorization,
    gram_residual,
    pfaffian,
    pfaffian_polynomials,
    skew_eliminate,
    skew_orthogonal_family,
)


def random_antisymmetric(n, rng):
    A = [[mp.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = mp.mpf(rng.randint(-400, 400)) / 64
            A[i][j] = v
            A[j][i] = -v
    return A


def test_skew_eliminate_reconstruction(ctx):
    rng = random.Random(7007)
    for n in (2, 4, 6, 8):
        M = random_antisymmetric(n, rng)
        fact = skew_eliminate(M, ctx)
        assert isinstance(fact, SkewFactorization)
        assert len(fact.d) == n // 2
        assert all(v != 0 for v in fact.d)
        R = fact.reconstruct()
        dev = mat_inf_norm([[R[i][j] - M[i][j] for j in range(n)]
                            for i in range(n)])
        assert dev <= ctx.verify_tol * max(1, mat_inf_norm(M))


def test_skew_eliminate_unit_blocks_exact(ctx):
    rng = random.Random(8008)
    M = random_antisymmetric(8, rng)
    fact = skew_eliminate(M, ctx)
    L = fact.L
    for b in range(4):
        p, q = 2 * b, 2 * b + 1
        assert L[p][p] == 1 and L[q][q] == 1
        assert L[p][q] == 0 and L[q][p] == 0
    for i in range(8):
        for j in range(i + 1, 8):
            assert L[i][j] == 0


def test_skew_eliminate_degenerate(ctx):
    Z = [[mp.mpf(0)] * 4 for _ in range(4)]
    with pytest.raises(DegenerateInnerProduct):
        skew_eliminate(Z, ctx)


def test_pfaffian_small_closed_forms(ctx):
    a = mp.mpf("2.75")
    assert pfaffian([[mp.mpf(0), a], [-a, mp.mpf(0)]], ctx) == a
    rng = random.Random(9009)
    A = random_antisymmetric(4, rng)
    expect = A[0][1] * A[2][3] - A[0][2] * A[1][3] + A[0][3] * A[1][2]
    assert abs(pfaffian(A, ctx) - expect) <= mp.mpf("1e-70") * (1 + abs(expect))


def test_pfaffian_degenerate_sizes(ctx):
    assert pfaffian([], ctx) == 1
    assert pfaffian([[mp.mpf(0)] * 3 for _ in range(3)], ctx) == 0
    assert pfaffian([[mp.mpf(0)] * 4 for _ in range(4)], ctx) == 0


def test_pfaffian_squares_to_determinant(ctx):
    rng = random.Random(1010)
    for n in (2, 4, 6, 8):
        A = random_antisymmetric(n, rng)
        pf = pfaffian(A, ctx)
        det = determinant(A, ctx)
        assert abs(pf * pf - det) <= mp.mpf("1e-25") * max(1, abs(det))


def test_pfaffian_gaussian_minors(gauss, ctx):
    M = build_skew_moment_matrix(gauss, 1, 4, ctx)
    rows = M.as_lists()
    rpi = mp.sqrt(mp.pi)
    pf2 = pfaffian([r[:2] for r in rows[:2]], ctx)
    pf4 = pfaffian(rows, ctx)
    assert abs(pf2 + 2 * rpi) <= mp.mpf("1e-25") * rpi
    assert abs(pf4 - 2 * mp.pi) <= mp.mpf("1e-25") * mp.pi


def test_family_gaussian_closed_forms(fam1_gauss):
    p2, p3 = fam1_gauss.polys[2], fam1_gauss.polys[3]
    half = mp.mpf("0.5")
    assert max(abs(p2.coeff(0) + half), abs(p2.coeff(1)),
               abs(p2.coeff(2) - 1)) <= mp.mpf("1e-25")
    assert max(abs(p3.coeff(1) + 5 * half), abs(p3.coeff(0)),
               abs(p3.coeff(2)), abs(p3.coeff(3) - 1)) <= mp.mpf("1e-25")
    assert abs(fam1_gauss.h[0] + 2 * mp.sqrt(mp.pi)) <= mp.mpf("1e-25")


def test_family_structure(fam1_gauss):
    fam = fam1_gauss
    assert fam.k_max == 8
    assert len(fam.polys) == 18
    for i, p in enumerate(fam.polys):
        assert p.degree == i
        assert p.leading == 1  # monic by construction
    # odd members carry an exactly vanishing sub-leading even coefficient
    for b in range(len(fam.polys) // 2):
        assert fam.polys[2 * b + 1].coeff(2 * b) == 0


def test_family_gram_residuals(fam1_gauss, fam1_quartic, fam4_gauss,
                               fam4_quartic, ctx):
    for fam in (fam1_gauss, fam1_quartic, fam4_gauss, fam4_quartic):
        assert gram_residual(fam, ctx=ctx) <= mp.mpf("1e-22")


def test_family_orthonormal_scaling(fam1_gauss):
    q = fam1_gauss.orthonormal(2)
    h1 = abs(fam1_gauss.h[1])
    assert abs(q.leading - 1 / mp.sqrt(h1)) <= mp.mpf("1e-70") / mp.sqrt(h1)
    assert fam1_gauss.signs[0] == -1  # h_0 = -2 sqrt(pi) < 0


def test_bordered_pfaffian_route_matches_factorization(fam1_gauss, ctx):
    M = fam1_gauss.matrix
    for j in range(5):
        pe, po = pfaffian_polynomials(M, j, ctx)
        fe, fo = fam1_gauss.polys[2 * j], fam1_gauss.polys[2 * j + 1]
        dev = max(max(abs(pe.coeff(s) - fe.coeff(s)) for s in range(2 * j + 1)),
                  max(abs(po.coeff(s) - fo.coeff(s)) for s in range(2 * j + 2)))
        assert dev <= mp.mpf("1e-20")


def test_bordered_pfaffian_requires_room(fam1_gauss, ctx):
    with pytest.raises(ValueError):
        pfaffian_polynomials(fam1_gauss.matrix, 9, ctx)


# probabilists' Hermite He_0 .. He_5, the monic orthogonal family of exp(-x^2/2)
HERMITE = [Poly([1]), Poly([0, 1]), Poly([-1, 0, 1]), Poly([0, -3, 0, 1]),
           Poly([3, 0, -6, 0, 1]), Poly([0, 15, 0, -10, 0, 1])]


def test_orthogonal_family_hermite_oracle(gauss, ctx):
    # through the table's exp(-V) moments He_n pairs to zero with x^k, k < n,
    # and so to <He_n, x^n> = n! sqrt(2 pi) with itself
    m = get_weight_table(gauss, ctx, i_max=10, w_max=0).moment
    root2pi = mp.sqrt(2 * mp.pi)
    for n, he in enumerate(HERMITE):
        row = [mp.fdot(he.coeffs, [m(s + k) for s in range(n + 1)])
               for k in range(n + 1)]
        assert max(map(abs, row[:n]), default=0) <= mp.mpf("1e-25") * root2pi
        norm = mp.factorial(n) * root2pi
        assert abs(row[n] - norm) <= mp.mpf("1e-25") * norm, n


def test_orthogonal_family_is_orthogonal(gauss, ctx):
    # the monic family of exp(-2V) = exp(-x^2) is He_n(sqrt(2) x) / 2^(n/2);
    # inner_2 pairs it to zero off the diagonal and to n! sqrt(pi) / 2^n on it
    table = get_weight_table(gauss, ctx, i_max=10, w_max=0)
    polys = [Poly([c * mp.sqrt(2) ** (s - n) for s, c in enumerate(he.coeffs)])
             for n, he in enumerate(HERMITE[:5])]
    for i in range(5):
        for j in range(i + 1, 5):
            assert abs(inner_2(polys[i], polys[j], table)) <= mp.mpf("1e-22")
        norm = mp.factorial(i) * mp.sqrt(mp.pi) / 2 ** i
        dev = abs(inner_2(polys[i], polys[i], table) - norm)
        assert dev <= mp.mpf("1e-25") * norm, i


def test_beta4_family_gram_small_case(gauss, ctx):
    fam = skew_orthogonal_family(gauss, 4, 2, ctx)
    assert gram_residual(fam, ctx=ctx) <= mp.mpf("1e-24")
    # beta = 4 inner source is the weight table, not the matrix
    assert fam.inner_source() is fam.table


def test_family_against_raw_inner_products(fam1_gauss, ctx):
    # spot-check the defining conditions with the raw inner product
    M = fam1_gauss.matrix
    p4 = fam1_gauss.polys[4]
    for s in range(4):
        v = skew_inner_1(p4, Poly([0] * s + [1]), M)
        assert abs(v) <= mp.mpf("1e-22") * max(1, abs(fam1_gauss.h[2]))
