"""Recursion operator, symplectic block projection, and deformation flows."""

import random

import pytest
from mpmath import mp

from skewrh.numerics import mat_mul
from skewrh.pfafflattice import (
    LaxL,
    build_lax,
    flow_check,
    lattice_rhs,
    project_pik,
)
from skewrh.skewalg import skew_orthogonal_family


@pytest.fixture(scope="module")
def lax_gauss(fam1_gauss, ctx):
    return build_lax(fam1_gauss, ctx=ctx)


def test_build_lax_shape(fam1_gauss, lax_gauss):
    assert isinstance(lax_gauss, LaxL)
    assert lax_gauss.n == len(fam1_gauss.polys) - 2
    assert len(lax_gauss.rows) == lax_gauss.n
    assert all(len(r) == lax_gauss.n for r in lax_gauss.rows)


def test_build_lax_size_validation(gauss, ctx):
    # the size is the family length - 2: a family with k_max = 0 (p_0,
    # p_1) leaves no Lax matrix
    fam = skew_orthogonal_family(gauss, 1, 0, ctx)
    assert len(fam.polys) == 2
    with pytest.raises(ValueError, match="too short"):
        build_lax(fam, ctx=ctx)
    assert build_lax(skew_orthogonal_family(gauss, 1, 1, ctx), ctx=ctx).n == 2


def test_recursion_identity_at_sample_points(fam1_gauss, lax_gauss):
    # x * phat_i(x) = sum_j L_ij phat_j(x) for every row
    rng = random.Random(1111)
    phat = [fam1_gauss.orthonormal(i) for i in range(lax_gauss.n + 1)]
    for _ in range(5):
        x = mp.mpf(rng.randint(-500, 500)) / 200
        vals = [p(x) for p in phat]
        # the last row loses its superdiagonal term to column truncation,
        # so the exact identity covers rows 0 .. n-2
        for i in range(lax_gauss.n - 1):
            lhs = x * vals[i]
            rhs = mp.fsum(lax_gauss[i, j] * vals[j]
                          for j in range(lax_gauss.n))
            scale = max(1, abs(lhs))
            assert abs(lhs - rhs) <= mp.mpf("1e-22") * scale, (i, x)


def test_band_structure_in_window(lax_gauss):
    # rows unaffected by truncation: nothing above the superdiagonal,
    # and even-row superdiagonal entries exactly 1
    n = lax_gauss.n
    for i in range(n - 3):
        for j in range(i + 2, n):
            assert lax_gauss[i, j] == 0, (i, j)
    for b in range((n - 3) // 2):
        assert lax_gauss[2 * b, 2 * b + 1] == 1


def test_lax_not_lower_banded(lax_gauss):
    # the operator is full below the diagonal: even rows reach back to
    # every odd column, so only the upper triangle is structured
    row = lax_gauss.n - 2
    filled = [j for j in range(row) if lax_gauss[row, j] != 0]
    assert len(filled) >= 2


def test_project_matches_dense_formula(ctx):
    # project_pik forms J X^T J by a signed swap of indices; it must give
    # the bits of the dense products with J = diag([[0, 1], [-1, 0]]),
    # the strictly block lower, block diagonal and strictly block upper
    # parts taken apart
    rng = random.Random(1414)
    with ctx.workprec():
        zero = mp.mpf(0)
        for n in range(2, 16, 2):
            M = [[mp.mpf(rng.getrandbits(40) - 2 ** 39) / rng.randint(1, 999)
                  for _ in range(n)] for _ in range(n)]
            J = [[zero] * n for _ in range(n)]
            for b in range(n // 2):
                J[2 * b][2 * b + 1], J[2 * b + 1][2 * b] = mp.mpf(1), mp.mpf(-1)

            def part(keep):
                return [[M[j][i] if keep(j // 2, i // 2) else zero
                         for j in range(n)] for i in range(n)]

            JupTJ = mat_mul(mat_mul(J, part(lambda a, b: a < b)), J)
            JdiTJ = mat_mul(mat_mul(J, part(lambda a, b: a == b)), J)
            expect = [[(M[i][j] if i // 2 > j // 2 else zero) - JupTJ[i][j]
                       + ((M[i][j] if i // 2 == j // 2 else zero) - JdiTJ[i][j]) / 2
                       for j in range(n)] for i in range(n)]
            got = project_pik(M, ctx)
            assert [[v._mpf_ for v in r] for r in got] == \
                [[v._mpf_ for v in r] for r in expect], n


def test_project_block_structure(ctx):
    rng = random.Random(1212)
    n = 6
    M = [[mp.mpf(rng.randint(-100, 100)) / 8 for _ in range(n)]
         for _ in range(n)]
    P = project_pik(M, ctx)
    # strictly-upper blocks vanish; off-diagonal entries of the diagonal
    # 2x2 blocks vanish
    for b in range(n // 2):
        p, q = 2 * b, 2 * b + 1
        assert P[p][q] == 0 and P[q][p] == 0
        for j in range(q + 1, n):
            assert P[p][j] == 0 and P[q][j] == 0


def test_project_idempotent_and_linear(ctx):
    rng = random.Random(1313)
    n = 6
    A = [[mp.mpf(rng.randint(-64, 64)) / 16 for _ in range(n)]
         for _ in range(n)]
    B = [[mp.mpf(rng.randint(-64, 64)) / 16 for _ in range(n)]
         for _ in range(n)]
    PA = project_pik(A, ctx)
    assert project_pik(PA, ctx) == PA
    C = [[a + 3 * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    PC = project_pik(C, ctx)
    PB = project_pik(B, ctx)
    dev = max(abs(PC[i][j] - PA[i][j] - 3 * PB[i][j])
              for i in range(n) for j in range(n))
    assert dev <= mp.mpf(2) ** -240


def test_project_requires_even_size(ctx):
    with pytest.raises(ValueError):
        project_pik([[mp.mpf(0)] * 3 for _ in range(3)], ctx)


def test_lattice_rhs_beta4_halves(lax_gauss, ctx):
    r1 = lattice_rhs(lax_gauss, 2, 1, ctx)
    r4 = lattice_rhs(lax_gauss, 2, 4, ctx)
    n = lax_gauss.n
    dev = max(abs(r4[i][j] - r1[i][j] / 2) for i in range(n) for j in range(n))
    assert dev == 0


def test_family_signs_uniform(fam1_gauss):
    assert set(fam1_gauss.signs) == {-1}


def test_flow_check_constant_deformation_trivial(gauss, ctx):
    # adding t*x^0 rescales the weight uniformly: L is unchanged and the
    # commutator side vanishes, so the residual is pure round-off
    r = flow_check(gauss, 0, mp.mpf("1e-5"), 3, 1, ctx)
    assert r <= mp.mpf("1e-40")


def test_flow_check_quadratic_deformation_scaling(gauss, ctx):
    t = mp.mpf("1e-4")
    r1 = flow_check(gauss, 2, t, 3, 1, ctx)
    r2 = flow_check(gauss, 2, t / 2, 3, 1, ctx)
    assert r1 <= mp.mpf("1e-6")
    ratio = r1 / r2
    assert mp.mpf("3.2") <= ratio <= mp.mpf("4.8")


def test_flow_check_validation(gauss, quartic, ctx):
    with pytest.raises(ValueError):
        flow_check(gauss, 3, mp.mpf("1e-5"), 3, 1, ctx)
    # empty comparison window: 2m-2-j < 0 (quartic keeps both
    # deformation directions integrable)
    with pytest.raises(ValueError):
        flow_check(quartic, 4, mp.mpf("1e-5"), 2, 1, ctx)
