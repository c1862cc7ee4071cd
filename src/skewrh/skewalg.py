"""Skew-triangular elimination, Pfaffians, and polynomial families.

Two independent routes produce the same monic family: 2x2 block
elimination of the skew moment matrix (rows of the inverse unit
triangular factor), and bordered-Pfaffian coefficient formulas.  Their
agreement is a structural cross-check, so neither is expressed through
the other.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp

from .errors import DegenerateInnerProduct
from .numerics import DEFAULT_CONTEXT, Poly, PrecisionContext, mat_inf_norm
from .moments import SkewMomentMatrix, build_skew_moment_matrix, skew_inner
from .potentials import Potential, WeightTable


@dataclasses.dataclass(frozen=True)
class SkewFactorization:
    """M = L B L^T with L unit lower triangular and B the block diagonal
    of [[0, d_b], [-d_b, 0]] blocks."""

    L: tuple
    d: tuple
    n: int

    def inverse_rows(self):
        """Rows of L^-1 (unit lower triangular forward substitution)."""
        n = self.n
        X = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            X[i][i] = mp.mpf(1)
            for r in range(i + 1, n):
                X[r][i] = -mp.fdot([self.L[r][c] for c in range(i, r)],
                                   [X[c][i] for c in range(i, r)])
        return [[X[r][c] for c in range(n)] for r in range(n)]


def skew_eliminate(M, ctx: PrecisionContext = DEFAULT_CONTEXT) -> SkewFactorization:
    """Block elimination of an antisymmetric matrix in natural order.

    No pivot exchanges: the 2x2 leading blocks are used as found, so the
    factor rows match the graded polynomial family.  A vanishing block
    pivot raises DegenerateInnerProduct.
    """
    rows = M.rows if isinstance(M, SkewMomentMatrix) else M
    n = len(rows)
    if n % 2 != 0:
        raise ValueError("matrix size must be even")
    with ctx.workprec():
        A = [list(r) for r in rows]
        scale = mat_inf_norm(A)
        floor = scale * mp.mpf(2) ** (-(ctx.mantissa_bits - 16))
        L = [[mp.mpf(1) if i == j else mp.mpf(0) for j in range(n)]
             for i in range(n)]
        d = []
        for b in range(n // 2):
            p, q = 2 * b, 2 * b + 1
            db = A[p][q]
            if abs(db) <= floor:
                raise DegenerateInnerProduct(
                    f"block pivot {b} is {db} (threshold {floor})")
            d.append(db)
            for r in range(q + 1, n):
                a_mult = A[r][q] / db
                b_mult = -A[r][p] / db
                if a_mult != 0 or b_mult != 0:
                    L[r][p] = a_mult
                    L[r][q] = b_mult
                    for c in range(r + 1, n):  # the rest is restored below
                        A[r][c] -= a_mult * A[p][c] + b_mult * A[q][c]
            # restore exact antisymmetry on the trailing block
            for r in range(q + 1, n):
                A[r][r] = mp.mpf(0)
                for c in range(r + 1, n):
                    A[c][r] = -A[r][c]
        return SkewFactorization(L=tuple(tuple(r) for r in L),
                                 d=tuple(d), n=n)


def pfaffian(M, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Pfaffian by block elimination with partial pivoting.

    Row/column pairs are swapped together (a congruence), each swap
    flipping the sign; pf(M)^2 = det(M)."""
    rows = M.rows if isinstance(M, SkewMomentMatrix) else M
    n = len(rows)
    if n == 0:
        return mp.mpf(1)
    if n % 2 != 0:
        return mp.mpf(0)
    with ctx.workprec():
        A = [list(r) for r in rows]
        sign = 1
        acc = []
        for b in range(n // 2):
            p, q = 2 * b, 2 * b + 1
            best, br = mp.mpf(0), q
            for r in range(p + 1, n):
                if abs(A[r][p]) > best:
                    best, br = abs(A[r][p]), r
            if best == 0:
                return mp.mpf(0)
            if br != q:
                A[q], A[br] = A[br], A[q]
                for row in A:
                    row[q], row[br] = row[br], row[q]
                sign = -sign
            db = A[p][q]
            acc.append(db)
            for r in range(q + 1, n):
                a_mult = A[r][q] / db
                b_mult = -A[r][p] / db
                if a_mult == 0 and b_mult == 0:
                    continue
                for c in range(r + 1, n):  # the rest is restored below
                    A[r][c] -= a_mult * A[p][c] + b_mult * A[q][c]
            for r in range(q + 1, n):
                A[r][r] = mp.mpf(0)
                for c in range(r + 1, n):
                    A[c][r] = -A[r][c]
        out = mp.mpf(1)
        for v in acc:
            out = out * v
        return sign * out


@dataclasses.dataclass(frozen=True)
class SkewFamily:
    """Monic skew-orthogonal polynomials p_0..p_{2k_max+1} with norms h.

    Odd members carry a vanishing x^{2j} coefficient; h_j may be of
    either sign and orthonormal scaling divides by |h_j|^{1/2}.
    """

    beta: int
    polys: tuple
    h: tuple
    potential: Potential
    matrix: SkewMomentMatrix = dataclasses.field(repr=False, compare=False)

    @property
    def table(self) -> WeightTable:
        """The weight table the moment matrix came from."""
        return self.matrix.table

    @property
    def k_max(self) -> int:
        return len(self.polys) // 2 - 1

    @property
    def signs(self):
        return tuple(1 if v > 0 else -1 for v in self.h)

    def orthonormal(self, i: int) -> Poly:
        """p_i divided by |h_{i//2}|^(1/2)."""
        return self.polys[i].scale(1 / mp.sqrt(abs(self.h[i // 2])))

    def inner_source(self):
        return self.matrix if self.beta == 1 else self.table


def _family_from_factorization(fact: SkewFactorization):
    rows = fact.inverse_rows()
    polys = []
    for i, row in enumerate(rows):
        polys.append(Poly(row[:i + 1]))
    # gauge: strip the x^{2j} coefficient from each odd member
    for b in range(fact.n // 2):
        podd = polys[2 * b + 1]
        c = podd.coeff(2 * b)
        if c != 0:
            polys[2 * b + 1] = podd - polys[2 * b].scale(c)
    return polys


def skew_orthogonal_family(V: Potential, beta: int, k_max: int,
                           ctx: PrecisionContext = DEFAULT_CONTEXT,
                           matrix: SkewMomentMatrix = None,
                           table: WeightTable = None) -> SkewFamily:
    """Family p_0..p_{2k_max+1} from elimination of the moment matrix
    (built on table when none is given); the family reads matrix.table."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = 2 * k_max + 2
    if matrix is None:
        matrix = build_skew_moment_matrix(V, beta, n, ctx, table=table)
    if matrix.n < n or matrix.beta != beta:
        raise ValueError("moment matrix too small or wrong beta")
    with ctx.workprec():
        rows = [r[:n] for r in matrix.rows[:n]]
        fact = skew_eliminate(rows, ctx)
        polys = _family_from_factorization(fact)
    return SkewFamily(beta=beta, polys=tuple(polys), h=fact.d,
                      potential=V, matrix=matrix)


def _index_minor(rows, idx):
    return [[rows[a][b] for b in idx] for a in idx]


def pfaffian_polynomials(M: SkewMomentMatrix, j: int,
                         ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(p_2j, p_{2j+1}) via bordered-Pfaffian coefficient expansions.

    Even: indices 0..2j bordered by the monomial column (x^i); the
    coefficient of x^i is (-1)^i pf(M with row/col i removed).  Odd:
    indices 0..2j-1, 2j+1 with the same bordering, which forces a zero
    x^{2j} coefficient.  Both are returned monic.
    """
    rows = M.rows if isinstance(M, SkewMomentMatrix) else M
    if 2 * j + 1 >= len(rows):
        raise ValueError("moment matrix too small for requested j")
    with ctx.workprec():
        S = list(range(2 * j + 1))
        ceven = []
        for pos, i in enumerate(S):
            minor = _index_minor(rows, [t for t in S if t != i])
            ceven.append((-1) ** pos * pfaffian(minor, ctx))
        p_even = Poly(ceven).monic()
        T = list(range(2 * j)) + [2 * j + 1]
        codd = [mp.mpf(0)] * (2 * j + 2)
        for pos, t in enumerate(T):
            minor = _index_minor(rows, [s for s in T if s != t])
            codd[t] = (-1) ** pos * pfaffian(minor, ctx)
        p_odd = Poly(codd).monic()
    return p_even, p_odd


def gram_residual(family: SkewFamily, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Max deviation of the family's Gram matrix from its block-diagonal
    target, relative to the largest |h_j|."""
    source = family.inner_source()
    polys = family.polys
    n = len(polys)
    with ctx.workprec():
        hmax = max(abs(v) for v in family.h)
        worst = mp.mpf(0)
        for i in range(n):
            for j in range(i, n):
                g = skew_inner(polys[i], polys[j], family.beta, source)
                if j == i + 1 and i % 2 == 0:
                    g = g - family.h[i // 2]
                worst = max(worst, abs(g))
        return worst / hmax
