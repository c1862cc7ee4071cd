"""Skew-triangular elimination, Pfaffians, and polynomial families.

Two independent routes produce the same monic family: 2x2 block
elimination of the skew moment matrix in natural order (rows of the
inverse unit triangular factor, skew_eliminate), and bordered Pfaffians,
each from one pivoted block elimination of a moment minor that carries the
monomial border along (_pivoted_blocks, which pfaffian runs without a
border).  The second loop pivots and keeps no factor; their agreement is a
structural cross-check, so neither is expressed through the other.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp

from .errors import DegenerateInnerProduct
from .numerics import DEFAULT_CONTEXT, Poly, PrecisionContext, mat_inf_norm
from .moments import SkewMomentMatrix, build_skew_moment_matrix
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


def _pivoted_blocks(A, border=None):
    """Pivoted 2x2 block elimination of the antisymmetric A (row lists,
    changed in place): len(A) // 2 block steps, each taking as pivot the
    largest entry of its column, with row/column pairs swapped together (a
    congruence), each swap flipping the sign.  border, when given, holds
    one coefficient vector per row, that row's entry of a border column
    past the last: it is swapped and updated with its row, so that after
    the steps it holds the Schur complement of that column.  Returns
    (sign, pivots), or None when a pivot column is zero."""
    n = len(A)
    border = border or [[] for _ in range(n)]
    sign, pivots = 1, []
    for b in range(n // 2):
        p, q = 2 * b, 2 * b + 1
        best, br = mp.mpf(0), q
        for r in range(p + 1, n):
            if abs(A[r][p]) > best:
                best, br = abs(A[r][p]), r
        if best == 0:
            return None
        if br != q:
            A[q], A[br] = A[br], A[q]
            for row in A:
                row[q], row[br] = row[br], row[q]
            border[q], border[br] = border[br], border[q]
            sign = -sign
        db = A[p][q]
        pivots.append(db)
        for r in range(q + 1, n):
            a_mult = A[r][q] / db
            b_mult = -A[r][p] / db
            if a_mult == 0 and b_mult == 0:
                continue
            for c in range(r + 1, n):  # the rest is restored below
                A[r][c] -= a_mult * A[p][c] + b_mult * A[q][c]
            # entries where both pivot rows hold zeros stay as they are
            border[r] = [u - (a_mult * v + b_mult * w) if v or w else u
                         for u, v, w in zip(border[r], border[p], border[q])]
        for r in range(q + 1, n):
            A[r][r] = mp.mpf(0)
            for c in range(r + 1, n):
                A[c][r] = -A[r][c]
    return sign, pivots


def pfaffian(M, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Pfaffian by block elimination with partial pivoting
    (_pivoted_blocks): the sign of its swaps times the product of its
    pivots; pf(M)^2 = det(M)."""
    rows = M.rows if isinstance(M, SkewMomentMatrix) else M
    n = len(rows)
    if n == 0:
        return mp.mpf(1)
    if n % 2 != 0:
        return mp.mpf(0)
    with ctx.workprec():
        blocks = _pivoted_blocks([list(r) for r in rows])
        if blocks is None:
            return mp.mpf(0)
        sign, pivots = blocks
        return sign * mp.fprod(pivots)


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


def _family_from_factorization(fact: SkewFactorization):
    """The monic members p_i, the rows of L^-1 (inverse_rows).  Each odd
    member p_(2b+1) comes with the family's gauge, an exact 0 as its
    x^(2b) coefficient, and needs no strip: skew_eliminate never writes
    L[2b+1][2b], so row 2b+1 of L^-1 is an exact 0 at 2b."""
    return [Poly(row[:i + 1]) for i, row in enumerate(fact.inverse_rows())]


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


def pfaffian_polynomials(M: SkewMomentMatrix, j: int,
                         ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(p_2j, p_{2j+1}), each the Pfaffian of the minor of M on 2j+1
    indices S bordered by the monomial column (x^t), t in S
    (Adler-Forrester-Nagao-van Moerbeke 2000, J. Stat. Phys. 99): even
    S = 0..2j, odd S = 0..2j-1, 2j+1, which forces a zero x^{2j}
    coefficient.  One pivoted block elimination of the minor
    (_pivoted_blocks) carries the border as unit vectors; after its j
    steps the last row's vector is the member up to the Pfaffian of the
    leading block, so it is made monic.  A zero pivot column raises
    DegenerateInnerProduct."""
    rows = M.rows if isinstance(M, SkewMomentMatrix) else M
    if 2 * j + 1 >= len(rows):
        raise ValueError("moment matrix too small for requested j")
    zero, one = mp.mpf(0), mp.mpf(1)
    out = []
    with ctx.workprec():
        for S in (list(range(2 * j + 1)), list(range(2 * j)) + [2 * j + 1]):
            A = [[rows[a][b] for b in S] for a in S]
            border = [[one if s == t else zero for s in range(S[-1] + 1)]
                      for t in S]
            if _pivoted_blocks(A, border) is None:
                raise DegenerateInnerProduct(
                    f"bordered Pfaffian of p_{S[-1]}: a pivot column of the "
                    f"moment minor on indices {S} is zero")
            out.append(Poly(border[-1]).monic())
    return tuple(out)


def _gram_entries(family: SkewFamily):
    """(i, j, <p_i, p_j>) for i <= j, at the working precision: f^T M g
    through the family's own moment matrix M, whose entries are the
    pairings <x^i, y^j>_1 for beta = 1 and (j - i) m_(i+j-1) for beta = 4.
    The row dots M p_j of each member are formed once and serve every
    i <= j; for beta = 1 they give skew_inner_1's bits."""
    polys, rows = family.polys, family.matrix.rows
    for j, g in enumerate(polys):
        dots = [mp.fdot(rows[r][:g.degree + 1], g.coeffs)
                for r in range(g.degree + 1)]
        for i in range(j + 1):
            yield i, j, mp.fdot(polys[i].coeffs, dots[:polys[i].degree + 1])


def gram_residual(family: SkewFamily, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Max deviation of the family's Gram matrix from its block-diagonal
    target, relative to the largest |h_j|."""
    with ctx.workprec():
        hmax = max(abs(v) for v in family.h)
        worst = mp.mpf(0)
        for i, j, g in _gram_entries(family):
            if j == i + 1 and i % 2 == 0:
                g = g - family.h[i // 2]
            worst = max(worst, abs(g))
        return worst / hmax
