"""Skew moment matrices and the three inner products.

The beta = 1 entries <x^i, y^j>_1 = int x^i w_j(x) dx are read from a
WeightTable, which forms and checks them when it picks its grid level, as
the beta = 4 entries come from its moments; a matrix build never changes
the table's level, so every entry of a matrix comes from one level.
Antisymmetry is exact because each (i, j) pair is read once and
reflected.  Without a table the build asks get_weight_table for the ranges
a size-n matrix needs; a given table is read as it is, like every pairing
here.  Callers reach that table as `matrix.table`.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp

from .errors import MomentRangeExceeded
from .numerics import DEFAULT_CONTEXT, Poly, PrecisionContext
from .potentials import Potential, WeightTable, get_weight_table


@dataclasses.dataclass(frozen=True)
class SkewMomentMatrix:
    """Antisymmetric matrix of pairings of monomials, M_ij = <x^i, y^j>."""

    beta: int
    n: int
    rows: tuple
    potential: Potential
    # the weight table the entries were read from; a given one is not widened
    table: WeightTable = dataclasses.field(compare=False, repr=False)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def as_lists(self):
        return [list(r) for r in self.rows]


def build_skew_moment_matrix(V: Potential, beta: int, n: int,
                             ctx: PrecisionContext = DEFAULT_CONTEXT,
                             table: WeightTable = None) -> SkewMomentMatrix:
    """n x n matrix of monomial pairings under the beta = 1 or 4 product.

    Without a table, the shared one for (V, ctx) is grown to the ranges
    a size-n matrix needs: moments up to 2n-1, and w_0 .. w_{n-1} for
    beta = 1.  A given table is read as it is: an entry past its ranges
    raises MomentRangeExceeded, and the table is not widened.
    """
    if beta not in (1, 4):
        raise ValueError("beta must be 1 or 4")
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = get_weight_table(V, ctx, i_max=max(2 * n - 1, 4),
                                 w_max=(n - 1 if beta == 1 else 0))
    if beta == 1:
        entry = table.pairing
    else:
        def entry(i, j):
            return (j - i) * table.moment(i + j - 1)
    with mp.workprec(ctx.mantissa_bits + 16):
        zero = mp.mpf(0)
        rows = [[zero] * n for _ in range(n)]
        for j in range(n):
            for i in range(j):
                v = entry(i, j)
                rows[i][j] = v
                rows[j][i] = -v
    return SkewMomentMatrix(beta=beta, n=n,
                            rows=tuple(tuple(r) for r in rows), potential=V,
                            table=table)


def _degree_guard(f: Poly, g: Poly, limit: int, what: str):
    if f.degree > limit or g.degree > limit:
        raise MomentRangeExceeded(
            f"{what}: degrees ({f.degree},{g.degree}) exceed table limit {limit}"
        )


def skew_inner_1(f: Poly, g: Poly, M: SkewMomentMatrix):
    """Bilinear pairing through a beta = 1 skew moment matrix."""
    if M.beta != 1:
        raise ValueError("matrix is not a beta=1 moment matrix")
    _degree_guard(f, g, M.n - 1, "skew_inner_1")
    rowdots = [mp.fdot(M.rows[i][:g.degree + 1], g.coeffs)
               for i in range(f.degree + 1)]
    return mp.fdot(f.coeffs, rowdots)


def inner_2(f: Poly, g: Poly, table: WeightTable):
    """Pairing against exp(-2V): sum of (f*g) coefficients times moments;
    one past the table's i_max raises MomentRangeExceeded."""
    prod = f * g
    return mp.fdot(prod.coeffs, [table.moment2(s) for s in range(prod.degree + 1)])


def skew_inner_4(f: Poly, g: Poly, table: WeightTable):
    """Pairing int (f g' - f' g) exp(-V) via the closed moment form
    sum_ij f_i g_j (j - i) m_{i+j-1}; one past the table's i_max raises
    MomentRangeExceeded."""
    terms = []
    for i, fi in enumerate(f.coeffs):
        if fi == 0:
            continue
        for j, gj in enumerate(g.coeffs):
            if gj == 0 or j == i:
                continue
            terms.append(fi * gj * (j - i) * table.moment(i + j - 1))
    return mp.fsum(terms) if terms else mp.mpf(0)


def skew_inner(f: Poly, g: Poly, beta: int, M_or_table):
    """Dispatch on beta for callers holding either structure."""
    if beta == 1:
        return skew_inner_1(f, g, M_or_table)
    if beta == 4:
        return skew_inner_4(f, g, M_or_table)
    raise ValueError("beta must be 1 or 4")
