"""Lax matrix of multiplication by x and the lattice flow check.

The multiplication operator in the orthonormalized family basis is
lower Hessenberg with unit entries on the (2b, 2b+1) superdiagonal
positions.  Deforming the potential by t*x^j moves the Lax matrix along
a commutator direction given by a 2x2-block projection.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp

from .errors import UnsupportedRegime
from .numerics import DEFAULT_CONTEXT, PrecisionContext, mat_mul, mat_identity
from .potentials import Potential
from .skewalg import SkewFamily, skew_orthogonal_family


@dataclasses.dataclass(frozen=True)
class LaxL:
    """x * phat_i = sum_j L_ij phat_j in the orthonormalized basis."""

    rows: tuple
    n: int
    family: SkewFamily = dataclasses.field(repr=False, compare=False)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def as_lists(self):
        return [list(r) for r in self.rows]


def build_lax(family: SkewFamily,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> LaxL:
    """Lax matrix of size n = family length - 2, so that x*p_i stays
    inside the family for every row; a family with k_max = 0 is refused."""
    n = len(family.polys) - 2
    if n < 2:
        raise ValueError("family too short for a Lax matrix (k_max = 0)")
    with ctx.workprec():
        polys = family.polys
        habs = [mp.sqrt(abs(v)) for v in family.h]
        rows = []
        for i in range(n):
            xp = list(polys[i].shift_up(1).coeffs)
            c = [mp.mpf(0)] * (i + 2)
            for jj in range(i + 1, -1, -1):
                c[jj] = xp[jj] if jj < len(xp) else mp.mpf(0)
                if c[jj] != 0:
                    pc = polys[jj].coeffs
                    for t in range(len(pc)):
                        xp[t] = xp[t] - c[jj] * pc[t]
            # residual after expanding over the monic basis must vanish
            assert all(abs(v) == 0 or abs(v) < mp.mpf(2) ** 40 * mp.eps * max(
                abs(u) for u in polys[i].coeffs) for v in xp)
            row = [c[jj] * habs[jj // 2] / habs[i // 2] if jj <= i + 1 else None
                   for jj in range(i + 2)]
            row = row + [mp.mpf(0)] * (n - len(row))
            rows.append(row[:n])
        return LaxL(rows=tuple(tuple(r) for r in rows), n=n, family=family)


def band_deviation(L: LaxL, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(window rows, max |L_ij| above the superdiagonal, max |L_(2b,2b+1) - 1|)
    over the leading rows 0..n-4, which basis truncation leaves intact."""
    win = L.n - 4
    above = mp.mpf(0)
    unit_dev = mp.mpf(0)
    with ctx.workprec():
        for i in range(win + 1):
            for j in range(i + 2, win + 1):
                above = max(above, abs(L[i, j]))
        for b in range((win + 1) // 2):
            unit_dev = max(unit_dev, abs(L[2 * b, 2 * b + 1] - 1))
    return win, above, unit_dev


def project_pik(M, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """pi(M) = M_lower - J M_upper^T J + (M_diag - J M_diag^T J) / 2,
    with 2x2 blocks and J the standard block symplectic form, the block
    diagonal of [[0, 1], [-1, 0]].  J X^T J is a signed swap of indices,
    (J X^T J)[i][j] = s X[j^1][i^1] with s = +1 when i and j have opposite
    parity and -1 when they have the same."""
    n = len(M)
    if n % 2 != 0:
        raise ValueError("size must be even")
    with ctx.workprec():
        out = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(2 * (i // 2) + 2):
                v = M[j ^ 1][i ^ 1]
                d = M[i][j] - (v if (i ^ j) & 1 else -v)
                out[i][j] = d if i // 2 > j // 2 else d / 2
        return out


def _commutator(A, B):
    AB = mat_mul(A, B)
    BA = mat_mul(B, A)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(AB, BA)]


def _mat_pow(M, j):
    n = len(M)
    out = mat_identity(n)
    for _ in range(j):
        out = mat_mul(out, M)
    return out


def _require_uniform_signs(family: SkewFamily):
    signs = set(family.signs)
    if len(signs) != 1:
        raise UnsupportedRegime(
            "mixed h signs: plain block projection does not apply")


def lattice_rhs(L: LaxL, j: int, beta: int = 1,
                ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Commutator side of the deformation equation, [pi(L^j), L],
    halved for beta = 4 (single derivative slot in d/dt of the pairing)."""
    _require_uniform_signs(L.family)
    with ctx.workprec():
        rhs = _commutator(project_pik(_mat_pow(L.as_lists(), j), ctx),
                          L.as_lists())
        if beta == 4:
            rhs = [[v / 2 for v in row] for row in rhs]
        return rhs


def flow_check(V0: Potential, j: int, t_step, m: int, beta: int = 1,
               ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Max deviation between the centered finite difference of L along
    the t*x^j deformation and the commutator side, over the window of
    rows/columns unaffected by basis truncation (max index 2m-2-j)."""
    if j < 0 or j % 2 != 0:
        raise ValueError("deformation power j must be even and >= 0")
    with ctx.workprec():
        t = mp.mpf(t_step)
        fam0 = skew_orthogonal_family(V0, beta, m, ctx)
        L0 = build_lax(fam0, ctx=ctx)
        famp = skew_orthogonal_family(V0.deformed(j, t), beta, m, ctx)
        famm = skew_orthogonal_family(V0.deformed(j, -t), beta, m, ctx)
        Lp = build_lax(famp, ctx=ctx)
        Lm = build_lax(famm, ctx=ctx)
        rhs = lattice_rhs(L0, j, beta, ctx)
        n = L0.n
        win = min(n - 1, 2 * m - 2 - j)
        if win < 0:
            raise ValueError("window empty: increase m or decrease j")
        worst = mp.mpf(0)
        for r in range(win + 1):
            for c in range(win + 1):
                fd = (Lp.rows[r][c] - Lm.rows[r][c]) / (2 * t)
                worst = max(worst, abs(fd - rhs[r][c]))
        return worst
