"""Precision contexts, dense polynomials, exact sums and full-pivot
linear algebra.

Scalars are mpmath mpf/mpc carrying the mantissa width of the active
context.  Public entry points set the working precision themselves;
internal helpers assume the caller already did.  Grid sums run on raw
`_mpf_` tuples or, where a vector serves many sums, on Python ints at one
common exponent (fixed, fixed_dot), summed exactly and rounded once.
"""
from __future__ import annotations

import dataclasses
import functools
from operator import mul
from typing import Iterable, Sequence

from mpmath import mp
from mpmath.libmp import (from_man_exp, mpf_add, mpf_e, mpf_exp, mpf_log, mpf_mul,
                          mpf_pow, to_fixed)

from .errors import SingularSystem


@dataclasses.dataclass(frozen=True)
class PrecisionContext:
    """Immutable bundle of mantissa width and the two tolerance knobs.

    quad_tol bounds the weight table's fine/coarse lattice checks of its
    moments and pairings, its truncation cut, and the near-axis check of
    a lattice against its coarse half; verify_tol is the looser bound
    used when checking identities that stack several such results.
    """

    mantissa_bits: int = 256
    quad_tol: float = 1e-30
    verify_tol: float = 1e-20

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be >= 64")
        if not (0 < float(self.quad_tol) < float(self.verify_tol)):
            raise ValueError("need 0 < quad_tol < verify_tol")

    def workprec(self):
        return mp.workprec(self.mantissa_bits)

    @property
    def eps(self):
        with self.workprec():
            return mp.mpf(2) ** (-self.mantissa_bits + 4)


DEFAULT_CONTEXT = PrecisionContext()


def _to_mpf(x):
    if isinstance(x, mp.mpf):
        return x
    if isinstance(x, (int, str)):
        return mp.mpf(x)
    if isinstance(x, float):
        return mp.mpf(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to real scalar")


def _to_mpc(x):
    if isinstance(x, (mp.mpf, mp.mpc, int, float, str)):
        return mp.mpc(x)
    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    raise TypeError(f"cannot coerce {type(x).__name__} to complex scalar")


class Poly:
    """Dense polynomial, coefficient index = power, trailing zeros trimmed.

    The zero polynomial is represented as a single zero coefficient.
    """

    __slots__ = ("coeffs",)
    _scalar = staticmethod(_to_mpf)

    def __init__(self, coeffs: Iterable):
        cs = [self._scalar(c) for c in coeffs]
        if not cs:
            cs = [self._scalar(0)]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def leading(self):
        return self.coeffs[-1]

    def __call__(self, z):
        cs = self.coeffs
        if type(z) is mp.mpf and type(self) is Poly:
            # acc * z + c on raw tuples, rounded as the mpf operators round
            prec, rnd = mp._prec_rounding
            z = z._mpf_
            acc = cs[-1]._mpf_
            for c in reversed(cs[:-1]):
                acc = mpf_add(mpf_mul(acc, z, prec, rnd), c._mpf_, prec, rnd)
            return mp.make_mpf(acc)
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def _wrap(self, coeffs):
        cls = type(self)
        return cls(coeffs)

    def __add__(self, other):
        cls = CPoly if isinstance(other, CPoly) or isinstance(self, CPoly) else Poly
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = a + (self._scalar(0),) * (n - len(a))
        b = b + (other._scalar(0),) * (n - len(b))
        return cls([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        cls = type(self)
        if isinstance(c, (complex, mp.mpc)) and not isinstance(self, CPoly):
            cls = CPoly
        s = cls._scalar(c)
        return cls([s * x for x in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        cls = CPoly if isinstance(other, CPoly) or isinstance(self, CPoly) else Poly
        a, b = self.coeffs, other.coeffs
        out = []
        for s in range(len(a) + len(b) - 1):
            lo = max(0, s - len(b) + 1)
            hi = min(s, len(a) - 1)
            out.append(mp.fsum(a[i] * b[s - i] for i in range(lo, hi + 1)))
        return cls(out)

    def __rmul__(self, other):
        return self.scale(other)

    def shift_up(self, k: int):
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return self._wrap((self._scalar(0),) * k + self.coeffs)

    def monic(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return self._wrap([c / lead for c in self.coeffs])

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._scalar(0)


class CPoly(Poly):
    """Polynomial with complex coefficients."""

    __slots__ = ()
    _scalar = staticmethod(_to_mpc)


def poly_derivative(p: Poly) -> Poly:
    if p.degree == 0:
        return p._wrap([0])
    return p._wrap([i * c for i, c in enumerate(p.coeffs)][1:])


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x for positive samples,
    at the working precision of the caller."""
    return log_slope([mp.log(x) for x in xs], ys)


def log_slope(lx, ys):
    """loglog_slope with the logs lx of the abscissae taken already, so
    that fits over the same xs take them once; bit for bit the same."""
    ly = [mp.log(y) for y in ys]
    mx = mp.fsum(lx) / len(lx)
    my = mp.fsum(ly) / len(ly)
    num = mp.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / mp.fsum((a - mx) ** 2 for a in lx)


# ---------------------------------------------------------------------------
# raw-mpf fast paths: the same mpmath operations, with the same roundings and
# in the same order, as the expressions they stand for, so every result is
# bit-identical to it; they skip the per-operation type dispatch and object
# allocation of the mpf layer.  Raw values are `_mpf_` tuples, rounded at the
# working precision (mp._prec_rounding).

@functools.lru_cache(maxsize=8)
def _log_e(prec, rnd):
    # as mpf_pow forms it: e rounded at prec, its log at prec + 10 bits
    return mpf_log(mpf_e(prec, rnd), prec + 10, rnd)


def exp_e(t):
    """mp.e ** t for an mpf t.  mpf_pow's general branch is
    exp(t * log(e)) with log(e) re-derived on every call; here it is
    formed once per (prec, rounding).  Integer, half-integer and special t
    take mpf_pow's own branches."""
    prec, rnd = mp._prec_rounding
    t = t._mpf_
    if t[2] >= -1 or not t[1]:
        return mp.make_mpf(mpf_pow(mpf_e(prec, rnd), t, prec, rnd))
    return mp.make_mpf(mpf_exp(mpf_mul(t, _log_e(prec, rnd)), prec, rnd))


# ---------------------------------------------------------------------------
# exact sums: a real vector held as Python ints at one common exponent
# (mans, exp), so that a dot is one integer sum of exact products, rounded
# once.  This is the integer core of mpmath's own fsum (Bailey-Jeyabalan-Li
# 2005, Exp. Math. 14) with the vectors converted once instead of per sum.
# Slices of mans at the same exp are vectors too, and a plain list of ints
# at exp 0 (the powers k^i of lattice indices) is held exactly.

def fixed(xs):
    """The raw real vector xs as (mans, exp), with xs[k] = mans[k] * 2^exp.

    An entry whose leading bit lies more than 2 prec bits below that of
    the largest entry (prec the working precision) is held as 0; every
    other entry is held exactly.  So a sum over the vector is exact except
    for terms more than 2 prec bits below its largest term, and a dot of
    two held vectors a, b differs from the exact dot, before its one
    rounding, by less than 2^(ta - 2 prec) sum|b_k| + 2^(tb - 2 prec)
    sum|a_k|, where 2^ta > max|a_k| and 2^tb > max|b_k| are the powers of
    two just above the largest entries.  Where nothing is dropped and
    mpf_sum drops no term either (no two of the products' exponents more
    than 2 prec apart), fixed_dot gives mp.fdot's bits."""
    if any(not m and e for _, m, e, _ in xs):
        raise ValueError("fixed() takes finite values only")
    tops = [e + bc for _, m, e, bc in xs if m]
    if not tops:
        return [0] * len(xs), 0
    cut = max(tops) - 2 * mp._prec_rounding[0]
    exp = min(e for _, m, e, bc in xs if m and e + bc > cut)
    return [((-m if s else m) << (e - exp)) if m and e + bc > cut else 0
            for s, m, e, bc in xs], exp


def fixed_powers(t, count, fbits):
    """t^m, m < count, as ints at 2^-fbits, each product truncated: the
    real parts, and for a complex t the imaginary parts too."""
    c = mp.mpc(t)
    tr, ti = to_fixed(c.real._mpf_, fbits), to_fixed(c.imag._mpf_, fbits)
    pr, pi = [1 << fbits], [0]
    for _ in range(count - 1):
        a, b = pr[-1], pi[-1]
        pr.append((a * tr - b * ti) >> fbits)
        pi.append((a * ti + b * tr) >> fbits)
    return (pr, pi) if isinstance(t, mp.mpc) else (pr,)


def fixed_round(man, exp):
    """man * 2^exp, rounded once at the working precision, as an mpf."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpf(from_man_exp(man, exp, prec, rnd))


def exact_dot(a, b):
    """The dot of two held vectors (mans, exp), exactly, as (man, exp)."""
    return sum(map(mul, a[0], b[0])), a[1] + b[1]


def fixed_dot(a, b):
    """The dot of two held vectors (mans, exp), rounded once."""
    return fixed_round(*exact_dot(a, b))


# ---------------------------------------------------------------------------
# dense matrix helpers (lists of lists of mpf/mpc)

def mat_identity(n, one=None):
    one = mp.mpf(1) if one is None else one
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    Bt = [[B[k][j] for k in range(m)] for j in range(p)]
    return [[mp.fdot(A[i], Bt[j]) for j in range(p)] for i in range(n)]


def mat_copy(A):
    return [list(row) for row in A]


def mat_inf_norm(A):
    return max(max(abs(v) for v in row) for row in A)


def _eliminate(A, bs, ctx: PrecisionContext, pivot_rtol=None):
    """Full-pivot Gaussian elimination on a copy of A.

    Returns (solutions for each rhs in bs, determinant).  Raises
    SingularSystem when the best remaining pivot underflows the
    relative threshold.
    """
    n = len(A)
    M = mat_copy(A)
    X = [list(b) for b in bs]
    scale = mat_inf_norm(M)
    if scale == 0:
        raise SingularSystem("zero matrix")
    if pivot_rtol is None:
        pivot_rtol = mp.mpf(2) ** (-(ctx.mantissa_bits - 16))
    floor = scale * pivot_rtol
    colperm = list(range(n))
    det = mp.mpf(1)
    for k in range(n):
        pr, pc, pv = k, k, abs(M[k][k])
        for i in range(k, n):
            for j in range(k, n):
                a = abs(M[i][j])
                if a > pv:
                    pr, pc, pv = i, j, a
        if pv < floor:
            raise SingularSystem(f"pivot {pv} below threshold {floor}")
        if pr != k:
            M[k], M[pr] = M[pr], M[k]
            for b in X:
                b[k], b[pr] = b[pr], b[k]
            det = -det
        if pc != k:
            for row in M:
                row[k], row[pc] = row[pc], row[k]
            colperm[k], colperm[pc] = colperm[pc], colperm[k]
            det = -det
        piv = M[k][k]
        det = det * piv
        for i in range(k + 1, n):
            f = M[i][k] / piv
            if f == 0:
                continue
            for j in range(k, n):
                M[i][j] = M[i][j] - f * M[k][j]
            for b in X:
                b[i] = b[i] - f * b[k]
    sols = []
    for b in X:
        y = [None] * n
        for i in range(n - 1, -1, -1):
            s = mp.fdot(M[i][i + 1:], y[i + 1:]) if i + 1 < n else mp.mpf(0)
            y[i] = (b[i] - s) / M[i][i]
        x = [None] * n
        for pos, orig in enumerate(colperm):
            x[orig] = y[pos]
        sols.append(x)
    return sols, det


def linear_solve(A: Sequence[Sequence], b: Sequence,
                 ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Solve A x = b with full pivoting; result residual-checked.

    Raises SingularSystem if a pivot underflows or the residual exceeds
    verify_tol relative to the system scale.
    """
    with ctx.workprec():
        sols, _ = _eliminate(A, [list(b)], ctx)
        x = sols[0]
        r = [mp.fdot(row, x) - bi for row, bi in zip(A, b)]
        scale = max(max(abs(v) for v in b), mat_inf_norm(A) * max(abs(v) for v in x))
        if scale > 0 and max(abs(v) for v in r) > mp.mpf(ctx.verify_tol) * scale:
            raise SingularSystem("residual check failed; system effectively singular")
        return x


def determinant(A: Sequence[Sequence], ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Determinant via the same full-pivot elimination."""
    with ctx.workprec():
        try:
            _, det = _eliminate(A, [], ctx, pivot_rtol=mp.mpf(0))
        except ZeroDivisionError:
            return mp.mpf(0)
        except SingularSystem:
            return mp.mpf(0)
        return det
