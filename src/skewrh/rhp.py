"""Matrix boundary-value problems characterizing the skew families.

For a degree-d potential the object is a (d+1) x (d+1) matrix Y(z),
analytic off the real axis, whose rows are (p, C(p W), C(p w_0), ...,
C(p w_{d-2})) for polynomials p pinned by moment conditions.  Row 0
carries the top-degree family member; the d lower rows share one square
linear system built from the exp(-2V) moments and the w_n pairings, each
normalized so its diagonal entry decays like z^e with unit coefficient.

Every Cauchy transform is a trapezoid sum over the weight table's lattice
hZ, x_k = k h; near the axis the lattice's closed-form pole term keeps it
accurate.  The sums run in exact integers from the kernel to each entry
of Y, which is rounded once: the head p_r(z) too, and near the axis the
pole term p_r(z) w_c is an exact product added before that rounding.  Rows
and columns are held apart: the column data is the weight table's own
(WeightTable.columns), formed once per grid and shared by every solution
on the table, and a solution forms its row data once, when it is made,
from its polynomials alone; this module keeps no cache.  The kernel
K = 1/(x - z) comes from the exact dyadic offsets x_k - x0 and Im z with
one integer quotient per node.  The dots
T_(c,l) = sum_k k^l u_c(x_k) K_k of each column density u_c (held as
ints, numerics.fixed) are the running powers of u_c K, walked over the
even and the odd k apart, so that the coarse 2hZ dots are one half of the
same walk.  A row enters only through its held coefficients
p_(r,l)/(2 pi i), and Y[r][c] is their exact dot with h^(l+1) T_(c,l),
h^(l+1) an exact shift at the table's current level.  Beyond the support
the dots come from the Laurent series of the kernel, a single-level
multipole expansion (Greengard-Rokhlin 1987) whose coefficients are exact
lattice power sums.
Verification is numeric throughout: jump residuals by boundary-offset
extrapolation, the mismatch formed on the exact entries and rounded once,
on a delta ladder set by the working precision (boundary_deltas), growth
exponents by log-log slope fits along rays, determinant structure by
off-axis sampling.
"""
from __future__ import annotations

import dataclasses
import math
from operator import add, mul

from mpmath import mp
from mpmath.libmp import from_man_exp, to_fixed

from .errors import (
    DegenerateInnerProduct,
    QuadratureFailure,
    UnsupportedRegime,
)
from .moments import build_skew_moment_matrix, inner_2, skew_inner_1
from .numerics import (
    CPoly,
    DEFAULT_CONTEXT,
    Poly,
    PrecisionContext,
    determinant,
    exact_dot,
    fixed,
    fixed_powers,
    fixed_round,
    linear_solve,
    log_slope,
    power_walk,
)
from .potentials import Potential, WeightTable, pi_polynomial
from .quadrature import boundary_deltas, richardson_limit
from .skewalg import SkewFamily, skew_orthogonal_family

def _two_pi_i() -> mp.mpc:
    """2*pi*i evaluated at the current working precision.

    Must be a function, not a module constant: a constant would freeze pi
    at whatever precision was active at import time, and the boundary-value
    identities cancel the kernel normalization against half-residue terms
    that use mp.pi at work precision, so any mismatch shows up directly in
    the jump residual.
    """
    return 2 * mp.pi * mp.mpc(0, 1)


@dataclasses.dataclass(frozen=True)
class RHProblem:
    """Problem data: potential, half-degree index, parity, gauge scalars."""

    potential: Potential
    k: int
    parity: str
    free_params: tuple = ()

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if self.parity == "even" and self.free_params:
            raise ValueError("free parameters apply to odd problems only; "
                             "the even solution is unique")

    @property
    def d(self) -> int:
        return self.potential.degree


def jump_matrix(table: WeightTable, x):
    """M(x): the identity with first row (1, W(x), w_0(x) .. w_{d-2}(x)),
    read from the table as it is; its ranges are not widened."""
    d = table.potential.degree
    _, ex2, ws = table.weights_at(x, d - 1)
    M = [[mp.mpf(int(r == c)) for c in range(d + 1)] for r in range(d + 1)]
    M[0] = [mp.mpf(1), ex2] + ws
    return M


# bits that the kernels and the held row coefficients carry above the
# working precision
_GUARD = 64


def _held(cs):
    """The complex scalars cs as (re, im, exp): their real and imaginary
    parts as ints at one exponent, exactly (fixed)."""
    mans, exp = fixed([c.real._mpf_ for c in cs] + [c.imag._mpf_ for c in cs])
    return mans[:len(cs)], mans[len(cs):], exp


def _add(*terms):
    """The sum of exact complex terms (re, im, exp), exactly, at their
    least exponent."""
    e = min([t[2] for t in terms])
    re = im = 0
    for r, i, f in terms:
        re, im = re + (r << f - e), im + (i << f - e)
    return re, im, e


def _rounded(Y):
    """The exact entries Y (RHSolution._entries), each part rounded once."""
    return [[mp.make_mpc((fixed_round(re, e)._mpf_, fixed_round(im, e)._mpf_))
             for re, im, e in row] for row in Y]


class RHSolution:
    """Constructed solution: rows stored as complex combinations of real
    polynomials, evaluated via grid Cauchy transforms.

    Every Cauchy entry is a sum over the active nodes of the shared
    lattice, formed from the table's column data (WeightTable.columns),
    which a rebuild drops; a row enters only through its coefficients,
    held exactly from construction on (_coeffs, _rows), and the solution
    keeps no cache, so a table widened under it is read as it is now.
    Far from the axis that sum is the value, and beyond the support it
    comes from a Laurent series; near the axis `_near_ladder` adds the
    lattice's pole term per point and gives both boundary values along a
    delta ladder.  Nothing per point outlives the call.
    """

    def __init__(self, problem: RHProblem, family: SkewFamily,
                 table: WeightTable, row_terms, alpha,
                 collapse_residual, ctx: PrecisionContext):
        self.problem = problem
        self.family = family
        self.table = table
        self.row_terms = tuple(tuple(term) for term in row_terms)
        self.alpha = alpha
        self.collapse_residual = collapse_residual
        self.ctx = ctx
        # each row's coefficients (_heads) and p_(r,l)/(2 pi i) (_fold), formed
        # _GUARD bits above the table's precision and held exactly (_held):
        # a row enters Y only through them, and L is the largest degree
        with mp.workprec(table._prec + _GUARD):
            polys, two_pi_i = self.row_polys, _two_pi_i()
            self._coeffs = [_held(p.coeffs) for p in polys]
            self._rows = [_held([c / two_pi_i for c in p.coeffs]) for p in polys]
        self._L = max(p.degree for p in polys)

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return self.problem.d

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def parity(self) -> str:
        return self.problem.parity

    @property
    def size(self) -> int:
        return self.d + 1

    @property
    def row_polys(self):
        """Materialized first-column polynomials, one per row."""
        out = []
        for terms in self.row_terms:
            acc = CPoly([0])
            for factor, poly in terms:
                acc = acc + CPoly([factor * c for c in poly.coeffs])
            out.append(acc)
        return out

    def expected_exponents(self):
        lead = 2 * self.k + (1 if self.parity == "odd" else 0)
        return [lead, -2 * self.k + self.d - 1] + [-1] * (self.d - 1)

    # -- far-field evaluation ---------------------------------------------

    @staticmethod
    def _kernels(ks, level, x0, deltas):
        """For each delta in turn, K_k = 1/(x_k - z), z = x0 + i delta, at
        the nodes x_k = k h, h = 2^-level, k in ks: (re, im, exp), its real
        and imaginary parts as ints at 2^exp.

        x_k - x0 = a_k 2^e and delta = D 2^e are exact ints at the least
        exponent e of h, x0 and the deltas, so den_k = a_k^2 + D^2 is exact
        and K_k = (a_k + i D)/den_k 2^-e.  One integer quotient per node,
        q_k = floor(2^s/den_k), gives re_k = (a_k q_k) >> r and
        im_k = (D q_k) >> r, 2^r > |a_k|, |D|; each is off its exact value
        (a_k, D) 2^(s-r)/den_k by less than 2 units.  s puts the largest
        entry between 2^(prec+_GUARD-2) and 2^(prec+_GUARD), prec the
        working precision, so each part of each K_k is off by less than
        2^(4-prec-_GUARD) max|K|, and a lattice sum h sum_k f_k K_k by
        less than that times h sum_k |f_k|.  The sign of delta is kept
        (Im z < 0 gives im < 0); for delta > 0 the boundary value from
        below takes the conjugate, so one build serves both sides."""
        e = min([-level] + [v._mpf_[2] for v in (x0, *deltas) if v])
        X = to_fixed(x0._mpf_, -e)
        A = [(k << (-level - e)) - X for k in ks]
        AA = [a * a for a in A]
        for delta in deltas:
            D = to_fixed(delta._mpf_, -e)
            DD = D * D
            dens = [aa + DD for aa in AA]
            r = max(abs(A[0]), abs(A[-1]), abs(D)).bit_length()
            s = r + mp.prec + _GUARD + (min(dens).bit_length() - 1) // 2
            qs = [(1 << s) // den for den in dens]
            yield ([(a * q) >> r for a, q in zip(A, qs)],
                   [(D * q) >> r for q in qs], r - s - e)

    def _dots(self, kernel):
        """The column dots T_(c,l) = sum_k k^l U_(c,k) K_k, exact ints, for
        each column c and power l <= L, of the kernel K as _kernels yields
        it, over the lattice hZ and over 2hZ (the even k, every second
        node): (fine, coarse), each per column (re, im, exp), the
        real and the imaginary dots as vectors over l at 2^exp.  The coarse
        dots are held at twice their value (one more in the exponent), the
        step 2h over h.

        Q = U_c K is formed once per column and part; its running vector
        k^l Q is walked over the even and the odd k apart (power_walk).
        The fine dot is the sum of the two halves, the coarse one the half
        on 2hZ, so both cost N multiplies by small ints per power."""
        ks = self.table.ks
        s, n = ks.start % 2, self._L + 1
        even, odd = ks[s::2], ks[1 - s::2]
        *parts, e = kernel
        fine, coarse = [], []
        for vec, exp in self.table.columns().vecs:
            f, c = [], []
            for mans in parts:
                Q = list(map(mul, vec, mans))
                a = list(power_walk(Q[s::2], even, n))
                f.append(list(map(add, a, power_walk(Q[1 - s::2], odd, n))))
                c.append(a)
            fine.append((*f, exp + e))
            coarse.append((*c, exp + e + 1))
        return fine, coarse

    def _laurent(self, z):
        """The fine column dots of _dots for K_k = 1/(x_k - z), from the Laurent
        series of that kernel, for |z| beyond the active radius:
            T_(c,l) = -sum_(n < M) h^n z^(-n-1) S_(c,l+n),
        with S_(c,m) = sum_k k^m U_(c,k) the exact power sums of the table's
        columns (WeightTable.columns).

        Every active node has |x_k| <= active_radius = rho |z|, so the
        terms n >= M of each node's series sum to at most
        rho^M/(1 - rho)/|z|: the dropped tail of T_(c,l) is at most
        rho^M/(1 - rho) times its L1 scale sum_k |k^l U_(c,k)|/|z|, and
        that of a combined sum h sum_k p(x_k) u_c(x_k)/(x_k - z) at most
        rho^M/(1 - rho) times h sum_k |p(x_k) u_c(x_k)|/|z|.  M is the
        least count with rho^M/(1 - rho) < 2^-prec at the working
        precision, plus one for the float rounding.

        With A = 2^a the power of two above the largest |k|, the series
        runs in w = A h/z, |w| < 2 rho: T_(c,l) = -(1/z) sum_n w^n
        S_(c,l+n) A^-n.  The powers w^n are ints at 2^-fb
        (numerics.fixed_powers), fb = prec + 2 bitlen(M): their
        truncations add less than M^2 2^-fb <= 2^-prec of the combined
        sum's L1 scale.
        S_(c,l+n) A^-n and 1/z are held exactly, so each T_(c,l) is an
        exact integer sum."""
        t, store, L = self.table, self.table.columns(), self._L
        rho = float(t.active_radius / abs(z))
        M = math.ceil((mp.prec - math.log2(1 - rho)) / -math.log2(rho)) + 1
        top, fb = L + M - 1, mp.prec + 2 * M.bit_length()
        a = max(-t.ks[0], t.ks[-1]).bit_length()
        wr, wi = fixed_powers(mp.ldexp(t.h, a) / z, M, fb)
        zinv = 1 / z
        (zr, zi), ez = fixed([zinv.real._mpf_, zinv.imag._mpf_])
        out = []
        for (_, exp), S in zip(store.vecs, store.power_sums(top + 1)):
            # S_m A^(top - m), so that S_(l+n) A^-n = V_(l+n) A^(l - top)
            V = [s << a * (top - m) for m, s in enumerate(S[:top + 1])]
            re, im = [], []
            for l in range(L + 1):
                # sum_n w^n S_(l+n) A^-n, brought to the exponent of l = 0
                v = V[l:l + M], exp - a * top
                br = exact_dot((wr, -fb), v)[0] << a * l
                bi = exact_dot((wi, -fb), v)[0] << a * l
                re.append(zi * bi - zr * br)
                im.append(-zr * bi - zi * br)
            e = ez - fb + exp - a * top
            out.append((re, im, e))
        return out

    def _fold(self, T):
        """The row sums from the column dots T (_dots, _laurent): for each
        row r and column c, R_r . Re T_c and R_r . Im T_c, with R_r the row
        coefficients p_(r,l) h^(l+1)/(2 pi i), as four exact ints (P.re,
        P.im, Q.re, Q.im) and their exponent.  R_r . T_c is P + iQ,
        h sum_k p_r(x_k) u_c(x_k) K_k/(2 pi i), and R_r . conj(T_c) is
        P - iQ.  The held p_(r,l)/(2 pi i) (_rows) take h^(l+1) =
        2^(-level (l+1)) as an exact shift of T_(c,l) at the table's level;
        a power of two commutes with their rounding."""
        lv, L = self.table.level, self._L
        T = [([v << lv * (L - l) for l, v in enumerate(re)],
              [v << lv * (L - l) for l, v in enumerate(im)], e - lv * (L + 1))
             for re, im, e in T]
        out = []
        for Rr, Ri, eR in self._rows:
            out.append([(sum(map(mul, Rr, re)), sum(map(mul, Ri, re)),
                         sum(map(mul, Rr, im)), sum(map(mul, Ri, im)), eR + e)
                        for re, im, e in T])
        return out

    def _heads(self, z):
        """[p_r(z)] for the rows r, the first column of Y(z), each exactly
        as (re, im, exp): one Horner on ints, from the held coefficients
        (_coeffs) and z = (zr + i zi) 2^ez, held exactly too."""
        (zr, zi), ez = fixed([z.real._mpf_, z.imag._mpf_])
        if ez > 0:
            zr, zi, ez = zr << ez, zi << ez, 0
        out = []
        for cr, ci, e in self._coeffs:
            # p(z) 2^(-e - top ez) = sum_l c_l Z^l 2^(-ez (top - l)), Z = z 2^-ez
            ar, ai, top = cr[-1], ci[-1], len(cr) - 1
            for l in range(top - 1, -1, -1):
                sh = -ez * (top - l)
                ar, ai = (ar * zr - ai * zi + (cr[l] << sh),
                          ar * zi + ai * zr + (ci[l] << sh))
            out.append((ar, ai, e + top * ez))
        return out

    def _entries(self, heads, folded, side=1, poles=()):
        """Y exactly, each entry (re, im, exp), from its first column heads
        (_heads) and the row sums of _fold: Y[r][c] is the row sum P + iQ
        (side 1) or P - iQ (side -1, T conjugated), plus heads[r] w_(c-1)
        where poles, the w_c held exactly (_held), are given."""
        Y = []
        for (hr, hi, eh), row in zip(heads, folded):
            ys = [(hr, hi, eh)]
            for c, (pr, pi, qr, qi, e) in enumerate(row):
                y = pr - side * qi, pi + side * qr, e
                if poles:
                    wr, wi, ew = poles[0][c], poles[1][c], poles[2]
                    y = _add(y, (hr * wr - hi * wi, hr * wi + hi * wr, eh + ew))
                ys.append(y)
            Y.append(ys)
        return Y

    def _eval_far(self, z):
        """Y(z) from the plain lattice sums h sum_k f(x_k)/(x_k - z): by
        their Laurent series (_laurent) where rho = active_radius/|z| is
        below 1/4, directly elsewhere."""
        t = self.table
        if 4 * t.active_radius < abs(z):
            T = self._laurent(z)
        else:
            T = self._dots(next(self._kernels(t.ks, t.level,
                                              mp.re(z), (mp.im(z),))))[0]
        return _rounded(self._entries(self._heads(z), self._fold(T)))

    # -- near-field evaluation --------------------------------------------

    def _near_ladder(self, x0, deltas):
        """[(Y(x0 + i delta), Y(x0 - i delta)) for each delta > 0], each
        entry exact, (re, im, exp) as _entries gives it; _rounded rounds it.

        On the lattice hZ the sum of h/(x_k - z) over every node is
        -pi cot(pi z/h), and the integral of 1/(x - z) over the line is
        i pi for Im z > 0.  With f = p u_c entire and fast-decaying, so
        that the trapezoid rule on (f(x) - f(z))/(x - z) is exact up to
        terms exponentially small in 1/h (Trefethen-Weideman 2014):
            2 pi i C(f)(z) = h sum_k f(x_k)/(x_k - z)
                             + f(z) (i pi + pi cot(pi z/h)).
        The sum runs over the active nodes; the rest carry terms below the
        validated error scale.  The same sums on the lattice 2hZ (the even
        k, step 2h, cot(pi z/(2h))), the coarse half of the dots (_dots), must
        agree with these within tol * max(1, scale) at every delta, or
        QuadratureFailure is raised; the table is only read.  The pole term
        of Y[r][c] is Y[r][0] w_c, w_c = u_c(z) (i pi + pi cot(pi z/h))/(2 pi i)
        held exactly, so that each entry is exact up to its one rounding,
        and the gap is decided on exact squared moduli.  The family
        polynomials are real, so the lower value takes conj(T) and the
        conjugate of u_c(z) (i pi + pi cot(pi z/h)).
        """
        t, two_pi_i = self.table, _two_pi_i()
        pairs = []
        for delta, kernel in zip(deltas, self._kernels(t.ks, t.level,
                                                       x0, deltas)):
            z = mp.mpc(x0, delta)
            _, ex2, wn = t.weights_at(z, self.d - 1)
            # u_c(z) (i pi + pi cot(pi z/s))/(2 pi i), for the steps s = h
            # and 2h, held exactly.  The cot's argument is first reduced,
            # exactly, by the node of sZ nearest x0: rounded whole, it would
            # put a relative error of 2^-prec |x0|/delta on a pole term of
            # size s/delta near a node
            fine_poles, coarse_poles = (
                _held([u * pole for u in [ex2] + wn]) for pole in (
                    (mp.mpc(0, mp.pi)
                     + mp.pi * mp.cot(mp.pi * (z - mp.nint(x0 / s) * s) / s))
                    / two_pi_i for s in (t.h, 2 * t.h)))
            fine, coarse = self._dots(kernel)
            folded, heads = self._fold(fine), self._heads(z)
            Yp = self._entries(heads, folded, 1, fine_poles)
            # conj(w)/(2 pi i) = -conj(w/(2 pi i))
            Ym = self._entries(self._heads(mp.conj(z)), folded, -1,
                               ([-w for w in fine_poles[0]], *fine_poles[1:]))
            Yc = self._entries(heads, self._fold(coarse), 1, coarse_poles)
            # gap > tol * max(1, scale), decided on the exact squared moduli
            # of the entries, all brought to their least exponent e
            e = min(f for row in Yp + Yc for _, _, f in row)
            P, C = ([(re << f - e, im << f - e) for row in Y for re, im, f in row]
                    for Y in (Yp, Yc))
            scale2, gap2 = (mp.make_mpf(from_man_exp(v, 2 * e)) for v in (
                max(a * a + b * b for a, b in P),
                max((a - c) ** 2 + (b - d) ** 2 for (a, b), (c, d) in zip(P, C))))
            if t.tol < 0 or gap2 > t.tol ** 2 * max(1, scale2):
                gap, bound = mp.sqrt(gap2), t.tol * max(1, mp.sqrt(scale2))
                raise QuadratureFailure(
                    f"near-axis sums at x0={mp.nstr(x0, 8)}, delta="
                    f"{mp.nstr(delta, 3)}: level {t.level} and its coarse half "
                    f"differ by {mp.nstr(gap, 3)}, above the bound "
                    f"{mp.nstr(bound, 3)}")
            pairs.append((Yp, Ym))
        return pairs

    # -- public evaluation -------------------------------------------------

    def evaluate(self, z):
        """Y(z) for z off the real axis."""
        with mp.workprec(self.table._prec):
            z = mp.mpc(z)
            if mp.im(z) == 0:
                raise ValueError("Y is defined off the real axis")
            t = self.table
            x0, delta = mp.mpf(mp.re(z)), abs(mp.im(z))
            # the plain sum omits f(z) (i pi + pi cot(pi z/h)), of size
            # about 2 pi |f(z)| e^(-2 pi |Im z|/h): below tol * 1e-4 here
            if delta >= t.h * mp.log(10 ** 4 / t.tol) / (2 * mp.pi):
                return self._eval_far(z)
            upper, lower = self._near_ladder(x0, (delta,))[0]
            return _rounded(upper if mp.im(z) > 0 else lower)

    def __repr__(self):
        return (f"RHSolution(parity={self.parity!r}, k={self.k}, "
                f"d={self.d})")


# ---------------------------------------------------------------------------
# construction

def _monomial(j: int) -> Poly:
    return Poly([0] * j + [1])


def build(problem: RHProblem, ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    """The solution of problem: row 0 is p_{2k} (even) or p_{2k+1} + a_k p_{2k}
    (odd), row r = 1 .. d is -2 pi i c_r (+ b_(r-1) p_{2k} if odd); free_params
    (a_k, b_0 .. b_{d-1}) are those of an odd problem, omitted entries 0.

    As C(f)(z) = -(1/(2 pi i)) sum_j z^(-j-1) int x^j f, row r's entries
    C(p W) and C(p w_n), p = -2 pi i c_r, lead with <c_r, x^j>_2 z^(-j-1)
    and <c_r, y^n>_1 z^-1, and Y(z) diag(z^-e) -> I makes these vanish for
    j <= 2k-d and n <= d-2 but for a unit on the diagonal: j = 2k-d for
    r = 1, n = r-2 for r >= 2.  So with A the 2k x 2k matrix of rows
    <x^s, x^j>_2, j = 0 .. 2k-d, then <x^s, y^n>_1, n = 0 .. d-2
    (s = 0 .. 2k-1), the unit of row r sits at 2k-d+r-1 and
        A [c_1 .. c_d] = [e_(2k-d) .. e_(2k-1)],
    each c_r one residual-checked linear_solve.  Row 1 collapses onto
    p_{2k-2}: alpha = -2 pi i c_(1,2k-2), and collapse_residual is the
    deviation of -2 pi i c_1 from alpha p_{2k-2} over max(|alpha|, 1)."""
    V, k, odd = problem.potential, problem.k, problem.parity == "odd"
    d, lead = V.degree, 2 * k + odd
    if lead < d:
        raise UnsupportedRegime(
            f"need {'2k+1' if odd else '2k'} >= d for a square condition "
            f"system (k={k}, d={d})")
    params = []
    if odd:
        params = [mp.mpc(p) for p in problem.free_params]
        if len(params) > d + 1:
            raise ValueError(f"at most d+1 = {d + 1} free parameters")
        params += [mp.mpc(0)] * (d + 1 - len(params))
    with ctx.workprec():
        family = skew_orthogonal_family(V, 1, k, ctx)
        table, matrix = family.table, family.matrix
        den = skew_inner_1(family.polys[2 * k - 2], _monomial(2 * k - 1), matrix)
        scale = abs(matrix.entry(2 * k - 2, 2 * k - 1)) + abs(den)
        if not abs(den) > scale * mp.mpf(2) ** (-ctx.mantissa_bits + 16):
            raise DegenerateInnerProduct(
                "pairing of p_{2k-2} against y^{2k-1} degenerates")
        cols = range(2 * k)
        A = ([[table.moment2(s + j) for s in cols] for j in range(2 * k - d + 1)]
             + [[matrix.entry(s, n) for s in cols] for n in range(d - 1)])
        # c_1 .. c_d against the units at 2k-d .. 2k-1
        lower = [Poly(linear_solve(A, [mp.mpf(int(i == u)) for i in cols], ctx))
                 for u in range(2 * k - d, 2 * k)]
        c1, target = lower[0], family.polys[2 * k - 2]
        alpha = -_two_pi_i() * c1.coeff(2 * k - 2)
        dev = max(abs(-_two_pi_i() * c1.coeff(s) - alpha * target.coeff(s))
                  for s in range(2 * k - 1))
        collapse = dev / max(abs(alpha), mp.mpf(1))
        rows = [((mp.mpc(1), family.polys[lead]),)]
        rows += [((-_two_pi_i(), c),) for c in lower]
        if odd:
            p2k = family.polys[2 * k]
            rows = [row + ((b, p2k),) for row, b in zip(rows, params)]
    problem = dataclasses.replace(problem, free_params=tuple(params))
    return RHSolution(problem, family, table, rows, alpha, collapse, ctx)


def build_even(V: Potential, k: int,
               ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    """Unique solution with corner growth z^{2k} (build)."""
    return build(RHProblem(potential=V, k=k, parity="even"), ctx)


def build_odd(V: Potential, k: int, free_params=None,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    """General solution with corner growth z^{2k+1}: the even-problem
    rows shifted by gauge multiples (a_k, b_0 .. b_{d-1}) = free_params of
    p_{2k}, omitted entries 0 (build)."""
    return build(RHProblem(potential=V, k=k, parity="odd",
                           free_params=tuple(free_params or ())), ctx)


# ---------------------------------------------------------------------------
# verification

def _check_ctx(sol: RHSolution, ctx):
    """Verification runs at the solution's own context; a different one
    would be ignored, so it is refused."""
    if ctx is not None and ctx != sol.ctx:
        raise ValueError(f"ctx {ctx} differs from the solution's {sol.ctx}")


def _mismatch(Yp, Ym, row):
    """The mismatch Y(x0 + i delta) - Y(x0 - i delta) M(x0) of the exact
    entries of _near_ladder, with M's first row past its 1 held exactly
    (row, as fixed gives it): each entry exact, then rounded once."""
    mans, em = row
    D = []
    for up, (head, *low) in zip(Yp, Ym):
        hr, hi, eh = head
        D.append([_add(up[0], (-hr, -hi, eh))] + [
            _add(u, (-lr, -li, el), (-hr * m, -hi * m, eh + em))
            for u, (lr, li, el), m in zip(up[1:], low, mans)])
    return _rounded(D)


def jump_residual(sol: RHSolution, x,
                  ctx: PrecisionContext = None):
    """Max entry of the delta -> 0 extrapolated two-sided mismatch, on the
    ladder boundary_deltas() sets from the working precision.

    It does not see the lattice sums: S(x0 +- i delta) tend to one real
    value as delta -> 0, which cancels in Y_+ - Y_- M.  What remains is
    the Plemelj jump of the pole term, so the value measures the off-axis
    continuation of weights_at against its values on the axis, plus the
    ladder's own error: the pole term's round-off, about 2^-prec/delta at
    a lattice node, and the extrapolation's truncation, which
    boundary_deltas balances.  The near-axis check against 2hZ
    (_near_ladder) guards the lattice sums' step, and det_residual their
    values."""
    _check_ctx(sol, ctx)
    table = sol.table
    with mp.workprec(table._prec):
        x0 = mp.mpf(x)
        if abs(x0) > table.base_radius:
            raise ValueError("sample point outside the truncated support")
        row = fixed([v._mpf_ for v in jump_matrix(table, x0)[0][1:]])
        deltas = boundary_deltas()
        mats = [_mismatch(Yp, Ym, row) for Yp, Ym in sol._near_ladder(x0, deltas)]
        n = sol.size
        worst = mp.mpf(0)
        for r in range(n):
            for c in range(n):
                vals = [D[r][c] for D in mats]
                worst = max(worst, abs(richardson_limit(deltas, vals)))
        return worst


def asymptotic_exponents(sol: RHSolution, theta, radii,
                         ctx: PrecisionContext = None):
    """Least-squares slopes of log |Y_rc| vs log R along one ray.

    Entries with magnitudes at the noise floor come back as None; the
    caller compares the diagonal against expected_exponents().
    """
    _check_ctx(sol, ctx)
    table = sol.table
    with mp.workprec(table._prec):
        theta = mp.mpf(theta)
        if abs(mp.sin(theta)) < mp.mpf('0.05'):
            raise ValueError("ray must stay away from the real axis")
        radii = [mp.mpf(r) for r in radii]
        if len(radii) < 2:
            raise ValueError("need at least two radii for a slope fit")
        if min(radii) < 10 * table.base_radius:
            raise ValueError("radii must clear 10x the truncation radius")
        ray = mp.mpc(mp.cos(theta), mp.sin(theta))
        mags = [sol._eval_far(R * ray) for R in radii]
        floor = mp.mpf(2) ** (-sol.ctx.mantissa_bits // 2)
        logs = [mp.log(R) for R in radii]
        n = sol.size
        out = [[None] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                vals = [abs(m[r][c]) for m in mags]
                if min(vals) >= floor:
                    out[r][c] = log_slope(logs, vals)
        return out


def det_residual(sol: RHSolution, z_samples,
                 ctx: PrecisionContext = None):
    """Even: max |det Y - 1|.  Odd: deviation of det Y from the best
    monic linear z + c* over the samples."""
    _check_ctx(sol, ctx)
    with mp.workprec(sol.table._prec):
        zs = [mp.mpc(z) for z in z_samples]
        if any(mp.im(z) == 0 for z in zs):
            raise ValueError("determinant samples must lie off the axis")
        dets = [determinant(sol.evaluate(z), sol.ctx) for z in zs]
        if sol.parity == "even":
            return max(abs(v - 1) for v in dets)
        shifts = [v - z for v, z in zip(dets, zs)]
        cstar = mp.fsum(shifts) / len(shifts)
        return max(abs(s - cstar) for s in shifts)


def identity_2_1_residual(V: Potential, f: Poly, j: int,
                          ctx: PrecisionContext = DEFAULT_CONTEXT):
    """|<f, pi_{j+d-1}(y)>_1 - 2 <f, x^j>_2| for the bridge polynomial
    pi built from the potential derivative, on the shared table of a
    size-n matrix, whose moments reach 2n-1 >= f.degree + j: all that
    inner_2 reads."""
    with ctx.workprec():
        pi = pi_polynomial(V, j)
        n = max(f.degree, pi.degree) + 1
        matrix = build_skew_moment_matrix(V, 1, n, ctx)
        lhs = skew_inner_1(f, pi, matrix)
        rhs = 2 * inner_2(f, _monomial(j), matrix.table)
        return abs(lhs - rhs)
