"""Confining potentials and the weight data derived from them.

A WeightTable holds, for one potential and precision context, a shared
master grid over the truncated support, the uniform lattice x_k = k h with
h = 2^-level, together with running half-line integrals of y^j exp(-V).
The lattice ends where the working precision stops seeing the tail: past
its half-width x^i exp(-V), i <= i_max, lies 2 prec bits below 1
(truncation_radius).
Every quadrature weight is h: the trapezoid rule converges exponentially
for the entire, fast-decaying integrands here (Trefethen-Weideman 2014,
SIAM Rev. 56, section 5), and the lattices of two levels nest bit-exactly.
The table picks its level once, when it is built: the coarsest at which
every moment passes one check against the coarser lattice 2hZ, or up to
two levels finer while a beta = 1 pairing <x^i, y^j>_1 = int x^i w_j,
i < j <= w_max, fails the same check.  It keeps the moments, the
exp(-2V) moments and that checked pairing block, so the moment matrices in
`moments` only read it; the Cauchy sums in `rhp` form their own vectors
from the grid.  On the lattice x^i h = k^i h^(i+1), with k^i an exact int
and h^(i+1) a power of two, so every moment and pairing is the exact
integer sum over the lattice indices, rounded once: correctly rounded
(numerics.fixed, which holds every term, and numerics.power_walk).  The
half-line integrals come from one kernel: the Taylor series of
exp(V(x_k) - V(y)) about a lattice node x_k (the Taylor-series method for
g' = -V' g, Corliss-Chang 1982, ACM TOMS 8), whose coefficients are exact
integers, run on ints and integrated term by term for the highest local
moments int s^i g; the lower ones follow by the downward recurrence of
integration by parts (Gautschi 1967, SIAM Rev. 9), whose bound on error
growth the kernel checks against its guard bits.  It gives every lattice
interval's increment, and the integrals from the node below any real or
complex point up to it.  The running sums F of the increments stay exact
ints, one exponent per power y^j, and so do the densities
w_j = exp(-V) (2 F_j - m_j) on the lattice, which the pairings sum; a value
read out of them is rounded once.

Grid sums for integrands carrying exp(-V) run over the active slice
|x| <= cut only, where cut satisfies x^i_max exp(-V(x)) < quad_tol*1e-4;
the discarded terms are below the validated error scale by construction.
exp(-V), exp(-2V) and the half-line integrals are read on that slice only,
so the table keeps them there alone.  A table changes only by a rebuild for
wider ranges, and the rebuilt table equals a fresh one.
"""
from __future__ import annotations

import bisect
import math
import weakref
from itertools import takewhile
from operator import floordiv, mul

from mpmath import mp

from .errors import IntegrabilityError, MomentRangeExceeded, QuadratureFailure
from .numerics import (DEFAULT_CONTEXT, Poly, PrecisionContext, exp_e, fixed,
                       fixed_powers, fixed_round, power_walk)


class Potential:
    """Even-degree polynomial V with positive leading coefficient."""

    def __init__(self, coeffs):
        poly = Poly([mp.mpf(c) for c in coeffs])
        if poly.degree < 2 or poly.degree % 2 != 0:
            raise IntegrabilityError(
                f"potential degree must be even and >= 2, got {poly.degree}"
            )
        if not poly.leading > 0:
            raise IntegrabilityError("leading coefficient must be positive")
        self.poly = poly
        # exact products keep pi_polynomial's leading -d*v_d at any mp.prec
        self.dpoly = Poly([mp.fmul(i, c, exact=True)
                           for i, c in enumerate(poly.coeffs)][1:])

    @classmethod
    def parse(cls, text: str) -> "Potential":
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(p == "" for p in parts):
            raise ValueError(f"malformed coefficient list: {text!r}")
        return cls([mp.mpf(p) for p in parts])

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def leading(self):
        return self.poly.leading

    def __call__(self, x):
        return self.poly(x)

    def key(self):
        """The exact coefficients: potentials differing in any bit get
        separate weight tables."""
        return tuple(c._mpf_ for c in self.poly.coeffs)

    def deformed(self, j: int, t) -> "Potential":
        """Potential with t*x^j added (validity re-checked)."""
        coeffs = list(self.poly.coeffs)
        while len(coeffs) <= j:
            coeffs.append(mp.mpf(0))
        coeffs[j] = coeffs[j] + mp.mpf(t)
        return Potential(coeffs)

    def __repr__(self):
        return f"Potential({[mp.nstr(c, 8) for c in self.poly.coeffs]})"


def pi_polynomial(V: Potential, j: int) -> Poly:
    """j*y^(j-1) - y^j * V'(y); degree j + d - 1, leading -d*v_d."""
    if j < 0:
        raise ValueError("j must be >= 0")
    d = V.degree
    if j == 0:
        out = -V.dpoly
    else:
        out = Poly([0] * (j - 1) + [j]) - V.dpoly.shift_up(j)
    assert out.degree == j + d - 1
    assert out.leading == -d * V.leading
    return out


def _tail_radius(V: Potential, i_max: int, tol):
    """Smallest R >= 1 with R^i_max exp(-V(R)) < tol: R doubled from 1,
    then 60 bisection steps, on mpfs.  A step decides in double on
    f = i_max log r - V(r) - log tol where |f| passes 2^-48 (d + 2) S,
    S = sum_l |v_l| r^l + i_max (|log r| + 1) + |log tol|: the double and
    the mpf evaluation (53 bits or more) each err below 2^-53 (3d + 5) S,
    so both decide alike.  Otherwise the mpf comparison decides."""
    tol = mp.mpf(tol)
    cs = [float(c) for c in reversed(V.poly.coeffs)]
    log_tol = float(mp.log(tol))
    slack = (V.degree + 2) * 2.0 ** (5 - min(mp.prec, 53))
    if not all(c == 0 or 2.0 ** -1000 < abs(c) < 2.0 ** 1000 for c in cs):
        slack = math.inf  # a coefficient a double does not hold to 2^-53

    def small(r):
        x, v, s = float(r), 0.0, 0.0
        for c in cs:
            v, s = v * x + c, s * x + abs(c)
        lx = math.log(x)
        f = i_max * lx - v - log_tol
        if abs(f) > slack * (s + i_max * (abs(lx) + 1) + abs(log_tol)):
            return f < 0
        return r ** i_max * exp_e(-V(r)) < tol

    lo, hi = mp.mpf(1), mp.mpf(1)
    while not small(hi):
        lo = hi
        hi = hi * 2
        if hi > 2 ** 40:
            raise QuadratureFailure("cannot satisfy tail bound; check potential")
    for _ in range(60):
        mid = (lo + hi) / 2
        if small(mid):
            hi = mid
        else:
            lo = mid
    return hi


def truncation_radius(V: Potential, i_max: int, tol):
    """(base, grid): base, the smallest R with R^i_max exp(-V(R)) < tol/100,
    and the lattice's half-width grid = max(base, R), R the smallest radius
    with R^i_max exp(-V(R)) < 2^(-2 prec), prec the working precision.  The
    trapezoid rule's error on the lattice is the part of the tail it leaves
    out, so past grid every term x^i exp(-V), i <= i_max, that a lattice
    sum leaves out lies 2 prec bits below 1."""
    base = _tail_radius(V, i_max, mp.mpf(tol) / 100)
    return base, max(base, _tail_radius(V, i_max, mp.ldexp(1, -2 * mp.prec)))


def _lattice_sums(v, ks, count):
    """The sums of values v at the lattice nodes k h, k in the range ks,
    held as ints at one exponent (numerics.fixed): entry i, i < count,
    holds the exact int sums of k^i v_k over all the nodes, of their
    absolute values, and over the coarser lattice 2hZ (the even k).  Times
    h^(i+1) and the held exponent these are trapezoid sums of x^i values;
    twice the third is the one on 2hZ.  One power walk (numerics.power_walk)
    runs over the even and one over the odd k, as the Cauchy dots' walk
    does, and one runs |v| over |k|; a power is walked when its entry is
    read."""
    s = ks.start % 2
    even = power_walk(v[s::2], ks[s::2], count)
    odd = power_walk(v[1 - s::2], ks[1 - s::2], count)
    total = power_walk(list(map(abs, v)), list(map(abs, ks)), count)
    return ((e + o, t, e) for e, o, t in zip(even, odd, total))


def _agrees(sums, tol):
    """The fine/coarse check of one entry of _lattice_sums: the gap
    |fine - 2 coarse| between hZ and 2hZ within tol of the sum of absolute
    terms, at least |fine|, so that sums which cancel to round-off (parity
    zeros) pass.  The power of two h^(i+1) 2^exp cancels from it."""
    fine, total, coarse = sums
    return fixed_round(abs(fine - 2 * coarse), 0) <= tol * fixed_round(total, 0)


def _rounded(sums, exp, level):
    """The lattice sums h^(i+1) 2^exp sums[i], h = 2^-level, of exact ints
    sums[i] = sum_k k^i v_k, each rounded once."""
    return [fixed_round(f, exp - level * (i + 1)) for i, f in enumerate(sums)]


def _taylor_shift(coeffs, k):
    """The coefficients of p(k + s) in s, for p with the int coefficients
    coeffs and an int k, exactly (repeated synthetic division)."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += k * out[j + 1]
    return out


def _float_up(man, exp):
    """A float at least |man| * 2^exp, for an int man."""
    s = max(0, abs(man).bit_length() - 50)
    return math.ldexp((abs(man) >> s) + (s > 0), exp + s)


def _series_length(b, shift, bits):
    """A count N with sum_(n >= N) |a_n| < 2^-bits, for the Taylor
    coefficients a_n of g = exp(-W), W(0) = 0, W' = sum_l b_l s^l with
    b_l = b[l] 2^-shift (ints).  On |s| = r, |W| <= log M(r) =
    sum_l |b_l| r^(l+1)/(l+1), so Cauchy's estimate gives
    |a_n| <= M(r) r^-n and the tail is at most M(r) r^-N / (1 - 1/r).
    Every r > 1 gives a valid N; r = 2^(m/4) runs up while N falls, and
    one term more covers the float rounding."""
    q = [_float_up(c, -shift) / (l + 1) for l, c in enumerate(b)][::-1]
    ln2, best, m = math.log(2), math.inf, 0
    while True:
        m += 1
        r, log_m = 2 ** (m / 4), 0.0
        for c in q:
            log_m = (log_m + c) * r
        n = (log_m + bits * ln2 - math.log1p(-1 / r)) / (m * ln2 / 4)
        if n >= best:
            return math.ceil(best) + 1
        best = n


def _binomial_sums(ints, k):
    """sum_i C(j, i) k^(j-i) ints[i] for each j < len(ints): the integrals
    of (k + s)^j g from those of s^i g, by s^i (k + s)^j = k s^i (k + s)^(j-1)
    + s^(i+1) (k + s)^(j-1)."""
    u, out = list(ints), [ints[0]]
    for j in range(len(u) - 1, 0, -1):
        for i in range(j):
            u[i] = k * u[i] + u[i + 1]
        out.append(u[0])
    return out


# the most of the series kernel's 64 guard bits that its downward
# recurrence may take (_series); the rest take the round-off of the sums
_GROWTH_BITS = 32


class WeightTable:
    """Grid data, moments, beta = 1 pairings and half-line integral tables
    for one potential.

    Holds master-grid data only, and no caches: densities at other points,
    real or complex, are return values of weights_at, and vectors over the
    active nodes (w_values) are built per call.  The nodes xs cover the
    whole lattice, out to the half-width radius that the working precision
    sets (truncation_radius); exp(-V) (aew), exp(-2V) (aew2) and the
    half-line integrals F cover the active slice, whose lattice indices are
    ks, F from the node just below it.
    F holds exact ints, F[j][k] at 2^_F_exp[j]; _F_at rounds the entry it
    reads, and w_values the exact w_n (_w_held).  F and the integrals at
    other points come from one kernel, the Taylor series of exp(-V) about
    a lattice node (_series).  The weight of every
    node is the step h.  The level is fixed when the table is built, by the
    moments and the pairing block P together; ensure_ranges rebuilds the
    table for wider ranges, and `version` changes whenever it does, for
    consumers keyed on it.
    """

    min_level = 2
    max_level = 11

    def __init__(self, potential: Potential, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 i_max: int = 8, w_max: int = 0):
        self.potential = potential
        self.ctx = ctx
        self._prec = ctx.mantissa_bits + 16
        # fraction bits of the series kernel: 64 guard bits take its
        # round-off and the cancellation in its sums
        self._fbits = self._prec + 64
        self.version = 0
        with mp.workprec(self._prec):
            self.tol = mp.mpf(ctx.quad_tol)
        self.i_max = self.w_max = -1  # no grid until ensure_ranges builds one
        i_max = max(2, int(i_max))
        self.ensure_ranges(i_max, max(0, int(w_max)))

    # -- construction ------------------------------------------------------

    def _grid_at_level(self, level, coarser):
        """The lattice nodes k * 2^-level in [-radius, radius], in order,
        and their exp(-V); coarser holds those of the level above, whose
        nodes are the ones here with k even (the same bits), or is empty."""
        n = int(mp.floor(mp.ldexp(self.radius, level)))
        xs = [mp.ldexp(k, -level) for k in range(-n, n + 1)]
        ew, s = xs[:], n % 2  # xs[s] is the first node with k even
        ew[s::2] = coarser or [exp_e(-self.potential(x)) for x in xs[s::2]]
        ew[1 - s::2] = [exp_e(-self.potential(x)) for x in xs[1 - s::2]]
        return xs, ew

    def _build_grid(self):
        """Halve h from 2^-min_level until every moment passes its check
        against the coarser lattice 2hZ (_agrees), which is the previous
        level's; a level's walk stops at its first moment that fails.  Then
        go at most two levels finer while a pairing fails it."""
        accepted, ew = None, []
        for level in range(self.min_level, self.max_level + 1):
            xs, ew = self._grid_at_level(level, ew)
            n = len(xs) // 2
            v, exp = fixed([e._mpf_ for e in ew])
            sums = _lattice_sums(v, range(-n, n + 1), self.i_max + 1)
            if accepted is None:
                sums = takewhile(lambda s: _agrees(s, self.tol), sums)
            m = _rounded([f for f, _, _ in sums], exp, level)
            if len(m) <= self.i_max:
                continue
            accepted = level if accepted is None else accepted
            self._install_grid(level, xs, ew, m)
            failed = self._check_pairings()
            if failed is None:
                return
            if level == accepted + 2:
                raise QuadratureFailure(
                    "moment entry ({},{}) did not stabilize".format(*failed))
        raise QuadratureFailure("grid level cap reached" if accepted is not None
                                else "moment grid did not stabilize")

    def _install_grid(self, level, xs, ew, m):
        """Make one level the table's grid: the moments m, those of
        exp(-2V), the active slice and the half-line integral tables."""
        self.level = level
        self.h = mp.ldexp(1, -level)
        self.xs = xs
        ew2 = [e * e for e in ew]
        n = len(xs) // 2
        self.m = m
        v, exp = fixed([e._mpf_ for e in ew2])
        self.m2 = _rounded(power_walk(v, range(-n, n + 1), self.i_max + 1),
                           exp, level)
        lo = bisect.bisect_left(self.xs, -self.active_radius)
        hi = bisect.bisect_right(self.xs, self.active_radius)
        self._alo, self._ahi = lo, hi
        # the active nodes' lattice indices k, x_k = k h; those with k even
        # are the lattice 2hZ
        self.ks = range(lo - n, hi - n)
        self.axs = self.xs[lo:hi]
        self.aew = ew[lo:hi]
        self.aew2 = ew2[lo:hi]
        self._build_F()
        self.version += 1

    def _check_pairings(self):
        """P[j][i] = <x^i, y^j>_1 = h^(i+1) * sum k^i w_j(k h) over the
        active lattice indices k, for i < j <= w_max, each an exact integer
        sum of the exact w_j (_w_held) rounded once and checked against the
        coarser lattice 2hZ (_agrees).  Returns the first (i, j) that fails
        its check, or None when the whole block passes."""
        self.P = [[]]
        for j in range(1, self.w_max + 1):
            w, exp = self._w_held(j)
            sums = list(_lattice_sums(w, self.ks, j))
            for i, s in enumerate(sums):
                if not _agrees(s, self.tol):
                    return i, j
            self.P.append(_rounded([f for f, _, _ in sums], exp, self.level))
        return None

    # -- half-line integral tables ----------------------------------------

    def _series(self, k, ts, j_count):
        """For each t in ts, the integrals int_0^t (k + s)^j g(s) ds,
        j < j_count, of g(s) = exp(V(x_k) - V(x_k + s h)) about the lattice
        node x_k = k h: the integral of y^j exp(-V) from x_k to x_k + t h is
        exp(-V(x_k)) h^(j+1) times one of them.  Ints at 2^-fbits; per t,
        one list, or for a complex t those of its real and imaginary parts.

        g' = -W' g with W' = h V'(x_k + s h) = sum_l b_l s^l, whose
        coefficients are exact: those of h V'(h u), dyadic, as ints at one
        exponent (_dv), Taylor-shifted by k.  The Taylor coefficients of g
        follow from (n+1) a_(n+1) = -sum_l b_l a_(n-l) (Knuth, TAOCP 2,
        4.7).  Past |t| = 1 the series runs in u = s 2^-sg, |u| <= 1, so
        that the powers of t do not magnify the coefficients' truncation.
        It stops where the Cauchy bound on its tail (_series_length) is
        below a unit.

        Only the len(b) highest local moments J_i = int_0^u s^i g come
        from the series; the rest follow downward from i J_(i-1) =
        u^i g(u) + sum_l b_l J_(i+l), integration by parts of (s^i g)'
        (Gautschi 1967, SIAM Rev. 9).  Each of the top = j_count - len(b)
        steps multiplies the errors it reads by at most max(1, B/i),
        B = sum_l |b_l|, and adds R + 2 units over i, R the error of a
        series sum: each moment is within 2^G (R + top (R + 2)) units,
        2^G = prod_(i <= top) max(1, B/i), and past G = _GROWTH_BITS the
        kernel raises QuadratureFailure."""
        fb, sh, sg = self._fbits, self._dv_shift, 0
        while max(abs(t) for t in ts) > 1 << sg:
            sg += 1
        b = [c << sg * (l + 1) for l, c in enumerate(_taylor_shift(self._dv, k))]
        count = _series_length(b, sh, fb + 2)
        rb, a = b[::-1], [0] * (len(b) - 1) + [1 << fb]
        for n in range(1, count):
            a.append((-sum(map(mul, rb, a[n - 1:])) >> sh) // n)
        a = a[len(b) - 1:]
        top = max(0, j_count - len(b))
        big = sum(_float_up(c, -sh) for c in b)
        if sum(math.log2(big / i) for i in range(1, top + 1) if big > i) > _GROWTH_BITS:
            raise QuadratureFailure(f"series at node {k}: the downward recurrence "
                                    f"would take more than {_GROWTH_BITS} guard bits")
        # int_0^t s^i g = sum_n a_n t^(n+i+1) / (n+i+1); at t = +-1 that
        # is t^(i+1) (E_i + t O_i), E_i and O_i its sums over even and odd
        # n, and g(t) = g_e + t g_o
        units = [] if sg else [t for t in ts if t in (1, -1)]
        if units:
            eo = [(sum(map(floordiv, a[::2], range(i + 1, i + 1 + count, 2))),
                   sum(map(floordiv, a[1::2], range(i + 2, i + 1 + count, 2))))
                  for i in range(top, j_count)]
            g_e, g_o = sum(a[::2]), sum(a[1::2])
        if len(units) < len(ts):
            cs = [list(map(floordiv, a, range(i + 1, i + 1 + count)))
                  for i in range(top, j_count)]
        out = []
        for t in ts:
            if t in units:
                u = int(t)
                highs = [[(e + u * o) * u ** (i + 1)
                          for i, (e, o) in enumerate(eo, top)]]
                ends = [[(g_e + u * g_o) * u ** i for i in range(top + 1)]]
            else:
                ps = fixed_powers(t / (1 << sg), count + j_count, fb)
                highs = [[sum(map(mul, c, p[i + 1:])) >> fb
                          for i, c in enumerate(cs, top)] for p in ps]
                ends = [[sum(map(mul, a, p[i:])) >> fb for i in range(top + 1)]
                        for p in ps]
            parts = []
            for J, end in zip(highs, ends):
                for i in range(top, 0, -1):
                    J.insert(0, (end[i] + (sum(map(mul, b, J)) >> sh)) // i)
                parts.append([m << sg * (i + 1) for i, m in enumerate(J)])
            out.append([_binomial_sums(part, k) for part in parts])
        return out

    def _interval_sums(self, j_count):
        """(q, S) for each lattice interval [x_p, x_(p+1)], p from _F_lo
        through ahi - 2, in order: the integral of y^j exp(-V) over it, from
        -cut where it crosses -cut, is exp(-V(x_q)) h^(j+1) S[j] 2^-fbits.
        One series about every second node x_q serves the interval below it
        (t from -1, or from -cut, up to 0) and the one above (t from 0 to 1)."""
        n = len(self.xs) // 2
        for q in range(self._F_lo + 1, self._ahi, 2):
            t = (-self.active_radius - self.xs[q]) / self.h
            ts = [-1 if t <= -1 else t] + [1] * (q + 1 < self._ahi)
            parts = self._series(q - n, ts, j_count)
            yield q, [-s for s in parts[0][0]]
            if len(parts) == 2:
                yield q, parts[1][0]

    def _segment(self, p, t, j_count):
        """The integrals of y^j exp(-V), j < j_count, from the node xs[p]
        (from -cut if that is higher) to xs[p] + t h, each rounded once;
        real or complex as t is."""
        x, lo = self.xs[p], -self.active_radius
        ts = [t] if x >= lo else [t, (lo - x) / self.h]
        parts = self._series(p - len(self.xs) // 2, ts, j_count)
        if len(ts) == 2:
            # the part below -cut is real
            parts[0][0] = [u - v for u, v in zip(parts[0][0], parts[1][0])]
        e = self.aew[p - self._alo] if p >= self._alo else exp_e(-self.potential(x))
        _, man, exp, _ = e._mpf_
        vals = [[fixed_round(man * s, exp - self._fbits - self.level * (j + 1))
                 for j, s in enumerate(part)] for part in parts[0]]
        return [mp.mpc(*v) for v in zip(*vals)] if len(vals) == 2 else vals[0]

    def _build_F(self):
        """F[j][k - _F_lo] 2^_F_exp[j]: integral of y^j exp(-V) from -cut up
        to the node xs[k], for k from _F_lo = max(alo - 1, 0) through
        ahi - 1, the nodes that _F_at and _w_held read.  Each lattice
        interval adds exp(-V) at an active node, held as the ints E at one
        exponent (fixed(aew)), times that node's _series (_interval_sums),
        so every entry is an exact running sum, kept as an int, of series
        values within the bound of _series: d columns from the series sums,
        the w_max + 1 - d below by its downward recurrence.  The
        interval across -cut counts from -cut (below it the mass is under
        the validated error scale, by the tail bound); where the lattice
        starts above -cut, F starts at its first node."""
        raws = [c._mpf_ for c in self.potential.dpoly.coeffs]
        exps = [e - self.level * (l + 1) for l, (_, _, e, _) in enumerate(raws)]
        sh = max(0, -min(e for (_, m, _, _), e in zip(raws, exps) if m))
        # h V'(h u) = sum_l _dv[l] 2^-sh u^l, exactly
        self._dv = [((-m if s else m) << (e + sh)) if m else 0
                    for (s, m, _, _), e in zip(raws, exps)]
        self._dv_shift = sh
        n_j, fb = self.w_max + 1, self._fbits
        self._F_lo = max(self._alo - 1, 0)
        self._E = es, ex = fixed([e._mpf_ for e in self.aew])
        F = [[0] for _ in range(n_j)]
        for q, sums in self._interval_sums(n_j):
            for j, s in enumerate(sums):
                F[j].append(F[j][-1] + es[q - self._alo] * s)
        self.F = F
        self._F_exp = [ex - fb - self.level * (j + 1) for j in range(n_j)]

    # -- growth ------------------------------------------------------------

    def ensure_ranges(self, i_max=None, w_max=None):
        """Moments up to i_max, densities w_n up to w_max (so i_max >= w_max):
        a wider range rebuilds the table as a fresh one with these ranges."""
        i_max = self.i_max if i_max is None else max(self.i_max, int(i_max))
        w_max = self.w_max if w_max is None else max(self.w_max, int(w_max))
        i_max = max(i_max, w_max)
        if i_max == self.i_max and w_max == self.w_max:
            return
        self.i_max, self.w_max = i_max, w_max
        with mp.workprec(self._prec):
            self.base_radius, self.radius = truncation_radius(
                self.potential, i_max, self.tol)
            self.active_radius = min(self.radius, _tail_radius(
                self.potential, i_max, self.tol * mp.mpf('1e-4')))
            self._build_grid()

    # -- moments and grid sums --------------------------------------------

    def moment(self, i: int):
        """Integral of x^i exp(-V)."""
        if not 0 <= i <= self.i_max:
            raise MomentRangeExceeded(f"moment {i} beyond table ({self.i_max})")
        return self.m[i]

    def moment2(self, i: int):
        """Integral of x^i exp(-2V)."""
        if not 0 <= i <= self.i_max:
            raise MomentRangeExceeded(f"moment2 {i} beyond table ({self.i_max})")
        return self.m2[i]

    def pairing(self, i: int, j: int):
        """<x^i, y^j>_1 = integral of x^i w_j, for 0 <= i < j <= w_max."""
        if not 0 <= i < j <= self.w_max:
            raise MomentRangeExceeded(
                f"pairing ({i},{j}) beyond table (i < j <= {self.w_max})")
        return self.P[j][i]

    def _w_held(self, n: int):
        """(W, exp): w_n = exp(-V) (2 F_n - m_n) at the active grid nodes,
        exactly, as the ints W at 2^exp, from E = fixed(aew), F_n and m_n
        aligned to one exponent."""
        es, ex = self._E
        s, man, e, _ = self.m[n]._mpf_
        c = min(e, self._F_exp[n])
        m = (-man if s else man) << (e - c)
        two_f = 2 << (self._F_exp[n] - c)
        Fn = self.F[n][self._alo - self._F_lo:]
        return [a * (two_f * f - m) for a, f in zip(es, Fn)], ex + c

    def w_values(self, n: int):
        """w_n at the active grid nodes: exp(-V) * (2 F_n - m_n), formed
        exactly (_w_held) and rounded once at the table's precision."""
        if not 0 <= n <= self.w_max:
            raise MomentRangeExceeded(f"w_{n} beyond table ({self.w_max})")
        w, exp = self._w_held(n)
        with mp.workprec(self._prec):
            return [fixed_round(v, exp) for v in w]

    # -- pointwise evaluation ---------------------------------------------

    def _F_at(self, z, j_count):
        """The integrals of y^j exp(-V) from -cut to z, j < j_count, for a
        real or complex z: F at the node below Re z plus the series from
        that node.  They are 0 for Re z <= -cut and m_j for Re z >= cut;
        off the axis the segment up to z adds less than the validated error
        scale there."""
        x = mp.re(z)
        if x <= -self.active_radius:
            return [mp.mpf(0)] * j_count
        if x >= self.active_radius:
            return [self.m[j] for j in range(j_count)]
        p = bisect.bisect_right(self.xs, x) - 1
        if p < self._F_lo:
            return [mp.mpf(0)] * j_count
        seg = self._segment(p, (z - self.xs[p]) / self.h, j_count)
        return [fixed_round(self.F[j][p - self._F_lo], self._F_exp[j]) + s
                for j, s in enumerate(seg)]

    def weights_at(self, z, n_count: int):
        """(exp(-V(z)), exp(-2V(z)), [w_0(z) .. w_{n_count-1}(z)]).

        z is real or complex; one series from the lattice node below Re z
        serves every w_n.
        """
        if n_count - 1 > self.w_max:
            raise MomentRangeExceeded(f"w_{n_count-1} beyond table ({self.w_max})")
        with mp.workprec(self._prec):
            z = mp.mpmathify(z)
            if mp.im(z):
                ex = mp.exp(-self.potential(z))
            else:
                z = mp.mpf(mp.re(z))
                ex = exp_e(-self.potential(z))
            Fs = self._F_at(z, max(1, n_count))
            ws = [ex * (2 * Fs[n] - self.m[n]) for n in range(n_count)]
            return ex, ex * ex, ws


# The tables used last, most recent at the end; at up to about 4 MB each,
# four cover a flow check's V0 and V0 +- t x^j plus one more.  A table a family
# or solution still holds stays in _LIVE_TABLES and is never built twice.
_TABLE_REGISTRY_SIZE = 4
_TABLE_REGISTRY = {}
_LIVE_TABLES = weakref.WeakValueDictionary()


def get_weight_table(V: Potential, ctx: PrecisionContext = DEFAULT_CONTEXT,
                     i_max: int = 8, w_max: int = 0) -> WeightTable:
    """Shared WeightTable per (potential, context), widened on request."""
    key = (V.key(), ctx.mantissa_bits, float(ctx.quad_tol))
    table = _LIVE_TABLES.get(key)
    if table is None:
        table = _LIVE_TABLES[key] = WeightTable(V, ctx, i_max=i_max, w_max=w_max)
    else:
        table.ensure_ranges(i_max=i_max, w_max=w_max)
    _TABLE_REGISTRY.pop(key, None)
    _TABLE_REGISTRY[key] = table
    if len(_TABLE_REGISTRY) > _TABLE_REGISTRY_SIZE:
        del _TABLE_REGISTRY[next(iter(_TABLE_REGISTRY))]
    return table
