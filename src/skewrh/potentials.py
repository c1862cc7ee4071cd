"""Confining potentials and the weight data derived from them.

A WeightTable holds, for one potential and precision context, a shared
master grid over the truncated support, the uniform lattice x_k = k h with
h = 2^-level, together with running half-line integrals of y^j exp(-V).
Every quadrature weight is h: the trapezoid rule converges exponentially
for the entire, fast-decaying integrands here (Trefethen-Weideman 2014,
SIAM Rev. 56, section 5), and the lattices of two levels nest bit-exactly.
The table picks its level once, when it is built: the coarsest at which
the moments agree with the next coarser lattice's, or up to two levels
finer while a beta = 1 pairing <x^i, y^j>_1 = int x^i w_j, i < j <= w_max,
fails its check against the coarser lattice.  It keeps the moments, the
exp(-2V) moments and that checked pairing block, so the moment matrices in
`moments` only read it; the Cauchy sums in `rhp` form their own vectors
from the grid.  On the lattice x^i h = k^i h^(i+1), with k^i an exact int
and h^(i+1) a power of two, so every moment and pairing is an exact
integer sum over the lattice indices, rounded once (numerics.fixed).  The
half-line integrals at an arbitrary point cost one short Gauss-Legendre
panel from the nearest node below it, and off the axis one more up to the
point; those panels' nodes are not lattice points, and their power sums
stay rounded per operation.

Grid sums for integrands carrying exp(-V) run over the active slice
|x| <= cut only, where cut satisfies x^i_max exp(-V(x)) < quad_tol*1e-4;
the discarded terms are below the validated error scale by construction.
exp(-V), exp(-2V) and the half-line integrals are read on that slice only,
so the table keeps them there alone.  A table changes only by a rebuild for
wider ranges, and the rebuilt table equals a fresh one.
"""
from __future__ import annotations

import bisect
import weakref
from operator import mul

from mpmath import mp

from .errors import IntegrabilityError, MomentRangeExceeded, QuadratureFailure
from .numerics import (DEFAULT_CONTEXT, Poly, PrecisionContext, exp_e, fixed,
                       fixed_dot, fixed_round, fsum_raw, vmul_raw)
from .quadrature import legendre_nodes


class Potential:
    """Even-degree polynomial V with positive leading coefficient.

    scale_n is folded into the coefficients once at construction, so the
    stored polynomial is the effective exponent of exp(-V).
    """

    def __init__(self, coeffs, scale_n=1):
        s = mp.mpf(scale_n)
        if not s > 0:
            raise IntegrabilityError("scale_n must be positive")
        poly = Poly([s * mp.mpf(c) for c in coeffs])
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
    def parse(cls, text: str, scale_n=1) -> "Potential":
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(p == "" for p in parts):
            raise ValueError(f"malformed coefficient list: {text!r}")
        return cls([mp.mpf(p) for p in parts], scale_n=scale_n)

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
    """Smallest R >= 1 with R^i_max exp(-V(R)) < tol."""
    tol = mp.mpf(tol)

    def small(r):
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
    """Support half-width: smallest R with R^i_max exp(-V(R)) < tol/100,
    doubled for safety.  Returns (base, doubled)."""
    base = _tail_radius(V, i_max, mp.mpf(tol) / 100)
    return base, 2 * base


def _power_sums(xs, cur, count):
    """mp.fsum of cur, cur * x, cur * x^2, ...: count vectors over the
    nodes xs, each formed from the one before, on raw tuples.  For the
    Gauss-Legendre panels, whose nodes are not lattice points."""
    xs = [x._mpf_ for x in xs]
    cur = [c._mpf_ for c in cur]
    out = []
    for i in range(count):
        if i > 0:
            cur = vmul_raw(cur, xs)
        out.append(fsum_raw(cur))
    return out


def _index_powers(ks, count):
    """The exact powers k^i of the lattice indices ks, i < count, as ints."""
    cur = [1] * len(ks)
    for i in range(count):
        if i > 0:
            cur = list(map(mul, cur, ks))
        yield cur


def _lattice_moments(vec, count, level, absolute=False):
    """h^(i+1) sum_k vec_k k^i, i < count, for values vec on the whole
    lattice k h, h = 2^-level, k from -n to n: the integrals of x^i vec by
    the trapezoid rule.  x^i h = k^i h^(i+1) with k^i an exact int and
    h^(i+1) a power of two, so each moment is an exact integer sum
    (numerics.fixed) rounded once.  With absolute, each comes paired with
    the sum of its absolute terms."""
    n = len(vec) // 2
    v = fixed([x._mpf_ for x in vec])
    va = list(map(abs, v[0])), v[1]
    out = []
    for i, p in enumerate(_index_powers(range(-n, n + 1), count)):
        e = -level * (i + 1)
        m = fixed_dot(v, (p, e))
        out.append((m, fixed_dot(va, (list(map(abs, p)), e))) if absolute else m)
    return out


class WeightTable:
    """Grid data, moments, beta = 1 pairings and half-line integral tables
    for one potential.

    Holds master-grid data only, and no caches: densities at other points,
    real or complex, are return values of weights_at, and vectors over the
    active nodes (w_values) are built per call.  The nodes xs cover the
    whole lattice; exp(-V) (aew), exp(-2V) (aew2) and the half-line
    integrals F cover the active slice, F from the node just below it.
    The weight of every node is the step h.  The level is fixed when the
    table is built, by the moments and the pairing block P together;
    ensure_ranges rebuilds the table for wider ranges, and `version`
    changes whenever it does, for consumers keyed on it.
    """

    panel_order = 20
    panel_max_width = 0.25
    min_level = 1
    max_level = 11

    def __init__(self, potential: Potential, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 i_max: int = 8, w_max: int = 0):
        self.potential = potential
        self.ctx = ctx
        self._prec = ctx.mantissa_bits + 16
        self.version = 0
        with mp.workprec(self._prec):
            self.tol = mp.mpf(ctx.quad_tol)
        self.i_max = self.w_max = -1  # no grid until ensure_ranges builds one
        i_max = max(2, int(i_max))
        self.ensure_ranges(i_max, max(0, int(w_max)))

    # -- construction ------------------------------------------------------

    def _grid_at_level(self, level, known):
        """The lattice nodes k * 2^-level in [-radius, radius], in order,
        and their exp(-V); known maps the nodes of a coarser lattice (a
        sublattice, with the same bits) to their exp(-V)."""
        n = int(mp.floor(mp.ldexp(self.radius, level)))
        xs = [mp.ldexp(k, -level) for k in range(-n, n + 1)]
        ew = [known[x] if x in known else exp_e(-self.potential(x))
              for x in xs]
        return xs, ew

    def _build_grid(self):
        """Halve h from 1/2 until two lattices' moments agree within tol
        (the absolute terms' sum as the floor), and keep the finer one;
        then go at most two levels finer while a pairing fails its check."""
        prev, accepted = None, None
        known = {}
        for level in range(self.min_level, self.max_level + 1):
            xs, ew = self._grid_at_level(level, known)
            known = dict(zip(xs, ew))
            cur = _lattice_moments(ew, self.i_max + 1, level, absolute=True)
            if accepted is None and prev is not None and all(
                    abs(v - pv) <= self.tol * max(abs(v), sabs)
                    for (v, sabs), (pv, _) in zip(cur, prev)):
                accepted = level
            prev = cur
            if accepted is not None:
                self._install_grid(level, xs, ew, cur)
                failed = self._check_pairings()
                if failed is None:
                    return
                if level == accepted + 2:
                    raise QuadratureFailure(
                        "moment entry ({},{}) did not stabilize".format(*failed))
        raise QuadratureFailure("grid level cap reached" if accepted is not None
                                else "moment grid did not stabilize")

    def _install_grid(self, level, xs, ew, moments):
        """Make one level the table's grid: moments, active slice and the
        half-line integral tables."""
        self.level = level
        self.h = mp.ldexp(1, -level)
        self.xs = xs
        ew2 = [e * e for e in ew]
        self.m = [v for v, _ in moments]
        self.m2 = _lattice_moments(ew2, self.i_max + 1, level)
        self.active_radius = _tail_radius(self.potential, self.i_max,
                                          self.tol * mp.mpf('1e-4'))
        self.active_radius = min(self.active_radius, self.radius)
        lo = bisect.bisect_left(self.xs, -self.active_radius)
        hi = bisect.bisect_right(self.xs, self.active_radius)
        self._alo, self._ahi = lo, hi
        self.axs = self.xs[lo:hi]
        self.aew = ew[lo:hi]
        self.aew2 = ew2[lo:hi]
        # the lattice 2hZ: the active nodes k*h with k even, counted from
        # the centre node x = 0
        self.acoarse = range((lo - len(self.xs) // 2) % 2, hi - lo, 2)
        self._build_F()
        self.version += 1

    def _check_pairings(self):
        """P[j][i] = <x^i, y^j>_1 = h^(i+1) * sum k^i w_j(k h) over the
        active lattice indices k, for i < j <= w_max, each checked against
        the coarser lattice 2hZ (every second index, step doubled).  The
        fine sum, the coarse sum and the gap between them are exact integer
        sums (numerics.fixed), rounded once.  Returns the first (i, j) that
        fails its check, or None when the whole block passes."""
        n, s = len(self.xs) // 2, self.acoarse.start
        powers = [(p, p[s::2], list(map(abs, p))) for p in _index_powers(
            range(self._alo - n, self._ahi - n), self.w_max)]
        self.P = [[]]
        for j in range(1, self.w_max + 1):
            w, e = fixed([v._mpf_ for v in self.w_values(j)])
            wc = w[s::2]
            col = []
            for i, (p, pc, pa) in enumerate(powers[:j]):
                fine = sum(map(mul, p, w))
                # every weight is the step h, a power of two, so the check
                # runs on the bare sums, and the gap is formed exactly
                gap = fixed_round(abs(fine - 2 * sum(map(mul, pc, wc))), e)
                # absolute floor at the integrand mass: parity-zero entries
                # cancel only to round-off, which anything below it would
                # never accept
                if (gap > self.tol * abs(fixed_round(fine, e))
                        and gap > self.tol * fixed_round(
                            sum(map(mul, pa, map(abs, w))), e)):
                    return i, j
                col.append(fixed_round(fine, e - self.level * (i + 1)))
            self.P.append(col)
        return None

    # -- half-line integral tables ----------------------------------------

    def _panel_nodes(self, a, b):
        """Gauss-Legendre nodes/weights covering the segment from a to b
        (b may be complex) in short panels."""
        width = b - a
        if not width:
            return []
        pieces = max(1, int(mp.ceil(abs(width) / mp.mpf(self.panel_max_width))))
        gx, gw = legendre_nodes(self.panel_order, self._prec)
        out = []
        step = width / pieces
        for p in range(pieces):
            u = a + p * step
            c, r = u + step / 2, step / 2
            out.append(([c + r * x for x in gx], [r * w for w in gw]))
        return out

    def _panel_F(self, a, b, j_count):
        """Integrals of y^j exp(-V) over [a, b] for j = 0..j_count-1."""
        totals = [mp.mpf(0)] * j_count
        for ys, ws in self._panel_nodes(a, b):
            cur = [w * exp_e(-self.potential(y)) for w, y in zip(ws, ys)]
            for j, s in enumerate(_power_sums(ys, cur, j_count)):
                totals[j] += s
        return totals

    def _build_F(self):
        """F[j][k - _F_lo]: integral of y^j exp(-V) up to the node xs[k],
        for k from _F_lo = max(alo - 1, 0) through ahi - 1, the nodes that
        _F_at and w_values read.  Segments fully outside the active region
        carry mass below the validated error scale (tail bound) and are
        skipped, so a chain over the whole grid would add exact zeros up
        to _F_lo and give the kept entries the same bits."""
        n_j = self.w_max + 1
        cut = self.active_radius
        self._F_lo = lo = max(self._alo - 1, 0)
        F = [[] for _ in range(n_j)]
        zero = [mp.mpf(0)] * n_j
        prev_x = -self.radius
        run = list(zero)
        for x in self.xs[lo:self._ahi]:
            if x <= -cut:
                seg = zero
            else:
                seg = self._panel_F(max(prev_x, -cut), min(x, cut), n_j)
            run = [r + s for r, s in zip(run, seg)]
            for j in range(n_j):
                F[j].append(run[j])
            prev_x = x
        self.F = F

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

    def w_values(self, n: int):
        """w_n at the active grid nodes: exp(-V) * (2 F_n - m_n)."""
        if not 0 <= n <= self.w_max:
            raise MomentRangeExceeded(f"w_{n} beyond table ({self.w_max})")
        mn = self.m[n]
        Fn = self.F[n][self._alo - self._F_lo:]
        return [e * (2 * f - mn) for e, f in zip(self.aew, Fn)]

    # -- pointwise evaluation ---------------------------------------------

    def _F_at(self, x, j_count):
        x = mp.mpf(x)
        if x <= -self.active_radius:
            return [mp.mpf(0)] * j_count
        if x >= self.active_radius:
            return [self.m[j] for j in range(j_count)]
        k = bisect.bisect_right(self.xs, x) - 1
        if k < 0:
            return self._panel_F(-self.active_radius, x, j_count)
        seg = self._panel_F(self.xs[k], x, j_count)
        return [self.F[j][k - self._F_lo] + seg[j] for j in range(j_count)]

    def _segment_F(self, x, z, j_count):
        """Integrals of y^j exp(-V) along the segment from x to a complex z."""
        totals = [mp.mpc(0)] * j_count
        for ys, ws in self._panel_nodes(x, z):
            cur = [w * mp.exp(-self.potential(y)) for w, y in zip(ws, ys)]
            for j in range(j_count):
                if j:
                    cur = [c * y for c, y in zip(cur, ys)]
                totals[j] += mp.fsum(cur)
        return totals

    def weights_at(self, z, n_count: int):
        """(exp(-V(z)), exp(-2V(z)), [w_0(z) .. w_{n_count-1}(z)]).

        Anchored on the master grid at x = Re z; off the axis one more
        panel (pieces past panel_max_width) runs up the segment [x, z].
        One shared panel serves every w_n.
        """
        if n_count - 1 > self.w_max:
            raise MomentRangeExceeded(f"w_{n_count-1} beyond table ({self.w_max})")
        with mp.workprec(self._prec):
            z = mp.mpmathify(z)
            x = mp.mpf(mp.re(z))
            Fs = self._F_at(x, max(1, n_count))
            if mp.im(z):
                Fs = [f + s for f, s in zip(Fs, self._segment_F(x, z, len(Fs)))]
                ex = mp.exp(-self.potential(z))
            else:
                ex = exp_e(-self.potential(x))
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
