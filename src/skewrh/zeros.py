"""Polynomial root finding, reality/interlacing checks, and zero histograms.

Roots come from a simultaneous Aberth-Ehrlich iteration, seeded in
double precision from a perturbed circle and polished on integers at
least 64 bits above the context precision, as in MPSolve
(Bini-Fiorentino 2000): on the real line where p is real and the
seeds already isolate real roots, else on Gaussian integers.  At each
root z_i returned, p is bounded from above on integers, for the
residual check and for Smith's inclusion radius
r_i = n|p(z_i)| / |c_n prod_(j != i) (z_i - z_j)| (B. T. Smith, J. ACM
17, 1970): the discs |z - z_i| <= r_i cover every root, and a disc that
meets no other holds exactly one.  If p and z_i are real and disc i
meets no other, the conjugate of its one root is a root in the same
disc, so the two coincide and the root is real: real points with
pairwise disjoint discs are returned exactly real.
Interlacing compares two root reports whose
degrees differ by one (consecutive classical polynomials) or two
(consecutive same-parity family members): the lower-degree roots must
sit strictly inside the higher-degree hull, every gap of the lower
polynomial must catch at least one higher root, and no gap of the
higher polynomial may catch more than one lower root.  Reality is
judged against a tolerance proportional to the root scale, separate
from the algebraic verification tolerance.
"""
from __future__ import annotations

import bisect
import cmath
import dataclasses
from math import inf, isqrt, prod

from mpmath import mp
from mpmath.libmp import from_man_exp, round_ceiling, to_fixed

from .errors import NoConvergence, NotReal
from .numerics import (DEFAULT_CONTEXT, Poly, PrecisionContext, fixed,
                       fixed_complex, fixed_round, poly_derivative)

REALITY_FACTOR = "1e-10"
MAX_SWEEPS = 220   # at the working precision; past it, NoConvergence
SEED_SWEEPS = 220  # in double; past it, the seeds go on unconverged
RADIUS_BITS = 64  # the radii's bits below 2^-F


@dataclasses.dataclass(frozen=True)
class RootReport:
    """All roots of one polynomial, with reality metadata.

    roots are sorted by (real, imag); sorted_real_parts carries just the
    real parts in increasing order.  radii are upper bounds on Smith's
    inclusion radii, one per root (0 for a deflated exact zero): every
    root lies in the union of the discs, and a disc that meets no other
    holds exactly one.  max_imag is 0 whenever roots has proved every
    root real by those discs.
    """

    roots: tuple
    max_imag: object
    sorted_real_parts: tuple
    radii: tuple

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def scale(self):
        """Largest root modulus (zero for the all-zero root set)."""
        return max(abs(z) for z in self.roots)


@dataclasses.dataclass(frozen=True)
class Histogram:
    """Normalized counts over uniform bins; len(edges) == len(mass) + 1."""

    edges: tuple
    mass: tuple


class _DoublePoly(Poly):
    """Python complex coefficients, for the seeding stage."""
    __slots__ = ()
    _scalar = staticmethod(complex)


def _sweeps(poly, dpoly, zs, radius, tol, ulp, limit):
    """Aberth-Ehrlich sweeps in double precision on the seeds zs, in
    place, until every step is below tol relative to the root outside
    the unit disk, or for limit sweeps."""
    n = len(zs)
    for _ in range(limit):
        max_step = 0
        for i in range(n):
            z = zs[i]
            dv = dpoly(z)
            if dv == 0:
                zs[i] = z + radius * ulp + tol
                max_step = radius
                continue
            newton = poly(z) / dv
            repulse = 0
            for j in range(n):
                if j == i:
                    continue
                diff = z - zs[j]
                if diff == 0:
                    diff = radius * ulp
                repulse += 1 / diff
            den = 1 - newton * repulse
            step = newton if den == 0 else newton / den
            zs[i] = z - step
            # an absolute step of tol is out of reach for a root of size 1e45
            max_step = max(max_step, abs(step) / max(1, abs(z)))
        if max_step < tol:
            return


def _polish(cs, zs, fbits, radius, tol_bits):
    """The same sweeps on Gaussian integers, in place on zs: points,
    radius and monic coefficients cs at 2^-fbits, the repulsion sum fine
    enough that a Newton step of up to radius times its error stays far
    below 1.  Returns None once every step is below 2^-tol_bits times
    max(1, |z|), compared exactly, else the largest relative step."""
    one, fine = 1 << fbits, radius >> mp.prec  # fine: radius * ulp
    rbits = max(fbits, mp.prec + radius.bit_length() - fbits)
    (lr, li), rest = cs[-1], cs[-2::-1]
    for _ in range(MAX_SWEEPS):
        steps = []
        for i, (zr, zi) in enumerate(zs):
            pr, pi, dr, di = lr, li, 0, 0  # Horner for p and p' together
            for cr, ci in rest:
                dr, di = (((dr * zr - di * zi) >> fbits) + pr,
                          ((dr * zi + di * zr) >> fbits) + pi)
                pr, pi = (((pr * zr - pi * zi) >> fbits) + cr,
                          ((pr * zi + pi * zr) >> fbits) + ci)
            dd = dr * dr + di * di
            if dd == 0:
                zs[i] = (zr + fine + (one >> tol_bits), zi)
                steps.append((radius * radius, one * one))
                continue
            nr = ((pr * dr + pi * di) << fbits) // dd
            ni = ((pi * dr - pr * di) << fbits) // dd
            rr = ri = 0
            for j, (wr, wi) in enumerate(zs):
                if j != i:
                    ar, ai = zr - wr, zi - wi
                    ar = fine if ar == ai == 0 else ar
                    aa = ar * ar + ai * ai
                    rr += (ar << fbits + rbits) // aa
                    ri -= (ai << fbits + rbits) // aa
            er = one - ((nr * rr - ni * ri) >> rbits)
            ei = -((nr * ri + ni * rr) >> rbits)
            ee = er * er + ei * ei
            sr, si = (nr, ni) if ee == 0 else (
                ((nr * er + ni * ei) << fbits) // ee,
                ((ni * er - nr * ei) << fbits) // ee)
            zs[i] = (zr - sr, zi - si)
            steps.append((sr * sr + si * si, max(one * one, zr * zr + zi * zi)))
        if all(a << 2 * tol_bits < b for a, b in steps):
            return None
    return max(mp.sqrt(mp.mpf(a) / b) for a, b in steps)


def _isolated(poly, zs):
    """Whether Smith's discs about the double seeds zs of the real poly,
    from |p(z_i)| plus Horner's error bound, have pairwise disjoint
    shadows on the real axis, up to the rounding of this test.  Then each
    disc holds one root, and its conjugate, a root in a disc with the
    same shadow, is that root: every root is real.  A complex pair or a
    multiple root fails it."""
    n, cs = len(zs), poly.coeffs
    discs = []
    for z in zs:
        top = abs(poly(z)) + 4 * n * 2.0 ** -53 * sum(
            abs(c) * abs(z) ** k for k, c in enumerate(cs))
        den = abs(cs[-1]) * prod(abs(z - w) for w in zs if w != z)
        discs.append((z.real, n * top / den if den else inf))
    discs.sort()
    return all(b - a > r + s for (a, r), (b, s) in zip(discs, discs[1:]))


def _floor64(d):
    """(d >> s, s) for an int d >= 0, d >> s below 2^64: a lower bound."""
    s = max(0, d.bit_length() - 64)
    return d >> s, s


def _certify(cs, exp, zs, fbits, low):
    """Round the points zs ((re, im) ints at 2^-fbits) to the working
    precision and bound q = p / x^low from above there, on integers (cs:
    its coefficients, (re, im) ints at 2^exp, exact).  Returns the points
    (mpc), upper bounds on |p(z)| and on Smith's radii (inf where two
    points coincide), and whether the points are real with pairwise
    disjoint discs.  Horner runs at 2^-wbits with floored products: for
    |z| < a its error stays below b, b <- a b + 2 per step.  |c_n| and
    each |z_i - z_j| are floored to 64 bits.  The radii belong to the
    points returned, so neither their rounding nor that of the monic
    coefficients the polish ran on enters them.
    """
    n, gbits = len(zs), fbits + RADIUS_BITS
    wbits = max(gbits, -exp)
    points = [mp.mpc(fixed_round(zr, -fbits), fixed_round(zi, -fbits))
              for zr, zi in zs]
    zs = [(to_fixed(z.real._mpf_, fbits), to_fixed(z.imag._mpf_, fbits))
          for z in points]  # exact: every point lies on 2^-fbits
    cs = [(cr << exp + wbits, ci << exp + wbits) for cr, ci in cs]
    (lr, li), rest = cs[-1], cs[-2::-1]
    lead, ls = _floor64(isqrt(lr * lr + li * li))  # |c_n| at 2^-wbits
    residuals, radii = [], []
    for i, (zr, zi) in enumerate(zs):
        a = isqrt(zr * zr + zi * zi) + 1  # |z| < a 2^-fbits
        pr, pi, b = lr, li, 0
        for cr, ci in rest:
            pr, pi = (((pr * zr - pi * zi) >> fbits) + cr,
                      ((pr * zi + pi * zr) >> fbits) + ci)
            b = -(-b * a >> fbits) + 2
        top = isqrt(pr * pr + pi * pi) + 1 + b  # |q(z)| < top 2^-wbits
        residuals.append(mp.make_mpf(from_man_exp(
            top * a ** low, -wbits - low * fbits, 64, round_ceiling)))
        # |c_n prod (z_i - z_j)| >= den 2^(gbits - wbits - e)
        den, e = lead, gbits + (n - 1) * fbits - ls
        for j, (wr, wi) in enumerate(zs):
            if j != i:  # |z_i - z_j| at 2^-fbits, floored
                g, s = _floor64(abs(zr - wr) if zi == wi else
                                isqrt((zr - wr) ** 2 + (zi - wi) ** 2))
                den *= g
                e -= s
        # the radius at 2^-gbits, rounded up
        radii.append(-(-n * top << max(e, 0)) // (den << max(-e, 0))
                     if den else None)
    order = sorted(range(n), key=lambda i: zs[i])
    real = None not in radii and all(zi == 0 for _, zi in zs) and all(
        (zs[b][0] - zs[a][0]) << RADIUS_BITS > radii[a] + radii[b]
        for a, b in zip(order, order[1:]))
    radii = [mp.inf if r is None else
             mp.make_mpf(from_man_exp(r, -gbits, 64, round_ceiling))
             for r in radii]
    return points, residuals, radii, real


def _aberth(coeffs, low, tol_bits):
    """Simultaneous root iteration for q, its coefficients coeffs (mpf
    or mpc, degree >= 1, a nonzero constant term), the factor of
    p = x^low q; returns _certify's (points, residuals, radii, real) for
    its roots, in arbitrary order.

    Sweeps in double precision from a perturbed circle give the seeds,
    converged or not after SEED_SWEEPS; sweeps on integers polish them
    until every step is below 2^-tol_bits, measured relative to the root
    outside the unit disk.  Where q is real and the seeds' discs already
    isolate real roots in double (_isolated), the polish runs from their
    real parts, whose imaginary parts then stay 0, and its points stand if
    their discs are disjoint (_certify), which proves them real.
    Otherwise, or where that polish stalls, it runs from the seeds
    themselves.  It starts from the circle instead where a coefficient or
    start point is not finite in double (or the leading coefficient
    underflows), or the double run ends on non-finite or coinciding
    points.  The polish holds points at 2^-F, F the working precision
    plus the bits below 1 of Cauchy's lower root bound
    |c_0|/(|c_0| + max|c_i|), so that the smallest root keeps the working
    precision relative to its own size (coefficients are made monic
    first).
    """
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs[:-1]] + [mp.mpf(1)]
    size = [abs(c) for c in monic]
    radius = 1 + max(size[:-1])
    fpoly = _DoublePoly(coeffs)
    fdpoly = poly_derivative(fpoly)
    # the unit circle, pushed out by distinct small factors and turned off
    # the axes, in double
    unit = [cmath.rect(1 + (i % 7 + 1) / (50 * (n + 6)),
                       2 * cmath.pi * i / n + 0.7 / n + 0.25) for i in range(n)]
    seeds = [float(radius) * u for u in unit]
    given = fpoly.coeffs + fdpoly.coeffs + tuple(seeds)
    zs, real = None, False
    if fpoly.degree == n and all(map(cmath.isfinite, given)):
        try:
            _sweeps(fpoly, fdpoly, seeds, float(radius), 2.0 ** (16 - 53),
                    2.0 ** -53, SEED_SWEEPS)
            if all(map(cmath.isfinite, seeds)) and len(set(seeds)) == n:
                zs = seeds
                real = all(not c.imag for c in coeffs) and _isolated(fpoly, zs)
        except OverflowError:  # abs() or a power past the double range
            pass
    fbits = mp.prec + max(0, -mp.mag(size[0] / (size[0] + max(size[1:]))))
    cs, exp = fixed([x for c in coeffs for x in (c.real._mpf_, c.imag._mpf_)])
    cs = list(zip(cs[::2], cs[1::2]))
    mcs = [fixed_complex(c, fbits) for c in monic]
    fradius = to_fixed(radius._mpf_, fbits)
    if zs is None:
        zs = [radius * mp.mpc(u) for u in unit]
    elif real:
        xs = [(fixed_complex(z.real, fbits)[0], 0) for z in zs]
        if _polish(mcs, xs, fbits, fradius, tol_bits) is None:
            found = _certify(cs, exp, xs, fbits, low)
            if found[3]:
                return found
    zs = [fixed_complex(z, fbits) for z in zs]
    max_step = _polish(mcs, zs, fbits, fradius, tol_bits)
    if max_step is None:
        return _certify(cs, exp, zs, fbits, low)
    raise NoConvergence(
        f"root iteration stalled: max step {mp.nstr(max_step, 6)} "
        f"after {MAX_SWEEPS} sweeps (tolerance 2^-{tol_bits})"
    )


def roots(p: Poly, ctx: PrecisionContext = DEFAULT_CONTEXT) -> RootReport:
    """Find all complex roots of p and package them as a RootReport.

    Exact zero constant terms are deflated first, so parity-symmetric
    polynomials report their origin root exactly.  After convergence p
    is bounded from above on integers at every root returned (_certify);
    that residual must stay below 2^(16 - mantissa_bits) times the
    coefficient norm at root scale.  The same bounds give each root's
    Smith radius (RootReport.radii).
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    prec = ctx.mantissa_bits + 64
    with mp.workprec(prec):
        tol = mp.mpf(2) ** (16 - ctx.mantissa_bits)
        low = 0
        while p.coeffs[low] == 0:
            low += 1
        found = [(mp.mpc(0), mp.mpf(0), mp.mpf(0))] * low
        if low < p.degree:
            found.extend(zip(*_aberth(p.coeffs[low:], low,
                                      ctx.mantissa_bits - 16)[:3]))
        found.sort(key=lambda f: (f[0].real, f[0].imag))
        zs = [z for z, _, _ in found]
        scale = max(1, max(abs(z) for z in zs))
        norm = mp.fsum(abs(c) * scale ** s for s, c in enumerate(p.coeffs))
        worst = max(res for _, res, _ in found)
        if not worst <= tol * norm:
            raise NoConvergence(
                f"root residual {mp.nstr(worst, 6)} exceeds "
                f"{mp.nstr(tol * norm, 6)}"
            )
        return RootReport(
            roots=tuple(zs),
            max_imag=max(abs(z.imag) for z in zs),
            sorted_real_parts=tuple(sorted(z.real for z in zs)),
            radii=tuple(r for _, _, r in found),
        )


def _require_real(reports):
    """Raise NotReal past REALITY_FACTOR times the largest root scale."""
    reality_tol = mp.mpf(REALITY_FACTOR) * max(r.scale for r in reports)
    worst = max(r.max_imag for r in reports)
    if worst > reality_tol:
        raise NotReal(
            f"imaginary part {mp.nstr(worst, 6)} exceeds reality tolerance "
            f"{mp.nstr(reality_tol, 6)}"
        )


def interlacing(a: RootReport, b: RootReport) -> bool:
    """True when the roots of a strictly interlace those of b.

    a is the lower-degree report; the degree gap must be 1 or 2 (equal
    degrees compare False, since strict interlacing is impossible).
    Raises NotReal when either report has roots off the real axis
    beyond the reality tolerance.
    """
    gap = b.degree - a.degree
    if gap == 0:
        return False
    if gap not in (1, 2):
        raise ValueError("degree gap must be 1 or 2 for interlacing")
    with mp.workprec(max(mp.prec, 64)):
        _require_real((a, b))
        lo = list(a.sorted_real_parts)
        hi = list(b.sorted_real_parts)
        merged = sorted(lo + hi)
        if any(x == y for x, y in zip(merged, merged[1:])):
            return False
        if not (hi[0] < lo[0] and lo[-1] < hi[-1]):
            return False
        for x, y in zip(lo, lo[1:]):
            if bisect.bisect_left(hi, y) - bisect.bisect_right(hi, x) < 1:
                return False
        for x, y in zip(hi, hi[1:]):
            if bisect.bisect_left(lo, y) - bisect.bisect_right(lo, x) > 1:
                return False
        return True


def empirical_distribution(reports, bins: int = 40) -> Histogram:
    """Pool the (real) roots of several reports into a normalized histogram.

    Bins are uniform over [min, max] of the pooled roots; the last bin
    is closed on the right.  A single distinct value collapses to one
    bin of mass 1.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one root report")
    if bins < 1:
        raise ValueError("bin count must be positive")
    with mp.workprec(max(mp.prec, 128)):
        _require_real(reports)
        xs = sorted(x for r in reports for x in r.sorted_real_parts)
        lo, hi = xs[0], xs[-1]
        total = len(xs)
        if lo == hi:
            return Histogram(edges=(lo, hi), mass=(mp.mpf(1),))
        width = (hi - lo) / bins
        counts = [0] * bins
        for x in xs:
            idx = int(mp.floor((x - lo) / width))
            counts[min(idx, bins - 1)] += 1
        edges = tuple(lo + width * i for i in range(bins)) + (hi,)
        return Histogram(edges=edges,
                         mass=tuple(mp.mpf(c) / total for c in counts))
