"""Polynomial root finding, reality/interlacing checks, and zero histograms.

Roots come from a simultaneous Aberth-Ehrlich iteration, seeded in
double precision from a perturbed circle, polished on Gaussian integers
at least 64 bits above the context precision, as in MPSolve
(Bini-Fiorentino 2000), and verified by back-substitution in mpc
arithmetic.  Interlacing compares two root reports whose
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

from mpmath import mp

from .errors import NoConvergence, NotReal
from .numerics import (CPoly, DEFAULT_CONTEXT, Poly, PrecisionContext,
                       fixed_complex, fixed_round, poly_derivative)

REALITY_FACTOR = "1e-10"
MAX_SWEEPS = 220   # at the working precision; past it, NoConvergence
SEED_SWEEPS = 220  # in double; past it, the seeds go on unconverged


@dataclasses.dataclass(frozen=True)
class RootReport:
    """All roots of one polynomial, with reality metadata.

    roots are sorted by (real, imag); sorted_real_parts carries just the
    real parts in increasing order.
    """

    roots: tuple
    max_imag: object
    sorted_real_parts: tuple

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


def _aberth(poly: CPoly, tol_bits):
    """Simultaneous root iteration for a polynomial of degree >= 1 with
    a nonzero constant term.

    Sweeps in double precision from a perturbed circle give the seeds,
    converged or not after SEED_SWEEPS; sweeps on Gaussian integers
    polish them until every step is below 2^-tol_bits, measured
    relative to the root outside the unit disk.  They start from the
    circle instead where a coefficient or start point is not finite in
    double (or the leading coefficient underflows), or the double run
    ends on non-finite or coinciding points.  The polish holds points at
    2^-F, F the working precision plus the bits below 1 of Cauchy's
    lower root bound |c_0|/(|c_0| + max|c_i|), so that the smallest root
    keeps the working precision relative to its own size (coefficients
    are made monic first).  Returns the roots in arbitrary order.
    """
    coeffs = poly.coeffs
    n = poly.degree
    monic = [c / coeffs[-1] for c in coeffs[:-1]] + [mp.mpc(1)]
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
    zs = None
    if fpoly.degree == n and all(map(cmath.isfinite, given)):
        try:
            _sweeps(fpoly, fdpoly, seeds, float(radius), 2.0 ** (16 - 53),
                    2.0 ** -53, SEED_SWEEPS)
            if all(map(cmath.isfinite, seeds)) and len(set(seeds)) == n:
                zs = seeds
        except OverflowError:  # abs() of a point past the double range
            pass
    if zs is None:
        zs = [radius * mp.mpc(u) for u in unit]
    fbits = mp.prec + max(0, -mp.mag(size[0] / (size[0] + max(size[1:]))))
    zs = [fixed_complex(z, fbits) for z in zs]
    max_step = _polish([fixed_complex(c, fbits) for c in monic], zs, fbits,
                       fixed_complex(radius, fbits)[0], tol_bits)
    if max_step is None:
        return [mp.mpc(fixed_round(zr, -fbits), fixed_round(zi, -fbits))
                for zr, zi in zs]
    raise NoConvergence(
        f"root iteration stalled: max step {mp.nstr(max_step, 6)} "
        f"after {MAX_SWEEPS} sweeps (tolerance 2^-{tol_bits})"
    )


def roots(p: Poly, ctx: PrecisionContext = DEFAULT_CONTEXT) -> RootReport:
    """Find all complex roots of p and package them as a RootReport.

    Exact zero constant terms are deflated first, so parity-symmetric
    polynomials report their origin root exactly.  After convergence
    every root is re-substituted in mpc at mantissa_bits + 64 bits; the
    residual must stay below 2^(16 - mantissa_bits) times the
    coefficient norm at root scale.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    prec = ctx.mantissa_bits + 64
    with mp.workprec(prec):
        tol = mp.mpf(2) ** (16 - ctx.mantissa_bits)
        cp = CPoly(p.coeffs)
        low = 0
        while cp.coeffs[low] == 0:
            low += 1
        found = [mp.mpc(0)] * low
        if low < cp.degree:
            found.extend(_aberth(CPoly(cp.coeffs[low:]),
                                 ctx.mantissa_bits - 16))
        found.sort(key=lambda z: (z.real, z.imag))
        scale = max(1, max(abs(z) for z in found))
        norm = mp.fsum(abs(c) * scale ** s for s, c in enumerate(p.coeffs))
        worst = max(abs(cp(z)) for z in found)
        if not worst <= tol * norm:
            raise NoConvergence(
                f"root residual {mp.nstr(worst, 6)} exceeds "
                f"{mp.nstr(tol * norm, 6)}"
            )
        return RootReport(
            roots=tuple(found),
            max_imag=max(abs(z.imag) for z in found),
            sorted_real_parts=tuple(sorted(z.real for z in found)),
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
