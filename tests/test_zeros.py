"""Root finding, reality and interlacing checks, and zero histograms."""

import random

import pytest
from mpmath import mp

from skewrh import zeros
from skewrh.errors import NoConvergence, NotReal
from skewrh.numerics import CPoly, Poly
from skewrh.potentials import Potential
from skewrh.skewalg import skew_orthogonal_family
from skewrh.zeros import (
    Histogram,
    RootReport,
    empirical_distribution,
    interlacing,
    roots,
)


def _report(*vals):
    """Synthetic all-real report with exact root values."""
    xs = tuple(sorted(mp.mpf(v) for v in vals))
    return RootReport(roots=tuple(mp.mpc(x) for x in xs), max_imag=mp.mpf(0),
                      sorted_real_parts=xs, radii=(mp.mpf(0),) * len(xs))


def test_quadratic_roots(ctx):
    rep = roots(Poly([mp.mpf("-0.5"), 0, 1]), ctx)
    target = 1 / mp.sqrt(2)
    assert rep.degree == 2
    assert abs(rep.sorted_real_parts[0] + target) <= mp.mpf("1e-50")
    assert abs(rep.sorted_real_parts[1] - target) <= mp.mpf("1e-50")
    assert rep.max_imag <= mp.mpf("1e-50")


def test_cubic_roots_exact_origin(ctx):
    rep = roots(Poly([0, mp.mpf("-2.5"), 0, 1]), ctx)
    target = mp.sqrt(mp.mpf("2.5"))
    assert rep.roots[1] == 0  # deflated before iteration, hence exact
    assert abs(rep.sorted_real_parts[0] + target) <= mp.mpf("1e-50")
    assert abs(rep.sorted_real_parts[2] - target) <= mp.mpf("1e-50")


def test_huge_spurious_root_converges(ctx):
    # quadrature noise in a top coefficient puts a root near -5e44, where
    # an absolute step test can never pass.  The float 2e-45 has a 53-bit
    # mantissa, the mpf one the full working precision, and 3^-300 lies
    # below the polish's 2^-F grid: every root, the one near -1/top
    # included, must match polyroots relative to max(1, |z|)
    target = 1 / mp.sqrt(2)
    tol = mp.mpf(2) ** (16 - ctx.mantissa_bits)
    for top in (2e-45, mp.mpf("2e-45"), mp.mpf(3) ** -300):
        p = Poly([-0.5, 3e-45, 1, top])
        rep = roots(p, ctx)
        finite = [x for x in rep.sorted_real_parts if abs(x) < 10]
        assert len(finite) == 2
        assert abs(finite[0] + target) <= mp.mpf("1e-40")
        assert abs(finite[1] - target) <= mp.mpf("1e-40")
        with mp.workprec(2 * ctx.mantissa_bits):
            want = sorted(mp.polyroots(p.coeffs[::-1], maxsteps=200,
                                       extraprec=2 * ctx.mantissa_bits),
                          key=lambda z: (mp.re(z), mp.im(z)))
            for g, w in zip(rep.roots, want):
                assert abs(g - w) <= tol * max(1, abs(w)), (top, g, w)


def test_chebyshev_roots(ctx):
    # T_n has the roots cos((2k-1) pi/2n); for odd n the root 0 is deflated
    prev, cur = Poly([1]), Poly([0, 1])
    for n in range(1, 14):
        rep = roots(cur, ctx)
        want = sorted(mp.cos((2 * k - 1) * mp.pi / (2 * n))
                      for k in range(1, n + 1))
        assert rep.max_imag <= mp.mpf("1e-70"), n
        for got, w in zip(rep.sorted_real_parts, want):
            assert abs(got - w) <= mp.mpf("1e-70"), n
        assert (mp.mpc(0) in rep.roots) == (n % 2 == 1), n
        prev, cur = cur, Poly([0, 2]) * cur - prev


def test_double_overflow_falls_back_to_the_circle(ctx, monkeypatch):
    # a real quadratic with real roots runs the double stage, then the
    # integer polish on the real line from the real parts of its seeds;
    # coefficients of 1e400 are infinite in double, so the Gaussian polish
    # starts from the circle of radius 1 + max|c_i/c_n| = 3
    stages = []
    sweeps = zeros._sweeps

    def spy_sweeps(*args):
        stages.append(("double", None))
        return sweeps(*args)

    calls = _spy_polish(monkeypatch)
    monkeypatch.setattr(zeros, "_sweeps", spy_sweeps)
    rep = roots(Poly([-0.5, 0, 1]), ctx)
    assert [kind for kind, _ in stages] == ["double"]
    assert [kind for kind, _, _ in calls] == ["real"]
    for start in calls[0][1]:
        assert abs(abs(start) - 1 / mp.sqrt(2)) <= mp.mpf("1e-12")
    assert rep.max_imag == 0
    # coefficients of 1e-400 underflow in double and lie below 2^-F: the
    # polish makes them monic before it holds them as ints
    for size in ("1e400", "1e-400"):
        stages.clear()
        calls.clear()
        c = mp.mpf(size)
        rep = roots(Poly([-2 * c, c, c]), ctx)
        assert stages == []
        assert [kind for kind, _, _ in calls] == ["gaussian"]
        for start in calls[0][1]:
            assert 3 < abs(start) < mp.mpf("3.1")
        for got, want in zip(rep.sorted_real_parts, (-2, 1)):
            assert abs(got - want) <= mp.mpf("1e-70")
        assert rep.max_imag <= mp.mpf("1e-70")


def test_polish_resolves_a_root_below_the_working_precision(ctx):
    # x^2 + x + eps, eps = 2^-400: the small root is -eps - eps^2 - ...,
    # 80 bits below the 2^-320 grid of an F without Cauchy's lower-bound
    # bits, where the residual check alone would accept 0
    eps = mp.mpf(2) ** -400
    rep = roots(Poly([eps, 1, 1]), ctx)
    rel = mp.mpf(2) ** -ctx.mantissa_bits
    assert abs(rep.roots[1] + eps) <= eps * rel
    assert abs(rep.roots[0] + 1 + eps) <= rel


def test_family_roots_against_polyroots(fam1_quartic, fam1_gauss, ctx):
    sextic = skew_orthogonal_family(Potential.parse("0,0,0.5,0,0,0,1"), 1, 6,
                                    ctx)
    tol = mp.mpf(2) ** (16 - ctx.mantissa_bits)
    for fam in (fam1_quartic, sextic, fam1_gauss):
        for m in range(1, 14):
            p = fam.polys[m]
            rep = roots(p, ctx)
            got = rep.roots
            assert len(got) == m
            # the real path: every disc isolated, so every root is real
            assert rep.max_imag == 0, m
            with mp.workprec(2 * ctx.mantissa_bits):
                want = sorted(mp.polyroots(p.coeffs[::-1], maxsteps=200,
                                           extraprec=2 * ctx.mantissa_bits),
                              key=lambda z: (mp.re(z), mp.im(z)))
                for g, w, r in zip(got, want, rep.radii):
                    assert abs(g - w) <= tol * max(1, abs(w)), (m, g, w)
                    assert abs(g - w) <= r, (m, g, w, r)


def test_polish_sweep_cap_raises(ctx, monkeypatch):
    # from double seeds the first sweep still steps by ~2^-50
    monkeypatch.setattr(zeros, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence, match="after 1 sweeps"):
        roots(Poly([-0.5, 0, 1]), ctx)


def test_polish_needs_few_sweeps(fam1_quartic, ctx, monkeypatch):
    # from double-precision seeds every member converges within 4 sweeps
    # at the working precision; from the circle p_13 needs 22
    monkeypatch.setattr(zeros, "MAX_SWEEPS", 4)
    for i in range(1, 14):
        rep = roots(fam1_quartic.polys[i], ctx)
        assert rep.degree == i
        assert rep.max_imag <= mp.mpf(1e-10) * rep.scale, i


def _spy_polish(monkeypatch):
    """The (kind, start points, result) of each call of the integer
    polish: "real" where every start point lies on the real axis."""
    calls, polish = [], zeros._polish

    def spy(cs, zs, fbits, *rest):
        assert all(type(v) is int for z in cs + zs for v in z)
        kind = "gaussian" if any(zi for _, zi in zs) else "real"
        starts = [mp.mpc(*z) * mp.ldexp(1, -fbits) for z in zs]
        calls.append((kind, starts, polish(cs, zs, fbits, *rest)))
        return calls[-1][2]

    monkeypatch.setattr(zeros, "_polish", spy)
    return calls


@pytest.mark.parametrize("kind, p", [("real", Poly([-0.5, 0, 1])),
                                     ("gaussian", Poly([1, 0, 1]))])
def test_residual_check_sees_a_moved_root(ctx, monkeypatch, kind, p):
    # one root moved by 2^-100 of its size after the polish: its disc is
    # still isolated, so only the residual bound can refuse it
    calls = _spy_polish(monkeypatch)
    polish = zeros._polish

    def moved(cs, zs, *rest):
        out = polish(cs, zs, *rest)
        zr, zi = zs[0]
        zs[0] = (zr + (zr >> 100), zi + (zi >> 100))
        return out

    monkeypatch.setattr(zeros, "_polish", moved)
    with pytest.raises(NoConvergence, match="root residual .* exceeds"):
        roots(p, ctx)
    assert [k for k, _, _ in calls] == [kind]


@pytest.mark.parametrize("forced", [False, True])
def test_reality_gap_is_not_certified(ctx, monkeypatch, forced):
    # (x - 1)^2 + 1e-24 has the roots 1 +- 1e-12 i, below REALITY_FACTOR
    # times the root scale.  The real path is refused: by the seeds' discs
    # in double, or, with those let through, by the polish on the real
    # line, which finds no real root.  The discs, which miss the real
    # axis, prove the pair complex, yet _require_real accepts it: today's
    # meaning of NotReal, pinned here
    calls = _spy_polish(monkeypatch)
    if forced:
        monkeypatch.setattr(zeros, "_isolated", lambda *args: True)
    with mp.workprec(ctx.mantissa_bits):
        p = Poly([1 + mp.mpf("1e-24"), -2, 1])
    rep = roots(p, ctx)
    assert [k for k, _, _ in calls] == ["real"] * forced + ["gaussian"]
    if forced:
        assert calls[0][2] is not None  # the polish on the real line stalls
    for z, r in zip(rep.roots, rep.radii):
        assert abs(abs(z.imag) - mp.mpf("1e-12")) <= mp.mpf("1e-30")
        assert r < abs(z.imag)
    zeros._require_real([rep])


def test_overlapping_discs_fall_back(ctx, monkeypatch):
    # (x - 1)^2 + 2^-600, its roots 1 +- 2^-300 i: the seeds' discs in
    # double overlap, as for any multiple root, so the polish runs from the
    # seeds themselves.  Let through by force, the polish on the real line
    # converges on two points whose discs overlap (the monic coefficients
    # on 2^-F hold (x - 1)^2), and the polish from the seeds runs after it
    calls = _spy_polish(monkeypatch)
    with mp.workprec(2 * ctx.mantissa_bits + 100):
        p = Poly([1 + mp.mpf(2) ** -600, -2, 1])
    for forced in (False, True):
        calls.clear()
        if forced:
            monkeypatch.setattr(zeros, "_isolated", lambda *args: True)
        rep = roots(p, ctx)
        assert [(k, out) for k, _, out in calls] == (
            [("real", None)] * forced + [("gaussian", None)])
        assert rep.max_imag > 0


def test_radii_are_smith_radii_rounded_up(fam1_quartic, ctx):
    # each radius against n|q(z_i)| / |c_n prod (z_i - z_j)| at the roots
    # returned, q = p / x^low, computed exactly in mpmath: an upper bound,
    # tight to the 64-bit floors of the distances and, at an exact root,
    # to Horner's error bound on 2^-W, W >= mantissa_bits + 128.  The
    # complex coefficients of (x - i)(x - 2) take no real path; their
    # roots are checked against mp.polyroots too
    cases = [fam1_quartic.polys[m] for m in (2, 3, 12, 13)] + [
        Poly([1, 0, 1]), Poly([0, 0, -2, 0, 1]), Poly([-0.5, 3e-45, 1, 2e-45]),
        CPoly([mp.mpc(0, 2), mp.mpc(-2, -1), 1])]
    tol = mp.mpf(2) ** (16 - ctx.mantissa_bits)
    for p in cases:
        rep = roots(p, ctx)
        assert all(r == 0 for z, r in zip(rep.roots, rep.radii) if z == 0)
        zs, radii = zip(*[(z, r) for z, r in zip(rep.roots, rep.radii) if z])
        q = p.coeffs[p.degree - len(zs):]
        with mp.workprec(20000):
            for z, r in zip(zs, radii):
                den = abs(q[-1] * mp.fprod(z - w for w in zs if w is not z))
                n = len(zs)
                smith = n * abs(mp.polyval(q[::-1], z)) / den
                horner = 2 * n * (1 + 2 * n * max(1, abs(z)) ** n) / den
                assert smith <= r <= smith * (1 + mp.mpf(2) ** -40) + mp.ldexp(
                    horner, -ctx.mantissa_bits - 128), (p, z)
        if isinstance(p, CPoly):
            assert abs(rep.max_imag - 1) <= mp.mpf("1e-50")
            with mp.workprec(2 * ctx.mantissa_bits):
                want = sorted(mp.polyroots(p.coeffs[::-1], maxsteps=200,
                                           extraprec=2 * ctx.mantissa_bits),
                              key=lambda z: (mp.re(z), mp.im(z)))
                for g, w, r in zip(rep.roots, want, rep.radii):
                    assert abs(g - w) <= tol * max(1, abs(w)), (g, w)
                    assert abs(g - w) <= r, (g, w, r)


def test_complex_pair(ctx):
    rep = roots(Poly([1, 0, 1]), ctx)
    assert abs(rep.roots[0] + mp.mpc(0, 1)) <= mp.mpf("1e-50")
    assert abs(rep.roots[1] - mp.mpc(0, 1)) <= mp.mpf("1e-50")
    assert abs(rep.max_imag - 1) <= mp.mpf("1e-50")


def test_pure_power_deflates_fully(ctx):
    rep = roots(Poly([0, 0, 0, 1]), ctx)
    assert rep.roots == (0, 0, 0)
    assert rep.scale == 0


def test_degree_validation(ctx):
    with pytest.raises(ValueError):
        roots(Poly([5]), ctx)


def test_random_real_products(ctx):
    rng = random.Random(1105)
    for _ in range(5):
        n = rng.randint(2, 6)
        vals = sorted(mp.mpf(rng.randint(-30, 30)) / 10 for _ in range(n))
        while any(b - a < mp.mpf("0.3") for a, b in zip(vals, vals[1:])):
            vals = sorted(mp.mpf(rng.randint(-30, 30)) / 10
                          for _ in range(n))
        p = Poly([1])
        for v in vals:
            p = p * Poly([-v, 1])
        rep = roots(p, ctx)
        scale = max(1, rep.scale)
        assert rep.max_imag <= mp.mpf("1e-40") * scale
        for got, want in zip(rep.sorted_real_parts, vals):
            assert abs(got - want) <= mp.mpf("1e-40") * scale


def test_interlacing_classical_pair(ctx):
    he2 = roots(Poly([-1, 0, 1]), ctx)
    he3 = roots(Poly([0, -3, 0, 1]), ctx)
    assert interlacing(he2, he3) is True


def test_interlacing_gap_two():
    assert interlacing(_report(-1, 1), _report(-2, -0.5, 0.5, 2)) is True
    # both lower roots fall outside the inner gaps of the upper set
    assert interlacing(_report(-1, 1), _report(-3, -2, 2, 3)) is False
    # adjacent lower roots with no upper root between them
    assert interlacing(_report(-1, -0.6, 0.6, 1),
                       _report(-3, -2, 2, 3, -0.1, 0.1)) is False


def test_interlacing_equal_degree_is_false():
    r = _report(-1, 1)
    assert interlacing(r, r) is False


def test_interlacing_shared_root_is_false():
    assert interlacing(_report(0), _report(-1, 0)) is False


def test_interlacing_gap_validation():
    with pytest.raises(ValueError):
        interlacing(_report(0), _report(-2, -1, 1, 2))


def test_interlacing_rejects_complex(ctx):
    a = _report(0)
    b = roots(Poly([1, 0, 1]), ctx)
    with pytest.raises(NotReal):
        interlacing(a, b)


def test_histogram_single_value(ctx):
    h = empirical_distribution([roots(Poly([0, 1]), ctx)])
    assert h.edges == (0, 0)
    assert h.mass == (1,)
    assert mp.fsum(h.mass) == 1


def test_histogram_binning():
    h = empirical_distribution([_report(-1, 1), _report(-2, -0.5, 0.5, 2)],
                               bins=4)
    assert len(h.edges) == 5
    sixth = mp.mpf(1) / 6
    for got, want in zip(h.mass, (sixth, 2 * sixth, sixth, 2 * sixth)):
        assert abs(got - want) <= mp.mpf("1e-70")
    assert abs(mp.fsum(h.mass) - 1) <= mp.mpf("1e-70")


def test_histogram_validation():
    with pytest.raises(ValueError):
        empirical_distribution([])
    with pytest.raises(ValueError):
        empirical_distribution([_report(0, 1)], bins=0)


def test_family_zeros_real_and_interlacing(fam1_quartic, ctx):
    reps = {i: roots(fam1_quartic.polys[i], ctx) for i in (4, 5, 6, 7)}
    for i, rep in reps.items():
        assert rep.max_imag <= mp.mpf(1e-10) * rep.scale, i
    assert interlacing(reps[4], reps[6]) is True
    assert interlacing(reps[5], reps[7]) is True
