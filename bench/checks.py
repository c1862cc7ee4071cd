"""Correctness checks made apart from the program.

Reference values come from ``mpmath.quad`` and from composite Gauss-Legendre
rules written here, at REF_DPS decimal digits, or from properties the method
must have (monic roots rebuild the polynomial, roots interlace, det Y = 1,
closed forms for the Gaussian).  No stored copy of the program's output is
used.  Each ``check_*`` function returns ``(ok, error)`` so that a test can
feed it a wrong answer and see it rejected.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

REF_DPS = 45
CMP_PREC = 400            # comparisons run above the program's 256-bit values

TOL_MOMENT = 1e-25        # relative, moment(i) and moment2(i)
TOL_SKEW_ENTRY = 1e-25    # relative, beta=1 skew-moment entry
TOL_CAUCHY = 1e-25        # relative, Y_0c at an off-axis point
TOL_DET = 1e-15           # |det Y - 1|
TOL_EXPONENT = 0.1        # growth exponents on a ray
TOL_ALPHA = 1e-15         # relative, alpha_k = 4 pi i / (d v_d D)
TOL_JUMP = 1e-40          # jump residual
TOL_GRAM = 1e-25          # Gram residual
TOL_AGREE = 1e-20         # elimination vs bordered-Pfaffian coefficients
TOL_REBUILD = 1e-30       # relative, prod(x - r_i) against the coefficients
TOL_REAL = 1e-20          # |Im r| relative to the root scale
TOL_PF = 1e-25            # |pf^2 - det| relative to max(1, |det|)


def parse_coeffs(text: str):
    return [mp.mpf(c) for c in text.split(",")]


def _poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rel(value, ref, scale=None):
    with mp.workprec(CMP_PREC):
        scale = abs(ref) if scale is None else scale
        return abs(mp.mpmathify(value) - ref) / scale


def _radius(coeffs, power: int) -> float:
    """R >= 1 with V(R) - power*log(R) >= 135, so the tails beyond R
    weigh less than exp(-135) ~ 2e-59."""
    cf = [float(c) for c in coeffs]

    def small(r):
        return _poly(cf, r) - power * math.log(r) >= 135

    lo, hi = 1.0, 1.0
    while not small(hi):
        lo, hi = hi, hi * 2
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if small(mid) else (mid, hi)
    return math.ceil(hi * 8) / 8


@functools.lru_cache(maxsize=None)
def _gl_nodes(level: int, prec: int):
    """Gauss-Legendre (x, w) on [-1, 1], 3 * 2^(level-1) nodes."""
    return tuple(GaussLegendre(mp).calc_nodes(level, prec))


def _line_rule(R, panels: int = 16):
    """Composite 48-point Gauss-Legendre rule on [-R, R], nodes ascending."""
    R = mp.mpf(R)
    h = 2 * R / panels
    pts = []
    for p in range(panels):
        a = -R + p * h
        pts.extend((a + h * (x + 1) / 2, w * h / 2)
                   for x, w in _gl_nodes(5, mp.prec))
    pts.sort(key=lambda t: t[0])
    return [x for x, _ in pts], [w for _, w in pts]


def _w_values(V, n: int, xs, R):
    """w_n(x) = exp(-V(x)) (2 F_n(x) - m_n) at ascending xs, F_n by
    summing 24-point Gauss-Legendre panels between consecutive nodes."""
    seg = _gl_nodes(4, mp.prec)

    def panel(a, b):
        h = b - a
        return mp.fsum(w * h / 2 * y ** n * mp.exp(-V(y))
                       for y, w in ((a + h * (u + 1) / 2, w) for u, w in seg))

    run, prev, F = mp.mpf(0), -mp.mpf(R), []
    for x in xs:
        run += panel(prev, x)
        F.append(run)
        prev = x
    total = run + panel(prev, mp.mpf(R))
    return [mp.exp(-V(x)) * (2 * f - total) for x, f in zip(xs, F)]


def ref_moment(coeffs_text: str, i: int, factor: int):
    """(integral of x^i exp(-factor V), integral of |x|^i exp(-factor V))
    for an even potential, by mpmath.quad on the half line."""
    with mp.workdps(REF_DPS):
        cs = parse_coeffs(coeffs_text)
        half = mp.quad(lambda x: x ** i * mp.exp(-factor * _poly(cs, x)),
                       [0, mp.inf])
        return (2 * half if i % 2 == 0 else mp.mpf(0)), 2 * half


def ref_skew_entry(coeffs_text: str, i: int, j: int):
    """beta=1 entry M_ij = int x^i w_j(x) dx by nested quadrature, and the
    integral of |x^i w_j| as its scale."""
    with mp.workdps(REF_DPS):
        cs = parse_coeffs(coeffs_text)
        R = _radius(cs, i + j + 2)
        xs, ws = _line_rule(R)
        wj = _w_values(lambda x: _poly(cs, x), j, xs, R)
        terms = [w * x ** i * v for x, w, v in zip(xs, ws, wj)]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def ref_cauchy(coeffs_text: str, p_coeffs, z, col: int):
    """(2 pi i)^-1 int p(x) u(x) / (x - z) dx with u = exp(-2V) for col 1
    and u = w_(col-2) for col >= 2; z must sit at |Im z| >= 1."""
    with mp.workdps(REF_DPS):
        cs = parse_coeffs(coeffs_text)
        z = mp.mpc(z)
        pc = [mp.mpmathify(c) for c in p_coeffs]
        if col == 1:
            val = mp.quad(lambda x: _poly(pc, x) * mp.exp(-2 * _poly(cs, x))
                          / (x - z), [-mp.inf, 0, mp.inf])
        else:
            R = _radius(cs, len(pc) + col)
            xs, ws = _line_rule(R)
            un = _w_values(lambda x: _poly(cs, x), col - 2, xs, R)
            val = mp.fsum(w * _poly(pc, x) * u / (x - z)
                          for x, w, u in zip(xs, ws, un))
        return val / (2 * mp.pi * mp.mpc(0, 1))


# ---------------------------------------------------------------------------
# checks on values produced in-process

def check_moment(value, coeffs_text: str, i: int, factor: int):
    ref, scale = ref_moment(coeffs_text, i, factor)
    err = _rel(value, ref, scale)
    return err <= TOL_MOMENT, err


def check_skew_entry(value, coeffs_text: str, i: int, j: int):
    ref, scale = ref_skew_entry(coeffs_text, i, j)
    err = _rel(value, ref, scale)
    return err <= TOL_SKEW_ENTRY, err


def check_cauchy(value, coeffs_text: str, p_coeffs, z, col: int):
    err = _rel(value, ref_cauchy(coeffs_text, p_coeffs, z, col))
    return err <= TOL_CAUCHY, err


def check_det(Y):
    """|det Y - 1| with mpmath's own determinant."""
    with mp.workprec(CMP_PREC):
        err = abs(mp.det(mp.matrix(Y)) - 1)
    return err <= TOL_DET, err


def check_exponents(exps, expected):
    """Diagonal slopes within TOL_EXPONENT of the expected exponents."""
    errs = [math.inf if exps[r][r] is None else abs(float(exps[r][r]) - e)
            for r, e in enumerate(expected)]
    err = max(errs)
    return err <= TOL_EXPONENT, err


def check_alpha(alpha, d: int, lead, D):
    """alpha_k = 4 pi i / (d v_d D), D = <p_(2k-2), y^(2k-1)>_1."""
    with mp.workprec(CMP_PREC):
        ref = 4 * mp.pi * mp.mpc(0, 1) / (d * lead * D)
    err = _rel(alpha, ref)
    return err <= TOL_ALPHA, err


def check_roots(p_coeffs, roots):
    """prod(x - r_i) against the monic coefficients, relative to the
    largest coefficient."""
    with mp.workprec(CMP_PREC):
        acc = [mp.mpc(1)]
        for r in roots:
            nxt = [mp.mpc(0)] * (len(acc) + 1)
            for s, c in enumerate(acc):
                nxt[s + 1] += c
                nxt[s] -= r * c
            acc = nxt
        if len(acc) != len(p_coeffs):
            return False, math.inf
        scale = max(abs(c) for c in p_coeffs)
        err = max(abs(a - c) for a, c in zip(acc, p_coeffs)) / scale
    return err <= TOL_REBUILD, err


def check_real_interlacing(lo_roots, hi_roots):
    """Real roots, and strict interlacing of the lower-degree set inside
    the higher-degree one: each gap of lo holds a hi root and no gap of
    hi holds two lo roots."""
    with mp.workprec(CMP_PREC):
        allr = list(lo_roots) + list(hi_roots)
        scale = max(1, max(abs(r) for r in allr))
        imag = max(abs(mp.im(r)) for r in allr) / scale
        lo = sorted(mp.re(r) for r in lo_roots)
        hi = sorted(mp.re(r) for r in hi_roots)
    ok = imag <= TOL_REAL and hi[0] < lo[0] and lo[-1] < hi[-1]
    for a, b in zip(lo, lo[1:]):
        ok = ok and any(a < h < b for h in hi)
    for a, b in zip(hi, hi[1:]):
        ok = ok and sum(a < v < b for v in lo) <= 1
    return ok, imag


def check_agreement(p, q):
    """Largest coefficient difference, relative to max(1, largest coeff)."""
    with mp.workprec(CMP_PREC):
        n = max(len(p), len(q))
        p = list(p) + [0] * (n - len(p))
        q = list(q) + [0] * (n - len(q))
        scale = max(1, max(abs(c) for c in p))
        err = max(abs(a - b) for a, b in zip(p, q)) / scale
    return err <= TOL_AGREE, err


# ---------------------------------------------------------------------------
# checks on the README command outputs

def _num(text):
    with mp.workprec(CMP_PREC):
        return mp.mpf(text)


def gaussian_moment(i: int):
    """int |x|^i exp(-x^2/2) dx = Gamma((i+1)/2) 2^((i+1)/2)."""
    with mp.workprec(CMP_PREC):
        return mp.gamma(mp.mpf(i + 1) / 2) * mp.mpf(2) ** (mp.mpf(i + 1) / 2)


def _rh_report(rep):
    out = [("jump", max(_num(r) for r in rep["jump_residuals"]), TOL_JUMP),
           ("det", _num(rep["det_residual"]), TOL_DET)]
    exps = rep["expected_exponents"]
    worst = 0.0
    for ray in rep["rays"]:
        m = ray["exponent_matrix"]
        for r, e in enumerate(exps):
            worst = max(worst, math.inf if m[r][r] is None
                        else abs(float(m[r][r]) - e))
    out.append(("exponents", worst, TOL_EXPONENT))
    return out


def cli_errors(name: str, outputs: dict):
    """(check, error, tolerance) triples for one README command's output.

    outputs maps each command name to (stdout, {file name: text}), so a
    command may be checked against another one of the same pass.
    """
    stdout, files = outputs[name]
    if name == "moments":
        rows = list(csv.reader(io.StringIO(stdout)))
        worst = 0
        for _, i, _, v in (r for r in rows[1:] if r[0] == "one_d"):
            i = int(i)
            scale = gaussian_moment(i)
            ref = scale if i % 2 == 0 else 0
            worst = max(worst, _rel(_num(v), ref, scale))
        return [("gaussian_moments", worst, TOL_MOMENT)]
    if name == "gram":
        rows = dict(r for r in csv.reader(io.StringIO(stdout)) if len(r) == 2)
        return [("gram", _num(rows["gram_residual"]), TOL_GRAM)]
    if name == "polys":
        # same potential and kmax as gram: the norms must agree
        h = [_num(v) for v in json.loads(stdout)["h"]]
        rows = dict(r for r in csv.reader(io.StringIO(outputs["gram"][0]))
                    if len(r) == 2)
        gh = [_num(rows[f"h_{k}"]) for k in range(len(h))]
        return [("norms_match_gram", max(_rel(a, b) for a, b in zip(h, gh)),
                 TOL_AGREE)]
    if name == "zeros":
        rows = list(csv.reader(io.StringIO(files["zeros.csv"])))
        head, body = rows[0], rows[1:]
        ns = {int(r[0]) for r in body}
        bad = sum(1 for r in body
                  if int(r[0]) + 2 in ns and r[head.index("interlaces_next")] != "true")
        imag = max(_num(r[1]) for r in body)
        hist = list(csv.reader(io.StringIO(files["zeros.hist.csv"])))[1:]
        mass = abs(mp.fsum(_num(r[2]) for r in hist) - 1)
        return [("interlacing_flags", bad, 0), ("real_roots", imag, TOL_REAL),
                ("histogram_mass", mass, TOL_AGREE)]
    if name == "rh-verify":
        return _rh_report(json.loads(stdout))
    if name == "pfaffian":
        rep = list(csv.reader(io.StringIO(stdout)))[1:]
        worst = max(_num(r[3]) / max(1, abs(_num(r[2]))) for r in rep)
        return [("pf_squared_minus_det", worst, TOL_PF)]
    raise ValueError(f"no checks for {name!r}")
