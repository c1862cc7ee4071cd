"""Quadrature nodes and rules, and boundary-limit extrapolation.

The weight tables' master grid is a uniform lattice, and their half-line
integrals come from a Taylor series, both in `potentials`; no table uses
the nodes here.  integrate_line runs tanh-sinh or composite
Gauss-Legendre adaptively and apart from the tables: the tests use it as
the reference for table moments and pairings.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp

from .errors import QuadratureFailure

_RULES = ("tanh-sinh", "gauss-legendre")


@dataclasses.dataclass(frozen=True)
class QuadraturePlan:
    """Immutable description of how to integrate against one weight family.

    radius: half-width of the truncated support [-R, R]; chosen so the
    worst integrand's tail undershoots the tolerance with margin.
    """

    radius: object
    target_tol: object
    prec: int = 256
    rule: str = "tanh-sinh"
    min_level: int = 4
    max_level: int = 11
    gl_order: int = 32
    gl_max_doublings: int = 9

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if not float(self.radius) > 0:
            raise ValueError("radius must be positive")
        if not float(self.target_tol) > 0:
            raise ValueError("target_tol must be positive")

    def with_rule(self, rule: str) -> "QuadraturePlan":
        return dataclasses.replace(self, rule=rule)

    @property
    def tol(self):
        return mp.mpf(self.target_tol)

    @property
    def R(self):
        return mp.mpf(self.radius)


# ---------------------------------------------------------------------------
# tanh-sinh nodes

_TS_RAW = {}


def _ts_tmax(prec: int):
    # Stop when 1 - |x(t)| reaches ~2^-(prec-4): beyond that abscissas
    # saturate and weights are far below any useful tolerance.
    s_max = mp.log(2) * (prec - 4) / 2
    return mp.asinh(2 * s_max / mp.pi)


def ts_halfline_nodes(prec: int, level: int):
    """Raw nodes for t = k*2^-level >= 0 on [-1, 1]: list of (t, x, w).

    w is the bare tanh-sinh weight (no h factor).  Level l reuses the
    even-k entries of level l-1, so nested levels share bit-exact nodes.
    """
    key = (prec, level)
    if key in _TS_RAW:
        return _TS_RAW[key]
    with mp.workprec(prec + 24):
        tmax = _ts_tmax(prec)
        h = mp.mpf(2) ** (-level)
        kmax = int(mp.floor(tmax / h))
        if level > 0:
            coarse = ts_halfline_nodes(prec, level - 1)
        else:
            coarse = None
        nodes = []
        for k in range(kmax + 1):
            if coarse is not None and k % 2 == 0 and k // 2 < len(coarse):
                nodes.append(coarse[k // 2])
                continue
            t = k * h
            u = mp.pi / 2 * mp.sinh(t)
            x = mp.tanh(u)
            w = mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2
            nodes.append((t, x, w))
    _TS_RAW[key] = nodes
    return nodes


def ts_mapped_level(a, b, prec: int, level: int):
    """Full symmetric node/weight lists on [a, b] for one level.

    Weights include the step h and the interval half-width, so the level
    estimate is fsum(w_i * f(x_i)).
    """
    a, b = mp.mpf(a), mp.mpf(b)
    c, r = (a + b) / 2, (b - a) / 2
    h = mp.mpf(2) ** (-level)
    raw = ts_halfline_nodes(prec, level)
    xs, ws = [], []
    for k, (_, x, w) in enumerate(raw):
        wm = h * r * w
        if k == 0:
            xs.append(c)
            ws.append(wm)
        else:
            xs.append(c + r * x)
            ws.append(wm)
            xs.append(c - r * x)
            ws.append(wm)
    return xs, ws


def _ts_integrate(f, a, b, plan: QuadraturePlan):
    a, b = mp.mpf(a), mp.mpf(b)
    if a == b:
        return mp.mpf(0)
    tol = plan.tol
    cache = {}

    def level_sum(level):
        xs, ws = ts_mapped_level(a, b, plan.prec, level)
        terms = []
        sabs = []
        for x, w in zip(xs, ws):
            v = cache.get(x)
            if v is None:
                v = f(x)
                cache[x] = v
            terms.append(w * v)
            sabs.append(w * abs(v))
        return mp.fsum(terms), mp.fsum(sabs)

    prev = None
    for level in range(plan.min_level, plan.max_level + 1):
        cur, sabs = level_sum(level)
        if prev is not None:
            # floor at the absolute-term mass: totals that cancel to
            # round-off can never meet a tol*tol*sabs demand
            scale = max(abs(cur), sabs)
            if abs(cur - prev) <= tol * scale:
                return cur
        prev = cur
    raise QuadratureFailure(
        f"tanh-sinh did not stabilize to {tol} by level {plan.max_level}"
    )


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes (Newton on the Legendre recurrence)

_GL_CACHE = {}


def _legendre_pair(n: int, x):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0


def legendre_nodes(n: int, prec: int):
    """Gauss-Legendre nodes and weights on [-1, 1] at the given precision."""
    key = (n, prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    with mp.workprec(prec + 24):
        eps = mp.mpf(2) ** (-(prec + 8))
        xs = [mp.mpf(0)] * n
        ws = [mp.mpf(0)] * n
        import math
        for k in range(n // 2 + n % 2):
            x = mp.mpf(math.cos(math.pi * (k + 0.75) / (n + 0.5)))
            for _ in range(100):
                pn, pnm1 = _legendre_pair(n, x)
                dp = n * (x * pn - pnm1) / (x * x - 1)
                dx = pn / dp
                x = x - dx
                if abs(dx) < eps:
                    break
            pn, pnm1 = _legendre_pair(n, x)
            dp = n * (x * pn - pnm1) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            xs[k], ws[k] = -x, w
            xs[n - 1 - k], ws[n - 1 - k] = x, w
    _GL_CACHE[key] = (xs, ws)
    return xs, ws


def gl_panel(f, a, b, order: int, prec: int):
    """Single Gauss-Legendre panel over [a, b]."""
    xs, ws = legendre_nodes(order, prec)
    c, r = (a + b) / 2, (b - a) / 2
    return r * mp.fdot(ws, [f(c + r * x) for x in xs])


def _gl_integrate(f, a, b, plan: QuadraturePlan):
    a, b = mp.mpf(a), mp.mpf(b)
    if a == b:
        return mp.mpf(0)
    tol = plan.tol
    width = abs(b - a)
    panels = max(4, min(64, int(mp.ceil(width / 2))))
    prev = None
    for _ in range(plan.gl_max_doublings + 1):
        hstep = (b - a) / panels
        parts = []
        sabs = []
        for i in range(panels):
            u = a + i * hstep
            v = gl_panel(f, u, u + hstep, plan.gl_order, plan.prec)
            parts.append(v)
            sabs.append(abs(v))
        cur = mp.fsum(parts)
        if prev is not None:
            scale = max(abs(cur), mp.fsum(sabs))
            if abs(cur - prev) <= tol * scale:
                return cur
        prev = cur
        panels *= 2
    raise QuadratureFailure(
        f"composite Gauss-Legendre did not stabilize to {tol}"
    )


def integrate_line(f, plan: QuadraturePlan):
    """Integral of f over the truncated support [-R, R]."""
    integrate = _ts_integrate if plan.rule == "tanh-sinh" else _gl_integrate
    with mp.workprec(plan.prec):
        return integrate(f, -plan.R, plan.R, plan)


# ---------------------------------------------------------------------------
# boundary-limit extrapolation

def boundary_deltas(lo: int = 10, hi: int = 20):
    """Geometric ladder of approach heights 2^-lo .. 2^-hi."""
    return tuple(mp.mpf(2) ** (-k) for k in range(lo, hi + 1))


def richardson_limit(deltas, values):
    """Neville extrapolation of values(delta) to delta -> 0.

    Valid whenever the sampled quantity extends analytically in delta,
    which holds for boundary values of Cauchy transforms of entire
    densities; geometric ladders keep the tableau well conditioned.
    """
    n = len(values)
    if n != len(deltas) or n == 0:
        raise ValueError("need matching nonempty deltas/values")
    T = list(values)
    d = [mp.mpf(x) for x in deltas]
    for m in range(1, n):
        T = [
            (d[i] * T[i + 1] - d[i + m] * T[i]) / (d[i] - d[i + m])
            for i in range(n - m)
        ]
    return T[0]
