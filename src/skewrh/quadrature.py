"""Boundary-limit extrapolation, and tanh-sinh nodes kept for the bench.

boundary_deltas and richardson_limit take the boundary values of Cauchy
transforms to delta -> 0 (rhp.jump_residual).  No pipeline code
integrates with the nodes here: the weight tables' master grid is a
uniform lattice, and their half-line integrals come from a Taylor
series, both in `potentials`.  ts_halfline_nodes and ts_mapped_level
stay only because bench/workloads.py imports ts_mapped_level and times
it; tests take their reference rules from mpmath.
"""
from __future__ import annotations

from mpmath import mp

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
