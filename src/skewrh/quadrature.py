"""Boundary-limit extrapolation, and tanh-sinh nodes kept for the bench.

boundary_deltas and richardson_limit take the boundary values of Cauchy
transforms to delta -> 0 (rhp.jump_residual), on a ladder of offsets set
by the working precision where the extrapolation's truncation meets the
round-off of the near-node pole term.  No pipeline code
integrates with the nodes here: the weight tables' master grid is a
uniform lattice, and their half-line integrals come from a Taylor
series, both in `potentials`.  ts_halfline_nodes and ts_mapped_level
stay only because bench/workloads.py imports ts_mapped_level and times
it; tests take their reference rules from mpmath.
"""
from __future__ import annotations

import functools
import math

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

def boundary_deltas():
    """The ladder of approach heights 2^-a .. 2^-(a+n-1) for the working
    precision p = mp.prec: n = ceil(sqrt(p/8)) and a = ceil((p-n+1)/(n+1)),
    6 points 2^-39 .. 2^-44 at p = 272 (the default context's tables),
    5 points 2^-24 .. 2^-28 at p = 144.

    The jump mismatch D(delta) extends analytically in delta: the lattice
    pole term cancels the kernel's poles at the nodes (Trefethen-Weideman
    2014), so D = sum_m c_m delta^m.  The polynomial through the n samples,
    read at 0 (richardson_limit), is exact for m < n, and the first term
    it misses leaves c_n prod_i delta_i = c_n delta_max^n 2^(-n(n-1)/2).
    In units of the entries' scale, with the c_m below it, that truncation
    term is bounded by delta_max^n = 2^(-a n); the dropped 2^(-n(n-1)/2)
    (15 bits at n = 6) is the margin for a continuation that grows off the
    axis, as exp(-2V(z)) does.  Each sample carries round-off: at a lattice
    node x0 the pole term cancels the node's kernel term, both of size
    1/delta, and it is formed at 2^-p of that, so the extrapolant (its
    weights' absolute sum is below 8) carries about 2^-p/delta_min =
    2^(a+n-1-p).  The two terms meet at a n = p - a - n + 1;
    a is rounded up, since a level lower costs the round-off one bit and
    saves the truncation n.  The result loses about L = a + n - 1, or
    p/(n+1) + n, bits.  L is least, about 2 sqrt(p), near n = sqrt(p);
    n = ceil(sqrt(p/8)) takes a third of those points, each one
    near-axis evaluation, and loses about 1.4 times as many bits: 44
    against 31 at p = 272.
    """
    p = mp.prec
    n = math.ceil(math.sqrt(p / 8))
    a = -(-(p - n + 1) // (n + 1))
    return tuple(mp.ldexp(1, -k) for k in range(a, a + n))


@functools.lru_cache(maxsize=8)
def _weights_at_zero(deltas, prec):
    """The Lagrange weights at 0 of the nodes deltas (raw mpfs),
    l_i(0) = prod_(j != i) d_j / (d_j - d_i), rounded at prec."""
    with mp.workprec(prec):
        d = [mp.make_mpf(x) for x in deltas]
        return tuple(mp.fprod(dj / (dj - di) for j, dj in enumerate(d) if j != i)
                     for i, di in enumerate(d))


def richardson_limit(deltas, values):
    """Extrapolation of values(delta) to delta -> 0: the polynomial through
    the samples, evaluated at 0, as the dot of its Lagrange weights at 0
    (formed once per ladder and precision) with the values.

    Valid whenever the sampled quantity extends analytically in delta,
    which holds for boundary values of Cauchy transforms of entire
    densities; on geometric ladders the weights stay small (their
    absolute sum is 7.76 for 6 ratio-2 points, as boundary_deltas() gives
    at the default precision).
    """
    n = len(values)
    if n != len(deltas) or n == 0:
        raise ValueError("need matching nonempty deltas/values")
    key = tuple(mp.mpf(x)._mpf_ for x in deltas)
    return mp.fdot(_weights_at_zero(key, mp.prec), values)
