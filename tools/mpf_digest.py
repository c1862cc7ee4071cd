#!/usr/bin/env python3
"""SHA-256 over the exact bits of fixed internal results.

The CLI rounds what it prints to --precision-bits, and the weight tables
work 16 guard bits above that, so two checkouts can print the same digits
and still differ in their last bits.  This tool hashes the raw mpmath
values (`_mpf_` / `_mpc_`: sign, mantissa, exponent, bit count) of

  near      the jump residual and the boundary-value pairs of
            RHSolution._near_ladder, each entry rounded once, on the
            delta ladder that boundary_deltas sets at the tables'
            working precision, at
            x = 0.40625 (x^2/2 + x^4, k = 2; a node of its lattice
            h = 1/32) and at x = -0.359375 (x^2/2, k = 1; between two
            nodes of its lattice h = 1/8)
  coarse    at the same points and deltas, the sums on the lattice 2hZ
            that the near-axis check of _near_ladder compares with those
            pairs: per delta the matrix Y(x + i delta) from every second
            node, step 2h, with its pole term, each entry rounded once
  matrix    the beta = 1 skew moment matrix of x^2/2 + x^4 at n = 14
  table     what the program reads of that matrix's weight table: its
            lattice level, m, m2, aew2, every w_values(n), and weights_at
            on both sides of each active-slice edge
  pfaff     the bordered-Pfaffian members pfaffian_polynomials(M, j),
            j <= 6, of that matrix, and the gram residuals of the
            beta = 1 family on it and of the beta = 4 family of the same
            size (k_max = 6)
  odd       the rows, alpha and collapse residual of build_odd on x^2/2,
            k = 2, free parameters (0.3+0.2j, 1.5, -0.4)
  far       Y(z) at z = 0.5+3j and z = -4+2j on the quartic solution,
            both above the height where evaluate adds the pole term
  oddfar    the far field of that odd solution: Y(z) at the same two
            points, det_residual over them, and asymptotic_exponents on
            the ray at angle 0.3 pi through radii 1e3, 1e4 and 1e5; its
            gauge multiples of p_4 sit in every row
  laurent   the far field beyond the support, where it comes from the
            Laurent series: Y(R e^(i pi/3)) on the quartic solution at
            criterion 07's five radii R (10^2 .. 10^4), and
            asymptotic_exponents on that ray through them
  matrix18  the beta = 1 skew moment matrix of x^2/2 + x^4 at n = 18 and
            its table's level: the matrix behind the README `polys` and
            `gram` examples, whose pairings take the table one level finer
            than its moments do.  It widens the quartic table, so it runs
            after the parts that read it
  roots     the roots of p_1 .. p_9 of x^2/2 + x^4 (beta = 1, kmax 4) and
            their inclusion radii: the README `zeros` example, on a fresh
            table with the ranges that example's table has
  sextic    the lattice level, m, m2 and the pairing block P of the
            table of x^2/2 + 0.3 x^4 + 0.05 x^6 at the family ranges
            i_max = 27, w_max = 13: the lattice whose half-width the
            working precision cuts most
  rows      the rows, alpha and collapse residual of build_even and of
            build_odd (free parameters as in odd) on the sextic at k = 3,
            whose lower rows meet one exp(-2V) moment and five pairings,
            and on x/4 + x^2/2 + x^3/8 + x^4 at k = 2, whose conditions
            carry no parity zeros
  widened   the far and near Y of build_even on x^2/2 at k = 2, evaluated
            once before and then after build_even at k = 3 has widened the
            table they share: Y(z) at the two far points, at 100+100j
            (beyond the support, by the Laurent series) and the
            boundary-value pairs at x = -0.359375 on the delta ladder of
            near, from the wider table

and prints one line per part, then the digest of all of them.  It imports
skewrh from the src/ next to it, so two checkouts compare with

    python3 tools/mpf_digest.py     (in checkout A, then in checkout B)

and a look at the last lines.  A run takes a few seconds.
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpmath import mp  # noqa: E402

from skewrh import Potential, PrecisionContext, WeightTable  # noqa: E402
from skewrh.moments import build_skew_moment_matrix  # noqa: E402
from skewrh.quadrature import boundary_deltas  # noqa: E402
from skewrh.rhp import (RHSolution, _rounded, asymptotic_exponents,  # noqa: E402
                        build_even, build_odd, det_residual, jump_residual)
from skewrh.skewalg import (gram_residual, pfaffian_polynomials,  # noqa: E402
                            skew_orthogonal_family)
from skewrh.zeros import roots  # noqa: E402


def raw(v):
    """The exact bits of v, recursively through lists, tuples and Polys."""
    if hasattr(v, "_mpf_"):
        return v._mpf_
    if hasattr(v, "_mpc_"):
        return v._mpc_
    if hasattr(v, "coeffs"):
        return raw(v.coeffs)
    if isinstance(v, (list, tuple)):
        return tuple(raw(x) for x in v)
    if isinstance(v, (int, str)):
        return v
    raise TypeError(f"cannot digest {type(v).__name__}")


def sha(v) -> str:
    return hashlib.sha256(repr(raw(v)).encode()).hexdigest()


def edge_points(t):
    """Points on both sides of the active slice's edges: the last node
    outside and the first inside, their midpoint, and points just inside
    and just outside +-active_radius."""
    with mp.workprec(t._prec):
        xs, r, eps = t.xs, t.active_radius, mp.mpf(2) ** -200
        lo, hi = t.axs[0], t.axs[-1]
        below, above = xs[xs.index(lo) - 1], xs[xs.index(hi) + 1]
        return [below, (below + lo) / 2, lo, -r + eps, -r - eps,
                hi, (hi + above) / 2, above, r - eps, r + eps]


def rounded_pairs(sol, x0, deltas):
    """sol._near_ladder(x0, deltas), each part of each entry rounded once
    at the working precision."""
    return [tuple(map(_rounded, pair)) for pair in sol._near_ladder(x0, deltas)]


def near_ladder(sol, x0, deltas):
    """rounded_pairs(sol, x0, deltas) and, per delta, the 2hZ matrix that
    the check of _near_ladder compares with the upper value, each part of
    each entry rounded once.  For each delta _near_ladder forms the
    exact entries (_entries) of the upper value, the lower one and the 2hZ
    matrix, in this order, so the latter is every third matrix that
    _entries returns."""
    made = []

    def entries(*args):
        made.append(RHSolution._entries(sol, *args))
        return made[-1]

    sol._entries = entries
    try:
        pairs = rounded_pairs(sol, x0, deltas)
    finally:
        del sol._entries
    assert len(made) == 3 * len(deltas)
    return pairs, [_rounded(Y) for Y in made[2::3]]


def parts():
    ctx = PrecisionContext()
    quartic = Potential.parse("0,0,0.5,0,1")
    gauss = Potential.parse("0,0,0.5")
    with mp.workprec(ctx.mantissa_bits + 16):  # the tables' precision
        deltas = boundary_deltas()

    sq = build_even(quartic, 2, ctx)
    sg = build_even(gauss, 1, ctx)
    near, coarse = [], []
    for sol, x in ((sq, "0.40625"), (sg, "-0.359375")):
        res = jump_residual(sol, x, ctx)
        with mp.workprec(sol.table._prec):
            pairs, halves = near_ladder(sol, mp.mpf(x), deltas)
        near.append((res, pairs))
        coarse.append(halves)
    yield "near", near
    yield "coarse", coarse

    matrix = build_skew_moment_matrix(quartic, 1, 14, ctx)
    yield "matrix", matrix.rows
    t = matrix.table
    yield "table", (t.level, t.m, t.m2, t.aew2,
                    [t.w_values(n) for n in range(t.w_max + 1)],
                    [t.weights_at(x, t.w_max + 1) for x in edge_points(t)])
    fam1 = skew_orthogonal_family(quartic, 1, 6, ctx, matrix=matrix)
    fam4 = skew_orthogonal_family(quartic, 4, 6, ctx)
    yield "pfaff", ([pfaffian_polynomials(matrix, j, ctx) for j in range(7)],
                    gram_residual(fam1, ctx), gram_residual(fam4, ctx))

    with mp.workprec(ctx.mantissa_bits):
        params = (mp.mpc("0.3", "0.2"), mp.mpf("1.5"), mp.mpf("-0.4"))
    so = build_odd(gauss, 2, params, ctx)
    yield "odd", (so.row_terms, so.alpha, so.collapse_residual)

    far = (mp.mpc(0.5, 3), mp.mpc(-4, 2))
    yield "far", [sq.evaluate(z) for z in far]
    with mp.workprec(ctx.mantissa_bits):
        radii = (mp.mpf(10) ** 3, mp.mpf(10) ** 4, mp.mpf(10) ** 5)
        theta = mp.mpf("0.3") * mp.pi
    yield "oddfar", ([so.evaluate(z) for z in far], det_residual(so, far, ctx),
                     asymptotic_exponents(so, theta, radii, ctx))

    with mp.workprec(ctx.mantissa_bits):
        lo = max(mp.mpf(100), 10 * sq.table.base_radius * mp.mpf("1.001"))
        ratio = (mp.mpf(10000) / lo) ** (mp.mpf(1) / 4)
        radii = [lo * ratio ** i for i in range(5)]
        ray = mp.expj(mp.pi / 3)
    yield "laurent", ([sq.evaluate(R * ray) for R in radii],
                      asymptotic_exponents(sq, mp.pi / 3, radii, ctx))

    matrix = build_skew_moment_matrix(quartic, 1, 18, ctx)
    yield "matrix18", (matrix.table.level, matrix.rows)

    table = WeightTable(quartic, ctx, i_max=19, w_max=9)
    family = skew_orthogonal_family(quartic, 1, 4, ctx, table=table)
    yield "roots", [(r.roots, r.radii)
                    for r in (roots(p, ctx) for p in family.polys[1:])]

    t = WeightTable(Potential.parse("0,0,0.5,0,0.3,0,0.05"), ctx,
                    i_max=27, w_max=13)
    yield "sextic", (t.level, t.m, t.m2, t.P)

    rows = []
    for text, k in (("0,0,0.5,0,0.3,0,0.05", 3), ("0,0.25,0.5,0.125,1", 2)):
        V = Potential.parse(text)
        for sol in (build_even(V, k, ctx), build_odd(V, k, params, ctx)):
            rows.append((sol.row_terms, sol.alpha, sol.collapse_residual))
    yield "rows", rows

    sol = build_even(gauss, 2, ctx)
    points, x = (*far, mp.mpc(100, 100)), mp.mpf("-0.359375")

    def far_and_near():
        with mp.workprec(sol.table._prec):
            return ([sol.evaluate(z) for z in points],
                    rounded_pairs(sol, x, deltas))

    far_and_near()
    xs = sol.table.xs
    assert build_even(gauss, 3, ctx).table is sol.table
    assert sol.table.xs is not xs
    yield "widened", far_and_near()


def main():
    total = hashlib.sha256()
    for name, value in parts():
        h = sha(value)
        total.update(h.encode())
        print(f"{name:8s} {h}", flush=True)
    print(f"{'total':8s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
