"""Boundary-matrix construction: jump, asymptotics, normalization,
gauge freedom, and the degenerate-collapse identity."""

import weakref
from operator import mul

import pytest
from mpmath import mp

from skewrh.errors import MomentRangeExceeded, QuadratureFailure, UnsupportedRegime
from skewrh.moments import inner_2, skew_inner_1
from skewrh.numerics import CPoly, Poly, PrecisionContext, loglog_slope, power_walk
from skewrh import rhp
from skewrh.potentials import Potential, WeightTable, get_weight_table
from skewrh.rhp import (
    RHProblem,
    RHSolution,
    asymptotic_exponents,
    build,
    build_even,
    build_odd,
    det_residual,
    identity_2_1_residual,
    jump_matrix,
    jump_residual,
)


@pytest.fixture(scope="module")
def sol_gauss(gauss, ctx):
    return build_even(gauss, 1, ctx)


@pytest.fixture(scope="module")
def sol_gauss_odd(gauss, ctx):
    return build_odd(gauss, 1, free_params=None, ctx=ctx)


def test_gaussian_alpha_closed_form(sol_gauss):
    # Y_11 = c * int exp(-x^2)/(z - x) dx ~ c*sqrt(pi)/z, so c = 1/sqrt(pi)
    # and alpha_1 = -2*pi*i*c = -2i*sqrt(pi) (see acceptance criterion 08).
    expect = mp.mpc(0, -2) * mp.sqrt(mp.pi)
    assert abs(sol_gauss.alpha - expect) <= mp.mpf("1e-25") * abs(expect)


def test_gaussian_row_polynomials(sol_gauss):
    rows = sol_gauss.row_polys
    # row 0 is p_2 = x^2 - 1/2
    assert abs(rows[0].coeff(0) + mp.mpf("0.5")) <= mp.mpf("1e-25")
    assert abs(rows[0].coeff(2) - 1) <= mp.mpf("1e-50")
    # row 1 collapses to the constant alpha = -2i sqrt(pi)
    assert rows[1].degree == 0
    assert abs(rows[1].coeff(0) - sol_gauss.alpha) <= mp.mpf("1e-40")
    # row 2 is -i sqrt(pi) x
    expect = mp.mpc(0, -1) * mp.sqrt(mp.pi)
    assert abs(rows[2].coeff(0)) <= mp.mpf("1e-25")
    assert abs(rows[2].coeff(1) - expect) <= mp.mpf("1e-25") * abs(expect)


def test_collapse_residual_tiny(sol_gauss):
    assert sol_gauss.collapse_residual <= mp.mpf("1e-30")


@pytest.mark.parametrize("text,k", [
    ("0,0,0.5", 1), ("0,0,0.5", 2), ("0,0,0.5,0,1", 2), ("0,0,0.5,0,1", 3),
    ("0,0,0.5,0,0.3,0,0.05", 3)])
def test_lower_rows_meet_their_conditions(text, k, ctx):
    # row r = 1 .. d is -2 pi i c_r, and the normalization makes
    # <c_r, x^j>_2 (j <= 2k-d) and then <c_r, y^n>_1 (n <= d-2) all 0 but
    # for a 1 at position 2k-d+r-1 (build); read here from the rows as
    # built, apart from linear_solve's own residual check
    V = Potential.parse(text)
    d, two_pi_i = V.degree, 2 * mp.pi * mp.mpc(0, 1)
    for sol in (build_even(V, k, ctx), build_odd(V, k, ctx=ctx)):
        for r, p in enumerate(sol.row_polys[1:], 1):
            c = CPoly([v / -two_pi_i for v in p.coeffs])
            got = ([inner_2(c, Poly([0] * j + [1]), sol.table)
                    for j in range(2 * k - d + 1)]
                   + [skew_inner_1(c, Poly([0] * n + [1]), sol.family.matrix)
                      for n in range(d - 1)])
            assert len(got) == 2 * k
            for i, v in enumerate(got):
                want = int(i == 2 * k - d + r - 1)
                assert abs(v - want) <= mp.mpf("1e-60"), (sol.parity, r, i, v)


def test_jump_residual_even(sol_gauss, ctx, deep_size):
    table = sol_gauss.table
    table_before = deep_size(vars(table))
    level, version = table.level, table.version
    # x = 0 is a master-grid node, where the subtraction cancels most
    for xs in ("0", "-1.2", "0.8"):
        r = jump_residual(sol_gauss, mp.mpf(xs), ctx)
        assert r <= mp.mpf("1e-45"), xs
    assert jump_residual(sol_gauss, mp.mpf("0.8"), ctx) == r
    # verification only reads the shared table
    assert (table.level, table.version) == (level, version)
    # near-axis work is not kept per point: what the solution holds beyond
    # its construction data stays small however many points were visited
    shared = {"family", "table", "problem", "row_terms", "ctx", "alpha",
              "collapse_residual"}
    own = {k: v for k, v in vars(sol_gauss).items() if k not in shared}
    assert deep_size(own) < 2 ** 20
    # nor on the shared weight table, which keeps master-grid data only
    assert deep_size(vars(sol_gauss.table)) - table_before < 2 ** 20


@pytest.fixture(scope="module")
def sol_sextic(ctx):
    return build_even(Potential.parse("0,0,0.5,0,0.3,0,0.1"), 3, ctx)


def test_near_axis_entry_against_quad(sol_gauss, sol_sextic, ctx):
    # column 1 of row 0 is C(f)(z), f = p_2k W, W = exp(-2V).  It is the
    # lattice sum plus the pole term, h sum_k f(x_k)/(x_k - z) +
    # f(z) (i pi + pi cot(pi z/h)) over 2 pi i, and within 1e-35 of the
    # reference, which splits the integral at the foot point, where the
    # kernel peaks.  x0 = 0 is a lattice node, where the node's term and
    # the pole term cancel most
    for sol in (sol_gauss, sol_sextic):
        V, p, t = sol.problem.potential, sol.family.polys[2 * sol.k], sol.table

        def f(x):
            return p(x) * mp.exp(-2 * V(x))

        for x0 in (mp.mpf(0), mp.mpf("0.37")):
            for e in (10, 20):
                z = mp.mpc(x0, mp.mpf(2) ** -e)
                ref = mp.quad(lambda x: f(x) / (x - z),
                              [-mp.inf, x0, mp.inf]) / (2j * mp.pi)
                got = sol.evaluate(z)[0][1]
                assert abs(got - ref) <= mp.mpf("1e-35") * abs(ref), (V, x0, e)
                with mp.workprec(t._prec):
                    pole = mp.mpc(0, mp.pi) + mp.pi * mp.cot(mp.pi * z / t.h)
                    closed = (t.h * mp.fsum(f(x) / (x - z) for x in t.axs)
                              + f(z) * pole) / (2j * mp.pi)
                assert abs(got - closed) <= mp.mpf("1e-60") * abs(ref), (V, x0, e)


def test_evaluate_branches_agree_at_the_threshold(sol_gauss, quartic, ctx):
    # evaluate adds the pole term f(z) (i pi + pi cot(pi z/h)) below the
    # height h ln(1e4/tol)/(2 pi) and leaves it out above, where it is
    # about e^(-2 pi |Im z|/h); just above, both sums agree within
    # tol * max(1, scale), here on an h = 1/8 and an h = 1/32 table
    for base, h in ((sol_gauss, mp.mpf(1) / 8), (build_even(quartic, 2, ctx),
                                                 mp.mpf(1) / 32)):
        table = WeightTable(base.problem.potential, ctx, i_max=8,
                            w_max=base.d - 2)
        assert table.h == h
        sol = RHSolution(base.problem, base.family, table, base.row_terms,
                         base.alpha, base.collapse_residual, ctx)
        with mp.workprec(table._prec):
            height = h * mp.log(10 ** 4 / table.tol) / (2 * mp.pi)
            for x0 in (mp.mpf(0), mp.mpf("0.37"), mp.mpf("-1.2")):
                above = mp.mpc(x0, height * mp.mpf("1.01"))
                far = sol._eval_far(above)
                near = sol._near_ladder(x0, (mp.im(above),))[0][0]
                assert sol.evaluate(above) == far
                assert sol.evaluate(mp.conj(above)) == sol._eval_far(mp.conj(above))
                scale = max(abs(v) for row in far for v in row)
                gap = max(abs(a - b) for ra, rb in zip(far, near)
                          for a, b in zip(ra, rb))
                assert gap <= table.tol * max(1, scale), (h, x0, gap)
                below = mp.mpc(x0, height * mp.mpf("0.99"))
                assert sol.evaluate(below) == \
                    sol._near_ladder(x0, (mp.im(below),))[0][0]


def test_near_axis_gap_failure_leaves_table(sol_gauss, ctx, monkeypatch):
    # no fine/coarse gap meets a negative bound: the near path raises and
    # neither refines nor rebuilds the shared table
    table = sol_gauss.table
    level, version = table.level, table.version
    monkeypatch.setattr(table, "tol", mp.mpf("-1e-30"))
    with pytest.raises(QuadratureFailure, match="coarse half"):
        jump_residual(sol_gauss, mp.mpf("0.37"), ctx)
    assert (table.level, table.version) == (level, version)


def test_column_vectors_kept_for_current_table_only(sol_gauss, gauss, ctx):
    def on(table):
        return RHSolution(sol_gauss.problem, sol_gauss.family, table,
                          sol_gauss.row_terms, sol_gauss.alpha,
                          sol_gauss.collapse_residual, ctx)

    table = WeightTable(gauss, ctx, i_max=sol_gauss.table.i_max,
                        w_max=sol_gauss.table.w_max)
    sol = on(table)
    # a direct point and a Laurent point (|z| > 4 active_radius)
    zs = (mp.mpc("0.5", "3"), mp.mpc("30", "200"))
    before = [sol.evaluate(z) for z in zs]
    store = rhp._STORES[table]
    assert store.version == table.version
    table.ensure_ranges(i_max=table.i_max + 6)
    after = [sol.evaluate(z) for z in zs]
    # one version held, the current one, and only the new data: the
    # widening forms a new store, which the table's registry now holds
    new = rhp._STORES[table]
    assert new is not store and new.version == table.version
    assert new.ks == table.ks and len(new.vecs) == sol.d
    # the rows a solution formed once fit the wider table: its Y is bit for
    # bit that of the same rows on a fresh table with the wider ranges, here
    # and where the widening halves h (level 2 at i_max 4, w_max 0, level 3
    # at i_max 10; 0.5+6j is far from the axis on both)
    narrow = WeightTable(gauss, ctx, i_max=4, w_max=0)
    halved, far = on(narrow), (mp.mpc("0.5", "6"), zs[1])
    for z in far:
        halved.evaluate(z)
    assert narrow.level == 2
    narrow.ensure_ranges(i_max=10)
    assert narrow.level == 3
    for t, ps, Y in ((table, zs, after),
                     (narrow, far, [halved.evaluate(z) for z in far])):
        fresh = WeightTable(gauss, ctx, i_max=t.i_max, w_max=t.w_max)
        assert [on(fresh).evaluate(z) for z in ps] == Y
    # the wider grid agrees within quad_tol
    for b, a in zip(before, after):
        assert abs(a[0][1] - b[0][1]) <= mp.mpf("1e-30") * abs(b[0][1])


def test_column_vectors_read_each_density_once(sol_sextic, ctx, monkeypatch):
    # one store of 6 columns of one vector U_c each per table version,
    # shared by the solutions on it: two solutions read each density once
    # between them, whatever the degree L = 6 of p_6, whichever points are
    # visited: direct, Laurent and near-axis ones
    table = sol_sextic.table
    monkeypatch.setattr(rhp, "_STORES", weakref.WeakKeyDictionary())
    sol = RHSolution(sol_sextic.problem, sol_sextic.family, table,
                     sol_sextic.row_terms, sol_sextic.alpha,
                     sol_sextic.collapse_residual, ctx)
    calls = []
    w_values = table.w_values
    monkeypatch.setattr(table, "w_values",
                        lambda n: calls.append(n) or w_values(n))
    sols = (sol, sol.perturbed(1, mp.mpf(2)))
    for other in sols:
        for z in (mp.mpc("0.3", "2"), mp.mpc("-20", "40"), mp.mpc("0.3", "0.01")):
            other.evaluate(z)
    assert sorted(calls) == list(range(sol.d - 1))
    store = rhp._STORES[table]
    assert list(rhp._STORES.values()) == [store]
    assert sol._L == sols[1]._L == 6
    assert [len(vec) for vec, _ in store.vecs] == [len(table.axs)] * 6
    # one row of coefficients per row polynomial, folded over its terms
    assert [len(re) for re, _, _ in sol._rows] == [7] + [6] * 6
    assert [len(re) for re, _, _ in sols[1]._rows] == [7] * 2 + [6] * 5


def test_power_sums_resume_bit_for_bit(sol_sextic, ctx, monkeypatch):
    # the store walks the Laurent power sums S_(c,m) as far as a call needs
    # and resumes the walk for a call that needs more: bit for bit a fresh
    # walk, and so is a Laurent Y whichever call came first
    table = sol_sextic.table
    z = 10 * table.active_radius * mp.expj(1)
    fresh = {}
    for counts in ((3, 3, 10, 7, 25), (25,)):
        monkeypatch.setattr(rhp, "_STORES", weakref.WeakKeyDictionary())
        store = rhp._store(table)
        walked = 0
        for count in counts:
            walked = max(walked, count)
            assert [len(S) for S in store.power_sums(count)] == [walked] * 6
        sums = store.power_sums(25)
        assert sums == [list(power_walk(vec, store.ks, 25)) for vec, _ in store.vecs]
        sol = RHSolution(sol_sextic.problem, sol_sextic.family, table,
                         sol_sextic.row_terms, sol_sextic.alpha,
                         sol_sextic.collapse_residual, ctx)
        with mp.workprec(table._prec):
            fresh[counts] = sol._eval_far(z)
        assert rhp._STORES[table] is store
    assert fresh[(3, 3, 10, 7, 25)] == fresh[(25,)]


def test_column_dots_fixed_per_point(quartic, ctx, monkeypatch):
    # with every gauge parameter nonzero, p_2k sits in all d+1 rows beside
    # p_(2k+1) and c_1 .. c_d: d+2 distinct polynomials, folded into one
    # row polynomial per row.  A direct point forms U_c K once per column
    # and kernel part and walks its running powers k^l, l <= L = 2k+1,
    # over the even and the odd k apart: 4 d walks of L+1 sums.  A Laurent
    # point takes 2 d (L+1) exact column dots.  Either takes one rounding
    # per row, column (the head column too) and part
    sol = build_odd(quartic, 2, ("0.3", "1.5", "-0.4", "0.25", "0.5"), ctx)
    d, L = sol.d, 2 * sol.k + 1
    assert all(len(terms) == 2 and terms[1][0] != 0 for terms in sol.row_terms)
    points = (mp.mpc("0.5", "3"), mp.mpc("-4", "2"), mp.mpc("50", "120"))
    before = [sol._eval_far(z) for z in points]
    calls = {"power_walk": [], "exact_dot": [], "fixed_round": []}
    for name, seen in calls.items():
        f = getattr(rhp, name)
        monkeypatch.setattr(rhp, name, lambda *a, f=f, seen=seen:
                            seen.append(a[-1]) or f(*a))
    for z, Y in zip(points, before):
        for seen in calls.values():
            seen.clear()
        assert sol._eval_far(z) == Y
        walks, dots = calls["power_walk"], calls["exact_dot"]
        if abs(z) > 4 * sol.table.active_radius:
            assert not walks and len(dots) == 2 * d * (L + 1)
        else:
            assert walks == [L + 1] * (4 * d) and not dots
        assert len(calls["fixed_round"]) == 2 * (d + 1) ** 2


def test_coarse_half_is_the_separate_coarse_walk(sol_gauss, sol_sextic, quartic, ctx):
    # the fine dots and their 2hZ half come from one walk over the even and
    # the odd k; each equals bit for bit the exact dot over its own nodes,
    # sum_k k^l U_(c,k) K_k over hZ and over the nodes with k even, the
    # latter held at twice its value
    for sol in (sol_gauss, build_even(quartic, 2, ctx), sol_sextic):
        t, store = sol.table, rhp._store(sol.table)
        s = t.ks.start % 2
        with mp.workprec(t._prec):
            for x0 in (mp.mpf(0), mp.mpf("0.37")):
                *parts, e = next(sol._kernels(store.ks, t.level, x0,
                                              (mp.mpf(2) ** -20,)))
                fine, coarse = sol._dots((*parts, e))
                for (vec, exp), (*f, fe), (*c, ce) in zip(store.vecs, fine, coarse):
                    assert (fe, ce) == (exp + e, exp + e + 1)
                    for mans, fl, cl in zip(parts, f, c):
                        for l in range(sol._L + 1):
                            pw = [v * k ** l for v, k in zip(vec, store.ks)]
                            assert fl[l] == sum(map(mul, pw, mans))
                            assert cl[l] == sum(map(mul, pw[s::2], mans[s::2]))


def _direct_dots(sol, z):
    """The fine column dots of z from the direct lattice sums, whatever
    |z| is, and their 2hZ half."""
    t = sol.table
    return sol._dots(next(sol._kernels(rhp._store(t).ks, t.level,
                                       mp.re(z), (mp.im(z),))))


def _max_gap(A, B):
    return max(abs(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def test_laurent_branch_against_direct_sum(sol_gauss, sol_gauss_odd,
                                           sol_sextic, quartic, ctx):
    # the Laurent series of the kernel reproduces the direct lattice sums
    # within 1e-70 relative on both sides of the switch rho = 1/4, where
    # rho = active_radius/|z|; _eval_far takes it below the switch only.
    # Both share the head column: p_r(z) of the held coefficients (formed
    # _GUARD bits above the working precision), correctly rounded
    sextic = sol_sextic.problem.potential
    gauge = ("0.3", "1.5", "-0.4", "0.25", "0.5", "-0.7", "0.2")
    sols = [sol_gauss, sol_gauss_odd, build_even(quartic, 2, ctx),
            build_odd(quartic, 2, gauge[:5], ctx), sol_sextic,
            build_odd(sextic, 3, gauge, ctx)]
    for sol in sols:
        with mp.workprec(sol.table._prec):
            r = sol.table.active_radius
            for rho, theta in (("0.3", "0.4"), ("0.26", "2.9"), ("0.24", "-0.5"),
                               ("0.1", "1.9"), ("0.001", "-2")):
                z = r / mp.mpf(rho) * mp.expj(mp.mpf(theta))
                heads = sol._heads(z)
                direct = rhp._rounded(sol._entries(
                    heads, sol._fold(_direct_dots(sol, z)[0])))
                laurent = rhp._rounded(sol._entries(heads, sol._fold(sol._laurent(z))))
                scale = max(1, max(abs(v) for row in direct for v in row))
                gap = _max_gap(direct, laurent)
                assert gap <= mp.mpf("1e-70") * scale, (sol, rho, gap)
                far = sol._eval_far(z)
                assert far == (laurent if mp.mpf(rho) < 0.25 else direct)
                with mp.workprec(sol.table._prec + rhp._GUARD):
                    polys = sol.row_polys
                with mp.workprec(2 ** 14):  # exact: dyadic data of < 4000 bits
                    exact = [p(z) for p in polys]
                assert [row[0] for row in far] == [+v for v in exact]


def test_column_combination_against_independent_sum(sol_gauss, quartic, ctx):
    # the folded row sums R_r . T_c, R_(r,l) = p_(r,l) h^(l+1)/(2 pi i),
    # against h sum_k p_r(x_k) u_c(x_k)/(x_k - z)/(2 pi i) at twice the
    # precision, for every row and column: direct points (one near the
    # axis, also on the coarse lattice 2hZ, and the conjugate sums of the
    # lower side there) and a Laurent one, within 2^-(prec - 8) of the
    # sum's L1 scale; and the head column p_r(z) within 2^-(prec - 8) of
    # its L1 scale sum_l |p_(r,l)| |z|^l
    sol_q = build_odd(quartic, 2, ("0.3", "1.5", "-0.4", "0.25", "0.5"), ctx)
    for sol in (sol_gauss, sol_q):
        t = sol.table
        with mp.workprec(t._prec):
            us = [t.aew2] + [t.w_values(n) for n in range(sol.d - 1)]
            r = t.active_radius
            near = mp.mpc("0.37", "0.01")
            for z, how in ((mp.mpc("0.5", "3"), "direct"),
                           (near, "direct"), (near, "coarse"), (near, "lower"),
                           (10 * r * mp.expj(1), "laurent")):
                if how == "laurent":
                    T = sol._laurent(z)
                else:
                    T = _direct_dots(sol, z)[how == "coarse"]
                side, at = (-1, mp.conj(z)) if how == "lower" else (1, z)
                got = rhp._rounded(sol._entries(sol._heads(at), sol._fold(T), side))
                s, step = (t.ks.start % 2, 2) if how == "coarse" else (0, 1)
                tol = mp.mpf(2) ** -(t._prec - 8)
                with mp.workprec(2 * t._prec):
                    for row, p in zip(got, sol.row_polys):
                        l1 = mp.fsum(abs(v) * abs(at) ** l
                                     for l, v in enumerate(p.coeffs))
                        assert abs(row[0] - p(at)) <= tol * l1, how
                        for c, u in enumerate(us, 1):
                            terms = [p(x) * v / (x - at) / (2j * mp.pi)
                                     for x, v in zip(t.axs[s::step], u[s::step])]
                            ref = step * t.h * mp.fsum(terms)
                            l1 = step * t.h * mp.fsum(abs(v) for v in terms)
                            assert abs(row[c] - ref) <= tol * l1, (how, c)


def test_whole_entries_against_twice_the_precision(sol_gauss, sol_sextic, quartic,
                                                  ctx, monkeypatch):
    # every entry of Y near the axis, the head p_r(z) and for c >= 1 the
    # lattice sum plus the pole term p_r(z) u_c(z) (+-i pi + pi cot(pi z/s))
    # over 2 pi i, s the step, each formed exactly and rounded once: on both
    # sides, and on the 2hZ half that the check compares (s = 2h, the third
    # exact matrix per delta), against the same sums at twice the precision
    # from the same densities.  Each is within 2^-(prec - 8) of its L1
    # scale: s sum_k |p_r(x_k) u_c(x_k)/(x_k - z)|/(2 pi) plus the pole
    # term's modulus, and sum_l |p_(r,l)| |z|^l for the head
    made = []
    entries = RHSolution._entries
    monkeypatch.setattr(RHSolution, "_entries",
                        lambda self, *a: made.append(entries(self, *a)) or made[-1])
    sol_q = build_odd(quartic, 2, ("0.3", "1.5", "-0.4", "0.25", "0.5"), ctx)
    for sol in (sol_gauss, sol_q, sol_sextic):
        t = sol.table
        tol = mp.mpf(2) ** -(t._prec - 8)
        with mp.workprec(t._prec):
            us = [t.aew2] + [t.w_values(n) for n in range(sol.d - 1)]
            # a lattice node, where the node's term and the pole term
            # cancel most, and a point between nodes
            for x0 in (mp.mpf(0), mp.mpf("0.37")):
                delta = mp.mpf(2) ** -12
                made.clear()
                (Yp, Ym), = sol._near_ladder(x0, (delta,))
                assert len(made) == 3
                Yc = rhp._rounded(made[2])
                z = mp.mpc(x0, delta)
                _, ex2, wn = t.weights_at(z, sol.d - 1)
                uz = [ex2] + wn
                for Y, at, step, uz in ((Yp, z, 1, uz),
                                        (Ym, mp.conj(z), 1, [mp.conj(u) for u in uz]),
                                        (Yc, z, 2, uz)):
                    s = t.ks.start % 2 if step == 2 else 0
                    with mp.workprec(2 * t._prec):
                        sign = 1 if mp.im(at) > 0 else -1
                        pole = (mp.mpc(0, sign * mp.pi) + mp.pi
                                * mp.cot(mp.pi * at / (step * t.h))) / (2j * mp.pi)
                        ks = [step * t.h / (x - at) / (2j * mp.pi)
                              for x in t.axs[s::step]]
                        for row, p in zip(Y, sol.row_polys):
                            head = p(at)
                            l1 = mp.fsum(abs(v) * abs(at) ** l
                                         for l, v in enumerate(p.coeffs))
                            assert abs(row[0] - head) <= tol * l1
                            pk = [p(x) * k for x, k in zip(t.axs[s::step], ks)]
                            for c, (u, v) in enumerate(zip(us, uz), 1):
                                terms = list(map(mul, pk, u[s::step]))
                                polar = head * v * pole
                                ref = mp.fsum(terms) + polar
                                l1 = mp.fsum(abs(w) for w in terms) + abs(polar)
                                assert abs(row[c] - ref) <= tol * l1, (x0, step, c)


def test_jump_residual_odd(sol_gauss_odd, ctx):
    r = jump_residual(sol_gauss_odd, mp.mpf("0.35"), ctx)
    assert r <= mp.mpf("1e-45")


def test_ambient_precision_independence(gauss, ctx):
    # results must not depend on the interpreter's ambient precision:
    # rebuild and verify under the 53-bit default
    old = mp.prec
    mp.prec = 53
    try:
        sol = build_even(gauss, 1, ctx)
        r = jump_residual(sol, mp.mpf("0.35"), ctx)
    finally:
        mp.prec = old
    assert r <= mp.mpf("1e-45")


def test_verification_refuses_a_foreign_ctx(sol_gauss, ctx):
    # the checks run at sol.ctx, so another context is refused, not ignored
    other = PrecisionContext(mantissa_bits=128)
    ray = (2 * mp.pi / 3, [mp.mpf(2000), mp.mpf(20000)])
    with pytest.raises(ValueError, match="differs"):
        jump_residual(sol_gauss, mp.mpf("0.35"), other)
    with pytest.raises(ValueError, match="differs"):
        det_residual(sol_gauss, [mp.mpc(0.5, 2)], other)
    with pytest.raises(ValueError, match="differs"):
        asymptotic_exponents(sol_gauss, *ray, other)
    # an equal context, or none, is the solution's own
    same = PrecisionContext(256, ctx.quad_tol, ctx.verify_tol)
    assert asymptotic_exponents(sol_gauss, *ray, same) == \
        asymptotic_exponents(sol_gauss, *ray)


def test_determinant_normalization(sol_gauss, sol_gauss_odd, ctx):
    pts = [mp.mpc("1.3", "1.1"), mp.mpc("-0.7", "1.6"), mp.mpc("0.4", "-1.3")]
    assert det_residual(sol_gauss, pts, ctx) <= mp.mpf("1e-40")
    # heights this small take the pole-corrected sums, on both sides of
    # the axis
    near = [mp.mpc("0.3", "0.5"), mp.mpc("-0.6", "-0.25")]
    assert det_residual(sol_gauss, near, ctx) <= mp.mpf("1e-35")
    # odd parity: det deviates from a single monic linear z + c
    assert det_residual(sol_gauss_odd, pts, ctx) <= mp.mpf("1e-38")
    with pytest.raises(ValueError):
        det_residual(sol_gauss, [mp.mpc(1, 0)], ctx)


def test_asymptotic_exponent_fit(sol_gauss, ctx):
    expect = sol_gauss.expected_exponents()
    assert expect == [2, -1, -1]
    fit = asymptotic_exponents(sol_gauss, 2 * mp.pi / 3,
                               [mp.mpf(2000), mp.mpf(20000)], ctx)
    for r in range(sol_gauss.size):
        got = fit[r][r]
        assert got is not None
        assert abs(got - expect[r]) <= mp.mpf("0.05"), (r, got)


def test_asymptotic_exponents_validation(sol_gauss, ctx):
    for theta in ("0.01", "-0.01"):
        with pytest.raises(ValueError, match="real axis"):
            asymptotic_exponents(sol_gauss, mp.mpf(theta),
                                 [mp.mpf(2000), mp.mpf(20000)], ctx)
    with pytest.raises(ValueError):
        asymptotic_exponents(sol_gauss, 2 * mp.pi / 3, [mp.mpf(2000)], ctx)
    with pytest.raises(ValueError):
        asymptotic_exponents(sol_gauss, 2 * mp.pi / 3,
                             [mp.mpf(1), mp.mpf(10)], ctx)


def test_asymptotic_exponents_in_the_lower_half_plane(quartic, ctx):
    # a ray below the axis fits the same diagonal as criterion 07's rays
    sol = build_even(quartic, 2, ctx)
    expect = sol.expected_exponents()
    radii = [mp.mpf(100) * mp.mpf(10) ** (mp.mpf(i) / 2) for i in range(5)]
    fit = asymptotic_exponents(sol, -mp.pi / 3, radii, ctx)
    for r in range(sol.size):
        assert abs(fit[r][r] - expect[r]) <= mp.mpf("0.1"), (r, fit[r][r])


def test_asymptotic_exponents_take_the_logs_once(sol_gauss_odd, ctx):
    # the logs of the radii are taken once per call; every slope keeps the
    # bits of loglog_slope over the same magnitudes
    sol = sol_gauss_odd
    radii = [mp.mpf(2000), mp.mpf(5000), mp.mpf(20000)]
    fit = asymptotic_exponents(sol, 2 * mp.pi / 3, radii, ctx)
    with mp.workprec(sol.table._prec):
        theta = mp.mpf(2 * mp.pi / 3)
        ray = mp.mpc(mp.cos(theta), mp.sin(theta))
        mags = [sol._eval_far(mp.mpf(R) * ray) for R in radii]
        fitted = 0
        for r in range(sol.size):
            for c in range(sol.size):
                if fit[r][c] is None:
                    continue
                vals = [abs(m[r][c]) for m in mags]
                assert fit[r][c]._mpf_ == loglog_slope(radii, vals)._mpf_
                fitted += 1
    assert fitted >= sol.size


def test_gauge_freedom_spans_p2k(gauss, ctx):
    a = build_odd(gauss, 1, free_params=(mp.mpc("0.3", "0.2"), mp.mpf("1.5"),
                                         mp.mpf("-0.4")), ctx=ctx)
    b = build_odd(gauss, 1, free_params=(mp.mpc("-1.1", "0.7"), mp.mpf("0.2"),
                                         mp.mpc("0.9", "-0.3")), ctx=ctx)
    p2k = a.family.polys[2 * a.k]
    pa, pb = a.problem.free_params, b.problem.free_params
    for r, (ra, rb) in enumerate(zip(a.row_polys, b.row_polys)):
        delta = pa[r] - pb[r]
        scale = max(1, max(abs(c) for c in ra.coeffs))
        for s in range(max(ra.degree, rb.degree) + 1):
            dev = abs(ra.coeff(s) - rb.coeff(s) - delta * p2k.coeff(s))
            assert dev <= mp.mpf("1e-25") * scale, (r, s)


def test_normalization_pins_gauge(sol_gauss, ctx):
    # adding a multiple of row 0 to row 1 preserves the jump and, by row
    # multilinearity, the determinant; only the decay profile detects it
    bad = sol_gauss.perturbed(1, mp.mpf(2))
    assert jump_residual(bad, mp.mpf("0.8"), ctx) <= mp.mpf("1e-43")
    pts = [mp.mpc("1.3", "1.1"), mp.mpc("-0.7", "1.6")]
    assert det_residual(bad, pts, ctx) <= mp.mpf("1e-38")
    fit = asymptotic_exponents(bad, 2 * mp.pi / 3,
                               [mp.mpf(2000), mp.mpf(20000)], ctx)
    # entry (1, 0) now carries 2*p_2 and grows like z^2, violating the
    # requirement that Y * diag(z^-e) tends to the identity
    assert fit[1][0] is not None and fit[1][0] > mp.mpf("1.5")


def test_determinant_detects_non_solutions(sol_gauss, ctx):
    # a row contribution outside the row-0 gauge span keeps the jump intact
    # but makes the determinant non-constant; the probe must have even
    # degree because with an even potential every det term for an
    # odd-degree row carries a parity-zero moment
    q = Poly([0, 0, 0, 0, 1])
    bad = sol_gauss.perturbed(1, mp.mpf(1), poly=q)
    assert jump_residual(bad, mp.mpf("0.8"), ctx) <= mp.mpf("1e-43")
    pts = [mp.mpc("1.3", "1.1"), mp.mpc("-0.7", "1.6")]
    assert det_residual(bad, pts, ctx) > mp.mpf("1e-3")


def test_det_residual_sees_a_lattice_sum_error(quartic, ctx, monkeypatch):
    # an error in the lattice sums S(z) shifts S(x0 + i delta) and
    # S(x0 - i delta) alike as delta -> 0, so it cancels in the jump; the
    # determinant off the axis is what catches it
    sol = build_even(quartic, 2, ctx)
    fold = RHSolution._fold

    def shifted(self, T):
        # 1e-6 added to the real part of every row and column sum
        return [[(pr + int(mp.ldexp(mp.mpf("1e-6"), -e)), pi, qr, qi, e)
                 for pr, pi, qr, qi, e in row] for row in fold(self, T)]

    monkeypatch.setattr(RHSolution, "_fold", shifted)
    assert det_residual(sol, [mp.mpc("1.3", "1.1")], ctx) > mp.mpf("1e-6")
    assert jump_residual(sol, mp.mpf("0.35"), ctx) <= mp.mpf("1e-40")


def test_identity_2_1_small_cases(gauss, quartic, ctx):
    assert identity_2_1_residual(gauss, Poly([1, 1]), 1, ctx) \
        <= mp.mpf("1e-27")
    assert identity_2_1_residual(quartic, Poly([0, 0, 1]), 0, ctx) \
        <= mp.mpf("1e-27")
    # inner_2 reads m2_5 here, within the shared table's moments
    assert identity_2_1_residual(gauss, Poly([0, 0, 0, 1]), 2, ctx) \
        <= mp.mpf("1e-27")


def test_identity_2_1_potential_built_at_53_bits(ctx):
    # 6 * 0.1 needs 56 bits: V' must not round at the precision V was
    # built at, or pi_polynomial loses its exact leading -d*v_d
    with mp.workprec(53):
        V = Potential([0, 0, 0.5, 0, 0.3, 0, 0.1])
    assert identity_2_1_residual(V, Poly([1]), 1, ctx) <= mp.mpf("1e-27")


def test_unsupported_regime(gauss, quartic, ctx):
    with pytest.raises(UnsupportedRegime):
        build_even(gauss, 0, ctx)
    with pytest.raises(UnsupportedRegime):
        build_even(quartic, 1, ctx)
    with pytest.raises(UnsupportedRegime):
        build_odd(quartic, 1, ctx=ctx)


def test_problem_validation(gauss, ctx):
    with pytest.raises(ValueError):
        RHProblem(potential=gauss, k=1, parity="sideways")
    with pytest.raises(ValueError):
        build_odd(gauss, 1, free_params=(1, 2, 3, 4), ctx=ctx)
    # the even solution is unique: gauge parameters would be ignored
    with pytest.raises(ValueError, match="odd problems only"):
        RHProblem(potential=gauss, k=1, parity="even", free_params=(1, 2))
    assert RHProblem(potential=gauss, k=1, parity="even").free_params == ()


def test_build_dispatch(gauss, ctx, sol_gauss):
    sol = build(RHProblem(potential=gauss, k=1, parity="even"), ctx)
    assert sol.row_polys[0].coeffs == sol_gauss.row_polys[0].coeffs


def test_jump_matrix_structure(gauss, quartic, ctx, w_function):
    x = mp.mpf("0.9")
    M = jump_matrix(get_weight_table(gauss, ctx, i_max=4, w_max=0), x)
    # entry (0,0) is 1 and the rows below the first are exactly the
    # identity: M is unit upper triangular, so det M = 1 exactly
    assert M[0][0] == 1
    for r in range(1, len(M)):
        for c in range(len(M)):
            assert M[r][c] == (1 if r == c else 0)
    assert abs(M[0][1] - mp.exp(-2 * gauss(x))) <= mp.mpf("1e-70")
    direct = w_function(gauss, 0, x, ctx)
    assert abs(M[0][2] - direct) <= mp.mpf("1e-28") * max(1, abs(direct))
    # the table is read as it is: a quartic M needs w_1, past this table
    narrow = WeightTable(quartic, ctx, i_max=4, w_max=0)
    with pytest.raises(MomentRangeExceeded):
        jump_matrix(narrow, x)
    assert (narrow.i_max, narrow.w_max, narrow.version) == (4, 0, 1)
