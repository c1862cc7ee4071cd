"""Potential validation, derived weights, and the cached weight table."""

import bisect
import gc
import weakref

import pytest
from mpmath import mp

from skewrh import potentials
from skewrh.errors import IntegrabilityError, MomentRangeExceeded
from skewrh.numerics import Poly, exp_e, fixed, fixed_round
from skewrh.potentials import (
    Potential,
    WeightTable,
    get_weight_table,
    pi_polynomial,
    truncation_radius,
)


def test_parse_valid_potentials(gauss, quartic):
    assert gauss.degree == 2
    assert quartic.degree == 4
    assert gauss.poly.coeffs == (0, 0, mp.mpf("0.5"))


def test_parse_rejects_odd_degree():
    with pytest.raises(IntegrabilityError):
        Potential.parse("0,0,0,1")


def test_parse_rejects_negative_leading():
    with pytest.raises(IntegrabilityError):
        Potential.parse("0,0,-1")


def test_parse_rejects_degree_below_two():
    with pytest.raises(IntegrabilityError):
        Potential.parse("1,1")


def test_scale_factor_folds_into_coefficients():
    one = Potential.parse("0,0,0.5")
    two = Potential.parse("0,0,0.5", scale_n=2)
    x = mp.mpf("1.3")
    assert two(x) == 2 * one(x)


def test_deformed_adds_term(gauss):
    d = gauss.deformed(4, mp.mpf("0.25"))
    assert d.degree == 4
    assert d.poly.coeff(4) == mp.mpf("0.25")
    with pytest.raises(IntegrabilityError):
        gauss.deformed(4, mp.mpf("-1e-6"))


def test_weight_W_values(gauss, ctx):
    # W = exp(-2V), the second entry the table gives at a point
    def weight_W(V, x):
        return get_weight_table(V, ctx, i_max=4, w_max=0).weights_at(x, 1)[1]

    assert weight_W(gauss, 0) == 1
    assert abs(weight_W(gauss, 1) - mp.e ** -1) <= mp.mpf("1e-70")
    vq = Potential.parse("0,0,0.5,0,0.25")
    assert abs(weight_W(vq, 1) - mp.e ** mp.mpf("-1.5")) <= mp.mpf("1e-70")


def test_pi_polynomial_closed_forms():
    g = Potential.parse("0,0,0.5")
    assert pi_polynomial(g, 0) == Poly([0, -1])
    assert pi_polynomial(g, 1) == Poly([1, 0, -1])
    q = Potential.parse("0,0,0,0,0.25")
    assert pi_polynomial(q, 2) == Poly([0, 2, 0, 0, 0, -1])


def test_pi_polynomial_degree_and_leading(gauss, quartic):
    for V in (gauss, quartic):
        for j in range(0, 17):
            pi = pi_polynomial(V, j)
            assert pi.degree == j + V.degree - 1
            assert pi.leading == -V.degree * V.poly.leading


def test_w_function_gaussian_values(gauss, ctx, w_function):
    # parity zero: cancels to accumulation error, bounded by quad_tol * mass
    assert abs(w_function(gauss, 0, 0, ctx)) <= mp.mpf("1e-30")
    assert abs(w_function(gauss, 1, 0, ctx) + 2) <= mp.mpf("1e-28")
    assert abs(w_function(gauss, 3, 0, ctx) + 4) <= mp.mpf("1e-28")


def test_w_function_gaussian_closed_form(gauss, ctx, w_function):
    # w_3(x) = -2 (x^2+2) e^{-x^2} from the antiderivative -(y^2+2)e^{-y^2/2}
    for xs in ("0.7", "-1.4", "2.2"):
        x = mp.mpf(xs)
        expect = -2 * (x * x + 2) * mp.e ** (-x * x)
        got = w_function(gauss, 3, x, ctx)
        assert abs(got - expect) <= mp.mpf("1e-28") * abs(expect)


def test_w_function_parity(gauss, quartic, ctx, w_function):
    for V in (gauss, quartic):
        for n in range(6):
            for xs in ("0.3", "1.1", "2.4"):
                x = mp.mpf(xs)
                a = w_function(V, n, x, ctx)
                b = w_function(V, n, -x, ctx)
                scale = max(1, abs(a))
                assert abs(b - (-1) ** (n + 1) * a) <= mp.mpf("1e-28") * scale


def test_w_function_decay_bound(gauss, quartic, ctx, w_function):
    # |w_n(x)| <= e^{-V(x)} (m_0 + m_{2 ceil(n/2)} + eps) since |y|^n <= 1 + y^{2 ceil(n/2)}
    for V in (gauss, quartic):
        table = get_weight_table(V, ctx, i_max=8, w_max=5)
        for n in range(6):
            cap = table.moment(0) + table.moment(2 * ((n + 1) // 2)) \
                + mp.mpf("1e-20")
            for sgn in (1, -1):
                x = sgn * table.base_radius / 2
                w = w_function(V, n, x, ctx)
                assert abs(w) <= mp.e ** (-V(x)) * cap


def test_truncation_radius_shape_and_tail(gauss, quartic):
    for V in (gauss, quartic):
        base, doubled = truncation_radius(V, 8, mp.mpf("1e-30"))
        assert doubled == 2 * base
        # the stated tail estimate: R^i e^{-V(R)} below tol/100 at base
        assert base ** 8 * mp.e ** (-V(base)) < mp.mpf("1e-32")
        base2, _ = truncation_radius(V, 16, mp.mpf("1e-30"))
        assert base2 >= base


def test_weight_table_moments(gauss, ctx):
    table = get_weight_table(gauss, ctx, i_max=11, w_max=0)
    # m_i = (i-1)!! sqrt(2 pi) for exp(-x^2/2), and exact zeros at odd i
    root2pi = mp.sqrt(2 * mp.pi)
    assert abs(table.moment(0) - root2pi) <= mp.mpf("1e-28") * root2pi
    for i in range(2, 11, 2):
        ref = mp.fac2(i - 1) * root2pi
        assert abs(table.moment(i) - ref) <= mp.mpf("1e-27") * root2pi, i
    for i in range(1, 12, 2):
        assert table.moment(i) == 0
    # weight exp(-2V) = exp(-x^2) moments
    assert abs(table.moment2(0) - mp.sqrt(mp.pi)) <= mp.mpf("1e-28")
    assert abs(table.moment2(2) - mp.sqrt(mp.pi) / 2) <= mp.mpf("1e-28")


def test_weight_table_cache_and_growth(gauss, ctx):
    a = get_weight_table(gauss, ctx, i_max=4, w_max=0)
    b = get_weight_table(gauss, ctx, i_max=6, w_max=2)
    assert a is b
    b.moment(6)
    with pytest.raises(MomentRangeExceeded):
        b.moment(40)


@pytest.fixture
def own_registry(monkeypatch):
    """Empty table registries for this test; the session's come back
    afterwards, so the tables other tests grow are left as they were."""
    monkeypatch.setattr(potentials, "_TABLE_REGISTRY", {})
    monkeypatch.setattr(potentials, "_LIVE_TABLES", weakref.WeakValueDictionary())


def test_weight_table_per_exact_potential(ctx, own_registry):
    # the two coefficients agree to 46 digits; a shared table would give
    # the second one the first one's moments, off by 2.5e-46
    with ctx.workprec():
        cs = (mp.mpf("0.5"), mp.mpf("0.5") + mp.mpf("1e-46"))
    tables = [get_weight_table(Potential([0, 0, c]), ctx) for c in cs]
    assert tables[0] is not tables[1]
    for c, table in zip(cs, tables):
        assert abs(table.moment(0) - mp.sqrt(mp.pi / c)) <= mp.mpf("1e-60")


def test_weight_table_registry_bounded(ctx, own_registry):
    Vs = [Potential([0, 0, mp.mpf(n) / 16]) for n in range(5, 11)]
    held = get_weight_table(Vs[0], ctx)
    dropped = [weakref.ref(get_weight_table(V, ctx)) for V in Vs[1:]]
    gc.collect()
    assert len(potentials._TABLE_REGISTRY) == potentials._TABLE_REGISTRY_SIZE
    # older tables nobody holds are released; a held one is reused
    assert dropped[0]() is None and dropped[-1]() is not None
    assert get_weight_table(Vs[0], ctx) is held


def test_weights_at_consistent_with_w_function(gauss, ctx, w_function):
    table = get_weight_table(gauss, ctx, i_max=4, w_max=3)
    x = mp.mpf("0.9")
    ex, ex2, ws = table.weights_at(x, 4)
    assert abs(ex - mp.e ** (-gauss(x))) <= mp.mpf("1e-70")
    assert abs(ex2 - mp.e ** (-2 * gauss(x))) <= mp.mpf("1e-70")
    assert len(ws) == 4
    for n, w in enumerate(ws):
        direct = w_function(gauss, n, x, ctx)
        assert abs(w - direct) <= mp.mpf("1e-28") * max(1, abs(direct))


def test_weights_at_off_axis_closed_forms(gauss, ctx):
    # for x^2/2, w_0(z) = sqrt(2 pi) exp(-z^2/2) erf(z/sqrt 2) and
    # w_1(z) = -2 exp(-z^2); the series about the node x_k below Re z runs
    # out to |t| = |z - x_k|/h = 2.4, 4.9 and 9.6 (the last point is the
    # one `skewrh rh-verify` evaluates, on the lattice h = 1/8)
    table = get_weight_table(gauss, ctx, i_max=4, w_max=3)
    points = (mp.mpc("0.9", "0.3"), mp.mpc("-0.4", "-0.6"), mp.mpc("-1.8", "1.2"))
    for z in points[1:]:
        assert abs(z - mp.floor(z.real / table.h) * table.h) > 4 * table.h
    for z in points:
        ex, ex2, ws = table.weights_at(z, 2)
        assert abs(ex - mp.exp(-z * z / 2)) <= mp.mpf("1e-70")
        assert abs(ex2 - mp.exp(-z * z)) <= mp.mpf("1e-70")
        w0 = mp.sqrt(2 * mp.pi) * mp.exp(-z * z / 2) * mp.erf(z / mp.sqrt(2))
        assert abs(ws[0] - w0) <= mp.mpf("1e-28") * abs(w0)
        assert abs(ws[1] + 2 * mp.exp(-z * z)) <= mp.mpf("1e-28")


@pytest.mark.parametrize("coeffs, ranges", [
    ("0,0,0.5,0,1", (27, 13)), ("0,0,0.5,0,0.3,0,0.1", (27, 13)), ("0,0,0.5", (8, 0))])
def test_interval_integrals_against_quad(coeffs, ranges, ctx):
    # the series over one lattice interval against mp.quad at 600 bits,
    # relative to the interval's own value: at x_k = 0, where V' vanishes
    # and the shortcut bound B^n/n!, B = sum |b_l|, would stop the series
    # too early, and on the outermost active intervals, where exp(-V)
    # changes most across one step
    V = Potential.parse(coeffs)
    t = WeightTable(V, ctx, i_max=ranges[0], w_max=ranges[1])
    n = len(t.xs) // 2
    for p in (n, t._alo, t._ahi - 2):
        a, b = t.xs[p], t.xs[p + 1]
        with mp.workprec(t._prec):
            # up from x_p, and down from x_(p+1) as the table's F takes
            # every second interval
            up = t._segment(p, 1, t.w_max + 1)
            down = [-v for v in t._segment(p + 1, -1, t.w_max + 1)]
        for j in range(t.w_max + 1):
            with mp.workprec(600):
                ref = mp.quad(lambda y: y ** j * mp.exp(-V(y)), [a, b])
                for got in (up[j], down[j]):
                    assert abs(got - ref) <= mp.mpf("1e-75") * abs(ref), (p - n, j)


def test_weight_table_raises_i_max_to_w_max(gauss, ctx, w_function):
    # w_n needs the moment m_n: the constructor widens i_max the way
    # ensure_ranges does instead of clamping w_max down
    table = WeightTable(gauss, ctx, i_max=2, w_max=5)
    assert (table.i_max, table.w_max) == (5, 5)
    x = mp.mpf("0.3")
    ws = table.weights_at(x, 6)[2]
    for n, w in enumerate(ws):
        direct = w_function(gauss, n, x, ctx)
        assert abs(w - direct) <= mp.mpf("1e-28") * max(1, abs(direct))


def _refined(V, ctx, monkeypatch, **ranges):
    """A table one level finer than its checks ask for: its first pairing
    check fails, as when an entry does not settle at the moments' level."""
    check, calls = WeightTable._check_pairings, []

    def fail_once(table):
        calls.append(table.level)
        return (0, 1) if len(calls) == 1 else check(table)

    with monkeypatch.context() as m:
        m.setattr(WeightTable, "_check_pairings", fail_once)
        return WeightTable(V, ctx, **ranges)


def test_coarse_nodes_are_the_coarser_level(gauss, quartic, ctx, monkeypatch):
    # every node is exactly k*h with h = 2^-level, every weight is h (the
    # moments are h times plain sums of exp(-V) and exp(-2V) over the
    # lattice), and acoarse picks out exactly the active nodes on the
    # coarser lattice 2hZ, at the table's level and at one level finer,
    # whose lattice holds the coarser one node for node
    for V in (gauss, quartic):
        table = WeightTable(V, ctx, i_max=4, w_max=0)
        finer = _refined(V, ctx, monkeypatch, i_max=4, w_max=0)
        assert finer.level == table.level + 1
        n = len(finer.xs) // 2
        assert _bits(finer.xs[n % 2::2]) == _bits(table.xs)
        for t in (table, finer):
            h = t.h
            assert h == mp.ldexp(1, -t.level)
            n = len(t.xs) // 2
            assert t.xs == [k * h for k in range(-n, n + 1)]
            assert t.xs[-1] <= t.radius < t.xs[-1] + h
            with mp.workprec(t._prec):
                ew = [exp_e(-V(x)) for x in t.xs]
                assert t.m[0] == h * mp.fsum(ew)
                assert t.m2[0] == h * mp.fsum(e * e for e in ew)
            assert _bits(t.aew) == _bits(ew[t._alo:t._ahi])
            assert [t.axs[k] for k in t.acoarse] == \
                [x for x in t.axs if int(x / h) % 2 == 0]


def _full_grid_F(t):
    """The half-line integral chain over every master-grid node, as the
    table kept it before it stored the active slice only: zero up to the
    slice, then each interval's series sums times exp(-V) at their node,
    summed exactly over the whole lattice (exp(-V) held at the exponent of
    all its nodes, not of the slice) and rounded once per node."""
    n_j = t.w_max + 1
    with mp.workprec(t._prec):
        es, ex = fixed([exp_e(-t.potential(x))._mpf_ for x in t.xs])
        run = [0] * n_j
        F = [[mp.mpf(0)] * (t._F_lo + 1) for _ in range(n_j)]
        for q, sums in t._interval_sums(n_j):
            for j, s in enumerate(sums):
                run[j] += es[q] * s
                F[j].append(fixed_round(run[j], ex - t._fbits - t.level * (j + 1)))
    return F


def _bits(values):
    return [v._mpf_ for v in values]


def _check_slice_against_full_chain(t):
    full = _full_grid_F(t)
    alo, ahi = t._alo, t._ahi
    lo = max(alo - 1, 0)
    for j in range(t.w_max + 1):
        assert _bits(t.F[j]) == _bits(full[j][lo:ahi])
    with mp.workprec(t._prec):
        xs, r, eps = t.xs, t.active_radius, mp.mpf(2) ** -200
        points = [xs[alo - 1], xs[alo], (xs[alo - 1] + xs[alo]) / 2,
                  (xs[alo] + xs[alo + 1]) / 2, (xs[ahi - 2] + xs[ahi - 1]) / 2,
                  xs[ahi - 1], -r + eps, r - eps]
        n_j = t.w_max + 1
        for x in points:
            # at or below -r the table answers 0 without reading F
            if x <= -r:
                expect = [mp.mpf(0)] * n_j
            else:
                k = bisect.bisect_right(xs, x) - 1
                seg = t._segment(k, (x - xs[k]) / t.h, n_j)
                expect = [full[j][k] + seg[j] for j in range(n_j)]
            assert _bits(t._F_at(x, n_j)) == _bits(expect)
        for n in range(n_j):
            expect = [e * (2 * f - t.m[n])
                      for e, f in zip(t.aew, full[n][alo:ahi])]
            assert _bits(t.w_values(n)) == _bits(expect)


def _check_same_as_fresh(t):
    """What the program reads of t has the bits of a table built fresh
    with t's ranges."""
    fresh = WeightTable(t.potential, t.ctx, i_max=t.i_max, w_max=t.w_max)
    assert t.level == fresh.level
    for name in ("m", "m2", "aew2"):
        assert _bits(getattr(t, name)) == _bits(getattr(fresh, name)), name
    assert [_bits(c) for c in t.P] == [_bits(c) for c in fresh.P]
    for n in range(t.w_max + 1):
        assert _bits(t.w_values(n)) == _bits(fresh.w_values(n)), n


def test_half_line_integrals_on_active_slice_match_full_grid(gauss, quartic, ctx,
                                                           monkeypatch):
    # the table keeps F from the node below the active slice through its
    # last node; those entries carry the bits of a chain over every node,
    # on a table the pairing check refined and after the ranges are
    # widened.  A refined or widened table equals a fresh one
    t = WeightTable(gauss, ctx, i_max=3, w_max=3)
    with monkeypatch.context() as m:
        # the pairings of x^2/2 at these ranges ask for one level finer
        # than its moments do
        m.setattr(WeightTable, "_check_pairings", lambda table: None)
        assert t.level == WeightTable(gauss, ctx, i_max=3, w_max=3).level + 1
    _check_slice_against_full_chain(t)
    _check_same_as_fresh(t)
    for V in (gauss, quartic):
        t = WeightTable(V, ctx, i_max=6, w_max=2)
        assert t._alo >= 1
        _check_slice_against_full_chain(t)
        t.ensure_ranges(w_max=5)
        _check_slice_against_full_chain(t)
        _check_same_as_fresh(t)
        t.ensure_ranges(i_max=12, w_max=7)
        _check_slice_against_full_chain(t)
        _check_same_as_fresh(t)


def test_half_line_integrals_stay_small(quartic, ctx, deep_size):
    # the families table of a quartic, at its own level: 205 of 405 nodes
    # on the lattice h = 1/32 are active, against 179 of the 2,443 level-8
    # tanh-sinh nodes it replaced.  F takes 0.73 MB by this measure and
    # the whole table 0.96 MB (3.86 MB on the tanh-sinh grid at level 9)
    t = WeightTable(quartic, ctx, i_max=27, w_max=13)
    assert len(t.axs) <= 268  # 1.5 times the tanh-sinh active count
    assert deep_size(t.F) < 2 ** 20
    assert deep_size(vars(t)) < 2 * 2 ** 20


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0.5,0,1", "0,0,0.5,0,0.3,0,0.1"])
def test_lattice_sums_are_correctly_rounded(coeffs, ctx):
    # m, m2 and the pairing block P are sums of k^i h^(i+1) v_k over the
    # lattice indices k: each must be the exact sum rounded once, here an
    # mp.fsum of the exact terms at twice the precision, rounded to the
    # table's.  Odd moments of these symmetric potentials are exact zeros
    V = Potential.parse(coeffs)
    t = WeightTable(V, ctx, i_max=27, w_max=13)
    prec, n = t._prec, len(t.xs) // 2
    with mp.workprec(prec):
        ew = [exp_e(-V(x)) for x in t.xs]
        ew2 = [e * e for e in ew]
        ws = [t.w_values(j) for j in range(t.w_max + 1)]
    assert ew[t._alo:t._ahi] == t.aew and ew2[t._alo:t._ahi] == t.aew2
    ks = range(-n, n + 1)

    def rounded(values, indices, i):
        with mp.workprec(2 * prec):
            ref = mp.fsum(mp.fmul(v, mp.ldexp(k ** i, -t.level * (i + 1)), exact=True)
                          for v, k in zip(values, indices))
        with mp.workprec(prec):
            return (+ref)._mpf_

    for i in range(t.i_max + 1):
        if i % 2:
            assert t.m[i] == 0 and t.m2[i] == 0
            assert t.m[i]._mpf_ == t.m2[i]._mpf_ == mp.mpf(0)._mpf_
        else:
            assert t.m[i]._mpf_ == rounded(ew, ks, i), i
            assert t.m2[i]._mpf_ == rounded(ew2, ks, i), i
    for j in range(1, t.w_max + 1):
        for i in range(j):
            assert t.P[j][i]._mpf_ == rounded(ws[j], ks[t._alo:t._ahi], i), (i, j)


# The families potentials of bench seeds 1 and 2, as their x^2, x^4 (and
# x^6) coefficients, by the lattice level their tables accepted at
# i_max = 27, w_max = 13 when the sums were rounded per operation
FAMILY_LEVELS = {
    5: """0.3984375,1.046875 0.41796875,0.87109375 0.42578125,0.96484375
          0.43359375,0.8515625 0.4375,0.96484375 0.44140625,1.0703125
          0.45703125,1.01953125 0.47265625,0.96875 0.4765625,0.86328125
          0.4765625,0.94921875 0.49609375,0.84375 0.5,0.94921875
          0.53515625,0.94140625 0.55078125,1.07421875 0.56640625,0.83984375
          0.57421875,0.828125 0.58984375,0.89453125 0.6015625,0.828125""",
    6: """0.3984375,1.12890625 0.421875,1.1875 0.4296875,1.1171875
          0.4296875,1.1484375 0.44921875,1.12890625 0.453125,1.13671875
          0.46484375,1.08984375 0.51953125,1.14453125 0.51953125,1.17578125
          0.55859375,1.1953125 0.5625,1.1640625 0.57421875,1.140625
          0.58203125,1.15234375 0.58984375,1.1640625
          0.3984375,0.28125,0.26171875 0.3984375,0.36328125,0.2421875
          0.40234375,0.33203125,0.32421875 0.40234375,0.42578125,0.37109375
          0.40625,0.22265625,0.20703125 0.40625,0.37890625,0.390625
          0.42578125,0.265625,0.32421875 0.42578125,0.30078125,0.2265625
          0.42578125,0.421875,0.35546875 0.4296875,0.43359375,0.2578125
          0.43359375,0.375,0.3984375 0.44921875,0.43359375,0.31640625
          0.46484375,0.23828125,0.30078125 0.46484375,0.3203125,0.35546875
          0.46484375,0.46875,0.390625 0.47265625,0.30078125,0.24609375
          0.47265625,0.484375,0.3203125 0.48828125,0.24609375,0.32421875
          0.4921875,0.22265625,0.3515625 0.4921875,0.375,0.3671875
          0.5,0.33984375,0.39453125 0.51171875,0.25390625,0.37890625
          0.515625,0.25,0.31640625 0.51953125,0.453125,0.21484375
          0.52734375,0.48828125,0.203125 0.53515625,0.26171875,0.3125
          0.54296875,0.40625,0.34765625 0.5546875,0.359375,0.33984375
          0.57421875,0.5,0.25 0.578125,0.44921875,0.203125
          0.58984375,0.3671875,0.203125 0.59765625,0.21875,0.265625""",
}


def test_family_tables_keep_their_levels(ctx):
    for level, text in FAMILY_LEVELS.items():
        for even in text.split():
            coeffs = "0,0," + ",0,".join(even.split(","))
            t = WeightTable(Potential.parse(coeffs), ctx, i_max=27, w_max=13)
            assert t.level == level, coeffs
