"""Inner products and moment matrices for the three weight pairings."""

import random

import pytest
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

from skewrh.errors import MomentRangeExceeded, QuadratureFailure
from skewrh.moments import (
    build_skew_moment_matrix,
    inner_2,
    skew_inner,
    skew_inner_1,
    skew_inner_4,
)
from skewrh.numerics import Poly, determinant, poly_derivative
from skewrh.potentials import WeightTable, get_weight_table, truncation_radius


def _monomial(j):
    return Poly([0] * j + [1])


@pytest.fixture(scope="module")
def gauss_matrix(gauss, ctx):
    return build_skew_moment_matrix(gauss, 1, 8, ctx)


@pytest.fixture(scope="module")
def quartic_matrix(quartic, ctx):
    return build_skew_moment_matrix(quartic, 1, 8, ctx)


def _legendre_rule(degree):
    """mpmath's Gauss-Legendre rule of 3*2^(degree-1) nodes on [-1, 1], at
    the working precision, as (nodes, weights) sorted by node."""
    pairs = sorted(GaussLegendre(mp).calc_nodes(degree, mp.prec))
    return [x for x, _ in pairs], [w for _, w in pairs]


def corner_oracle(V, size):
    """Direct two-dimensional tensor quadrature of the ordered kernel:
    M_ij = double integral of x^i y^j sgn(x-y) e^{-V(x)-V(y)}.

    Independent of the one-dimensional half-integral reduction the
    library uses: the inner integral is carried as a cumulative sum over
    an ascending composite Gauss-Legendre grid, with small bridging
    panels between consecutive outer nodes.
    """
    base, _ = truncation_radius(V, 2 * size + 2, mp.mpf("1e-36"))
    R = base
    npan = int(mp.ceil(2 * R))
    on, ow = _legendre_rule(5)  # 48 nodes
    sn, sw = _legendre_rule(4)  # 24 nodes
    xs, wts = [], []
    for p in range(npan):
        a = -R + 2 * R * mp.mpf(p) / npan
        b = -R + 2 * R * mp.mpf(p + 1) / npan
        mid, half = (a + b) / 2, (b - a) / 2
        for t, w in zip(on, ow):
            xs.append(mid + half * t)
            wts.append(half * w)

    def w_of(y):
        return mp.e ** (-V(y))

    totals = [mp.fsum(w * w_of(x) * x ** j for x, w in zip(xs, wts))
              for j in range(size)]
    G = [mp.mpf(0)] * size
    prev = -R
    acc = {}
    for x, w in zip(xs, wts):
        mid, half = (prev + x) / 2, (x - prev) / 2
        if half > 0:
            pts = [(mid + half * t, half * sv * w_of(mid + half * t))
                   for t, sv in zip(sn, sw)]
            for j in range(size):
                G[j] += mp.fsum(v * y ** j for y, v in pts)
        prev = x
        wx = w * w_of(x)
        for j in range(size):
            inner = 2 * G[j] - totals[j]
            for i in range(j):
                acc[(i, j)] = acc.get((i, j), mp.mpf(0)) + wx * x ** i * inner
    return acc


def test_skew_inner_1_antisymmetry_forces_zero(gauss_matrix):
    one = Poly([1])
    assert skew_inner_1(one, one, gauss_matrix) == 0


def test_skew_inner_1_gaussian_closed_forms(gauss_matrix):
    one = Poly([1])
    rpi = mp.sqrt(mp.pi)
    v1 = skew_inner_1(one, _monomial(1), gauss_matrix)
    v3 = skew_inner_1(one, _monomial(3), gauss_matrix)
    assert abs(v1 + 2 * rpi) <= mp.mpf("1e-25") * 2 * rpi
    assert abs(v3 + 5 * rpi) <= mp.mpf("1e-25") * 5 * rpi


def test_matrix_antisymmetry_exact(gauss_matrix, quartic_matrix):
    for M in (gauss_matrix, quartic_matrix):
        for i in range(M.n):
            assert M.entry(i, i) == 0
            for j in range(i + 1, M.n):
                assert M.entry(j, i) == -M.entry(i, j)


def test_matrix_parity_zeros(gauss_matrix, quartic_matrix, ctx):
    for M in (gauss_matrix, quartic_matrix):
        scale = max(abs(M.entry(i, j)) for i in range(M.n)
                    for j in range(M.n))
        for i in range(M.n):
            for j in range(i + 1, M.n):
                if (i + j) % 2 == 0:
                    assert abs(M.entry(i, j)) <= ctx.quad_tol * scale


def test_matrix_gaussian_reference_entries(gauss_matrix):
    rpi = mp.sqrt(mp.pi)
    assert abs(gauss_matrix.entry(0, 1) + 2 * rpi) <= mp.mpf("1e-25") * rpi
    assert abs(gauss_matrix.entry(1, 2) - rpi) <= mp.mpf("1e-25") * rpi
    assert abs(gauss_matrix.entry(0, 3) + 5 * rpi) <= mp.mpf("1e-25") * rpi


def test_corner_against_tensor_quadrature(gauss, quartic, ctx,
                                          gauss_matrix, quartic_matrix):
    for V, M in ((gauss, gauss_matrix), (quartic, quartic_matrix)):
        oracle = corner_oracle(V, 4)
        scale = max(abs(v) for v in oracle.values())
        for (i, j), ref in oracle.items():
            dev = abs(M.entry(i, j) - ref)
            assert dev <= 10 * ctx.quad_tol * scale, (V, i, j, dev)


def test_entries_against_independent_rule(gauss, ctx, gauss_matrix,
                                         w_function):
    # recompute a handful of entries by integrating x^i w_j directly with
    # mpmath's Gauss-Legendre rule over 8 equal panels of [-2R, 2R]
    base, _ = truncation_radius(gauss, 12, ctx.quad_tol)
    pts = [-2 * base + base * p / 2 for p in range(9)]
    rng = random.Random(5005)
    pairs = set()
    while len(pairs) < 5:
        i = rng.randrange(0, 6)
        j = rng.randrange(0, 6)
        if i != j:
            pairs.add((i, j))
    for i, j in sorted(pairs):
        with mp.workprec(288):
            direct = mp.quad(lambda x: x ** i * w_function(gauss, j, x, ctx),
                             pts, method="gauss-legendre")
        dev = abs(gauss_matrix.entry(i, j) - direct)
        assert dev <= mp.mpf("1e-24") * max(1, abs(direct)), (i, j, dev)


def test_inner_2_gaussian_values(gauss, ctx):
    table = get_weight_table(gauss, ctx, i_max=4, w_max=0)
    one, x = Poly([1]), _monomial(1)
    rpi = mp.sqrt(mp.pi)
    assert abs(inner_2(one, one, table) - rpi) <= mp.mpf("1e-28") * rpi
    assert abs(inner_2(one, x, table)) <= mp.mpf("1e-29")
    assert abs(inner_2(x, x, table) - rpi / 2) <= mp.mpf("1e-28") * rpi


def test_skew_inner_4_formula_values(gauss, ctx):
    table = get_weight_table(gauss, ctx, i_max=6, w_max=0)
    one, x, x2 = Poly([1]), _monomial(1), _monomial(2)
    root2pi = mp.sqrt(2 * mp.pi)
    assert skew_inner_4(x2, x2, table) == 0
    v01 = skew_inner_4(one, x, table)
    v12 = skew_inner_4(x, x2, table)
    assert abs(v01 - root2pi) <= mp.mpf("1e-25") * root2pi
    assert abs(v12 - root2pi) <= mp.mpf("1e-25") * root2pi


def test_skew_inner_4_against_direct_quadrature(gauss, quartic, ctx):
    # formula vs direct integral of (f g' - f' g) e^{-V}
    rng = random.Random(6006)
    for V in (gauss, quartic):
        table = get_weight_table(V, ctx, i_max=10, w_max=0)
        for _ in range(5):
            f = _monomial(rng.randrange(0, 5))
            g = _monomial(rng.randrange(0, 5))
            lhs = skew_inner_4(f, g, table)
            df, dg = poly_derivative(f), poly_derivative(g)
            # split points at the scale of exp(-V) (no lattice nodes):
            # over [-inf, inf] alone mp.quad takes ~25 times longer for
            # the same digits
            rhs = mp.quad(
                lambda y: (f(y) * dg(y) - df(y) * g(y)) * mp.e ** (-V(y)),
                [-mp.inf, -4, -2, -1, 0, 1, 2, 4, mp.inf])
            assert abs(lhs - rhs) <= mp.mpf("1e-25") * max(1, abs(rhs))


def test_skew_inner_dispatch(gauss, ctx, gauss_matrix):
    table = get_weight_table(gauss, ctx, i_max=6, w_max=0)
    one, x = Poly([1]), _monomial(1)
    assert skew_inner(one, x, 1, gauss_matrix) == \
        skew_inner_1(one, x, gauss_matrix)
    assert skew_inner(one, x, 4, table) == skew_inner_4(one, x, table)
    with pytest.raises(ValueError):
        skew_inner(one, x, 2, table)


def test_hankel_matrix(gauss, ctx):
    # H_ij = m_{i+j} of exp(-x^2/2): every leading minor is positive and
    # equals (2 pi)^(n/2) * 0! 1! ... (n-1)!
    table = get_weight_table(gauss, ctx, i_max=18, w_max=0)
    rows = [[table.moment(i + j) for j in range(10)] for i in range(10)]
    for n in range(1, 11):
        det = determinant([r[:n] for r in rows[:n]], ctx)
        ref = (2 * mp.pi) ** (mp.mpf(n) / 2) * mp.fprod(
            mp.factorial(k) for k in range(n))
        assert det > 0 and abs(det - ref) <= mp.mpf("1e-24") * ref, n


def test_moment_range_guard(gauss, ctx, gauss_matrix):
    big = _monomial(gauss_matrix.n)
    with pytest.raises(MomentRangeExceeded):
        skew_inner_1(big, big.shift_up(1), gauss_matrix)
    # the table pairings read their table as it is, like the matrix one
    table = WeightTable(gauss, ctx, i_max=4, w_max=0)
    version = table.version
    x2, x3, x4 = _monomial(2), _monomial(3), _monomial(4)
    with pytest.raises(MomentRangeExceeded):
        inner_2(x2, x3, table)
    with pytest.raises(MomentRangeExceeded):
        skew_inner_4(x2, x4, table)
    with pytest.raises(MomentRangeExceeded):
        table.pairing(0, 1)
    assert (table.i_max, table.version) == (4, version)


def test_build_validates_arguments(gauss, ctx):
    with pytest.raises(ValueError):
        build_skew_moment_matrix(gauss, 1, 0, ctx)
    with pytest.raises(ValueError):
        build_skew_moment_matrix(gauss, 3, 4, ctx)


def test_entry_check_stops_at_two_escalations(gauss, ctx, monkeypatch):
    # the table checks its pairings when it picks its level: while an entry
    # fails it goes one level finer, at most twice, and then names the entry
    check, asked = WeightTable._check_pairings, []
    monkeypatch.setattr(WeightTable, "_check_pairings", lambda table: None)
    start = WeightTable(gauss, ctx, i_max=4, w_max=3).level

    def failing(table):
        asked.append(table.level)
        tol, table.tol = table.tol, mp.mpf(-1)  # no entry passes its check
        try:
            return check(table)
        finally:
            table.tol = tol

    monkeypatch.setattr(WeightTable, "_check_pairings", failing)
    with pytest.raises(QuadratureFailure, match=r"moment entry \(0,1\)"):
        WeightTable(gauss, ctx, i_max=4, w_max=3)
    assert asked == [start, start + 1, start + 2]


def test_builds_on_one_table_read_one_level(quartic, ctx):
    # the README quartic at n = 18: its pairings take the table to h = 1/64,
    # one level finer than its moments do.  Every build reads that level
    # and leaves the table as it was, so two builds agree in every entry,
    # and each entry is the lattice sum h * sum x^i w_j, formed here
    table = WeightTable(quartic, ctx, i_max=35, w_max=17)
    state = (table.level, table.version)
    first = build_skew_moment_matrix(quartic, 1, 18, ctx, table=table)
    assert (table.level, table.version) == state
    second = build_skew_moment_matrix(quartic, 1, 18, ctx, table=table)
    assert (table.level, table.version) == state
    assert table.h == mp.ldexp(1, -6)
    bits = [[v._mpf_ for v in row] for row in first.rows]
    assert bits == [[v._mpf_ for v in row] for row in second.rows]
    with mp.workprec(table._prec):
        power = [mp.mpf(1)] * len(table.axs)
        for i in range(17):
            for j in range(i + 1, 18):
                lattice_sum = table.h * mp.fdot(power, table.w_values(j))
                assert first.entry(i, j) == lattice_sum, (i, j)
                assert first.entry(j, i) == -lattice_sum, (i, j)
            power = [p * x for p, x in zip(power, table.axs)]


def test_build_leaves_settled_table_as_it_was(quartic, ctx, deep_size):
    # the pairings belong to the table: a build of the families quartic
    # matrix only reads them, and the table gains nothing from it
    table = WeightTable(quartic, ctx, i_max=27, w_max=13)
    level = table.level
    before = deep_size(vars(table))
    build_skew_moment_matrix(quartic, 1, 14, ctx, table=table)
    assert table.level == level
    assert deep_size(vars(table)) - before < 2 ** 20
