"""Matrix boundary-value problems characterizing the skew families.

For a degree-d potential the object is a (d+1) x (d+1) matrix Y(z),
analytic off the real axis, whose rows are (p, C(p W), C(p w_0), ...,
C(p w_{d-2})) for polynomials p pinned by moment conditions.  Row 0
carries the top-degree family member; each lower row solves a square
linear system built from the exp(-2V) moments and the w_n pairings,
normalized so its diagonal entry decays like z^e with unit coefficient.

Verification is numeric throughout: jump residuals by boundary-offset
extrapolation on a shared delta ladder, growth exponents by log-log
slope fits along rays, determinant structure by off-axis sampling.
"""
from __future__ import annotations

import dataclasses

from mpmath import mp
from mpmath.libmp import mpf_add, mpf_div, mpf_mul

from .errors import (
    DegenerateInnerProduct,
    QuadratureFailure,
    UnsupportedRegime,
)
from .moments import build_skew_moment_matrix, inner_2, skew_inner_1
from .numerics import (
    CPoly,
    DEFAULT_CONTEXT,
    Poly,
    PrecisionContext,
    determinant,
    fdot_raw,
    fsum_raw,
    linear_solve,
    loglog_slope,
    vmul_raw,
)
from .potentials import Potential, WeightTable, _tail_radius, get_weight_table, pi_polynomial
from .quadrature import boundary_deltas, richardson_limit, ts_mapped_level
from .skewalg import SkewFamily, skew_orthogonal_family

def _two_pi_i() -> mp.mpc:
    """2*pi*i evaluated at the current working precision.

    Must be a function, not a module constant: a constant would freeze pi
    at whatever precision was active at import time, and the boundary-value
    identities cancel the kernel normalization against half-residue terms
    that use mp.pi at work precision, so any mismatch shows up directly in
    the jump residual.
    """
    return 2 * mp.pi * mp.mpc(0, 1)


@dataclasses.dataclass(frozen=True)
class RHProblem:
    """Problem data: potential, half-degree index, parity, gauge scalars."""

    potential: Potential
    k: int
    parity: str
    free_params: tuple = ()

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")

    @property
    def d(self) -> int:
        return self.potential.degree

    @property
    def size(self) -> int:
        return self.d + 1


class JumpMatrix:
    """x -> M(x): identity plus first row (1, W(x), w_0 .. w_{d-2})."""

    def __init__(self, V: Potential, ctx: PrecisionContext = DEFAULT_CONTEXT,
                 table: WeightTable = None):
        self.potential = V
        self.d = V.degree
        self.ctx = ctx
        if table is None:
            table = get_weight_table(V, ctx, i_max=max(4, self.d - 2),
                                     w_max=max(0, self.d - 2))
        else:
            table.ensure_ranges(w_max=max(0, self.d - 2))
        self.table = table

    def first_row(self, x):
        ex, ex2, ws = self.table.weights_at(mp.mpf(x), self.d - 1)
        return [mp.mpf(1), ex2] + ws

    def __call__(self, x):
        n = self.d + 1
        M = [[mp.mpf(1) if r == c else mp.mpf(0) for c in range(n)]
             for r in range(n)]
        M[0] = self.first_row(x)
        return M


class RHSolution:
    """Constructed solution: rows stored as complex combinations of real
    polynomials, evaluated via grid Cauchy transforms.

    Far from the axis the shared master grid is used directly, with the
    product vectors of each (row polynomial, column) cached per table
    version.  Near it `_near_pairs` splits the integrand at the foot
    point with local subtraction, on tanh-sinh panels built once for a
    whole delta ladder, and gives both boundary values at every delta;
    nothing per point outlives the call except its last result.
    """

    def __init__(self, problem: RHProblem, family: SkewFamily,
                 table: WeightTable, row_terms, alpha,
                 collapse_residual, ctx: PrecisionContext):
        self.problem = problem
        self.family = family
        self.table = table
        self.row_terms = tuple(tuple(term) for term in row_terms)
        self.alpha = alpha
        self.collapse_residual = collapse_residual
        self.ctx = ctx
        self._far_fu = {}
        self._near = None

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return self.problem.d

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def parity(self) -> str:
        return self.problem.parity

    @property
    def size(self) -> int:
        return self.d + 1

    @property
    def row_polys(self):
        """Materialized first-column polynomials, one per row."""
        out = []
        for terms in self.row_terms:
            acc = CPoly([0])
            for factor, poly in terms:
                acc = acc + CPoly([factor * c for c in poly.coeffs])
            out.append(acc)
        return out

    def expected_exponents(self):
        lead = 2 * self.k + (1 if self.parity == "odd" else 0)
        return [lead, -2 * self.k + self.d - 1] + [-1] * (self.d - 1)

    def perturbed(self, row: int, coeff, poly: Poly = None) -> "RHSolution":
        """Copy with coeff*poly (default p_{2k}) added to one row."""
        if poly is None:
            poly = self.family.polys[2 * self.k]
        terms = [list(t) for t in self.row_terms]
        terms[row] = list(terms[row]) + [(mp.mpc(coeff), poly)]
        return RHSolution(self.problem, self.family, self.table, terms,
                          self.alpha, self.collapse_residual, self.ctx)

    # -- column weight data ------------------------------------------------

    def _u_active(self, col: int):
        """Values of the column-col density on the active master nodes."""
        if col == 1:
            return self.table.aew2
        return self.table.w_values(col - 2)

    # -- far-field evaluation ---------------------------------------------

    def _far_fu_vec(self, poly: Poly, col: int):
        """poly(x) * u_col(x) on the active nodes, as raw tuples."""
        key = (poly, col, self.table.version)
        vec = self._far_fu.get(key)
        if vec is None:
            vec = self._far_fu[key] = vmul_raw(
                [poly(x)._mpf_ for x in self.table.axs],
                [u._mpf_ for u in self._u_active(col)])
        return vec

    def _eval_far(self, z):
        t = self.table
        kern = [(w / (x - z))._mpc_ for w, x in zip(t.awq, t.axs)]
        kr, ki = [k[0] for k in kern], [k[1] for k in kern]
        n = self.size
        Y = [[mp.mpc(0)] * n for _ in range(n)]
        for r, terms in enumerate(self.row_terms):
            for factor, poly in terms:
                if factor == 0:
                    continue
                Y[r][0] += factor * poly(z)
                for c in range(1, n):
                    # mp.fdot of real against complex: one dot per part
                    fu = self._far_fu_vec(poly, c)
                    dot = mp.mpc(fdot_raw(fu, kr), fdot_raw(fu, ki))
                    Y[r][c] += factor * dot / _two_pi_i()
        return Y

    # -- near-field evaluation --------------------------------------------

    def _split_nodes(self, x0, level, dens):
        """Inner panels around x0 and pruned outer panels, each as (nodes,
        weights, per-column densities as raw tuples, foot-point offsets);
        dens maps a point to its column densities and gains the nodes it
        lacks."""
        t = self.table
        prec = t._prec
        with mp.workprec(prec):
            margin = mp.mpf('0.25')
            P = _tail_radius(t.potential, t.i_max, t.tol * mp.mpf('1e-2'))
            P = min(P + margin, t.radius)
            inner = []
            for a, b in ((x0 - 1, x0), (x0, x0 + 1)):
                xs, ws = ts_mapped_level(a, b, prec, level)
                inner.extend(zip(xs, ws))
            outer = []
            for a, b in ((-P, x0 - 1), (x0 + 1, P)):
                if b <= a:
                    continue
                xs, ws = ts_mapped_level(a, b, prec, level)
                # edge clusters carry weight below the tail bound scale
                outer.extend(p for p in zip(xs, ws)
                             if abs(p[0]) <= P - margin or abs(p[0]) <= 1 + abs(x0))
            new = [p[0] for p in inner + outer if p[0] not in dens]
            for x, (ex, ex2, ws) in t.weights_batch(new, self.d - 1).items():
                dens[x] = [ex2] + ws
            parts = []
            for nodes in (inner, outer):
                xs = [p[0] for p in nodes]
                us = [[dens[x][c]._mpf_ for x in xs] for c in range(self.d)]
                parts.append((xs, [p[1] for p in nodes], us, [x - x0 for x in xs]))
        return parts

    @staticmethod
    def _near_kernels(offsets, weights, deltas):
        """For each delta, the real and imaginary parts of w / (x - z) for
        z = x0 + i delta at the nodes x = x0 + offset, as raw tuples: the
        boundary value from below is the conjugate, so one build serves
        both sides.  Each part is (w * a) / (a * a + delta * delta) or
        (w * delta) / (a * a + delta * delta), rounded as the mpf
        operators round; a * a and w * a are formed once per node."""
        prec, rnd = mp._prec_rounding
        nodes = []
        for a, w in zip(offsets, weights):
            a, w = a._mpf_, w._mpf_
            nodes.append((mpf_mul(a, a, prec, rnd), mpf_mul(w, a, prec, rnd), w))
        out = []
        for delta in deltas:
            d = delta._mpf_
            dd = mpf_mul(d, d, prec, rnd)
            kr, ki = [], []
            for aa, wa, w in nodes:
                den = mpf_add(aa, dd, prec, rnd)
                kr.append(mpf_div(wa, den, prec, rnd))
                ki.append(mpf_div(mpf_mul(w, d, prec, rnd), den, prec, rnd))
            out.append((kr, ki))
        return out

    def _boundary_pairs(self, x0, deltas, level, dens):
        """[(Y(x0 + i delta), Y(x0 - i delta)) for each delta > 0], all
        from one node build at the given panel level.

        Row polynomials are real, so every grid sum for the lower boundary
        value is the conjugate of the upper one; only the complex row
        factors break the symmetry, and they multiply at the end.  Each
        polynomial's product vectors are formed once, reduced for every
        delta, and dropped before the next polynomial's.
        """
        (ixs, iws, ius, ia), (oxs, ows, ous, oa) = self._split_nodes(x0, level, dens)
        kerns = []
        for delta, (ikr, iki), (okr, oki) in zip(
                deltas, self._near_kernels(ia, iws, deltas),
                self._near_kernels(oa, ows, deltas)):
            zp = mp.mpc(x0, delta)
            lt = mp.log(x0 + 1 - zp) - mp.log(x0 - 1 - zp)
            kerns.append((ikr, iki, okr, oki, fsum_raw(ikr), fsum_raw(iki), lt))
        n = self.size
        sides = {}  # poly -> per column, per delta: (upper, lower) sums
        for terms in self.row_terms:
            for factor, poly in terms:
                if factor == 0 or poly in sides:
                    continue
                p0 = poly(x0)
                ipv = [poly(x)._mpf_ for x in ixs]
                opv = [poly(x)._mpf_ for x in oxs]
                sides[poly] = cols = []
                for c in range(1, n):
                    ivec = vmul_raw(ipv, ius[c - 1])
                    ovec = vmul_raw(opv, ous[c - 1])
                    f0 = p0 * dens[x0][c - 1]
                    col = []
                    for ikr, iki, okr, oki, sr, si, lt in kerns:
                        re = fdot_raw(ivec, ikr) + fdot_raw(ovec, okr) - f0 * sr
                        im = fdot_raw(ivec, iki) + fdot_raw(ovec, oki) - f0 * si
                        col.append((mp.mpc(re, im) + f0 * lt,
                                    mp.mpc(re, -im) + f0 * mp.conj(lt)))
                    cols.append(col)
        pairs = []
        for i, delta in enumerate(deltas):
            zp = mp.mpc(x0, delta)
            Yp = [[mp.mpc(0)] * n for _ in range(n)]
            Ym = [[mp.mpc(0)] * n for _ in range(n)]
            for r, terms in enumerate(self.row_terms):
                for factor, poly in terms:
                    if factor == 0:
                        continue
                    v0 = poly(zp)
                    Yp[r][0] += factor * v0
                    Ym[r][0] += factor * mp.conj(v0)
                    for c in range(1, n):
                        base, conj = sides[poly][c - 1][i]
                        Yp[r][c] += factor * base / _two_pi_i()
                        Ym[r][c] += factor * conj / _two_pi_i()
            pairs.append((Yp, Ym))
        return pairs

    def _near_pairs(self, x0, deltas):
        """Boundary-value pairs along a delta ladder, at the smallest panel
        level whose upper matrix agrees with the next finer level's at
        the last delta.  The last result is kept for a repeat call; the
        column densities live only in this call."""
        key = (x0, tuple(deltas), self.table.version)
        if self._near is not None and self._near[0] == key:
            return self._near[1]
        # x0 anchored on the master grid, as in the jump row
        ex, ex2, ws = self.table.weights_at(x0, self.d - 1)
        dens = {x0: [ex2] + ws}
        tol = self.table.tol
        for level in range(7, self.table.max_level):
            pairs = self._boundary_pairs(x0, deltas, level, dens)
            prev = pairs[-1][0]
            cur = self._boundary_pairs(x0, deltas[-1:], level + 1, dens)[0][0]
            scale = max(max(abs(v) for v in row) for row in cur)
            dev = max(max(abs(a - b) for a, b in zip(ra, rb))
                      for ra, rb in zip(cur, prev))
            if dev <= tol * max(1, scale):
                # the coarser level already sits within tolerance of the
                # finer one, so the whole ladder may run at it
                self._near = (key, pairs)
                return pairs
        raise QuadratureFailure(
            f"near-axis evaluation did not stabilize at x0={mp.nstr(x0, 8)}")

    # -- public evaluation -------------------------------------------------

    def evaluate(self, z):
        """Y(z) for z off the real axis."""
        with mp.workprec(self.table._prec):
            z = mp.mpc(z)
            if mp.im(z) == 0:
                raise ValueError("Y is defined off the real axis")
            dx = abs(mp.re(z)) - self.table.base_radius
            dist = abs(mp.im(z)) if dx <= 0 else mp.hypot(dx, mp.im(z))
            if dist >= 1:
                return self._eval_far(z)
            x0, delta = mp.mpf(mp.re(z)), abs(mp.im(z))
            upper, lower = self._near_pairs(x0, (delta,))[0]
            return upper if mp.im(z) > 0 else lower

    def __repr__(self):
        return (f"RHSolution(parity={self.parity!r}, k={self.k}, "
                f"d={self.d})")


# ---------------------------------------------------------------------------
# construction

def _monomial(j: int) -> Poly:
    return Poly([0] * j + [1])


def _solve_row(table: WeightTable, matrix, k: int, d: int, row: int,
               ctx: PrecisionContext) -> Poly:
    """Degree <= 2k-1 polynomial for one lower row, before the -2*pi*i
    scaling.  Conditions: vanishing exp(-2V) moments up to the order
    forced by column 1, vanishing w_n pairings except the row's own,
    and a unit normalization on the designated moment."""
    n_unk = 2 * k
    A, b = [], []
    if row == 1:
        for j in range(2 * k - d):
            A.append([table.moment2(s + j) for s in range(n_unk)])
            b.append(mp.mpf(0))
        A.append([table.moment2(s + 2 * k - d) for s in range(n_unk)])
        b.append(mp.mpf(1))
        for n in range(d - 1):
            A.append([matrix.entry(s, n) for s in range(n_unk)])
            b.append(mp.mpf(0))
    else:
        for j in range(2 * k - d + 1):
            A.append([table.moment2(s + j) for s in range(n_unk)])
            b.append(mp.mpf(0))
        for n in range(d - 1):
            if n == row - 2:
                continue
            A.append([matrix.entry(s, n) for s in range(n_unk)])
            b.append(mp.mpf(0))
        A.append([matrix.entry(s, row - 2) for s in range(n_unk)])
        b.append(mp.mpf(1))
    assert len(A) == n_unk, "row condition count must match unknowns"
    return Poly(linear_solve(A, b, ctx))


def _solved_rows(V: Potential, k: int, ctx: PrecisionContext):
    """The data both parities share: the table, the family, the row-1
    normalization alpha with its collapse residual, and the row-1..d
    polynomials c_1 .. c_d before the -2*pi*i scaling."""
    d = V.degree
    family = skew_orthogonal_family(V, 1, k, ctx)
    table, matrix = family.table, family.matrix
    den = skew_inner_1(family.polys[2 * k - 2], _monomial(2 * k - 1), matrix)
    scale = abs(matrix.entry(2 * k - 2, 2 * k - 1)) + abs(den)
    if not abs(den) > scale * mp.mpf(2) ** (-ctx.mantissa_bits + 16):
        raise DegenerateInnerProduct(
            "pairing of p_{2k-2} against y^{2k-1} degenerates")
    # row 1 collapses onto the lower even family member
    c1 = _solve_row(table, matrix, k, d, 1, ctx)
    alpha = -_two_pi_i() * c1.coeff(2 * k - 2)
    target = family.polys[2 * k - 2]
    dev = mp.mpf(0)
    for s in range(2 * k - 1):
        dev = max(dev, abs(-_two_pi_i() * c1.coeff(s) - alpha * target.coeff(s)))
    collapse = dev / max(abs(alpha), mp.mpf(1))
    lower = [c1] + [_solve_row(table, matrix, k, d, r, ctx)
                    for r in range(2, d + 1)]
    return table, family, alpha, collapse, lower


def build_even(V: Potential, k: int,
               ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    """Unique solution with corner growth z^{2k}; rows 1..d are the
    -2*pi*i scaled moment-condition solves."""
    d = V.degree
    if 2 * k < d:
        raise UnsupportedRegime(
            f"need 2k >= d for a square condition system (k={k}, d={d})")
    with ctx.workprec():
        table, family, alpha, collapse, lower = _solved_rows(V, k, ctx)
        rows = [((mp.mpc(1), family.polys[2 * k]),)]
        rows += [((-_two_pi_i(), c),) for c in lower]
    problem = RHProblem(potential=V, k=k, parity="even")
    return RHSolution(problem, family, table, rows, alpha, collapse, ctx)


def build_odd(V: Potential, k: int, free_params=None,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    """General solution with corner growth z^{2k+1}: the even-problem
    rows shifted by gauge multiples of p_{2k}.

    free_params lists (a_k, b_0 .. b_{d-1}); omitted entries default 0.
    """
    d = V.degree
    if 2 * k + 1 < d:
        raise UnsupportedRegime(
            f"need 2k+1 >= d for a square condition system (k={k}, d={d})")
    if free_params is None:
        free_params = ()
    params = [mp.mpc(p) for p in free_params]
    if len(params) > d + 1:
        raise ValueError(f"at most d+1 = {d + 1} free parameters")
    params += [mp.mpc(0)] * (d + 1 - len(params))
    with ctx.workprec():
        table, family, alpha, collapse, lower = _solved_rows(V, k, ctx)
        p2k = family.polys[2 * k]
        rows = [((mp.mpc(1), family.polys[2 * k + 1]), (params[0], p2k))]
        rows += [((-_two_pi_i(), c), (b, p2k)) for c, b in zip(lower, params[1:])]
    problem = RHProblem(potential=V, k=k, parity="odd",
                        free_params=tuple(params))
    return RHSolution(problem, family, table, rows, alpha, collapse, ctx)


def build(problem: RHProblem, ctx: PrecisionContext = DEFAULT_CONTEXT) -> RHSolution:
    if problem.parity == "even":
        return build_even(problem.potential, problem.k, ctx)
    return build_odd(problem.potential, problem.k, problem.free_params, ctx)


# ---------------------------------------------------------------------------
# verification

def _check_ctx(sol: RHSolution, ctx):
    """Verification runs at the solution's own context; a different one
    would be ignored, so it is refused."""
    if ctx is not None and ctx != sol.ctx:
        raise ValueError(f"ctx {ctx} differs from the solution's {sol.ctx}")


def _jump_pair(Yp, Ym, jump_row):
    """The mismatch Y(x0 + i delta) - Y(x0 - i delta) M(x0)."""
    n = len(Yp)
    D = [[mp.mpc(0)] * n for _ in range(n)]
    for r in range(n):
        lead = Ym[r][0]
        D[r][0] = Yp[r][0] - lead
        for c in range(1, n):
            D[r][c] = Yp[r][c] - Ym[r][c] - lead * jump_row[c]
    return D


def jump_residual(sol: RHSolution, x,
                  ctx: PrecisionContext = None):
    """Max entry of the delta -> 0 extrapolated two-sided mismatch."""
    _check_ctx(sol, ctx)
    table = sol.table
    with mp.workprec(table._prec):
        x0 = mp.mpf(x)
        if abs(x0) > table.base_radius:
            raise ValueError("sample point outside the truncated support")
        jump_row = JumpMatrix(sol.problem.potential, sol.ctx,
                              table=table).first_row(x0)
        deltas = boundary_deltas()
        mats = [_jump_pair(Yp, Ym, jump_row)
                for Yp, Ym in sol._near_pairs(x0, deltas)]
        n = sol.size
        worst = mp.mpf(0)
        for r in range(n):
            for c in range(n):
                vals = [D[r][c] for D in mats]
                worst = max(worst, abs(richardson_limit(deltas, vals)))
        return worst


def asymptotic_exponents(sol: RHSolution, theta, radii,
                         ctx: PrecisionContext = None):
    """Least-squares slopes of log |Y_rc| vs log R along one ray.

    Entries with magnitudes at the noise floor come back as None; the
    caller compares the diagonal against expected_exponents().
    """
    _check_ctx(sol, ctx)
    table = sol.table
    with mp.workprec(table._prec):
        theta = mp.mpf(theta)
        if mp.sin(theta) < mp.mpf('0.05'):
            raise ValueError("ray must stay away from the real axis")
        radii = [mp.mpf(r) for r in radii]
        if len(radii) < 2:
            raise ValueError("need at least two radii for a slope fit")
        if min(radii) < 10 * table.base_radius:
            raise ValueError("radii must clear 10x the truncation radius")
        ray = mp.mpc(mp.cos(theta), mp.sin(theta))
        mags = [sol._eval_far(R * ray) for R in radii]
        floor = mp.mpf(2) ** (-sol.ctx.mantissa_bits // 2)
        n = sol.size
        out = [[None] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                vals = [abs(m[r][c]) for m in mags]
                if min(vals) >= floor:
                    out[r][c] = loglog_slope(radii, vals)
        return out


def det_residual(sol: RHSolution, z_samples,
                 ctx: PrecisionContext = None):
    """Even: max |det Y - 1|.  Odd: deviation of det Y from the best
    monic linear z + c* over the samples."""
    _check_ctx(sol, ctx)
    with mp.workprec(sol.table._prec):
        zs = [mp.mpc(z) for z in z_samples]
        if any(mp.im(z) == 0 for z in zs):
            raise ValueError("determinant samples must lie off the axis")
        dets = [determinant(sol.evaluate(z), sol.ctx) for z in zs]
        if sol.parity == "even":
            return max(abs(v - 1) for v in dets)
        shifts = [v - z for v, z in zip(dets, zs)]
        cstar = mp.fsum(shifts) / len(shifts)
        return max(abs(s - cstar) for s in shifts)


def identity_2_1_residual(V: Potential, f: Poly, j: int,
                          ctx: PrecisionContext = DEFAULT_CONTEXT,
                          table: WeightTable = None):
    """|<f, pi_{j+d-1}(y)>_1 - 2 <f, x^j>_2| for the bridge polynomial
    pi built from the potential derivative."""
    with ctx.workprec():
        pi = pi_polynomial(V, j)
        n = max(f.degree, pi.degree) + 1
        if table is not None:  # inner_2 reads m2 up to f.degree + j
            table.ensure_ranges(i_max=f.degree + j)
        matrix = build_skew_moment_matrix(V, 1, n, ctx, table=table)
        lhs = skew_inner_1(f, pi, matrix)
        rhs = 2 * inner_2(f, _monomial(j), matrix.table)
        return abs(lhs - rhs)
