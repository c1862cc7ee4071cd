"""Command-line front end for the package pipelines.

Subcommands: moments, polys, gram, zeros, rh-verify, pfaff-check,
pfaffian.  All numbers are emitted as decimal strings: each value is
rounded to the configured mantissa size and printed with enough digits
that parsing it back at that precision recovers the same bits.
Identical configurations produce identical bytes.  Exit codes: 0
success, 2 configuration error, 3 numerical failure.  Outputs go to
--out (stdout when absent); nothing partial is left behind on failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys

from mpmath import mp

from .errors import IntegrabilityError, SkewRHError, UnsupportedRegime
from .moments import build_skew_moment_matrix
from .numerics import PrecisionContext, determinant, loglog_slope
from .pfafflattice import band_deviation, build_lax, flow_check
from .potentials import Potential
from .rhp import (
    RHProblem,
    asymptotic_exponents,
    build,
    det_residual,
    jump_residual,
)
from .skewalg import gram_residual, pfaffian, skew_orthogonal_family
from .zeros import empirical_distribution, interlacing, roots

DEFAULT_BITS = 256
ENV_BITS = "SKEWRH_PRECISION_BITS"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated common configuration shared by every subcommand."""

    potential: Potential
    beta: int
    k_max: int | None
    precision_bits: int
    quad_tol: float
    fmt: str
    out: str | None

    @property
    def ctx(self) -> PrecisionContext:
        verify = max(1e-20, self.quad_tol * 1e6)
        return PrecisionContext(mantissa_bits=self.precision_bits,
                                quad_tol=self.quad_tol, verify_tol=verify)

    @property
    def digits(self) -> int:
        return math.ceil(self.precision_bits * 0.302) + 2

    def require_kmax(self) -> int:
        if self.k_max is None:
            raise ValueError("this command needs --kmax")
        return self.k_max

    def fmt_r(self, x) -> str:
        """Real scalar as a decimal string at exactly precision_bits."""
        if not isinstance(x, mp.mpf):
            with mp.workprec(self.precision_bits + 16):
                x = mp.mpf(x)
        with mp.workprec(self.precision_bits):
            x = +x
        return mp.nstr(x, self.digits)

    def fmt_c(self, z) -> dict:
        if not isinstance(z, mp.mpc):
            with mp.workprec(self.precision_bits + 16):
                z = mp.mpc(z)
        return {"re": self.fmt_r(z.real), "im": self.fmt_r(z.imag)}


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _meta(cfg: RunConfig, **extra) -> dict:
    head = {
        "potential": [cfg.fmt_r(c) for c in cfg.potential.poly.coeffs],
        "beta": cfg.beta,
        "precision_bits": cfg.precision_bits,
        "quad_tol": repr(cfg.quad_tol),
    }
    head.update(extra)
    return head


class _Emitter:
    """Write-or-stdout sink that can undo everything it created."""

    def __init__(self):
        self.written = []

    def emit(self, path, text: str):
        if path is None:
            sys.stdout.write(text)
            return
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.written.append(path)

    def cleanup(self):
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# argument parsing


_ANGLE_RE = re.compile(r"^([+-]?[0-9.]*)\s*pi\s*(?:/\s*([0-9.]+))?$")


def _parse_angle(text: str):
    s = text.strip().lower()
    m = _ANGLE_RE.match(s)
    if m:
        num = m.group(1)
        num = mp.mpf(num + "1" if num in ("", "+", "-") else num)
        den = mp.mpf(m.group(2)) if m.group(2) else mp.mpf(1)
        return num * mp.pi / den
    return mp.mpf(s)


def _split_list(text: str, parse):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError(f"empty list: {text!r}")
    return [parse(p) for p in parts]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrh",
        description="Skew-orthogonal families, Pfaffian algebra, and "
                    "matrix boundary-value verification at arbitrary "
                    "precision.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def common(sp, formats=("csv", "json")):
        sp.add_argument("--potential", required=True, metavar="C0,C1,...,CD",
                        help="coefficients of V(x) = sum_i c_i x^i "
                             "(even degree, positive leading)")
        sp.add_argument("--beta", type=int, choices=(1, 4), default=1,
                        help="ensemble exponent (default 1)")
        sp.add_argument("--kmax", type=int, default=None,
                        help="largest pair index of the family")
        sp.add_argument("--precision-bits", type=int, default=None,
                        help=f"mantissa bits (default {DEFAULT_BITS}, or "
                             f"${ENV_BITS})")
        sp.add_argument("--quad-tol", default="1e-30",
                        help="quadrature tolerance (default 1e-30)")
        sp.add_argument("--format", choices=formats, default=formats[0],
                        dest="fmt", help="output format")
        sp.add_argument("--out", default=None,
                        help="output path (stdout when omitted)")

    sp = sub.add_parser("moments",
                        help="skew moment matrix and one-d moments")
    common(sp)
    sp.add_argument("--n", type=int, default=None,
                    help="matrix size (default 2*kmax+2)")

    sp = sub.add_parser("polys", help="family coefficients and norms")
    common(sp)

    sp = sub.add_parser("gram", help="block-diagonalization residual")
    common(sp)

    sp = sub.add_parser("zeros",
                        help="family roots, interlacing, histogram")
    common(sp)
    sp.add_argument("--bins", type=int, default=40,
                    help="histogram bin count (default 40)")

    sp = sub.add_parser("rh-verify",
                        help="matrix boundary-value verification report")
    common(sp, formats=("json",))
    sp.add_argument("--k", type=int, required=True,
                    help="half-degree index of the problem")
    sp.add_argument("--parity", choices=("even", "odd"), default="even")
    sp.add_argument("--free-params", default=None, metavar="Z0,Z1,...",
                    help="complex gauge scalars for the odd problem")
    sp.add_argument("--rays", default="pi/3,2pi/3",
                    help="fit rays in radians; 'pi/3' style accepted")
    sp.add_argument("--radii", default=None,
                    help="fit radii (default: geometric ladder above the "
                         "jump support)")
    sp.add_argument("--jump-xs", default="-1.2,0.35,0.8",
                    help="real points for the jump residual")

    sp = sub.add_parser("pfaff-check",
                        help="band structure and deformation-flow residuals")
    common(sp, formats=("json",))
    sp.add_argument("--flow-j", default="2",
                    help="comma list of even deformation powers (default 2)")
    sp.add_argument("--t-step", default="1e-6",
                    help="largest finite-difference step (default 1e-6)")
    sp.add_argument("--halvings", type=int, default=3,
                    help="number of step halvings (default 3)")
    sp.add_argument("--window", type=int, default=4,
                    help="family pair index for the flow window (default 4)")

    sp = sub.add_parser("pfaffian",
                        help="Pfaffians of the even principal minors")
    common(sp)
    sp.add_argument("--n", type=int, default=None,
                    help="matrix size (default 2*kmax+2)")

    return parser


def _config(args) -> RunConfig:
    bits = args.precision_bits
    if bits is None:
        env = os.environ.get(ENV_BITS)
        if env is not None:
            try:
                bits = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_BITS} must be an integer, got {env!r}") from None
        else:
            bits = DEFAULT_BITS
    if bits < 64:
        raise ValueError("precision bits must be >= 64")
    try:
        quad_tol = float(args.quad_tol)
    except ValueError:
        raise ValueError(
            f"--quad-tol must be a number, got {args.quad_tol!r}") from None
    if not 0 < quad_tol < 1:
        raise ValueError("--quad-tol must lie in (0, 1)")
    if args.kmax is not None and args.kmax < 0:
        raise ValueError("--kmax must be >= 0")
    with mp.workprec(bits):
        potential = Potential.parse(args.potential)
    return RunConfig(potential=potential, beta=args.beta, k_max=args.kmax,
                     precision_bits=bits, quad_tol=quad_tol, fmt=args.fmt,
                     out=args.out)


# ---------------------------------------------------------------------------
# subcommands


def _resolve_n(cfg: RunConfig, args) -> int:
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be >= 1")
        return args.n
    if cfg.k_max is not None:
        return 2 * cfg.k_max + 2
    raise ValueError("this command needs --n or --kmax")


def cmd_moments(cfg: RunConfig, args, emitter: _Emitter):
    n = _resolve_n(cfg, args)
    ctx = cfg.ctx
    matrix = build_skew_moment_matrix(cfg.potential, cfg.beta, n, ctx)
    one_d = [matrix.table.moment(i) for i in range(2 * n)]
    if cfg.fmt == "csv":
        rows = [["table", "i", "j", "value"]]
        for i in range(n):
            for j in range(n):
                rows.append(["skew", str(i), str(j),
                             cfg.fmt_r(matrix.rows[i][j])])
        for i, v in enumerate(one_d):
            rows.append(["one_d", str(i), "", cfg.fmt_r(v)])
        emitter.emit(cfg.out, _csv_text(rows))
    else:
        report = _meta(cfg, n=n,
                       skew_moment_matrix=[[cfg.fmt_r(v) for v in row]
                                           for row in matrix.rows],
                       one_d_moments=[cfg.fmt_r(v) for v in one_d])
        emitter.emit(cfg.out, _json_text(report))


def cmd_polys(cfg: RunConfig, args, emitter: _Emitter):
    k_max = cfg.require_kmax()
    family = skew_orthogonal_family(cfg.potential, cfg.beta, k_max, cfg.ctx)
    width = len(family.polys[-1].coeffs)
    if cfg.fmt == "csv":
        rows = [["n"] + [f"c{i}" for i in range(width)]]
        for n, p in enumerate(family.polys):
            rows.append([str(n)] + [cfg.fmt_r(p.coeff(i))
                                    for i in range(width)])
        emitter.emit(cfg.out, _csv_text(rows))
    else:
        report = _meta(cfg, k_max=k_max,
                       polys=[{"n": n, "coeffs": [cfg.fmt_r(c)
                                                  for c in p.coeffs]}
                              for n, p in enumerate(family.polys)],
                       h=[cfg.fmt_r(v) for v in family.h])
        emitter.emit(cfg.out, _json_text(report))


def cmd_gram(cfg: RunConfig, args, emitter: _Emitter):
    k_max = cfg.require_kmax()
    family = skew_orthogonal_family(cfg.potential, cfg.beta, k_max, cfg.ctx)
    residual = gram_residual(family, ctx=cfg.ctx)
    if cfg.fmt == "csv":
        rows = [["key", "value"], ["beta", str(cfg.beta)],
                ["k_max", str(k_max)], ["gram_residual", cfg.fmt_r(residual)]]
        rows += [[f"h_{k}", cfg.fmt_r(v)] for k, v in enumerate(family.h)]
        emitter.emit(cfg.out, _csv_text(rows))
    else:
        report = _meta(cfg, k_max=k_max, gram_residual=cfg.fmt_r(residual),
                       h=[cfg.fmt_r(v) for v in family.h])
        emitter.emit(cfg.out, _json_text(report))


def _hist_path(base: str) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}.hist{ext}" if ext else f"{base}.hist"


def cmd_zeros(cfg: RunConfig, args, emitter: _Emitter):
    k_max = cfg.require_kmax()
    if cfg.out is None:
        raise ValueError("zeros writes two files and needs --out")
    if args.bins < 1:
        raise ValueError("--bins must be >= 1")
    ctx = cfg.ctx
    family = skew_orthogonal_family(cfg.potential, cfg.beta, k_max, ctx)
    reports = {}
    for n in range(1, 2 * k_max + 2):
        reports[n] = roots(family.polys[n], ctx)
    with ctx.workprec():
        pairing = {}
        for n in sorted(reports):
            if n + 2 in reports:
                try:
                    pairing[n] = interlacing(reports[n], reports[n + 2])
                except SkewRHError:
                    pairing[n] = False
        hist = empirical_distribution(
            [reports[n] for n in sorted(reports) if n % 2 == 0],
            bins=args.bins)
    max_deg = max(r.degree for r in reports.values())
    if cfg.fmt == "csv":
        head = ["n", "max_imag", "interlaces_next"]
        for i in range(max_deg):
            head += [f"root{i}_re", f"root{i}_im"]
        rows = [head]
        for n in sorted(reports):
            rep = reports[n]
            inter = pairing.get(n)
            row = [str(n), cfg.fmt_r(rep.max_imag),
                   "" if inter is None else str(inter).lower()]
            for z in rep.roots:
                row += [cfg.fmt_r(z.real), cfg.fmt_r(z.imag)]
            row += [""] * (2 * (max_deg - rep.degree))
            rows.append(row)
        emitter.emit(cfg.out, _csv_text(rows))
        hrows = [["bin_lo", "bin_hi", "mass"]]
        for lo, hi, mv in zip(hist.edges, hist.edges[1:], hist.mass):
            hrows.append([cfg.fmt_r(lo), cfg.fmt_r(hi), cfg.fmt_r(mv)])
        emitter.emit(_hist_path(cfg.out), _csv_text(hrows))
    else:
        report = _meta(cfg, k_max=k_max, reports=[
            {"n": n, "max_imag": cfg.fmt_r(reports[n].max_imag),
             "interlaces_next": pairing.get(n),
             "roots": [cfg.fmt_c(z) for z in reports[n].roots]}
            for n in sorted(reports)])
        emitter.emit(cfg.out, _json_text(report))
        hreport = {"edges": [cfg.fmt_r(e) for e in hist.edges],
                   "mass": [cfg.fmt_r(v) for v in hist.mass]}
        emitter.emit(_hist_path(cfg.out), _json_text(hreport))


def cmd_rh_verify(cfg: RunConfig, args, emitter: _Emitter):
    ctx = cfg.ctx
    if cfg.beta != 1:  # the problem is built from the beta = 1 family
        raise ValueError("rh-verify supports --beta 1 only")
    if cfg.k_max is not None:
        raise ValueError("rh-verify takes --k, not --kmax")
    if args.k < 0:
        raise ValueError("--k must be >= 0")
    with ctx.workprec():
        params = ()
        if args.free_params:
            params = tuple(_split_list(args.free_params,
                                       lambda s: mp.mpc(mp.mpmathify(s))))
        rays = _split_list(args.rays, _parse_angle)
        problem = RHProblem(potential=cfg.potential, k=args.k,
                            parity=args.parity, free_params=params)
        sol = build(problem, ctx)
        xs = _split_list(args.jump_xs, mp.mpf)
        jumps = [(x, jump_residual(sol, x, ctx)) for x in xs]
        if args.radii is not None:
            radii = _split_list(args.radii, mp.mpf)
        else:
            # asymptotic_exponents asks the radii to clear 10x this radius
            lo = max(mp.mpf(100), 10 * sol.table.base_radius * mp.mpf("1.001"))
            hi = max(mp.mpf(10000), 10 * lo)
            ratio = (hi / lo) ** (mp.mpf(1) / 4)
            radii = [lo * ratio ** i for i in range(5)]
        ray_reports = []
        for theta in rays:
            exps = asymptotic_exponents(sol, theta, radii, ctx)
            ray_reports.append(
                {"theta": cfg.fmt_r(theta),
                 "exponent_matrix": [[None if e is None else cfg.fmt_r(e)
                                      for e in row] for row in exps]})
        zpts = [mp.mpc(*p) for p in ((mp.mpf("1.3"), mp.mpf("1.1")),
                                     (mp.mpf("-0.7"), mp.mpf("1.6")),
                                     (mp.mpf("0.4"), mp.mpf("-1.3")),
                                     (mp.mpf("-1.8"), mp.mpf("1.2")),
                                     (mp.mpf("2.2"), mp.mpf("-1.5")))]
        detres = det_residual(sol, zpts, ctx)
        report = _meta(cfg, k=args.k, parity=args.parity,
                       free_params=[cfg.fmt_c(z) for z in params],
                       jump_points=[cfg.fmt_r(x) for x, _ in jumps],
                       jump_residuals=[cfg.fmt_r(r) for _, r in jumps],
                       fit_radii=[cfg.fmt_r(r) for r in radii],
                       rays=ray_reports,
                       expected_exponents=list(sol.expected_exponents()),
                       det_points=[cfg.fmt_c(z) for z in zpts],
                       det_residual=cfg.fmt_r(detres),
                       alpha_k=cfg.fmt_c(sol.alpha),
                       collapse_residual=cfg.fmt_r(sol.collapse_residual))
    emitter.emit(cfg.out, _json_text(report))


def cmd_pfaff_check(cfg: RunConfig, args, emitter: _Emitter):
    ctx = cfg.ctx
    band_k = cfg.k_max if cfg.k_max is not None else 8
    if band_k < 2:
        raise ValueError("band check needs kmax >= 2")
    flow_js = _split_list(args.flow_j, int)
    if args.halvings < 1:
        raise ValueError("--halvings must be >= 1")
    if args.window < 2:
        raise ValueError("--window must be >= 2")
    with ctx.workprec():
        t0 = mp.mpf(args.t_step)
        if not t0 > 0:
            raise ValueError("--t-step must be positive")
        family = skew_orthogonal_family(cfg.potential, cfg.beta, band_k, ctx)
        win, above, unit_dev = band_deviation(build_lax(family, ctx=ctx), ctx)
        flows = []
        for j in flow_js:
            steps = [t0 / 2 ** h for h in range(args.halvings + 1)]
            residuals = [flow_check(cfg.potential, j, t, args.window,
                                    cfg.beta, ctx) for t in steps]
            slope = loglog_slope(steps, residuals)
            flows.append({"j": j, "window_m": args.window,
                          "t_steps": [cfg.fmt_r(t) for t in steps],
                          "residuals": [cfg.fmt_r(r) for r in residuals],
                          "slope": cfg.fmt_r(slope)})
        report = _meta(cfg, k_max=band_k, band={
            "window_rows": win,
            "max_above_superdiagonal": cfg.fmt_r(above),
            "max_unit_superdiagonal_deviation": cfg.fmt_r(unit_dev),
        }, flows=flows)
    emitter.emit(cfg.out, _json_text(report))


def cmd_pfaffian(cfg: RunConfig, args, emitter: _Emitter):
    n = _resolve_n(cfg, args)
    ctx = cfg.ctx
    matrix = build_skew_moment_matrix(cfg.potential, cfg.beta, n, ctx)
    entries = []
    with ctx.workprec():
        for m in range(2, n + 1, 2):
            sub = [list(row[:m]) for row in matrix.rows[:m]]
            pf = pfaffian(sub, ctx)
            det = determinant(sub, ctx)
            entries.append((m, pf, det, abs(pf * pf - det)))
    if cfg.fmt == "csv":
        rows = [["m", "pfaffian", "determinant", "pf_sq_minus_det"]]
        for m, pf, det, dev in entries:
            rows.append([str(m), cfg.fmt_r(pf), cfg.fmt_r(det),
                         cfg.fmt_r(dev)])
        emitter.emit(cfg.out, _csv_text(rows))
    else:
        report = _meta(cfg, n=n, minors=[
            {"m": m, "pfaffian": cfg.fmt_r(pf), "determinant": cfg.fmt_r(det),
             "pf_sq_minus_det": cfg.fmt_r(dev)}
            for m, pf, det, dev in entries])
        emitter.emit(cfg.out, _json_text(report))


_COMMANDS = {
    "moments": cmd_moments,
    "polys": cmd_polys,
    "gram": cmd_gram,
    "zeros": cmd_zeros,
    "rh-verify": cmd_rh_verify,
    "pfaff-check": cmd_pfaff_check,
    "pfaffian": cmd_pfaffian,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
    except (ValueError, IntegrabilityError) as exc:
        print(f"skewrh: configuration error: {exc}", file=sys.stderr)
        return 2
    emitter = _Emitter()
    try:
        _COMMANDS[args.command](cfg, args, emitter)
    except (ValueError, UnsupportedRegime) as exc:
        emitter.cleanup()
        print(f"skewrh: configuration error: {exc}", file=sys.stderr)
        return 2
    except SkewRHError as exc:
        emitter.cleanup()
        print(f"skewrh: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        emitter.cleanup()
        print(f"skewrh: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
