"""The three workloads: rh-verify, families and cli-readme.

Each one runs whole rounds of a seeded input list (see inputs.py).  Every
call into skewrh goes through the Recorder, which times it; the outputs are
checked with checks.py after the timed calls.  A call that raises a
SkewRHError fails its item: the item's unfinished calls count as attempted
and failed, so every round attempts the same number of operations.

Every workload reaches every layer in layers.LAYERS, so that a traced run of
any workload reports the same per-layer metrics (see layers.per_layer).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import sys

from mpmath import mp

from skewrh import (
    PrecisionContext,
    Potential,
    SkewRHError,
    asymptotic_exponents,
    build_even,
    build_lax,
    build_odd,
    build_skew_moment_matrix,
    det_residual,
    get_weight_table,
    gram_residual,
    interlacing,
    jump_residual,
    pfaffian_polynomials,
    roots,
    skew_orthogonal_family,
)
from skewrh import potentials
from skewrh.quadrature import ts_mapped_level

import checks as ck
import inputs
import layers
from harness import OUT, SRC, peak_rss_mb, run_child

AMBIENT_BITS = 320        # our own arithmetic, above the program's 256 bits
CTX = PrecisionContext()
NODE_LEVEL = 9            # the level quartic and sextic tables end on


def digits(residuals):
    """-log10 of the worst residual."""
    worst = max(float(r) for r in residuals)
    return -math.log10(max(worst, 1e-300))


class Workload:
    """Shared set-up, failure accounting and per-layer reporting."""

    def __init__(self, rec, checks, timer=None):
        self.rec, self.checks, self.timer = rec, checks, timer
        self.held_before = set()
        self.grams, self.dets = [], []     # residuals, for the .digits metrics

    def prepare(self):
        """Generate the node tables (timed) and build the x^2/2 table, as the
        set-up children do, so the timed rounds start from a ready process."""
        mp.prec = AMBIENT_BITS
        self.rec.call("quadrature.ts_mapped_level", ts_mapped_level,
                      -1, 1, CTX.mantissa_bits + 16, NODE_LEVEL)
        self.rec.call("setup.get_weight_table", get_weight_table,
                      Potential.parse(inputs.SETUP_POTENTIAL), CTX)
        self.held_before = set(potentials._TABLE_REGISTRY)
        if self.timer is not None:
            self.timer.reset()

    def per_layer(self, rounds):
        """Layer self times and calls per round, the grids of the tables
        built in the rounds, and the accuracy of the run's residuals."""
        out = layers.per_layer([self.timer.snapshot(self.held_before)], rounds)
        out.update(self.accuracy())
        return out

    def accuracy(self):
        return {"skewalg.gram_residual.digits": (digits(self.grams), "digits"),
                "rhp.det_residual.digits": (digits(self.dets), "digits")}

    def peak_rss_mb(self):
        return peak_rss_mb()

    def guarded(self, planned, fn, *args):
        start = self.rec.attempted
        try:
            fn(*args)
        except SkewRHError as exc:
            left = planned - (self.rec.attempted - start)
            self.rec.attempted += left
            self.rec.failed += left
            print(f"operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)

    def expect(self, name, result):
        ok, err = result
        self.checks.expect(name, ok, err)

    @staticmethod
    def medians(**samples):
        """Stage times for the run record: the median over the run's samples."""
        return {k: statistics.median(v) for k, v in samples.items() if v}



class RHVerify(Workload):
    """Boundary-value solutions of even potentials of degree 2 and 4: cold
    and held-table builds, off-axis checks and a jump residual at a new
    point.  Near-axis Cauchy sums dominate.  The k+1 solution's family also
    gets its Gram residual, roots and interlacing."""

    # 3 builds, 3 x (det_residual + 2 asymptotic_exponents), first jump;
    # the same point again only at degree 2, to keep the run short
    OPS_PER_ITEM = 13
    REPEAT_DEGREE = 2

    def __init__(self, rec, checks, seed, timer=None):
        super().__init__(rec, checks, timer)
        self.rounds = inputs.rh_rounds(seed)
        self.builds, self.jumps, self.checks_s = [], [], []
        self.jump_res = []

    def run_round(self, r):
        for item in self.rounds[r]:
            k = item.k
            # gram_residual, roots of p_1..p_(2k+3), interlacing of m, m+2
            family_ops = 1 + (2 * k + 3) + (2 * k + 1)
            planned = (self.OPS_PER_ITEM + family_ops
                       + (2 * k == self.REPEAT_DEGREE))
            self.guarded(planned, self._item, item)

    def _item(self, it):
        rec = self.rec
        V = Potential.parse(it.coeffs)
        d, k = V.degree, it.k
        sol = rec.call("rhp.build_even", build_even, V, k, CTX)
        self.builds.append(rec.last)
        odd = rec.call("rhp.build_odd", build_odd, V, k, list(it.gauge), CTX)
        self.builds.append(rec.last)
        sol2 = rec.call("rhp.build_even", build_even, V, k + 1, CTX)
        self.builds.append(rec.last)

        zs = [mp.mpc(z) for z in it.det_points]
        lo = max(mp.mpf(100), 10 * sol.table.base_radius * mp.mpf("1.001"))
        hi = max(mp.mpf(10000), 10 * lo)
        radii = [lo * (hi / lo) ** (mp.mpf(i) / 4) for i in range(5)]
        dets, exps = [], []
        for s in (sol, odd, sol2):
            with rec.stage("rh.checks") as spent:
                dets.append(rec.call("rhp.det_residual", det_residual, s, zs, CTX))
                exps.append([rec.call("rhp.asymptotic_exponents", asymptotic_exponents,
                                      s, mp.pi * th, radii, CTX) for th in it.rays])
            self.checks_s.append(spent[0])

        x = mp.mpf(it.jump_x)
        jr = rec.call("rhp.jump_residual.first", jump_residual, sol, x, CTX)
        self.jumps.append(rec.last)
        self.jump_res.append(jr)
        if d == self.REPEAT_DEGREE:
            self.jump_res.append(rec.call("rhp.jump_residual.repeat",
                                          jump_residual, sol, x, CTX))
        self.dets += dets

        fam = sol2.family
        n = len(fam.polys)
        gram = rec.call("skewalg.gram_residual", gram_residual, fam, ctx=CTX)
        reps = {m: rec.call("zeros.roots", roots, fam.polys[m], CTX)
                for m in range(1, n)}
        flags = [rec.call("zeros.interlacing", interlacing, reps[m], reps[m + 2])
                 for m in range(1, n - 2)]
        self.grams.append(gram)

        worst = max(self.jump_res[-2:] if d == self.REPEAT_DEGREE else [jr])
        self.expect("rh.jump_residual", (worst <= ck.TOL_JUMP, worst))
        for det in dets:
            self.expect("rh.det_residual", (det <= ck.TOL_DET, det))
        for z in zs:
            self.expect("rh.det_mpmath", ck.check_det(sol.evaluate(z)))
        for s, ray_exps in zip((sol, odd, sol2), exps):
            for e in ray_exps:
                self.expect("rh.exponents", ck.check_exponents(e, s.expected_exponents()))
        for s, kk in ((sol, k), (sol2, k + 1)):
            M = s.family.matrix
            D = mp.fsum(c * M.entry(i, 2 * kk - 1)
                        for i, c in enumerate(s.family.polys[2 * kk - 2].coeffs))
            self.expect("rh.alpha_closed_form", ck.check_alpha(s.alpha, d, V.leading, D))
        gap = abs(odd.alpha - sol.alpha) / abs(sol.alpha)
        self.expect("rh.odd_alpha_matches_even", (gap <= ck.TOL_ALPHA, gap))
        Y = sol.evaluate(zs[0])
        p = sol.family.polys[2 * k].coeffs
        self.expect("rh.cauchy_Y01", ck.check_cauchy(Y[0][1], it.coeffs, p, zs[0], 1))
        if d == 2:
            # nested quadrature; one w_n column per round keeps its cost down
            self.expect("rh.cauchy_w0", ck.check_cauchy(Y[0][2], it.coeffs, p, zs[0], 2))
        self.expect("rh.family_gram_residual", (gram <= ck.TOL_GRAM, gram))
        for m, rep in reps.items():
            self.expect("rh.family_roots_rebuild", ck.check_roots(fam.polys[m].coeffs, rep.roots))
        for m, flag in zip(range(1, n - 2), flags):
            ok, imag = ck.check_real_interlacing(reps[m].roots, reps[m + 2].roots)
            self.expect("rh.family_real_interlacing", (ok and flag is True, imag))

    def stages(self):
        out = self.medians(jump_point_s=self.jumps, rh_build_s=self.builds,
                           rh_checks_s=self.checks_s)
        out["rhp.jump_residual.digits"] = digits(self.jump_res)
        return out

    def inputs_used(self, rounds):
        return [[dataclasses.asdict(it) for it in rnd] for rnd in self.rounds[:rounds]]


class Families(Workload):
    """Quartic and sextic potentials, each new to the process: weight table,
    beta=1 and beta=4 families, bordered Pfaffians, Lax matrix and roots,
    then the boundary-value solution of the smallest k on the held table and
    its determinant off the axis.  Weight-table builds and grid sums
    dominate; jump_residual, where rh-verify spends most, is never called."""

    KMAX = inputs.FAMILY_KMAX
    N = 2 * KMAX + 2
    OPS_PER_ITEM = 6 + (KMAX + 1) + 1 + (N - 1) + (N - 3) + 2
    MOMENT_INDICES = (0, 1, 6, 13, 26)
    LAX_POINT = "0.7"

    def __init__(self, rec, checks, seed, timer=None):
        super().__init__(rec, checks, timer)
        self.rounds = inputs.family_rounds(seed)
        self.family_s, self.roots_s, self.boundary_s = [], [], []

    def run_round(self, r):
        for item in self.rounds[r]:
            self.guarded(self.OPS_PER_ITEM, self._item, item)

    def _item(self, it):
        rec, n, kmax = self.rec, self.N, self.KMAX
        V = Potential.parse(it.coeffs)
        with rec.stage("families.family") as spent:
            table = rec.call("potentials.get_weight_table", get_weight_table,
                             V, CTX, i_max=2 * n - 1, w_max=n - 1)
            M = rec.call("moments.build_skew_moment_matrix",
                         build_skew_moment_matrix, V, 1, n, CTX, table=table)
            f1 = rec.call("skewalg.skew_orthogonal_family", skew_orthogonal_family,
                          V, 1, kmax, CTX, matrix=M, table=table)
            g1 = rec.call("skewalg.gram_residual", gram_residual, f1, ctx=CTX)
            f4 = rec.call("skewalg.skew_orthogonal_family", skew_orthogonal_family,
                          V, 4, kmax, CTX, table=table)
            g4 = rec.call("skewalg.gram_residual", gram_residual, f4, ctx=CTX)
            bordered = [rec.call("skewalg.pfaffian_polynomials",
                                 pfaffian_polynomials, M, j, CTX)
                        for j in range(kmax + 1)]
            lax = rec.call("pfafflattice.build_lax", build_lax, f1, ctx=CTX)
        self.family_s.append(spent[0])
        with rec.stage("families.roots") as spent:
            reps = {m: rec.call("zeros.roots", roots, f1.polys[m], CTX)
                    for m in range(1, n)}
            flags = [rec.call("zeros.interlacing", interlacing, reps[m], reps[m + 2])
                     for m in range(1, n - 2)]
        self.roots_s.append(spent[0])
        k = V.degree // 2
        with rec.stage("families.boundary") as spent:
            sol = rec.call("rhp.build_even", build_even, V, k, CTX)
            det = rec.call("rhp.det_residual", det_residual, sol,
                           [mp.mpc(z) for z in it.det_points], CTX)
        self.boundary_s.append(spent[0])
        self.grams += [g1, g4]
        self.dets.append(det)

        for i in self.MOMENT_INDICES:
            self.expect("families.moment", ck.check_moment(table.moment(i), it.coeffs, i, 1))
            self.expect("families.moment2", ck.check_moment(table.moment2(i), it.coeffs, i, 2))
        i, j = it.skew_entry
        self.expect("families.skew_entry_nested",
                    ck.check_skew_entry(M.entry(i, j), it.coeffs, i, j))
        for g in (g1, g4):
            self.expect("families.gram_residual", (g <= ck.TOL_GRAM, g))
        for j, (pe, po) in enumerate(bordered):
            self.expect("families.bordered_pfaffian_agrees",
                        ck.check_agreement(pe.coeffs, f1.polys[2 * j].coeffs))
            self.expect("families.bordered_pfaffian_agrees",
                        ck.check_agreement(po.coeffs, f1.polys[2 * j + 1].coeffs))
        self._check_lax(lax, f1)
        self.expect("families.det_residual", (det <= ck.TOL_DET, det))
        D = mp.fsum(c * M.entry(i, 2 * k - 1)
                    for i, c in enumerate(f1.polys[2 * k - 2].coeffs))
        self.expect("families.alpha_closed_form",
                    ck.check_alpha(sol.alpha, V.degree, V.leading, D))
        for m, rep in reps.items():
            self.expect("families.roots_rebuild", ck.check_roots(f1.polys[m].coeffs, rep.roots))
        for m, flag in zip(range(1, n - 2), flags):
            ok, imag = ck.check_real_interlacing(reps[m].roots, reps[m + 2].roots)
            self.expect("families.real_interlacing", (ok and flag is True, imag))

    def _check_lax(self, lax, fam):
        """x phat_i(x0) = sum_j L_ij phat_j(x0) at one point, phat_j the
        orthonormalized family members."""
        x0 = mp.mpf(self.LAX_POINT)
        phat = [fam.orthonormal(j)(x0) for j in range(lax.n + 1)]
        worst = mp.mpf(0)
        # the last row reaches column n, outside the n x n block
        for i in range(lax.n - 1):
            rhs = mp.fsum(lax.rows[i][j] * phat[j] for j in range(lax.n))
            scale = max(1, abs(x0 * phat[i]))
            worst = max(worst, abs(x0 * phat[i] - rhs) / scale)
        self.expect("families.lax_multiplication", (worst <= ck.TOL_AGREE, worst))

    def stages(self):
        return self.medians(family_s=self.family_s, roots_s=self.roots_s,
                            boundary_s=self.boundary_s)

    def inputs_used(self, rounds):
        return [[dataclasses.asdict(it) for it in rnd] for rnd in self.rounds[:rounds]]


class CliReadme(Workload):
    """The README examples, each in a fresh process, one after another.
    Every command pays import, node tables and cold weight tables."""

    def __init__(self, rec, checks, seed, timer=None):
        super().__init__(rec, checks, timer)
        self.order = inputs.cli_order(seed)
        self.rounds = [self.order] * inputs.ROUNDS
        self.dir = OUT / "cli"
        self.digest_file = self.dir / "digests.json"
        self.passes, self.first_pass_rss = [], None
        self.rss = {}
        self.snapshots = []       # one layer snapshot per traced child

    def command(self, name, argv):
        """The child's command line: the CLI itself, or with --trace 1 the
        CLI under the layer timer (cli_child.py)."""
        if self.timer is None:
            return [sys.executable, "-m", "skewrh.cli", *argv]
        return [sys.executable, str(SRC.parent / "bench" / "cli_child.py"),
                str(self.dir / f"{name}.layers.json"), *argv]

    def run_round(self, r):
        self.dir.mkdir(parents=True, exist_ok=True)
        codes, rss = {}, {}
        with self.rec.stage("cli.pass") as spent:
            for name, argv in self.order:
                argv = [a.format(out=self.dir) for a in argv]
                _, codes[name], rss[name] = self.rec.call(
                    f"cli.{name}", run_child, self.command(name, argv),
                    self.dir / f"{name}.stdout")
                if codes[name] != 0:
                    self.rec.failed += 1
                elif self.timer is not None:
                    self.snapshots.append(json.loads(
                        (self.dir / f"{name}.layers.json").read_text()))
        self.passes.append(spent[0])
        if self.first_pass_rss is None:
            self.first_pass_rss = max(rss.values())
        for name, mb in rss.items():
            self.rss.setdefault(name, []).append(mb)
        self._check_pass(codes)

    def _check_pass(self, codes):
        outputs = {}
        for name, _ in self.order:
            self.checks.expect("cli.exit_code", codes[name] == 0, codes[name])
            if codes[name] != 0:
                continue
            files = {}
            if name == "zeros":
                files = {f: (self.dir / f).read_text()
                         for f in ("zeros.csv", "zeros.hist.csv")}
            outputs[name] = ((self.dir / f"{name}.stdout").read_text(), files)
        for name in outputs:
            if name == "polys" and "gram" not in outputs:
                continue
            for check, err, tol in ck.cli_errors(name, outputs):
                self.checks.expect(f"cli.{name}.{check}", err <= tol, err)
                if check == "gram":
                    self.grams.append(err)
                elif check == "det":
                    self.dets.append(err)
        # byte-identical output: against every earlier pass in this checkout
        seen = (json.loads(self.digest_file.read_text())
                if self.digest_file.is_file() else {})
        for name, argv in self.order:
            if name not in outputs:
                continue
            stdout, files = outputs[name]
            blob = stdout + "".join(f"\0{k}\0{files[k]}" for k in sorted(files))
            digest = hashlib.sha256(blob.encode()).hexdigest()
            key = " ".join(argv)
            if key in seen:
                self.checks.expect("cli.byte_identical", seen[key] == digest)
            seen[key] = digest
        self.digest_file.write_text(json.dumps(seen, indent=1, sort_keys=True))

    def peak_rss_mb(self):
        return self.first_pass_rss

    def per_layer(self, rounds):
        """From the children: every command's process is new, so its
        tables and node levels are all built in the pass."""
        out = layers.per_layer(self.snapshots, rounds)
        out.update(self.accuracy())
        return out

    def stages(self):
        out = self.medians(cli_pass_s=self.passes,
                           **{f"cli.{name}_s": self.rec.durations[f"cli.{name}"]
                              for name, _ in self.order})
        out.update({f"cli.{name}.peak_rss_mb": max(mbs) for name, mbs in self.rss.items()})
        return out

    def inputs_used(self, rounds):
        return [name for name, _ in self.order]


WORKLOADS = {"rh-verify": RHVerify, "families": Families, "cli-readme": CliReadme}
