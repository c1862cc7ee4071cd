"""Tests of the benchmark's own checks and input draws.

Each check must accept the program's answer and reject one that is off by
a small, stated amount.  Run from the repository root:

    python3 -m pytest bench -q
"""
import json
import sys
from pathlib import Path

import pytest
from mpmath import mp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks as ck  # noqa: E402
import inputs  # noqa: E402
from skewrh import (PrecisionContext, Potential, build_even,  # noqa: E402
                    build_skew_moment_matrix, get_weight_table, roots,
                    skew_orthogonal_family)

GAUSS = "0,0,0.5"
QUARTIC = "0,0,0.46875,0,0.90625"
CTX = PrecisionContext()


@pytest.fixture(autouse=True)
def _ambient_precision():
    old = mp.prec
    mp.prec = 320
    yield
    mp.prec = old


def test_one_seed_one_input_list():
    assert inputs.rh_rounds(7) == inputs.rh_rounds(7)
    assert inputs.family_rounds(7) == inputs.family_rounds(7)
    assert inputs.cli_order(7) == inputs.cli_order(7)
    assert inputs.rh_rounds(7) != inputs.rh_rounds(8)
    assert inputs.family_rounds(7) != inputs.family_rounds(8)


def test_inputs_are_new_to_the_process():
    for rounds in (inputs.rh_rounds(3), inputs.family_rounds(3)):
        coeffs = [it.coeffs for rnd in rounds for it in rnd]
        assert len(set(coeffs)) == len(coeffs)
        assert inputs.SETUP_POTENTIAL not in coeffs
    xs = [it.jump_x for rnd in inputs.rh_rounds(3) for it in rnd]
    assert len(set(xs)) == len(xs) and all(-2 <= x <= 2 for x in xs)


@pytest.mark.parametrize("factor", [1, 2])
def test_moment_check_rejects_1e20_relative(factor):
    table = get_weight_table(Potential.parse(QUARTIC), CTX, i_max=8)
    value = table.moment(6) if factor == 1 else table.moment2(6)
    assert ck.check_moment(value, QUARTIC, 6, factor)[0]
    assert not ck.check_moment(value * (1 + mp.mpf("1e-20")), QUARTIC, 6, factor)[0]


def test_skew_entry_check_rejects_1e20_relative():
    M = build_skew_moment_matrix(Potential.parse(QUARTIC), 1, 6, CTX)
    value = M.entry(2, 5)
    assert ck.check_skew_entry(value, QUARTIC, 2, 5)[0]
    assert not ck.check_skew_entry(value * (1 + mp.mpf("1e-20")), QUARTIC, 2, 5)[0]


def test_root_check_rejects_moved_root():
    fam = skew_orthogonal_family(Potential.parse(GAUSS), 1, 2, CTX)
    p = fam.polys[5]
    rs = list(roots(p, CTX).roots)
    assert ck.check_roots(p.coeffs, rs)[0]
    moved = rs[:2] + [rs[2] + mp.mpf("1e-12")] + rs[3:]
    assert not ck.check_roots(p.coeffs, moved)[0]


def test_interlacing_check_rejects_crossed_roots():
    fam = skew_orthogonal_family(Potential.parse(GAUSS), 1, 3, CTX)
    lo, hi = roots(fam.polys[4], CTX).roots, roots(fam.polys[6], CTX).roots
    assert ck.check_real_interlacing(lo, hi)[0]
    assert not ck.check_real_interlacing(hi[:4], hi)[0]


@pytest.mark.parametrize("col", [1, 2])
def test_cauchy_check_rejects_entry_off_by_1e20(col):
    sol = build_even(Potential.parse(GAUSS), 1, CTX)
    z = mp.mpc("1.3", "1.1")
    value = sol.evaluate(z)[0][col]
    p = sol.family.polys[2].coeffs
    assert ck.check_cauchy(value, GAUSS, p, z, col)[0]
    off = value + mp.mpf("1e-20") * abs(value)
    assert not ck.check_cauchy(off, GAUSS, p, z, col)[0]


def _rh_report(jump):
    return json.dumps({
        "jump_residuals": [jump], "det_residual": "1e-40",
        "expected_exponents": [4, -3, -1],
        "rays": [{"exponent_matrix": [["4.001", None, None],
                                      [None, "-2.999", None],
                                      [None, None, "-1.0"]]}]})


def test_cli_check_rejects_jump_residual_1e30():
    def worst(jump, check):
        out = ck.cli_errors("rh-verify", {"rh-verify": (_rh_report(jump), {})})
        return next((err, tol) for name, err, tol in out if name == check)

    err, tol = worst("1e-45", "jump")
    assert err <= tol
    err, tol = worst("1e-30", "jump")
    assert err > tol


def test_cli_check_gaussian_moments():
    good = "table,i,j,value\n" + "".join(
        f"one_d,{i},,{mp.nstr(ck.gaussian_moment(i) if i % 2 == 0 else 0, 80)}\n"
        for i in range(6))
    errs = ck.cli_errors("moments", {"moments": (good, {})})
    assert all(err <= tol for _, err, tol in errs)
    bad = good.splitlines()
    bad[1] = f"one_d,0,,{mp.nstr(ck.gaussian_moment(0) * (1 + mp.mpf('1e-20')), 80)}"
    errs = ck.cli_errors("moments", {"moments": ("\n".join(bad) + "\n", {})})
    assert not all(err <= tol for _, err, tol in errs)


def test_layer_metrics_are_the_manifests():
    """Every workload prints layers.per_layer plus the two accuracy
    metrics; together they must be BENCHMARK.json's per-layer list."""
    import layers
    import workloads
    snap = {"self_s": dict.fromkeys(layers.LAYERS, 1.0),
            "calls": dict.fromkeys(layers.LAYERS, 1),
            "tables": [{"nodes": 10, "active": 5, "level": 9, "escalations": 0}]}
    wl = workloads.Workload(rec=None, checks=None)
    wl.grams, wl.dets = [mp.mpf("1e-30")], [mp.mpf("1e-40")]
    got = {**layers.per_layer([snap], 1), **wl.accuracy()}
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: u for k, (_, u) in got.items()} == {
        m["name"]: m["unit"] for m in manifest["per_layer"]}
