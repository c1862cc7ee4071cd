"""End-to-end command-line checks run through fresh subprocesses."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from mpmath import mp

GAUSS = "0,0,0.5"
QUARTIC = "0,0,0.5,0,1"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SKEWRH_PRECISION_BITS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "skewrh.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def fmt_bits(x, bits):
    with mp.workprec(bits):
        x = +x
    return mp.nstr(x, math.ceil(bits * 0.302) + 2)


def test_moments_reference_value():
    res = run_cli("moments", "--potential", GAUSS, "--n", "6",
                  "--precision-bits", "128", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["beta"] == 1 and data["n"] == 6
    m01 = mp.mpf(data["skew_moment_matrix"][0][1])
    assert abs(m01 + 2 * mp.sqrt(mp.pi)) <= mp.mpf("1e-25")
    # antisymmetry survives serialization
    m10 = mp.mpf(data["skew_moment_matrix"][1][0])
    assert m10 == -m01
    m0 = mp.mpf(data["one_d_moments"][0])
    assert abs(m0 - mp.sqrt(2 * mp.pi)) <= mp.mpf("1e-25")


def test_moments_beta4_reference_value():
    res = run_cli("moments", "--potential", GAUSS, "--beta", "4", "--n", "2",
                  "--precision-bits", "128", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    m01 = mp.mpf(data["skew_moment_matrix"][0][1])
    assert abs(m01 - mp.sqrt(2 * mp.pi)) <= mp.mpf("1e-25")


def test_moments_csv_layout():
    res = run_cli("moments", "--potential", GAUSS, "--n", "2",
                  "--precision-bits", "128")
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["table", "i", "j", "value"]
    skew = {(r[1], r[2]): r[3] for r in rows[1:] if r[0] == "skew"}
    assert abs(mp.mpf(skew[("0", "1")]) + 2 * mp.sqrt(mp.pi)) \
        <= mp.mpf("1e-25")
    one_d = [r for r in rows[1:] if r[0] == "one_d"]
    assert len(one_d) == 4


def test_polys_row_contains_reference_coeffs():
    res = run_cli("polys", "--potential", GAUSS, "--kmax", "2",
                  "--precision-bits", "128")
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout)))
    byn = {r[0]: r[1:] for r in rows[1:]}
    p2 = [mp.mpf(v) for v in byn["2"][:3]]
    assert abs(p2[0] + mp.mpf("0.5")) <= mp.mpf("1e-30")
    # even members carry their cross-parity coefficients as solved values,
    # so zero only up to the accumulated quadrature error
    assert abs(p2[1]) <= mp.mpf("1e-35")
    assert p2[2] == 1


def test_gram_residual_small():
    res = run_cli("gram", "--potential", GAUSS, "--kmax", "2",
                  "--precision-bits", "128", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert mp.mpf(data["gram_residual"]) <= mp.mpf("1e-20")
    assert abs(mp.mpf(data["h"][0]) + 2 * mp.sqrt(mp.pi)) <= mp.mpf("1e-25")


def test_round_trip_serialization_is_bit_exact():
    res = run_cli("moments", "--potential", GAUSS, "--n", "4",
                  "--precision-bits", "128", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    vals = [v for row in data["skew_moment_matrix"] for v in row]
    vals += data["one_d_moments"]
    for s in vals:
        assert fmt_bits(mp.mpf(s), 128) == s


def test_determinism_byte_identical():
    args = ("moments", "--potential", QUARTIC, "--n", "3",
            "--precision-bits", "128", "--format", "json")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_zeros_writes_report_and_histogram(tmp_path):
    out = tmp_path / "zeros.csv"
    res = run_cli("zeros", "--potential", QUARTIC, "--kmax", "2",
                  "--precision-bits", "128", "--bins", "8",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    hist = tmp_path / "zeros.hist.csv"
    assert out.exists() and hist.exists()
    rows = list(csv.reader(out.open()))
    assert rows[0][:3] == ["n", "max_imag", "interlaces_next"]
    byn = {r[0]: r for r in rows[1:]}
    assert set(byn) == {"1", "2", "3", "4", "5"}
    for n in ("1", "2", "3", "4", "5"):
        assert mp.mpf(byn[n][1]) <= mp.mpf("1e-10")
    for n in ("1", "2", "3"):
        assert byn[n][2] == "true"
    for n in ("4", "5"):
        assert byn[n][2] == ""
    hrows = list(csv.reader(hist.open()))
    assert hrows[0] == ["bin_lo", "bin_hi", "mass"]
    total = mp.fsum(mp.mpf(r[2]) for r in hrows[1:])
    assert abs(total - 1) <= mp.mpf("1e-30")


def test_rh_verify_report():
    # a ray in the lower half-plane fits the same diagonal
    res = run_cli("rh-verify", "--potential", GAUSS, "--k", "1",
                  "--parity", "even", "--precision-bits", "128",
                  "--rays", "pi/3,2pi/3,-pi/3", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert len(data["rays"]) == 3
    assert mp.mpf(data["rays"][2]["theta"]) < 0
    for s in data["jump_residuals"]:
        assert mp.mpf(s) <= mp.mpf("1e-20")
    assert mp.mpf(data["det_residual"]) <= mp.mpf("1e-18")
    assert mp.mpf(data["collapse_residual"]) <= mp.mpf("1e-18")
    alpha = mp.mpc(mp.mpf(data["alpha_k"]["re"]), mp.mpf(data["alpha_k"]["im"]))
    assert abs(alpha + mp.mpc(0, 2) * mp.sqrt(mp.pi)) <= mp.mpf("1e-25")
    assert data["expected_exponents"] == [2, -1, -1]
    for ray in data["rays"]:
        diag = [ray["exponent_matrix"][i][i] for i in range(3)]
        for got, want in zip(diag, data["expected_exponents"]):
            assert got is not None
            assert abs(mp.mpf(got) - want) <= mp.mpf("0.1")


def test_rh_verify_refuses_beta_4_and_kmax():
    # the problem is built from the beta = 1 family up to p_2k alone, so
    # either flag would be ignored while the report echoes it
    for flag in (["--beta", "4"], ["--kmax", "7"]):
        res = run_cli("rh-verify", "--potential", GAUSS, "--k", "1", *flag,
                      "--precision-bits", "128")
        assert res.returncode == 2, flag
        assert "configuration error" in res.stderr
        assert flag[0] in res.stderr
        assert res.stdout == ""


def test_rh_verify_refuses_free_params_for_even():
    # the even solution is unique, so gauge parameters would be ignored
    # while the report echoes them
    res = run_cli("rh-verify", "--potential", GAUSS, "--k", "1", "--parity",
                  "even", "--free-params", "1,2", "--precision-bits", "128")
    assert res.returncode == 2
    assert "configuration error" in res.stderr
    assert "odd problems only" in res.stderr
    assert res.stdout == ""


def test_pfaffian_minors():
    res = run_cli("pfaffian", "--potential", GAUSS, "--n", "4",
                  "--precision-bits", "128", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    first = data["minors"][0]
    assert first["m"] == 2
    assert abs(mp.mpf(first["pfaffian"]) + 2 * mp.sqrt(mp.pi)) \
        <= mp.mpf("1e-25")
    for entry in data["minors"]:
        assert mp.mpf(entry["pf_sq_minus_det"]) <= mp.mpf("1e-25")


def test_env_precision_override():
    res = run_cli("moments", "--potential", GAUSS, "--n", "2",
                  "--format", "json",
                  env_extra={"SKEWRH_PRECISION_BITS": "96"})
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["precision_bits"] == 96
    # explicit flag wins over the environment
    res2 = run_cli("moments", "--potential", GAUSS, "--n", "2",
                   "--precision-bits", "128", "--format", "json",
                   env_extra={"SKEWRH_PRECISION_BITS": "96"})
    assert json.loads(res2.stdout)["precision_bits"] == 128


def test_missing_potential_is_usage_error():
    res = run_cli("moments", "--n", "2")
    assert res.returncode == 2
    assert res.stdout == ""


def test_invalid_potential_exits_2():
    # odd-degree leading term: the weight is not integrable
    res = run_cli("moments", "--potential", "0,0,0,1", "--n", "2")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_unwritable_out_exits_2():
    res = run_cli("moments", "--potential", GAUSS, "--n", "2",
                  "--precision-bits", "128",
                  "--out", "/nonexistent-dir/x.csv")
    assert res.returncode == 2
    assert "cannot write output" in res.stderr


def test_zeros_without_out_exits_2():
    res = run_cli("zeros", "--potential", GAUSS, "--kmax", "1",
                  "--precision-bits", "128")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_numerical_failure_exits_3():
    # the negative quartic deformation direction is non-integrable for a
    # Gaussian base, so the centered flow difference must abort
    res = run_cli("pfaff-check", "--potential", GAUSS, "--kmax", "2",
                  "--flow-j", "4", "--precision-bits", "128")
    assert res.returncode == 3
    assert "numerical failure" in res.stderr
