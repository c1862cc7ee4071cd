"""tools/compare_outputs.py on small synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest
from mpmath import mp

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

ALPHA_IM = "-3.5449077018110320545963349666822903655950989122447735216261543325737912"
REPORT = {
    "k": 2,
    "parity": "even",
    "jump_residuals": ["2.9e-49", "5.2e-49"],
    "alpha_k": {"re": "0.0", "im": ALPHA_IM},
}
GRAM = "key,value\nbeta,1\ngram_residual,9.07e-76\nh_0,-0.73139381530310489535813411912330\n"


def _scaled(text, rel):
    with mp.workdps(100):
        return mp.nstr(mp.mpf(text) * (1 + mp.mpf(rel)), 80)


def _compare(tmp_path, capsys, report=REPORT, gram=GRAM):
    dirs = []
    for name, rep, csv_text in (("a", REPORT, GRAM), ("b", report, gram)):
        root = tmp_path / name
        root.mkdir(parents=True)
        (root / "rh.out").write_text(json.dumps(rep, indent=2))
        (root / "gram.out").write_text(csv_text)
        (root / "gram.err").write_text("")
        dirs.append(str(root))
    code = compare_outputs.main(dirs)
    return code, capsys.readouterr().out


def test_identical_directories_pass(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0
    # each residual value is reported with its change in decades
    assert out.count("decades)") == 3 and "0 mismatches" in out


def test_value_within_tolerance_passes(tmp_path, capsys):
    report = dict(REPORT, alpha_k={"re": "0.0", "im": _scaled(ALPHA_IM, "1e-27")})
    assert _compare(tmp_path, capsys, report=report)[0] == 0


def test_value_off_by_1e20_fails(tmp_path, capsys):
    report = dict(REPORT, alpha_k={"re": "0.0", "im": _scaled(ALPHA_IM, "1e-20")})
    code, out = _compare(tmp_path, capsys, report=report)
    assert code == 1 and "MISMATCH rh.out.alpha_k.im" in out


@pytest.mark.parametrize("gram", [
    GRAM.replace("-0.73139381530310489535813411912330", _scaled("-0.7313938153031048953581341191233", "1e-20")),
    GRAM.replace("h_0", "h_1"),
    GRAM.replace("beta,1", "beta,4"),
    GRAM + "h_1,0.5\n",
], ids=["value-off-1e-20", "key-renamed", "integer-changed", "row-added"])
def test_changed_csv_fails(tmp_path, capsys, gram):
    assert _compare(tmp_path, capsys, gram=gram)[0] == 1


@pytest.mark.parametrize("report", [
    dict(REPORT, jump_residuals=["2.9e-49"]),
    dict(REPORT, extra=1),
    dict(REPORT, k=3),
    dict(REPORT, parity="odd"),
], ids=["shorter-list", "extra-key", "integer-changed", "string-changed"])
def test_shape_key_and_exact_changes_fail(tmp_path, capsys, report):
    assert _compare(tmp_path, capsys, report=report)[0] == 1


def test_residual_decades(tmp_path, capsys):
    worse = dict(REPORT, jump_residuals=["2.9e-47", "5.2e-49"])
    code, out = _compare(tmp_path / "worse", capsys, report=worse)
    assert code == 1 and "worse by 2.0 decades" in out
    better = dict(REPORT, jump_residuals=["2.9e-52", "5.2e-48"])
    code, out = _compare(tmp_path / "better", capsys, report=better)
    assert code == 0 and "(-3.0 decades)" in out and "(1.0 decades)" in out
