"""The public names, and the names the benchmark under bench/ imports."""

import importlib

import skewrh

# bench/workloads.py and bench/test_checks.py: `from skewrh import ...`
BENCH_TOP_LEVEL = (
    "PrecisionContext", "Potential", "SkewRHError", "asymptotic_exponents",
    "build_even", "build_lax", "build_odd", "build_skew_moment_matrix",
    "det_residual", "get_weight_table", "gram_residual", "interlacing",
    "jump_residual", "pfaffian_polynomials", "roots", "skew_orthogonal_family",
)
# bench/workloads.py and bench/layers.py: module attributes
BENCH_MODULE_ATTRS = (
    ("skewrh.quadrature", "ts_mapped_level"),
    ("skewrh.potentials", "_TABLE_REGISTRY"),
)
# bench/layers.py and bench/workloads.py: weight-table attributes
BENCH_TABLE_ATTRS = ("xs", "axs", "level", "base_radius")


def test_all_names_resolve():
    missing = [name for name in skewrh.__all__ if not hasattr(skewrh, name)]
    assert not missing
    assert len(set(skewrh.__all__)) == len(skewrh.__all__)


def test_bench_imports_resolve():
    assert [n for n in BENCH_TOP_LEVEL if not hasattr(skewrh, n)] == []
    for module, attr in BENCH_MODULE_ATTRS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    assert isinstance(skewrh.potentials._TABLE_REGISTRY, dict)
    table = skewrh.WeightTable(skewrh.Potential.parse("0,0,0.5"))
    assert [a for a in BENCH_TABLE_ATTRS if not hasattr(table, a)] == []
