"""The public names, and the names the benchmark under bench/ imports."""

import importlib
import inspect

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
# the beta = 2 API and the package's own adaptive reference rules, removed
REMOVED = (
    "HankelMatrix", "build_hankel_matrix", "orthogonal_family",
    "QuadraturePlan", "integrate_line", "legendre_nodes", "gl_panel",
)


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


def test_quadrature_surface():
    module = skewrh.quadrature
    public = {name for name, f in inspect.getmembers(module, inspect.isfunction)
              if f.__module__ == module.__name__ and not name.startswith("_")}
    assert public == {"ts_halfline_nodes", "ts_mapped_level",
                      "boundary_deltas", "richardson_limit"}


def test_removed_names_are_gone():
    modules = (skewrh, skewrh.quadrature, skewrh.moments, skewrh.skewalg)
    assert [n for n in REMOVED if n in skewrh.__all__] == []
    assert [(m.__name__, n) for m in modules for n in REMOVED
            if hasattr(m, n)] == []
