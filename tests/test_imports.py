"""What importing the package and its CLI loads: deterministic checks on
sys.modules in fresh interpreters, no timing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotsig

SRC = str(Path(knotsig.__file__).resolve().parent.parent)

# the public names: the 81 the package exported when it imported every
# module, less LaurentPoly and laurent
ALL = [
    "BoundReport", "BraidError", "BraidWord", "Breakpoint", "BreakpointFactor",
    "DivisibilityError", "ExhaustiveReport", "ExpressionError", "FactorInvariants",
    "KnotExpression", "KnotsigError", "LatticeState", "MovesResult",
    "ParityError", "RealRoot", "SearchBoundError", "SeifertInvariantError",
    "SeifertMatrix", "SignatureFunction", "SignedBound", "SingularSampleError",
    "SquarefreeError", "SymmetryError", "TableError", "UnitRoot", "alexander_polynomial",
    "apply_move", "bound_report", "bounds", "braids", "breakpoint_candidates", "certify",
    "clasp_bound", "classical_bound", "combine", "connected_sum", "count_roots_open",
    "errors", "exhaustive_check", "expressions", "factor", "factor_int_poly",
    "factor_invariants", "factor_rational_poly", "from_trace_poly", "g4_bound", "gfpoly",
    "gordian_bound", "gordian_report", "hermitian", "intpoly", "is_irreducible",
    "isolate_real_roots", "knot_names", "knot_table", "knotio", "lookup",
    "minimal_moves", "mirror", "murasugi_signature", "nonbalanced_at_root",
    "nonbalanced_bound", "normalize_alexander", "oracle", "parse_expression",
    "read_seifert_file", "resolve", "seifert", "seifert_from_braid", "signature",
    "signature_at_sample", "signed_bounds", "stabilize", "step_function", "sturm",
    "to_trace_poly", "torus_braid", "unknotting_bound", "write_report",
]


def loaded_after(code: str) -> set:
    """Modules in sys.modules after `code` runs in a fresh `python -S`
    (no site: a .pth file could import anything)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    return set(out.split())


def test_cli_import_loads_only_what_every_command_runs():
    loaded = loaded_after("import knotsig.cli")
    ours = sorted(m for m in loaded if m.startswith("knotsig."))
    assert ours == ["knotsig.cli", "knotsig.errors"]
    for name in ("dataclasses", "typing", "inspect", "pathlib"):
        assert name not in loaded, name


def test_oracle_check_loads_only_the_lattice_search():
    loaded = loaded_after('from knotsig.cli import main\n'
                          'assert main(["oracle-check", "--range", "2"]) == 0')
    for name in ("seifert", "hermitian", "signature", "certify", "expressions",
                 "factor", "sturm", "intpoly"):
        assert f"knotsig.{name}" not in loaded, name
    assert {"knotsig.oracle", "knotsig.bounds"} <= loaded


# what neither resolving nor validating runs: the signature stack, the
# polynomial and block-polynomial code, plans and exact rationals
UNUSED_BY_VALIDATION = ("knotsig.hermitian", "knotsig.sturm", "knotsig.intpoly",
                        "knotsig.gfmat", "knotsig.plan", "fractions", "decimal")


def test_validation_does_not_load_plans():
    # resolving and validating a matrix compiles no plan code, nor does a
    # knot with three plateau samples; one with four loads it
    loaded = loaded_after('import knotsig\nknotsig.resolve("T(5,11)")')
    assert "knotsig.hermitian" not in loaded and "knotsig.plan" not in loaded
    assert sorted(m for m in loaded if m.startswith("knotsig")) == [
        "knotsig", "knotsig.braids", "knotsig.errors", "knotsig.expressions",
        "knotsig.record", "knotsig.seifert"]
    for name in (*UNUSED_BY_VALIDATION, "numbers"):
        assert name not in loaded, name
    loaded = loaded_after('import json, knotsig\n'
                          'knotsig.SeifertMatrix(json.loads("[[-1, 1], [0, -1]]"))')
    for name in UNUSED_BY_VALIDATION:
        assert name not in loaded, name
    loaded = loaded_after('import knotsig\nknotsig.step_function(knotsig.resolve("T(2,5)"))')
    assert "knotsig.plan" not in loaded
    loaded = loaded_after('import knotsig\nknotsig.step_function(knotsig.resolve("T(2,7)"))')
    assert "knotsig.plan" in loaded


def test_package_import_loads_no_submodule():
    loaded = loaded_after("import knotsig")
    assert "knotsig" in loaded
    assert not [m for m in loaded if m.startswith("knotsig.")]


def test_all_names_resolve():
    assert knotsig.__all__ == ALL
    for name in ALL:
        assert getattr(knotsig, name) is not None, name
    assert knotsig.signature.step_function is knotsig.step_function
    assert knotsig.mirror is knotsig.seifert.mirror
    assert set(ALL) <= set(dir(knotsig))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from knotsig import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == ALL


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotsig.no_such_name
