"""What importing the package and its CLI loads: deterministic checks on
sys.modules in fresh interpreters, no timing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotsig

SRC = str(Path(knotsig.__file__).resolve().parent.parent)

# the 81 public names the package exported when it imported every module
ALL = [
    "BoundReport", "BraidError", "BraidWord", "Breakpoint", "BreakpointFactor",
    "DivisibilityError", "ExhaustiveReport", "ExpressionError", "FactorInvariants",
    "KnotExpression", "KnotsigError", "LatticeState", "LaurentPoly", "MovesResult",
    "ParityError", "RealRoot", "SearchBoundError", "SeifertInvariantError",
    "SeifertMatrix", "SignatureFunction", "SignedBound", "SingularSampleError",
    "SquarefreeError", "SymmetryError", "TableError", "UnitRoot", "alexander_polynomial",
    "apply_move", "bound_report", "bounds", "braids", "breakpoint_candidates", "certify",
    "clasp_bound", "classical_bound", "combine", "connected_sum", "count_roots_open",
    "errors", "exhaustive_check", "expressions", "factor", "factor_int_poly",
    "factor_invariants", "factor_rational_poly", "from_trace_poly", "g4_bound", "gfpoly",
    "gordian_bound", "gordian_report", "hermitian", "intpoly", "is_irreducible",
    "isolate_real_roots", "knot_names", "knot_table", "knotio", "laurent", "lookup",
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
    assert "knotsig.bounds" in loaded
    for name in ("dataclasses", "typing", "inspect", "pathlib", "knotsig.oracle",
                 "knotsig.plot", "knotsig.knot_table", "knotsig.braids"):
        assert name not in loaded, name


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
