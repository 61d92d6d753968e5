"""knotsig: exact knot signature functions and unknotting bounds.

Knots enter as Seifert matrices (built-in table, braid closures, knot
expressions, or JSON files).  The package computes the signature step
function exactly (rational arithmetic, Sturm-certified root isolation,
congruence diagonalization over number fields) and derives lower bounds on
the unknotting number, signed unknotting counts, Gordian and clasp
distances, the four-genus, and the double-slicing number, all verified
against a brute-force move-lattice search.

Importing the package loads no submodule: each name below is imported on
first use (PEP 562), so a command pays only for the modules it runs.
"""

_EXPORTS = {
    "bounds": "BoundReport FactorInvariants SignedBound bound_report clasp_bound "
              "classical_bound combine factor_invariants g4_bound gordian_bound "
              "gordian_report nonbalanced_bound signed_bounds unknotting_bound",
    "braids": "BraidWord seifert_from_braid torus_braid",
    "certify": "",
    "errors": "BraidError DivisibilityError ExpressionError KnotsigError ParityError "
              "SearchBoundError SeifertInvariantError SingularSampleError "
              "SquarefreeError SymmetryError TableError",
    "expressions": "KnotExpression parse_expression resolve",
    "factor": "factor_int_poly factor_rational_poly is_irreducible",
    "gfpoly": "",
    "hermitian": "",
    "intpoly": "",
    "knot_table": "knot_names lookup",
    "knotio": "read_seifert_file write_report",
    "laurent": "LaurentPoly from_trace_poly normalize_alexander to_trace_poly",
    "oracle": "ExhaustiveReport LatticeState MovesResult apply_move exhaustive_check "
              "minimal_moves",
    "seifert": "SeifertMatrix alexander_polynomial connected_sum mirror "
               "murasugi_signature stabilize",
    "signature": "Breakpoint BreakpointFactor SignatureFunction UnitRoot "
                 "breakpoint_candidates nonbalanced_at_root signature_at_sample "
                 "step_function",
    "sturm": "RealRoot count_roots_open isolate_real_roots",
}
# every exported name, and every listed submodule, to the module holding it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in [module, *names.split()]}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
