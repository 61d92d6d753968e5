"""knotsig: exact knot signature functions and unknotting bounds.

Knots enter as Seifert matrices (built-in table, braid closures, knot
expressions, or JSON files).  The package computes the signature step
function exactly (rational arithmetic, Sturm-certified root isolation,
congruence diagonalization over number fields) and derives lower bounds on
the unknotting number, signed unknotting counts, Gordian and clasp
distances, the four-genus, and the double-slicing number, all verified
against a brute-force move-lattice search.
"""

from .bounds import (BoundReport, FactorInvariants, SignedBound, bound_report,
                     clasp_bound, classical_bound, combine, factor_invariants,
                     g4_bound, gordian_bound, gordian_report, nonbalanced_bound,
                     signed_bounds, unknotting_bound)
from .braids import BraidWord, seifert_from_braid, torus_braid
from .errors import (BraidError, DivisibilityError, ExpressionError, KnotsigError,
                     ParityError, SearchBoundError, SeifertInvariantError,
                     SingularSampleError, SquarefreeError, SymmetryError, TableError)
from .expressions import KnotExpression, parse_expression, resolve
from .factor import factor_int_poly, factor_rational_poly, is_irreducible
from .knot_table import knot_names, lookup
from .knotio import read_seifert_file, write_report
from .laurent import LaurentPoly, from_trace_poly, normalize_alexander, to_trace_poly
from .oracle import (ExhaustiveReport, LatticeState, MovesResult, apply_move,
                     exhaustive_check, minimal_moves)
from .seifert import (SeifertMatrix, alexander_polynomial, connected_sum, mirror,
                      murasugi_signature, stabilize)
from .signature import (Breakpoint, BreakpointFactor, SignatureFunction, UnitRoot,
                        breakpoint_candidates, nonbalanced_at_root,
                        signature_at_sample, step_function)
from .sturm import RealRoot, count_roots_open, isolate_real_roots

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
