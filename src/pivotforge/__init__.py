"""Exact-arithmetic active-set and simplex runs on box polytopes, plus the
machinery to certify their worst-case hypercube behavior by brute force."""

from .boxes import AxisDirection, BoxProgram, bits_from_id, bits_to_id
from .engine import (
    Candidate,
    IterationRecord,
    PivotRule,
    Trajectory,
    Walk,
    active_set_run,
    active_set_steps,
    equivalence_check,
    improving_candidates,
    make_rule,
    simplex_run,
    write_walk_json,
)
from .errors import (
    AmbiguousImprovementError,
    DegenerateVertexError,
    DimacsParseError,
    DimensionMismatchError,
    InfeasiblePointError,
    NotAVertexError,
    NotRepresentableError,
    PivotforgeError,
    TieError,
    TooLargeError,
)
from .objectives import (
    LinearObjective,
    LowerBoundPolynomial,
    MultiPolyObjective,
    ObjectiveOracle,
    PaddedObjective,
    lower_bound_terms,
)
from .polynomials import (
    MultiPoly,
    UniPoly,
    first_nonpositive,
)
from .satreduce import (
    CnfFormula,
    Literal,
    brute_force_max,
    brute_force_sat,
    parse_dimacs,
    violation_counts,
    violation_polynomial,
)
from .scalars import Rational, as_rational, format_rational
from .structure import (
    Face,
    Orientation,
    combed_dimension,
    combed_in_top_dimensions,
    faces,
    hamiltonian_path,
    improving_dimension,
    induce_orientation,
    is_decomposable,
    is_uso,
    reflected_gray_ids,
    sink_find_decomposable,
)

__version__ = "0.1.0"
