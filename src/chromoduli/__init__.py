"""Graph-indexed intersection numbers, cross-checked five independent ways."""

from .arrangement import (
    Arrangement,
    Chamber,
    bounded_chambers_bijective,
    bounded_chambers_lp,
    build_arrangement,
)
from .critical import (
    CriticalPointReport,
    critical_point_reports,
    default_weights,
    gradient,
    hessian,
    log_master,
    solve_chamber,
)
from .digraph_poly import (
    DigraphPolynomialReport,
    chi_acyclic,
    chi_engine,
    digraph_polynomial_report,
)
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    EngineConsistencyError,
    GraphParseError,
)
from .graphs import (
    Digraph,
    IntPolynomial,
    SimpleGraph,
    canonical_key,
    chromatic_polynomial,
    graph_to_json,
    load_graph_file,
    parse_graph_text,
)
from .moduli import (
    cerberus_check,
    kapranov_degree,
    omega,
    omega_with_stats,
)
from .orientations import acyclic_orientations, stanley_pair_count

__version__ = "0.1.0"
