"""samkit: recycle preconditioners across sequences of slowly changing sparse systems.

The core object is a column-sparse map N minimizing ||A N - A_ref||_F over a
fixed sparsity pattern.  Composing N with a preconditioner built for A_ref
turns it into a preconditioner for A, so one expensive factorization can
serve a whole family of systems.
"""

from .gmres import GmresConfig, SolveReport, gmres
from .harness import (
    SequenceReport, Strategy, SystemRecord, parse_config, render_report,
    resolve_pattern, run_sequence,
)
from .ilutp import FactorizationError, IlutpFactors, IlutpParams, factor
from .patterns import offset_pattern, pattern_of, sparsified_power, symbolic_power
from .problems import (
    SequenceSpec, fem_pair_2d, laplace2d_dirichlet,
    matrix_market_read, matrix_market_write, point_source_rhs, talbot_shifts,
)
from .sam import (
    PreconditionerChain, SamMap, SamPlan, compute_map, map_residual_norm, plan,
)
from .sparse import as_csc, shifted_family

__version__ = "0.1.0"
