"""Broken-line process on the tilted lattice.

Flow fields on finite domains, their unique decomposition into ordered
weighted crossing lines, reversibility and exit-law tests, and directed
last passage percolation solved both by dynamic programming and through
the total crossing flow.
"""

from .duality import (
    DistSpec,
    Triple,
    Verdict,
    burke_exit_test,
    classify_triple,
    consistency_test,
    evolve_chain,
    kernel_duality_residual,
    parse_dist,
    parse_triple,
    reversal_invariance_test,
    reverse_through_site,
    transition_kernel,
)
from .experiments import (
    ConcentrationReport,
    LlnConfig,
    LlnReport,
    concentration_scan,
    lln_experiment,
    lln_target,
)
from .flow import (
    BirthField,
    BoundaryFlow,
    ExitFlow,
    FlowField,
    check_conservation,
    extract,
    field_from_birth,
    total_crossing_flow,
)
from .lattice import (
    Edge,
    RectDomain,
    Site,
)
from .lines import (
    BrickDiagram,
    BrokenLine,
    BrokenTrace,
    Decomposition,
    brick_diagram,
    compose,
    decompose,
    line_fields,
)
from .lpp import (
    LatticePath,
    LppResult,
    flow_identity_residual,
    lpp_bruteforce,
    lpp_dp,
    optimal_path_backward,
    path_sum,
)

__version__ = "0.1.0"
