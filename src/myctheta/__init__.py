"""Zero-error capacity bounds of graphs and digraphs under the Mycielski
construction: exact invariants, the complementary Lovasz theta number via a
self-contained SDP solver, the closed-form value on Mycielskians with both
certificate directions, and the explicit clique constructions in OR-powers.
"""

from .errors import (
    CertificateError,
    ConvergenceError,
    DomainError,
    InconclusiveError,
    MycthetaError,
    SizeLimitError,
)
from .graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    embed_mycielski_power,
    empty_graph,
    format_edgelist,
    generate,
    mycielskian,
    or_power,
    or_product,
    parse_edgelist,
    path_graph,
    transitive_tournament,
    write_edgelist,
)
from .invariants import (
    CapacityBound,
    ChromaticResult,
    CliqueResult,
    capacity_lower_bound,
    chromatic_number,
    clique_number,
    symmetric_clique_number,
    transitive_clique_number,
)
from .fractional import (
    FractionalChromaticResult,
    fractional_chromatic,
    maximal_independent_sets,
)
from .formula import (
    FormulaResult,
    cubic_residual,
    lpu_formula,
    mycielski_theta_formula,
    verify_root_selection,
)
from .theta import (
    ThetaSolution,
    VectorColoring,
    extract_vector_coloring,
    optimal_edge_matrix,
    spectral_ratio,
    theta_bar,
)
from .certificates import (
    LiftParameters,
    SpectralCertificate,
    build_spectral_certificate,
    check_certificate_inequalities,
    lift_coloring,
    lift_parameters,
    verify_block_spectrum,
)
from .constructions import (
    CapacityReport,
    LiftedCliqueSet,
    ReportOptions,
    capacity_report,
    chained_power_clique,
    extended_clique,
    lifted_clique,
    lifted_transitive_clique,
    no_lifted_clique_check,
)

__version__ = "0.1.0"
