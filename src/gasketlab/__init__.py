"""gasketlab: numerical laboratory for analysis and backward stochastic
calculus on finite Sierpinski-gasket approximations.

Three pillars, cross-validated against each other:

  * exact rational calculus of harmonic extensions, graph energies and the
    Kusuoka measure (gasket, harmonic, measures);
  * random-walk approximation of Brownian motion carrying the Brownian
    martingale's increments and clock (walk);
  * backward-SDE dynamic programming and a weak-form parabolic solver tied
    together by the Feynman-Kac representation (bsde, pde), with the
    quantitative moment and Mittag-Leffler envelopes (bounds).
"""

__version__ = "0.1.0"

from .bounds import GAMMA_S, SPECTRAL_DIMENSION, mittag_leffler
from .bsde import (
    BetaWeights,
    BsdeProblem,
    BsdeSolution,
    contraction_constant,
    linear_closed_form,
    picard_iterate,
    solve_dp,
    vbeta_norm,
)
from .errors import (
    CapacityError,
    GasketLabError,
    NumericOverflowError,
    SchemeError,
    UsageError,
)
from .gasket import LevelGraph, Vertex, build_level_graph, cell_corners, neighbors
from .harmonic import (
    cell_energy_measure,
    discrete_gradient,
    graph_energy,
    harmonic_energy,
    harmonic_extend_to_level,
    harmonic_restrict,
    oscillation_constant_probe,
)
from .measures import (
    CellMeasure,
    energy_measure_table,
    hausdorff_mass,
    hausdorff_measure,
    kusuoka_identity_check,
    kusuoka_mass,
    kusuoka_measure,
    singularity_diagnostic,
)
from .pde import (
    WeakPdeSolution,
    assemble_masses,
    feynman_kac_check,
    solve_weak_pde,
)
from .walk import (
    PathEnsemble,
    StepKernel,
    WalkConfig,
    build_step_kernel,
    ensemble_qv_stats,
    exit_time_stats,
    expint_estimate,
    occupation_histogram,
    simulate_paths,
)

# the names imported above, not the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], type(bounds))]
