"""Spectra of random bipartite pure states.

Typical (most probable) reduced spectra via orthogonal-polynomial zeros or
direct stationary-point search, exact finite-size ensemble averages, the
fixed-purity family with its positivity threshold, a deterministic Monte
Carlo sampler, and the large-N continuum laws.
"""

from .core import (
    BipartitionDims,
    MajorizationOrder,
    Spectrum,
    elementary_invariants,
    majorization_compare,
    maximally_mixed,
    pure_state,
    purity,
    renyi_traces,
    schmidt_number,
    von_neumann_entropy,
)
from .closedform import (
    EnsembleMoments,
    TypicalQuantities,
    asymptotic_traces,
    balanced_det_asymptotic,
    det_moment,
    formula_table,
    log_normalization,
    mean_moments,
    typical_quantities,
)
from .coulomb import (
    EnergyParams,
    SaddleSolution,
    energy,
    gradient,
    hessian,
    multiplier_xi,
    solve_saddle_numeric,
    typical_solution,
)
from .errors import AccuracyError, ConvergenceError, FeasibilityError
from .fixedpurity import (
    CriticalThreshold,
    FixedPuritySolution,
    IsopurityProblem,
    critical_threshold,
    eta_from_purity,
    purity_from_eta,
    solve_isopurity,
    threshold_scan,
)
from .orthopoly import (
    HermiteSpec,
    LaguerreSpec,
    hermite_zeros,
    laguerre_zeros,
    tridiagonal_eigenvalues,
)
from .sampler import (
    EnsembleEstimate,
    SamplerConfig,
    estimate,
    estimate_many,
    histogram_rescaled,
    sample_spectrum,
)
from .continuum import (
    ContinuumDensity,
    density_value,
    finite_n_convergence,
    ks_distance,
    marchenko_pastur,
    moments,
    semicircle,
    tricomi_residual,
)

__version__ = "0.1.0"
