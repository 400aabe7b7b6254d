"""singtrace: a finite-truncation laboratory for singular traces.

Builds desk-scale truncations of spectral triples, verifies the exact
Hochschild identities behind the character formula, and estimates the
pairing phi(Omega(c)(1+D^2)^{-p/2}) three independent ways: eigenvalue
partial-sum slopes, heat-functional slopes, and Dixmier log-means.
"""

from .operators import (
    ContractViolation,
    DomainError,
    FactorizationError,
    Operator,
    OperatorError,
    anticommutator,
    commutator,
    eigenvalues,
    hermitian_calculus,
    phase_modulus,
    singular_values,
)
from .ideals import (
    IdealDiagnostics,
    LogFit,
    PartialSumSeries,
    Verdict,
    eigenvalue_partial_sums,
    log_fit,
    lorentz_norm_m1inf,
    quasi_norm_pinf,
    universal_measurability_test,
)
from .traces import (
    ExtendedLimitScheme,
    TraceEstimate,
    cesaro_cutoff_comparison,
    dixmier_logmean,
    heat_fit,
    heat_functional,
    heat_xi,
    lemma_estimate_scalings,
    measurability_criterion_check,
    modulated_comparison,
)
from .triples import (
    AlgebraElement,
    SpectralTripleModel,
    build_circle,
    build_diagonal_toy,
    build_model,
    build_nc_torus,
    delta,
    invertible_double,
    partial_d,
    resolvent_weight,
    summability_report,
)
from .hochschild import (
    Chain,
    appendix_identity_checks,
    bob_identity_check,
    boundary,
    ch_op,
    chern,
    circle_winding_cycle,
    heat_cycle_trace,
    is_cycle,
    main_theorem_check,
    nc_torus_volume_cycle,
    omega,
    reduction_partial_sum_check,
    w_subset,
)

__version__ = "0.1.0"
