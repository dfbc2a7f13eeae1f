"""Numerical laboratory for moment-constrained Hermitian matrix ensembles.

The package estimates volumes, Gibbs entropies, and maximum-entropy
projections for tuples of Hermitian matrices with prescribed trace moments,
plus orbital (unitary-conjugation) relative entropies and the transport
inequalities that relate them.
"""

__version__ = "0.1.0"

from .estimates import EstimatorError, ScalarEstimate, pooled_mean
from .streams import substream
from .ncpoly import NcPoly, canonical_class, canonical_classes, word_traces
from .moments import (MomentSpec, arcsine_moments, empirical_moments,
                      free_product_moments, moment_distance, moment_pairing,
                      semicircle_moments, validate)
from .matrices import (BlockMap, CompressionFn, MatrixTuple, haar_unitary_batch,
                       log_jacobian_functional_calculus, operator_norm)
from .sampler import (ChainDiagnostics, GibbsModel, MicrostateEstimate, TIOptions,
                      estimate_log_I, log_ball_volume, mcmc_chain, microstate_hit_rate)
from .maxent import (ChiReference, DualBasis, EtaBoundReport, FitOptions, FitResult,
                     InfeasibleTargetError, build_dual_basis, eta_bound_check,
                     fit_projection, free_pressure, log_energy_quadrature,
                     one_variable_chi_reference, reference_constant)
from .orbital import (ChainRuleReport, OrbitalEstimate, OrbitalRequest,
                      TalagrandReport, chain_rule_check, dW_moment_lower_bound,
                      orbital_entropy, talagrand_report)

__all__ = [
    "__version__",
    "EstimatorError", "ScalarEstimate", "pooled_mean",
    "substream",
    "NcPoly", "canonical_class", "canonical_classes", "word_traces",
    "MomentSpec", "arcsine_moments", "empirical_moments", "free_product_moments",
    "moment_distance", "moment_pairing", "semicircle_moments", "validate",
    "BlockMap", "CompressionFn", "MatrixTuple", "haar_unitary_batch",
    "log_jacobian_functional_calculus", "operator_norm",
    "ChainDiagnostics", "GibbsModel", "MicrostateEstimate", "TIOptions",
    "estimate_log_I", "log_ball_volume", "mcmc_chain", "microstate_hit_rate",
    "ChiReference", "DualBasis", "EtaBoundReport", "FitOptions", "FitResult",
    "InfeasibleTargetError", "build_dual_basis", "eta_bound_check",
    "fit_projection", "free_pressure",
    "log_energy_quadrature", "one_variable_chi_reference", "reference_constant",
    "ChainRuleReport", "OrbitalEstimate", "OrbitalRequest", "TalagrandReport",
    "chain_rule_check", "dW_moment_lower_bound",
    "orbital_entropy", "talagrand_report",
]
