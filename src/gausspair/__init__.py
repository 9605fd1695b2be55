"""Two-mode Gaussian state toolkit.

Covariance-level representation of bipartite Gaussian states with
closed-form physicality and separability criteria, passive two-port
mixing, P-representability (classicality) tests, fidelity and Bures
distance measures, the thermal squeezed-pair model, and brute-force
oracles for independent verification.
"""

from .classicality import (
    ModeParams,
    is_p_representable_joint,
    is_p_representable_mode,
    mode_covariance,
    mode_is_physical,
    mode_params,
    nonclassicality_margin,
)
from .covariance import (
    DEFAULT_TOL,
    GaussianParams,
    SchurTerms,
    build_covariance,
    is_physical,
    is_separable,
    params_from_matrix,
    partial_transpose,
    schur_terms,
)
from .errors import (
    DegenerateStateError,
    ModelValidityError,
    NonPhysicalStateError,
    NumericDomainError,
)
from .measures import (
    MeasureReport,
    ReferenceStates,
    bures_from_fidelity,
    compose_bures,
    entanglement_degree,
    output_port_fidelity,
    separable_distance,
    symmetric_degree,
    trace_overlap,
)
from .mixer import (
    LocalOperations,
    MixerConfig,
    OutputBlocks,
    coupling_residuals,
    is_ssld,
    local_normal_form,
    mix_params,
    solve_decoupling_phases,
    transform_blocks,
)
from .oracle import build_mixer, mixer_inverse, transform_full
from .tmtss import TmtssInputs, classify_symmetric, tmtss_params

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DegenerateStateError",
    "GaussianParams",
    "LocalOperations",
    "MeasureReport",
    "MixerConfig",
    "ModeParams",
    "ModelValidityError",
    "NonPhysicalStateError",
    "NumericDomainError",
    "OutputBlocks",
    "ReferenceStates",
    "SchurTerms",
    "TmtssInputs",
    "build_covariance",
    "build_mixer",
    "bures_from_fidelity",
    "classify_symmetric",
    "compose_bures",
    "coupling_residuals",
    "entanglement_degree",
    "is_p_representable_joint",
    "is_p_representable_mode",
    "is_physical",
    "is_separable",
    "is_ssld",
    "local_normal_form",
    "mix_params",
    "mixer_inverse",
    "mode_covariance",
    "mode_is_physical",
    "mode_params",
    "nonclassicality_margin",
    "output_port_fidelity",
    "params_from_matrix",
    "partial_transpose",
    "schur_terms",
    "separable_distance",
    "solve_decoupling_phases",
    "symmetric_degree",
    "tmtss_params",
    "trace_overlap",
    "transform_blocks",
    "transform_full",
]
