"""Two-mode Gaussian state toolkit.

Covariance-level representation of bipartite Gaussian states with
closed-form physicality and separability criteria, passive two-port
mixing, P-representability (classicality) tests, fidelity and Bures
distance measures, and the thermal squeezed-pair model.

The brute-force referees that the tests check these closed forms against
live in :mod:`gausspair.oracle`, which the package does not import.
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
    build_covariance,
    is_physical,
    is_separable,
    mirror_party2,
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
    "TmtssInputs",
    "build_covariance",
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
    "mirror_party2",
    "mix_params",
    "mode_covariance",
    "mode_is_physical",
    "mode_params",
    "nonclassicality_margin",
    "output_port_fidelity",
    "schur_terms",
    "separable_distance",
    "solve_decoupling_phases",
    "symmetric_degree",
    "tmtss_params",
    "trace_overlap",
    "transform_blocks",
]
