"""Band structure and Coriolis-Zeeman splitting of patterned-mirror
microcavity lattices: plane-wave solver, corner k.p model, closed-form
rotation splittings, and a CSV-emitting CLI."""

from .constants import C, HBAR
from .core import (
    ComputationError,
    ConfigError,
    DerivedParams,
    ExperimentConfig,
    HermitianMatrix,
    LatticeSpec,
    RotationSpec,
    ValidationError,
    derive_params,
    eigh,
    load_config,
)
from .kp import (
    KpModel,
    KpSpectrum,
    fsum_fd_masses,
    fsum_target_masses,
    kp_bands,
    kp_from_opw,
    zeeman_splittings_at_T,
)
from .lattice import (
    ReciprocalVector,
    fourier_coefficient,
    pattern_factors,
    phase_pattern,
    reciprocal_basis,
    sinc,
    t_centered_basis,
)
from .planewave import (
    BandStructure,
    BlochState,
    FieldSample,
    KPathPoint,
    LongitudinalProfile,
    TPointAnalysis,
    build_kpath,
    classify_t_states,
    cluster_degenerate,
    longitudinal_profile,
    named_kpoint,
    opw_mass_at_t,
    perturbative_edges,
    reconstruct_fields,
    solve_bands,
    t_point_analysis,
)
from .zeeman import (
    ZeemanResult,
    consistency_ratio,
    effective_index,
    m_closed_form,
    pattern_sinc,
    splittings,
    spread_rms,
    zeeman_result,
)

__version__ = "0.1.0"

__all__ = [
    "C", "HBAR",
    "ComputationError", "ConfigError", "ValidationError",
    "LatticeSpec", "DerivedParams", "RotationSpec", "HermitianMatrix",
    "ExperimentConfig", "load_config", "derive_params", "eigh",
    "ReciprocalVector", "phase_pattern", "pattern_factors",
    "fourier_coefficient", "reciprocal_basis", "t_centered_basis", "sinc",
    "BlochState", "BandStructure", "LongitudinalProfile", "FieldSample",
    "KPathPoint", "TPointAnalysis", "named_kpoint", "build_kpath",
    "solve_bands", "cluster_degenerate", "classify_t_states",
    "t_point_analysis",
    "perturbative_edges", "opw_mass_at_t",
    "longitudinal_profile", "reconstruct_fields",
    "KpModel", "KpSpectrum", "kp_from_opw", "kp_bands",
    "zeeman_splittings_at_T", "fsum_fd_masses", "fsum_target_masses",
    "ZeemanResult", "m_closed_form", "splittings", "spread_rms",
    "consistency_ratio", "effective_index", "zeeman_result", "pattern_sinc",
]
