"""Maximum-confidence discrimination of quantum state ensembles.

Computes per-member confidence bounds and the effects attaining them,
completes those effects into a measurement with an inconclusive remainder,
verifies the bounds against the equivalent bipartite no-signalling
picture, and analyzes local filters (confidence monotonicity, Schmidt
spectrum flattening).
"""

from .ensembles import (
    BipartiteState,
    Ensemble,
    SchmidtDecomposition,
    SubspaceProjector,
    allowed_subspace,
    purify,
    schmidt,
)
from .linalg import hermitian_eigen, support
from .measurement import (
    POM,
    ConfidenceReport,
    SimulationResult,
    complete_pom,
    confidence_of,
    confidence_report,
    max_confidence,
    optimal_effect,
    simulate_measurement,
)
from .nosignalling import (
    ConditionalRightState,
    bound_bipartite,
    conditional_right_state,
    confidence_bipartite,
    marginal_invariance,
    state_leakage,
    subspace_leakage,
)
from .specio import SpecError, load_kraus, read_spec
from .transforms import (
    ConcentrationResult,
    KrausOperator,
    MonotonicityRecord,
    ResolutionCheck,
    TwoStepFilter,
    apply_kraus,
    concentrate,
    monotonicity_check,
    projective_resolution,
    two_step_filter,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ConcentrationResult",
    "ConditionalRightState",
    "ConfidenceReport",
    "Ensemble",
    "KrausOperator",
    "MonotonicityRecord",
    "POM",
    "ResolutionCheck",
    "SchmidtDecomposition",
    "SimulationResult",
    "SpecError",
    "SubspaceProjector",
    "TwoStepFilter",
    "allowed_subspace",
    "apply_kraus",
    "bound_bipartite",
    "complete_pom",
    "concentrate",
    "conditional_right_state",
    "confidence_bipartite",
    "confidence_of",
    "confidence_report",
    "hermitian_eigen",
    "load_kraus",
    "marginal_invariance",
    "max_confidence",
    "monotonicity_check",
    "optimal_effect",
    "projective_resolution",
    "purify",
    "read_spec",
    "schmidt",
    "simulate_measurement",
    "state_leakage",
    "subspace_leakage",
    "support",
    "two_step_filter",
]
