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
    allowed_subspace,
    purify,
    schmidt,
)
from .measurement import (
    POM,
    ConfidenceReport,
    SimulationResult,
    complete_pom,
    confidence_of,
    confidence_report,
    max_confidence,
    simulate_measurement,
)
from .nosignalling import (
    bound_bipartite,
    conditional_diagonals,
    marginal_invariance,
)
from .specio import SpecError, load_kraus, read_spec
from .transforms import (
    ConcentrationResult,
    KrausOperator,
    MonotonicityRecord,
    apply_kraus,
    concentrate,
    monotonicity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ConcentrationResult",
    "ConfidenceReport",
    "Ensemble",
    "KrausOperator",
    "MonotonicityRecord",
    "POM",
    "SchmidtDecomposition",
    "SimulationResult",
    "SpecError",
    "allowed_subspace",
    "apply_kraus",
    "bound_bipartite",
    "complete_pom",
    "concentrate",
    "conditional_diagonals",
    "confidence_of",
    "confidence_report",
    "load_kraus",
    "marginal_invariance",
    "max_confidence",
    "monotonicity_check",
    "purify",
    "read_spec",
    "schmidt",
    "simulate_measurement",
]
