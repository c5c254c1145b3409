"""Contraction certificates and minimum-effort gain synthesis for networked
dynamical systems.

The pieces: Metzler matrix analysis (graph classification, Perron pairs,
matrix measures), diagonal balancing, minimum-effort diagonal stabilization,
hierarchical block bounds with gain synthesis, and a diffusively coupled
FitzHugh-Nagumo network application driven by a fixed-step RK4 integrator.
"""

__version__ = "0.1.0"

from netcontract.balancing import (
    BalanceConvergenceError,
    BalancingResult,
    NotBalancableError,
    balance,
    balance_tridiagonal,
    imbalance,
    potential,
)
from netcontract.fhn import (
    ContractionCertificate,
    DivergedError,
    EntrainmentReport,
    FhnConfig,
    SinusoidInput,
    SpikeTrainInput,
    Trajectory,
    ZeroInput,
    certify,
    config_from_json,
    config_to_json,
    entrainment_check,
    fhn_gains,
    laplacian,
    load_config,
    simulate,
)
from netcontract.hierarchy import (
    BlockNorm,
    BlockPartition,
    GainSynthesisResult,
    HypothesisViolatedError,
    JacobianBound,
    block_bound_matrix,
    composite_norm,
    jacobian_sup_estimate,
    operator_norm,
    synthesize_gains,
    tridiagonal_gains,
)
from netcontract.matrixio import read_matrix, read_vector, write_matrix_csv
from netcontract.metzler import (
    Classification,
    MetzlerMatrix,
    NoConvergenceError,
    NonIrreducibleError,
    PerronPair,
    classify,
    matrix_measure,
    perron_pair,
    spectral_abscissa,
)
from netcontract.stabilization import (
    MarginalStabilityResult,
    OptimalityReport,
    StabilizationResult,
    marginal_stability_certificate,
    minimal_effort_stabilize,
    verify_optimality,
)
