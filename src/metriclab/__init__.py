"""Metric-space k-NN laboratory."""

from .spaces import (
    DirectionIds,
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    KindMismatchError,
    MetricSpace,
    ORIGIN,
    Point,
    Real,
    SparseL2,
    SparsePoint,
    UltrametricWords,
    Vec,
    Word,
    distance,
    h_dilate,
    h_inv,
    h_mul,
    h_norm,
    pairwise_distances,
)
from .knn import (
    LabelledSample,
    TieStrategy,
    euclidean_vote,
    knn_predict,
    select_neighbours,
)
from .nagata import (
    Ball,
    BallFamily,
    DimensionCertificate,
    contains,
    degroot_family_check,
    doubling_cover_greedy,
    greedy_covering_subfamily,
    interval_multiplicity_exact,
    is_disconnected,
    multiplicity_over_probes,
    nagata_witness_sparse,
)
from .adversarial import (
    AdversarialProblem,
    BallMass,
    Schedule,
    ScheduleOverflowError,
    ScheduleValidationError,
    StageSimResult,
    atom_mass,
    ball_mass,
    derive_schedule,
    distance_classes,
    k_of,
    structured_stage_sim,
    validate_schedule,
    verify_node,
)

__all__ = [name for name in dir() if not name.startswith("_")]
