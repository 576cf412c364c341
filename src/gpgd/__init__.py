"""Generalized projected gradient descent for low-dimensional recovery.

Measurement operators with adaptable back-projections, projections onto
sparse and learned model sets, restricted isometry / restricted Lipschitz
constant estimation, a convergence-bound checker, post-optimum stability
metrics, a small trainable projective prior with idempotence
regularization, and reproducible experiment drivers.
"""

__version__ = "0.1.0"

from .operators import BackProjection, JointOperator, MeasurementOperator, gaussian_operator
from .projections import (
    HARD_THRESHOLD_BETA,
    HardThreshold,
    PAlpha,
    ProductProjection,
    hard_threshold,
)
from .descent import GpgdConfig, RecoveryTrace, gpgd_run, i_min_oracle
from .constants import (
    TheoremBound,
    exact_ric_sparse,
    mc_beta,
    null_space_ric_floor,
    operator_norm,
    theorem_bound_eval,
)
from .metrics import StabilityReport, centile_curve, normalized_error, sm1, sm2, stability_report
from .prior import (
    LearnedProjection,
    ToyPrior,
    TrainConfig,
    TrainResult,
    loss_gradient,
    make_manifold_dataset,
    nipr_penalty,
    prior_apply,
    random_prior,
    train,
    training_loss,
)
