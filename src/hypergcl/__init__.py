"""Hyperbolic graph contrastive learning toolkit.

Poincaré-ball geometry, a taped autodiff engine, alignment and outer-shell
isotropy losses, the analytic push-forward density of tangent Gaussians,
effective-rank collapse diagnostics and a full-batch training pipeline for
desk-scale graphs.
"""

from .geometry import (
    Curvature,
    PoincarePoint,
    TangentVector,
    conformal_factor,
    distance,
    exp_map,
    log_map,
    mobius_add,
    project_to_ball,
)
from .tensor import Gradients, SparseMatrix, Tape, Tensor, backward, finite_diff_check
from .spectral import (
    CovarianceSummary,
    SingularSpectrum,
    effective_rank,
    erank_bound_check,
    gaussian_kl,
    tangent_moments,
    tree_distortion,
)
from .density import (
    AmbientDensitySpec,
    ambient_density,
    density_profile,
    integrate_density,
    sample_ambient,
)
from .losses import (
    LossWeights,
    alignment_hyperbolic,
    euclidean_align_uniform,
    isotropy_tangent,
    total_loss,
    uniformity_hyperbolic_naive,
)
from .graphnet import AugmentationConfig, GcnParams, Graph, augment, encode, normalize_adjacency
from .trainer import (
    BalancedTree,
    EncoderConfig,
    ExperimentConfig,
    Files,
    OptimizerConfig,
    Sbm,
    TrainingTrace,
    build_dataset,
    linear_eval,
    sweep,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Curvature",
    "PoincarePoint",
    "TangentVector",
    "conformal_factor",
    "distance",
    "exp_map",
    "log_map",
    "mobius_add",
    "project_to_ball",
    "Gradients",
    "SparseMatrix",
    "Tape",
    "Tensor",
    "backward",
    "finite_diff_check",
    "CovarianceSummary",
    "SingularSpectrum",
    "effective_rank",
    "erank_bound_check",
    "gaussian_kl",
    "tangent_moments",
    "tree_distortion",
    "AmbientDensitySpec",
    "ambient_density",
    "density_profile",
    "integrate_density",
    "sample_ambient",
    "LossWeights",
    "alignment_hyperbolic",
    "euclidean_align_uniform",
    "isotropy_tangent",
    "total_loss",
    "uniformity_hyperbolic_naive",
    "AugmentationConfig",
    "GcnParams",
    "Graph",
    "augment",
    "encode",
    "normalize_adjacency",
    "BalancedTree",
    "EncoderConfig",
    "ExperimentConfig",
    "Files",
    "OptimizerConfig",
    "Sbm",
    "TrainingTrace",
    "build_dataset",
    "linear_eval",
    "sweep",
    "train",
]
