"""Guided probability-flow sampling with exact symplectic-adjoint gradients.

The pieces compose bottom-up: noise schedules and their sigma
reparameterization (schedule), noise predictors with exact VJP/JVPs
(models), the n-step clean-output estimator with checkpointing
(estimator), backward gradient solvers (adjoint), the guided sampling
loop with time travel (guidance), and the experiment harness with CLI
(harness, cli).
"""

__version__ = "0.1.0"

from .schedule import NoiseSchedule, build_linear_schedule
from .models import (
    AffineModel,
    GmmModel,
    MlpModel,
    ScoreModel,
    eps_at_step,
    finite_diff_vjp,
    vjp_at_step,
)
from .estimator import (
    ButcherTableau,
    CheckpointTrajectory,
    DivergenceError,
    MCurvePoint,
    SubSchedule,
    estimate_clean,
    estimate_clean_rk,
    estimation_error_curve,
    m_curve_csv_text,
    make_sub_schedule,
    one_step_estimate,
)
from .adjoint import (
    AdjointStats,
    conservation_probe,
    direct_backprop_grad,
    rk_direct_backprop_grad,
    symplectic_euler_grad,
    symplectic_rk_grad,
    vanilla_adjoint_grad,
)
from .guidance import (
    GramStyleLoss,
    GuidanceConfig,
    GuidanceLoss,
    L2TargetLoss,
    SampleRecord,
    ddim_rollout,
    ddim_step,
    sag_sample,
    time_travel_renoise,
)
from .harness import (
    ConfigError,
    ExperimentReport,
    RunConfig,
    emit_plots,
    run_ablation_n,
    run_ablation_rho,
    run_adjoint_comparison,
    run_single_sample,
    run_window_and_repeats_study,
)

__all__ = [
    "__version__",
    "NoiseSchedule",
    "build_linear_schedule",
    "ScoreModel",
    "GmmModel",
    "MlpModel",
    "AffineModel",
    "eps_at_step",
    "vjp_at_step",
    "finite_diff_vjp",
    "SubSchedule",
    "CheckpointTrajectory",
    "DivergenceError",
    "MCurvePoint",
    "make_sub_schedule",
    "estimate_clean",
    "one_step_estimate",
    "estimation_error_curve",
    "m_curve_csv_text",
    "ButcherTableau",
    "AdjointStats",
    "symplectic_euler_grad",
    "direct_backprop_grad",
    "vanilla_adjoint_grad",
    "estimate_clean_rk",
    "symplectic_rk_grad",
    "rk_direct_backprop_grad",
    "conservation_probe",
    "GuidanceLoss",
    "L2TargetLoss",
    "GramStyleLoss",
    "GuidanceConfig",
    "SampleRecord",
    "ddim_step",
    "ddim_rollout",
    "time_travel_renoise",
    "sag_sample",
    "ConfigError",
    "RunConfig",
    "ExperimentReport",
    "run_single_sample",
    "run_ablation_n",
    "run_ablation_rho",
    "run_window_and_repeats_study",
    "run_adjoint_comparison",
    "emit_plots",
]
