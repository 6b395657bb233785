"""Fixed-point operator toolkit: build the standard optimization maps,
probe their contraction-type properties by sampling, run the iteration with
full traces, and fit or verify the resulting convergence rates.
"""

from .certify import (
    Certificate,
    RegionGrid,
    SamplingPlan,
    certify,
    composition_mu,
    estimate_fp_ratio,
    estimate_min_gamma,
    estimate_mu,
    gan_slack,
    mu_hat,
    psi,
    range_region,
)
from .iterate import (
    IterationTrace,
    RateFit,
    StopReason,
    check_residual_summability,
    check_sandwich,
    fit_rate,
    little_o_proxy,
    picard,
    recurrence_bound,
    verify_recurrence_bound,
)
from .metrics import (
    L1,
    L2,
    NormSpec,
    WeightedMetric,
    norm,
    primal_dual_metric,
    read_matrix,
    weighted_norm,
    write_matrix,
)
from .operators import (
    Operator,
    affine,
    block_soft_threshold,
    box_prox,
    compose,
    gradient_step,
    identity,
    l1_prox,
    l2_prox,
    primal_dual,
    prox_operator,
    proximal_gradient,
    soft_threshold,
    zero_prox,
)
from .problems import (
    ProblemSpec,
    Reference,
    StepSizeBounds,
    analysis_l1_problem,
    build_operator,
    default_step_sizes,
    least_squares_problem,
    load_problem,
    reference_solution,
    separable_smooth_l1_problem,
    step_size_bounds,
)

__version__ = "0.1.0"
