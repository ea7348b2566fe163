"""Hard isometry family: gamma vectors, twirled operators, domination checks."""

from .domination import (
    DominationResult,
    LambdaSchedule,
    admissible_window,
    domination_check,
    lambda_schedule,
    symmetric_span_dim,
    twirl_trace_bound,
)
from .facts import (
    binary_entropy,
    kl_binary,
    log_binom,
    psd_domination_equiv,
    summand_chain,
    summand_chains,
    xlog_bound_values,
)
from .instance import (
    HardInstanceSpec,
    gamma_outer,
    gamma_recursion_residual,
    gamma_state,
    hard_vector_expansion,
)
from .twirl import (
    CommutantProjector,
    commutant_projector,
    gamma_twirl,
    gamma_twirl_exact_commutant,
    gamma_twirl_modes,
    gamma_twirl_monte_carlo,
    gamma_twirl_weingarten,
)

__all__ = [
    "HardInstanceSpec",
    "gamma_state",
    "gamma_outer",
    "gamma_recursion_residual",
    "hard_vector_expansion",
    "CommutantProjector",
    "commutant_projector",
    "gamma_twirl",
    "gamma_twirl_exact_commutant",
    "gamma_twirl_modes",
    "gamma_twirl_weingarten",
    "gamma_twirl_monte_carlo",
    "LambdaSchedule",
    "admissible_window",
    "lambda_schedule",
    "DominationResult",
    "domination_check",
    "twirl_trace_bound",
    "symmetric_span_dim",
    "binary_entropy",
    "kl_binary",
    "log_binom",
    "xlog_bound_values",
    "psd_domination_equiv",
    "summand_chain",
    "summand_chains",
]
