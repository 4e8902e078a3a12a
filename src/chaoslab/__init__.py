"""Wiener-chaos tensor calculus and a Hermite-process simulation lab."""

from .cancellation import (
    cancel,
    composition_residual,
    inner_bound_slack,
    norm_bound_slack,
    permutation_relation_residual,
)
from .chaos import (
    ChaosExpansion,
    expand_product,
    gebelein_bound_check,
    hermite_he,
    hypercontractivity_check,
    moment_oracle,
    wick_eval,
    wick_eval_batch,
    wick_eval_rank_one_sum,
)
from .kernels import GridSpec, HermiteKernelSpec, KernelDiscretization
from .pairings import (
    IntervalDecomposition,
    PairSet,
    compose_pairsets,
    count_admissible,
    enumerate_admissible,
    free_indices,
    interval_traces,
    permute_pairset,
)
from .regularity import (
    OrliczFunction,
    PathSample,
    dyadic_besov_seminorm,
    increment_lp_norm,
    luxemburg_norm,
    modulus_holder_statistic,
    moment_growth_report,
    psup_norm,
    scaling_exponent_fit,
)
from .simulate import sample_path_values, sample_paths
from .tensors import SymTensor, contract, inner, norm, permute, symmetrize, tensor_product

__version__ = "0.1.0"
