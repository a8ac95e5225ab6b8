"""Bayesian structure learning for sparse context-specific models (CStrees)
over categorical data: staging enumeration, Dirichlet-multinomial scoring,
order-space Gibbs sampling, exact per-level staging optimization, and LDAG
export."""

from .core import (
    Context,
    CorruptStagingError,
    CStree,
    CtxTreeError,
    ParseError,
    PossibleParents,
    ResourceCapError,
    Stage,
    Staging,
    StateSpace,
    UnsupportedBoundError,
    ValidationError,
    find_stage,
    stage_members,
)
from .counts import CountTable, Dataset, build_count_table, compute_counts, load_csv, write_csv
from .enumeration import (
    EnumSpec,
    count_cstrees,
    count_stagings,
    enumerate_stagings,
    max_stage_count,
    sample_staging_uniform,
)
from .ldag import Ldag, export_dot, ldag_to_json_dict, to_ldag
from .learn import LearnConfig, learn, load_possible_parents, possible_parents_from_cpdag
from .model_ops import (
    estimate_parameters,
    joint_table,
    kl_divergence,
    log_density,
    random_cstree,
    sample,
)
from .order_mcmc import ChainConfig, ChainTrace, dump_trace, map_order, run_chain
from .scoring import (
    PriorSpec,
    ScoreTables,
    build_score_tables,
    log_context_marginal_likelihood,
    log_local_order_score,
    log_marginal_likelihood,
    log_order_score,
    log_staging_score,
    optimal_staging,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
