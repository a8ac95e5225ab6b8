"""The public API: the names ``ctxtree`` exports.

A removal from this list is a breaking change; record it in CHANGES.md when
editing the list.
"""

import ctxtree

PUBLIC_NAMES = [
    "CStree",
    "ChainConfig",
    "ChainTrace",
    "Context",
    "CorruptStagingError",
    "CountTable",
    "CtxTreeError",
    "Dataset",
    "EnumSpec",
    "Ldag",
    "LearnConfig",
    "ParseError",
    "PossibleParents",
    "PriorSpec",
    "ResourceCapError",
    "ScoreTables",
    "Stage",
    "Staging",
    "StateSpace",
    "UnsupportedBoundError",
    "ValidationError",
    "build_count_table",
    "build_score_tables",
    "compute_counts",
    "core",
    "count_cstrees",
    "count_stagings",
    "counts",
    "dump_trace",
    "enumerate_stagings",
    "enumeration",
    "estimate_parameters",
    "export_dot",
    "joint_table",
    "kl_divergence",
    "ldag",
    "ldag_to_json_dict",
    "learn",
    "load_csv",
    "load_possible_parents",
    "log_context_marginal_likelihood",
    "log_density",
    "log_local_order_score",
    "log_marginal_likelihood",
    "log_order_score",
    "log_staging_score",
    "map_order",
    "max_stage_count",
    "model_ops",
    "optimal_staging",
    "order_mcmc",
    "possible_parents_from_cpdag",
    "random_cstree",
    "run_chain",
    "sample",
    "sample_staging_uniform",
    "scoring",
    "stage_members",
    "to_ldag",
    "write_csv",
]


def test_public_names_are_pinned():
    assert sorted(ctxtree.__all__) == PUBLIC_NAMES
