"""The public API: the names ``ctxtree`` exports and the public attributes
of its classes.

A removal from these lists is a breaking change; record it in CHANGES.md
when editing them.
"""

import inspect

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


# Public class attributes, as ``dir`` lists them, without those inherited
# from builtins (exceptions gain methods across Python versions).  Instance
# attributes set in ``__init__`` and dataclass fields without a default do
# not appear in ``dir`` of the class.
PUBLIC_ATTRIBUTES = {
    "CStree": [
        "from_json", "from_json_dict", "governed_var", "labels", "level_vars", "max_context_size",
        "names", "p", "params", "stage_probs", "to_json", "to_json_dict", "with_params",
    ],
    "ChainConfig": ["burn_in", "init", "iterations", "seed", "thin"],
    "ChainTrace": ["config", "move_distances", "samples"],
    "Context": ["as_dict", "check_in_space", "items", "mask", "size", "values", "vars"],
    "CorruptStagingError": [],
    "CountTable": ["counts", "tables"],
    "CtxTreeError": [],
    "Dataset": ["labels", "n", "names", "p"],
    "EnumSpec": ["card_of", "for_level", "level", "of_cards"],
    "Ldag": ["names"],
    "LearnConfig": ["beta", "estimator", "max_cells", "possible_parents", "threads"],
    "ParseError": [],
    "PossibleParents": ["alpha", "full", "p"],
    "PriorSpec": ["alpha_cell", "ess", "scheme"],
    "ResourceCapError": [],
    "ScoreTables": ["dump_z", "los", "order_score", "z"],
    "Stage": ["sort_key"],
    "Staging": ["canonical_key", "full_level", "max_context_size"],
    "StateSpace": ["joint_size", "outcomes", "p"],
    "UnsupportedBoundError": [],
    "ValidationError": [],
}


def test_public_class_attributes_are_pinned():
    got = {}
    for name in ctxtree.__all__:
        cls = getattr(ctxtree, name)
        if inspect.isclass(cls):
            builtin = set().union(*(dir(b) for b in cls.__mro__ if b.__module__ == "builtins"))
            got[name] = sorted(a for a in dir(cls) if not a.startswith("_") and a not in builtin)
    assert got == PUBLIC_ATTRIBUTES
