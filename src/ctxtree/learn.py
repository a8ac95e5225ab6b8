"""End-to-end structure learning: possible parents, score tables, order
search, then exact per-level staging optimization.

The possible-parent phase is delegated: a CPDAG or explicit possible-parent
file produced by any external structure learner can be supplied, and absent
one every variable may use all others as context variables.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .core import CStree, ParseError, PossibleParents, ValidationError
from .counts import DEFAULT_MAX_CELLS, Dataset, build_count_table
from .enumeration import EnumSpec
from .order_mcmc import ChainConfig, map_order, run_chain
from .scoring import PriorSpec, build_score_tables, optimal_staging

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LearnConfig:
    beta: int = 2
    prior: PriorSpec = field(default_factory=PriorSpec)
    chain: ChainConfig = field(default_factory=ChainConfig)
    possible_parents: Union[PossibleParents, str, Path, None] = None
    estimator: str = "map"
    max_cells: int = DEFAULT_MAX_CELLS
    threads: int = 1

    def __post_init__(self):
        if self.estimator not in ("map", "mle", "none"):
            raise ValidationError(f"estimator must be map/mle/none, got {self.estimator!r}")


def possible_parents_from_cpdag(doc: Union[dict, str, Path], p: int) -> PossibleParents:
    """K_i = undirected neighbors of i plus directed parents of i.

    ``doc`` is a mapping with "directed" and "undirected" edge lists, or a
    path to a JSON file holding one.
    """
    if not isinstance(doc, dict):
        with open(doc) as fh:
            doc = json.load(fh)
    directed = doc.get("directed", [])
    undirected = doc.get("undirected", [])
    sets: list[set[int]] = [set() for _ in range(p)]

    def check(u, v):
        u, v = int(u), int(v)
        if u == v:
            raise ParseError(f"self-loop on node {u}")
        if not (0 <= u < p and 0 <= v < p):
            raise ParseError(f"edge ({u}, {v}) out of range for p={p}")
        return u, v

    for u, v in directed:
        u, v = check(u, v)
        sets[v].add(u)
    for u, v in undirected:
        u, v = check(u, v)
        sets[u].add(v)
        sets[v].add(u)
    return PossibleParents(sets)


def load_possible_parents(path: Union[str, Path], p: int) -> PossibleParents:
    """Read a possible-parents file: either a mapping from variable index to
    a list of indices, or a CPDAG document with edge lists."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if "directed" in doc or "undirected" in doc:
        return possible_parents_from_cpdag(doc, p)
    sets: list[set[int]] = [set() for _ in range(p)]
    for key, value in doc.items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError(f"{path}: non-integer variable key {key!r}") from None
        if not (0 <= i < p):
            raise ParseError(f"{path}: variable {i} out of range for p={p}")
        sets[i] = {int(j) for j in value}
    return PossibleParents(sets)


def _resolve_pp(config: LearnConfig, p: int) -> PossibleParents:
    src = config.possible_parents
    if src is None:
        return PossibleParents.full(p)
    if isinstance(src, PossibleParents):
        return src
    return load_possible_parents(src, p)


def learn(data: Dataset, config: LearnConfig, return_trace: bool = False):
    """Estimate a CStree from data.

    Builds the count and score tables, samples orderings with the
    relocation Gibbs chain, takes the best sampled ordering, and exactly
    optimizes each level's staging under L_i = K_i intersected with the
    ordering's predecessors.  Parameters are then fitted per
    ``config.estimator``.  Deterministic given the chain seed.
    """
    from .model_ops import estimate_parameters  # local import to avoid a cycle

    space = data.space
    pp = _resolve_pp(config, space.p)
    count_table = build_count_table(
        data, pp, config.beta, max_cells=config.max_cells, threads=config.threads
    )
    tables = build_score_tables(count_table, config.prior)
    trace = run_chain(tables, config.chain)
    order = map_order(trace)
    logger.info("best sampled ordering %s (log score %.6g)", order, tables.order_score(order))

    stagings = []
    for lvl in range(1, space.p):
        var = order[lvl]
        usable = sorted(pp[var] & set(order[:lvl]))
        spec = EnumSpec.for_level(space, order, lvl, config.beta, usable)
        stagings.append(optimal_staging(var, spec, tables))
    tree = CStree(order, space, stagings, names=data.names, labels=data.labels)
    if config.estimator != "none":
        tree = estimate_parameters(tree, data, config.estimator, config.prior)
    if return_trace:
        return tree, trace
    return tree
