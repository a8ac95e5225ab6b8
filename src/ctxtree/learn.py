"""End-to-end structure learning: possible parents, score tables, order
search, then exact per-level staging optimization.

The possible-parent phase is delegated: a CPDAG or explicit possible-parent
file produced by any external structure learner can be supplied, and absent
one every variable may use all others as context variables.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .core import CStree, ParseError, PossibleParents, ValidationError, as_int
from .counts import DEFAULT_MAX_CELLS, Dataset, build_count_table
from .enumeration import EnumSpec, _check_beta
from .order_mcmc import ChainConfig, map_order, run_chain
from .scoring import PriorSpec, ScoreTables, _check_k_cap, build_score_tables, optimal_staging

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LearnConfig:
    """Settings of one ``learn`` run.

    ``possible_parents`` holds the sets K_i that stage contexts are drawn
    from, None letting every variable use all the others; read a file with
    ``load_possible_parents``.  Each |K_i| may be at most ``scoring.MAX_K``
    (16), checked before any row is counted.  ``max_cells`` caps the count
    table and ``threads`` sets the worker threads of its build.
    """

    beta: int = 2
    prior: PriorSpec = field(default_factory=PriorSpec)
    chain: ChainConfig = field(default_factory=ChainConfig)
    possible_parents: Optional[PossibleParents] = None
    estimator: str = "map"
    max_cells: int = DEFAULT_MAX_CELLS
    threads: int = 1

    def __post_init__(self):
        for name in ("beta", "max_cells", "threads"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.estimator not in ("map", "mle", "none"):
            raise ValidationError(f"estimator must be map/mle/none, got {self.estimator!r}")
        if not isinstance(self.possible_parents, (PossibleParents, type(None))):
            raise ValidationError(
                "possible_parents must be a PossibleParents or None; read a file "
                "with load_possible_parents"
            )


def _vars(items, p: int, what: str) -> list[int]:
    """``items``, checked to be a JSON list of variable indices: integers,
    not bools, in 0..p-1."""
    if not (isinstance(items, list) and all(type(x) is int and 0 <= x < p for x in items)):
        raise ParseError(f"{what} must be a list of integers in 0..{p - 1}, got {items!r}")
    return items


def possible_parents_from_cpdag(doc: dict, p: int) -> PossibleParents:
    """K_i = undirected neighbors of i plus directed parents of i.

    ``doc`` is a parsed mapping with "directed" and "undirected" lists of
    [u, v] edges; ``load_possible_parents`` reads one from a file.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    sets: list[set[int]] = [set() for _ in range(p)]
    for kind in ("directed", "undirected"):
        edges = doc.get(kind, [])
        pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)
        if not pairs:
            raise ParseError(f"{kind} must be a list of [u, v] edges, got {edges!r}")
        for u, v in edges:
            _vars([u, v], p, f"{kind} edge")
            if u == v:
                raise ParseError(f"self-loop on node {u}")
            sets[v].add(u)
            if kind == "undirected":
                sets[u].add(v)
    return PossibleParents(sets)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is an error rather
    than a silent overwrite."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated key {repeated[0]!r}")
    return dict(pairs)


def load_possible_parents(path: Union[str, Path], p: int) -> PossibleParents:
    """Read a possible-parents file: either a mapping from variable index to
    a list of integer indices, or a CPDAG document with edge lists.  This is
    the one reader of such files; anything malformed raises ParseError,
    including a repeated key and a variable key that is not written in
    canonical decimal (``"00"`` would name variable 0 a second time)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # bad JSON, bad UTF-8 or a repeated key
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    try:
        if not isinstance(doc, dict) or "directed" in doc or "undirected" in doc:
            return possible_parents_from_cpdag(doc, p)
        sets: list[set[int]] = [set() for _ in range(p)]
        for key, members in doc.items():
            if not (key.isdecimal() and key == str(int(key)) and int(key) < p):
                raise ParseError(
                    f"variable key {key!r} is not an integer in 0..{p - 1} in canonical decimal"
                )
            sets[int(key)] = set(_vars(members, p, f"K_{key}"))
        return PossibleParents(sets)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _checked_sets(config: LearnConfig, p: int) -> PossibleParents:
    """The possible-parent sets ``config`` gives p variables, after checking
    beta and the |K_i| cap."""
    _check_beta(config.beta)
    pp = config.possible_parents
    pp = PossibleParents.full(p) if pp is None else pp
    _check_k_cap(pp)
    return pp


def _score_tables(data: Dataset, config: LearnConfig) -> ScoreTables:
    """Count and score tables of ``data`` under ``config``; beta and the
    |K_i| cap are checked before any row is counted."""
    pp = _checked_sets(config, data.p)
    count_table = build_count_table(
        data, pp, config.beta, max_cells=config.max_cells, threads=config.threads
    )
    return build_score_tables(count_table, config.prior)


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
    tables = _score_tables(data, config)
    trace = run_chain(tables, config.chain)
    order = map_order(trace)
    logger.info("best sampled ordering %s (log score %.6g)", order, tables.order_score(order))

    stagings = []
    for lvl in range(1, space.p):
        var = order[lvl]
        usable = sorted(tables.pp[var] & set(order[:lvl]))
        spec = EnumSpec.for_level(space, order, lvl, config.beta, usable)
        stagings.append(optimal_staging(var, spec, tables))
    tree = CStree(order, space, stagings, names=data.names, labels=data.labels)
    if config.estimator != "none":
        tree = estimate_parameters(tree, data, config.estimator, config.prior)
    if return_trace:
        return tree, trace
    return tree
