"""Dirichlet-multinomial scores for stagings, levels, and variable orderings.

Everything is computed and stored in log space.  The context marginal
likelihood of a (variable, context) pair is the Dirichlet-multinomial
evidence of its count vector; a staging scores the sum of its stages'
evidences plus a uniform log prior over the admissible stagings of its
level; a local order score log-sum-exps the staging scores over that set;
an order scores the sum of local order scores along its positions.

This module is the one place where counts become evidence and where the
admissible stagings of a level are reduced to a score.  ``_log_evidences``
turns a (cells x d) count table into evidences, for the score tables and
for ``log_context_marginal_likelihood`` alike.  ``_staging_evidences`` sums
the stage evidences of every staging in ``iter_raw_stagings`` order; local
order scores (table entries and ``log_local_order_score``) log-sum-exp that
list, and ``optimal_staging`` takes its first maximum.

The per-cell hyperparameter allocation "bdeu-path" spreads the equivalent
sample size uniformly over root-to-leaf paths of the tree:
alpha_isk = ess * |stage| / (|level| * d_i), which simplifies to
ess / (d_i * prod_{k in S} d_k).  The level terms cancel, so scores are
independent of where in the ordering a variable sits and the tables can be
keyed by (variable, context) alone.  When a staging mimics a fixed parent
set this reduces to the classic BDeu allocation, which is what makes
Markov-equivalent trees score equally.  The "unit" scheme (all alpha = 1)
is provided for testing.

The uniform order-position prior contributes the same constant to every
ordering and is dropped from all comparative scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    Context,
    CStree,
    ResourceCapError,
    Stage,
    Staging,
    StateSpace,
    ValidationError,
)
from .counts import CountTable, Dataset, compute_counts
from .enumeration import EnumSpec, count_stagings, iter_raw_stagings


DEFAULT_MAX_K = 16

PRIOR_SCHEMES = ("bdeu-path", "unit")


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameter scheme for the per-stage Dirichlet priors."""

    scheme: str = "bdeu-path"
    ess: float = 1.0

    def __post_init__(self):
        if self.scheme not in PRIOR_SCHEMES:
            raise ValidationError(
                f"unknown prior scheme {self.scheme!r}; expected one of {PRIOR_SCHEMES}"
            )
        if not (self.ess > 0):
            raise ValidationError(f"ess must be positive, got {self.ess}")

    def alpha_cell(self, space: StateSpace, var: int, context_vars: Sequence[int]) -> float:
        """The common per-value hyperparameter alpha_isk for one context."""
        if self.scheme == "unit":
            return 1.0
        q = math.prod(space.cards[v] for v in context_vars)
        return self.ess / (space.cards[var] * q)


def _log_evidences(counts: np.ndarray, alpha: float, var: int, context_vars) -> np.ndarray:
    """Log Dirichlet-multinomial evidence of each row of a (cells x d) count
    table for ``var``, every cell carrying the hyperparameter ``alpha``."""
    a_tot = alpha * counts.shape[1]
    values = (
        gammaln(a_tot)
        - gammaln(a_tot + counts.sum(axis=1))
        + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=1)
    )
    if not np.isfinite(values).all():
        raise ValidationError(
            f"non-finite evidence for variable {var}, context variables {context_vars}"
        )
    return values


def log_context_marginal_likelihood(
    space: StateSpace,
    var: int,
    context: Context,
    counts: Sequence[int],
    prior: PriorSpec,
) -> float:
    """Log Dirichlet-multinomial evidence of one (variable, context) cell."""
    counts = np.asarray(counts, dtype=np.float64)
    d = space.cards[var]
    if counts.shape != (d,):
        raise ValidationError(f"expected {d} counts for variable {var}, got {counts.shape}")
    a = prior.alpha_cell(space, var, context.vars)
    return float(_log_evidences(counts[None, :], a, var, context.vars)[0])


class ScoreTables:
    """Precomputed log context marginal likelihoods and local order scores.

    ``z`` covers every (variable, context) with context variables inside the
    variable's possible-parent set and |S| <= beta; ``los`` covers every
    subset L of each possible-parent set.  Both are immutable once built and
    lookups are plain dict reads.
    """

    def __init__(self, space, pp, beta, prior, z, los):
        self.space = space
        self.pp = pp
        self.beta = beta
        self.prior = prior
        self._z = z
        self._los = los

    def z(self, var: int, context) -> float:
        items = context.items if isinstance(context, Context) else tuple(context)
        try:
            return self._z[var][items]
        except KeyError:
            raise ValidationError(
                f"no context marginal likelihood for variable {var}, context "
                f"{dict(items)}"
            ) from None

    def los(self, var: int, usable: Iterable[int]) -> float:
        key = frozenset(usable)
        try:
            return self._los[var][key]
        except KeyError:
            raise ValidationError(
                f"no local order score for variable {var}, L={sorted(key)}"
            ) from None

    def order_score(self, order: Sequence[int]) -> float:
        """Unnormalized log marginal order posterior, up to a constant shared
        by all orderings."""
        total = 0.0
        preds: set[int] = set()
        for var in order:
            total += self.los(var, self.pp[var] & preds)
            preds.add(var)
        return total

    def dump_z(self, fh) -> None:
        """One line per z entry: variable, context as JSON, log value."""
        for var in sorted(self._z):
            for items, value in self._z[var].items():
                ctx = json.dumps({str(v): x for v, x in items}, separators=(",", ":"))
                fh.write(f"{var}\t{ctx}\t{value:.12g}\n")


def _staging_evidences(z_i: dict, spec: EnumSpec) -> list[float]:
    """Summed stage evidence of each admissible staging of the level, in
    ``iter_raw_stagings`` order."""
    evidences = []
    for raw in iter_raw_stagings(spec):
        total = 0.0
        for items in raw:
            total += z_i[items]
        evidences.append(total)
    return evidences


def _local_order_score(z_i: dict, spec: EnumSpec) -> float:
    evidences = _staging_evidences(z_i, spec)
    top = max(evidences)
    total = sum([math.exp(e - top) for e in evidences])
    return top + math.log(total) - math.log(count_stagings(spec))


def log_staging_score(var: int, staging: Staging, tables: ScoreTables, spec: EnumSpec) -> float:
    """Log of the staging's evidence times the uniform staging prior
    1/|S_{L,beta}| for its level."""
    log_n = math.log(count_stagings(spec))
    total = -log_n
    for stage in staging.stages:
        total += tables.z(var, stage.context)
    return total


def log_local_order_score(var: int, spec: EnumSpec, tables: ScoreTables) -> float:
    """Log-sum-exp of staging scores over all admissible stagings of a level."""
    return _local_order_score(tables._z[var], spec)


def optimal_staging(var: int, spec: EnumSpec, tables: ScoreTables) -> Staging:
    """Exact argmax of the staging score over the admissible stagings.

    The uniform staging prior and the order-position prior are constant
    within a level, so the argmax is by summed stage evidences; ties keep
    the first staging in canonical enumeration order.
    """
    evidences = _staging_evidences(tables._z[var], spec)
    best = evidences.index(max(evidences))
    raw = next(islice(iter_raw_stagings(spec), best, None))
    level = spec.level
    return Staging(level, tuple(Stage(Context(a), level) for a in raw))


def log_order_score(order: Sequence[int], tables: ScoreTables) -> float:
    return tables.order_score(order)


def build_score_tables(
    count_table: CountTable,
    prior: PriorSpec,
    max_k: int = DEFAULT_MAX_K,
) -> ScoreTables:
    """Precompute z for every admissible (variable, context) and los for
    every (variable, L subset of K_i).

    Each possible-parent set contributes 2^{|K_i|} local order scores, so
    |K_i| above ``max_k`` is rejected; the build runs within the
    O(p * 2^{|K|} * |S_{K,beta}| * d^beta) envelope of the score-table
    construction.
    """
    space = count_table.space
    pp = count_table.pp
    beta = count_table.beta
    for i in range(space.p):
        if len(pp[i]) > max_k:
            raise ResourceCapError(
                f"|K_{i}| = {len(pp[i])} exceeds the cap {max_k}: local order "
                f"scores require 2^|K| entries per variable and "
                f"O(p * 2^|K| * |S_K,beta| * d^beta) build time; supply sparser "
                f"possible-parent sets (e.g. from a CPDAG) or lower beta"
            )

    z: dict[int, dict[tuple, float]] = {}
    los: dict[int, dict[frozenset, float]] = {}
    for i in range(space.p):
        z_i = z[i] = {}
        for svars, contexts, table in count_table.tables(i):
            a = prior.alpha_cell(space, i, svars)
            z_i.update(zip(contexts, _log_evidences(table, a, i, svars).tolist()))
        los_i = los[i] = {}
        k_i = sorted(pp[i])
        for size in range(len(k_i) + 1):
            for subset in combinations(k_i, size):
                spec = EnumSpec(subset, [space.cards[v] for v in subset], subset, beta)
                los_i[frozenset(subset)] = _local_order_score(z_i, spec)
    return ScoreTables(space, pp, beta, prior, z, los)


def log_marginal_likelihood(tree: CStree, data: Dataset, prior: PriorSpec) -> float:
    """Log marginal likelihood of a CStree: the product over all stages of
    their context marginal likelihoods, computed directly from the data.

    Unlike the score tables this accepts any staging, including stages whose
    contexts are larger than a sparsity bound.
    """
    if data.space.cards != tree.space.cards:
        raise ValidationError("dataset and tree have different state spaces")
    total = 0.0
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        for stage in staging.stages:
            counts = compute_counts(data, var, stage.context)
            total += log_context_marginal_likelihood(
                tree.space, var, stage.context, counts, prior
            )
    return total
