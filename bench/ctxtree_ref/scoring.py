"""Dirichlet-multinomial scores for stagings, levels, and variable orderings.

Everything is computed and stored in log space.  The context marginal
likelihood of a (variable, context) pair is the Dirichlet-multinomial
evidence of its count vector; a staging scores the sum of its stages'
evidences plus a uniform log prior over the admissible stagings of its
level; a local order score log-sum-exps the staging scores over that set;
an order scores the sum of local order scores along its positions.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    Context,
    CStree,
    ResourceCapError,
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
    a_tot = a * d
    n_tot = counts.sum()
    value = float(
        gammaln(a_tot) - gammaln(a_tot + n_tot) + (gammaln(a + counts) - gammaln(a)).sum()
    )
    if not math.isfinite(value):
        raise ValidationError(
            f"non-finite evidence for variable {var}, context {context}"
        )
    return value


class _StreamingLogSumExp:
    __slots__ = ("m", "s")

    def __init__(self):
        self.m = -math.inf
        self.s = 0.0

    def add(self, x: float) -> None:
        if x <= self.m:
            self.s += math.exp(x - self.m)
        else:
            self.s = self.s * math.exp(self.m - x) + 1.0 if self.s else 1.0
            self.m = x

    def value(self) -> float:
        if self.m == -math.inf:
            return -math.inf
        return self.m + math.log(self.s)


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


def _staging_score_raw(var, contexts, z_i, log_n_stagings) -> float:
    total = -log_n_stagings
    for items in contexts:
        total += z_i[items]
    return total


def log_staging_score(var: int, staging: Staging, tables: ScoreTables, spec: EnumSpec) -> float:
    """Log of the staging's evidence times the uniform staging prior
    1/|S_{L,beta}| for its level."""
    log_n = math.log(count_stagings(spec))
    total = -log_n
    for stage in staging.stages:
        total += tables.z(var, stage.context)
    return total


def log_local_order_score(var: int, spec: EnumSpec, tables: ScoreTables) -> float:
    """Log-sum-exp of staging scores over all admissible stagings of a level,
    streamed from the enumeration without materializing the list."""
    z_i = tables._z[var]
    log_n = math.log(count_stagings(spec))
    acc = _StreamingLogSumExp()
    for raw in iter_raw_stagings(spec):
        acc.add(_staging_score_raw(var, raw, z_i, log_n))
    return acc.value()


def log_order_score(order: Sequence[int], tables: ScoreTables) -> float:
    return tables.order_score(order)


def build_score_tables(
    count_table: CountTable,
    prior: PriorSpec,
    threads: int = 1,
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

    def build_var(i: int):
        d_i = space.cards[i]
        z_i: dict[tuple, float] = {}
        for svars, table in ((s, t) for (v, s), t in count_table._tables.items() if v == i):
            a = prior.alpha_cell(space, i, svars)
            a_tot = a * d_i
            n_tot = table.sum(axis=1)
            vals = (
                gammaln(a_tot)
                - gammaln(a_tot + n_tot)
                + (gammaln(a + table) - gammaln(a)).sum(axis=1)
            )
            radices = [space.cards[v] for v in svars]
            for cell in range(table.shape[0]):
                rem, values = cell, []
                for r in reversed(radices):
                    values.append(rem % r)
                    rem //= r
                values.reverse()
                z_i[tuple(zip(svars, values))] = float(vals[cell])
        los_i: dict[frozenset, float] = {}
        k_i = sorted(pp[i])
        cards_of = {v: space.cards[v] for v in k_i}
        for size in range(len(k_i) + 1):
            for subset in combinations(k_i, size):
                spec = EnumSpec(subset, [cards_of[v] for v in subset], subset, beta)
                log_n = math.log(count_stagings(spec))
                acc = _StreamingLogSumExp()
                for raw in iter_raw_stagings(spec):
                    acc.add(_staging_score_raw(i, raw, z_i, log_n))
                los_i[frozenset(subset)] = acc.value()
        return i, z_i, los_i

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(build_var, range(space.p)))
    else:
        results = [build_var(i) for i in range(space.p)]
    z = {i: z_i for i, z_i, _ in results}
    los = {i: los_i for i, _, los_i in results}
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
