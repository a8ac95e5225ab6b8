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
for ``log_context_marginal_likelihood`` alike.

Local order scores (table entries and ``log_local_order_score``) come from a
closed form, for all 2^|K_i| subsets L of a possible-parent set at once.
For beta = 2 an admissible staging other than the empty-context one picks a
pivot k in L, and each value x of k independently either stays a plain
stage {k=x} or is refined by one second variable j in L-k into the stages
{k=x, j=y}.  The summed evidence over that set therefore factorizes pivot
by pivot:

    los(i, L) = log[ e^{z_0} + sum_{k in L} prod_{x < d_k} ( e^{z(k=x)}
                     + sum_{j in L-k} e^{B(k,x,j)} )
                     - sum_{{j,k} subset L} e^{P(j,k)} ] - log N(L)

with z_0 the empty-context evidence, B(k,x,j) = sum_y z({k=x, j=y}),
P(j,k) = sum_{x,y} z({j=x, k=y}) and N(L) = ``count_stagings``.  The last
sum removes the pair staging {j, k}, which both pivots j and k produce when
every value picks the other variable.  For beta = 1 the sum is
e^{z_0} + sum_k e^{sum_x z(k=x)}, and for beta = 0 it is e^{z_0}.

The positive part ``pos`` is a log-sum-exp; the pair mass ``neg`` is
subtracted as ``pos + log1p(-exp(neg - pos))``, with exp(neg - pos) summed
as sum_{j<k} e^{P(j,k) - pos}.  Each pair staging is counted in two pivot
products, so neg <= pos - log 2 and the log1p argument stays in
[-1/2, 0], where it loses no precision.  Entries match the enumeration
oracle within 1e-12 relative.  ``optimal_staging`` still walks the
enumerated stagings once and keeps the first strict maximum in
``iter_raw_stagings`` order.

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
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Context,
    CStree,
    PossibleParents,
    ResourceCapError,
    Stage,
    Staging,
    StateSpace,
    ValidationError,
    validate_order,
)
from .counts import CountTable, Dataset, stage_counts
from .enumeration import EnumSpec, count_stagings, iter_raw_stagings


MAX_K = 16

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


def _gammaln(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) elementwise over an array of positive values, through
    ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _log_evidences(counts: np.ndarray, alpha: float, var: int, context_vars) -> np.ndarray:
    """Log Dirichlet-multinomial evidence of each row of a (cells x d) count
    table for ``var``, every cell carrying the hyperparameter ``alpha``."""
    a_tot = alpha * counts.shape[1]
    try:
        values = (
            math.lgamma(a_tot)
            - _gammaln(a_tot + counts.sum(axis=1))
            + (_gammaln(alpha + counts) - math.lgamma(alpha)).sum(axis=1)
        )
    except (ValueError, OverflowError):  # math.lgamma at 0 or past the float range
        values = np.array([math.inf])
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
    subset L of each possible-parent set.  The local order scores of
    variable i are one list indexed by the bitmask of L over sorted K_i
    (bit b set when the b-th smallest member of K_i is in L); ``los`` turns
    L into that mask, and ``order_score`` and the order chain build the
    masks from an ordering.  Both tables are immutable once built.
    """

    def __init__(self, space, pp, beta, prior, z, los):
        self.space = space
        self.pp = pp
        self.beta = beta
        self.prior = prior
        self._z = z
        self._los = los
        self._bits = [{u: 1 << b for b, u in enumerate(sorted(pp[i]))} for i in range(space.p)]

    def z(self, var: int, context) -> float:
        items = (context if isinstance(context, Context) else Context(context)).items
        try:
            return self._z[var][items]
        except KeyError:
            raise ValidationError(
                f"no context marginal likelihood for variable {var}, context "
                f"{dict(items)}"
            ) from None

    def los(self, var: int, usable: Iterable[int]) -> float:
        usable = set(usable)
        if var not in range(self.space.p) or not usable <= self._bits[var].keys():
            raise ValidationError(
                f"no local order score for variable {var}, L={sorted(usable)}"
            )
        bits = self._bits[var]
        return self._los[var][sum(bits[u] for u in usable)]

    def _pred_masks(self, order: Sequence[int]) -> list[int]:
        """Each variable's predecessors in the permutation ``order``, as a
        bitmask over its sorted possible-parent set."""
        pos = [0] * len(order)
        for at, var in enumerate(order):
            pos[var] = at
        return [
            sum(b for u, b in bits.items() if pos[u] < pos[var])
            for var, bits in enumerate(self._bits)
        ]

    def order_score(self, order: Sequence[int]) -> float:
        """Unnormalized log marginal order posterior, up to a constant shared
        by all orderings."""
        order = validate_order(order, self.space.p)
        masks = self._pred_masks(order)
        total = 0.0
        for var in order:
            total += self._los[var][masks[var]]
        return total

    def dump_z(self, fh) -> None:
        """One line per z entry: variable, context as JSON, log value."""
        for var in sorted(self._z):
            for items, value in self._z[var].items():
                ctx = json.dumps({str(v): x for v, x in items}, separators=(",", ":"))
                fh.write(f"{var}\t{ctx}\t{value:.12g}\n")


def _subset_logsumexp(terms: np.ndarray) -> np.ndarray:
    """``out[L] = log sum_{b in L} exp(terms[b])`` for every bitmask L over
    the rows of ``terms`` (bit b is row b), column by column; -inf for the
    empty set.  Each row doubles the table, so the cost is 2^n per column."""
    out = np.full((1, terms.shape[1]), -np.inf)
    for row in terms:
        out = np.concatenate([out, np.logaddexp(out, row)])
    return out


def _log_staging_counts(member: np.ndarray, cards: Sequence[int], beta: int) -> np.ndarray:
    """log ``count_stagings`` of every L: the count depends on L only
    through how many members it has of each cardinality."""
    kinds = sorted(set(cards))
    per_kind = member.astype(np.int64) @ (np.asarray(cards)[:, None] == kinds)
    key = per_kind @ (len(cards) + 1) ** np.arange(len(kinds))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    logs = [
        math.log(count_stagings(EnumSpec.of_cards(np.repeat(kinds, per_kind[f]).tolist(), beta)))
        for f in first
    ]
    return np.asarray(logs)[inverse]


def _local_order_scores(z_i: dict, usable: Sequence[int], cards: Sequence[int], beta: int) -> np.ndarray:
    """Local order scores of one variable for every subset L of ``usable``
    (sorted, with cardinalities ``cards``), indexed by the bitmask of L.

    Column (k, x) of the pivot block holds log sum_{j in L-k} e^{B(k,x,j)};
    column k of the pair block holds log sum_{j in L, j<k} e^{P(j,k)}.
    Below beta=2 both blocks stay -inf, and below beta=1 so do the plain
    single-variable stages, which leaves the formulas of the module
    docstring for every beta.
    """
    n = len(usable)
    starts = np.cumsum([0, *cards])[:-1]
    width = sum(cards)
    plain = np.full(width, -np.inf)
    terms = np.full((n, width + n), -np.inf)
    if beta >= 1:
        plain[:] = [z_i[((k, x),)] for k, d in zip(usable, cards) for x in range(d)]
    if beta >= 2:
        for (b, j), (a, k) in combinations(enumerate(usable), 2):
            block = np.array(
                [[z_i[((j, y), (k, x))] for x in range(cards[a])] for y in range(cards[b])]
            )
            terms[b, starts[a] : starts[a] + cards[a]] = block.sum(axis=0)
            terms[a, starts[b] : starts[b] + cards[b]] = block.sum(axis=1)
            terms[b, width + a] = block.sum()
    sums = _subset_logsumexp(terms)
    member = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    pivots = np.add.reduceat(np.logaddexp(sums[:, :width], plain), starts, axis=1)
    parts = np.column_stack([np.full(1 << n, z_i[()]), np.where(member, pivots, -np.inf)])
    top = parts.max(axis=1)
    pos = top + np.log(np.exp(parts - top[:, None]).sum(axis=1))
    pairs = np.exp(np.where(member, sums[:, width:], -np.inf) - pos[:, None]).sum(axis=1)
    return pos + np.log1p(-pairs) - _log_staging_counts(member, cards, beta)


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
    cards = [spec.card_of(v) for v in spec.usable]
    return float(_local_order_scores(tables._z[var], spec.usable, cards, spec.beta)[-1])


def optimal_staging(var: int, spec: EnumSpec, tables: ScoreTables) -> Staging:
    """Exact argmax of the staging score over the admissible stagings.

    The uniform staging prior and the order-position prior are constant
    within a level, so the argmax is by summed stage evidences; ties keep
    the first staging in canonical enumeration order.
    """
    z_i = tables._z[var]
    best, raw = -math.inf, None
    for candidate in iter_raw_stagings(spec):
        total = 0.0
        for items in candidate:
            total += z_i[items]
        if total > best:
            best, raw = total, candidate
    level = spec.level
    return Staging(level, tuple(Stage(Context(a), level) for a in raw))


def log_order_score(order: Sequence[int], tables: ScoreTables) -> float:
    return tables.order_score(order)


def _check_k_cap(pp: PossibleParents) -> None:
    """Reject any |K_i| above ``MAX_K``: a variable has 2^|K_i| local order
    scores whatever beta is."""
    for i, k in enumerate(pp.sets):
        if len(k) > MAX_K:
            raise ResourceCapError(
                f"|K_{i}| = {len(k)} exceeds the cap {MAX_K}: local order scores take "
                f"2^|K| entries per variable; supply sparser possible-parent sets (e.g. a CPDAG)"
            )


def build_score_tables(count_table: CountTable, prior: PriorSpec) -> ScoreTables:
    """Precompute z for every admissible (variable, context) and los for
    every (variable, L subset of K_i).

    Each possible-parent set contributes 2^{|K_i|} local order scores, so
    |K_i| above ``MAX_K`` is rejected.  The closed form builds them all in
    O(2^{|K|} * |K| * d) time and memory per variable, plus the
    O(C(|K|, beta) * d^beta) z entries it reads.
    """
    space = count_table.space
    pp = count_table.pp
    beta = count_table.beta
    _check_k_cap(pp)

    z: dict[int, dict[tuple, float]] = {}
    los: list[list[float]] = []
    for i in range(space.p):
        z_i = z[i] = {}
        for svars, contexts, table in count_table.tables(i):
            a = prior.alpha_cell(space, i, svars)
            z_i.update(zip(contexts, _log_evidences(table, a, i, svars).tolist()))
        k_i = sorted(pp[i])
        los.append(_local_order_scores(z_i, k_i, [space.cards[v] for v in k_i], beta).tolist())
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
        for stage, counts in zip(staging.stages, stage_counts(data, var, staging)):
            total += log_context_marginal_likelihood(
                tree.space, var, stage.context, counts, prior
            )
    return total
