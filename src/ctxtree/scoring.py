"""Dirichlet-multinomial scores for stagings, levels, and variable orderings.

Everything is computed and stored in log space.  The context marginal
likelihood of a (variable, context) pair is the Dirichlet-multinomial
evidence of its count vector; a staging scores the sum of its stages'
evidences plus a uniform log prior over the admissible stagings of its
level; a local order score log-sum-exps the staging scores over that set;
an order scores the sum of local order scores along its positions.

This module is the one place where counts become evidence and where the
admissible stagings of a level are reduced to a score.  z is kept in the
count table's layout, keyed (variable i, context variables S) with rows in
mixed radix, and i's tables concatenated in table order are the evidence
row the ``los`` kernel reads.  The score tables are built in two batched
passes.  ``_log_evidences`` turns all of one variable's count tables,
stacked with one alpha per row, into evidences, evaluating log Gamma once
per distinct argument; ``log_context_marginal_likelihood`` is the same call
on a single row, and ``log_marginal_likelihood`` makes one call per
cardinality over the stages of a tree.  ``_local_order_scores`` then runs
the closed form below once per cardinality profile (the variables whose
sorted K_i have the same cardinalities), over a leading variable axis, with
the staging counts computed once per profile; ``log_local_order_score`` is
the same call on a group of one.  A kernel call covers at most 2^12 subset
rows (``_BATCH_ROWS``), so a profile with |K| >= 12 runs one variable per
call.

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
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Sequence

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
    as_int,
    validate_order,
)
from .counts import CountTable, Dataset, _context_sets, _row, stage_counts
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


def _lgamma(x: float) -> float:
    """``math.lgamma``, +inf at its pole 0 and past the float range."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


def _gammaln(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) elementwise over an array of positive values, through
    ``math.lgamma``; +inf where it has no finite value."""
    return np.fromiter(map(_lgamma, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _log_evidences(tables: Sequence[tuple]) -> np.ndarray:
    """Log Dirichlet-multinomial evidence of every row of the count tables,
    stacked in the order given.

    ``tables`` holds ((variable, context variables), alpha, (cells x d)
    counts) triples, all of one width d; every cell of a table carries that
    table's hyperparameter alpha.  log Gamma is evaluated once per distinct
    argument over all the tables.
    """
    owners, alphas, counts = zip(*tables)
    sizes = [len(c) for c in counts]
    counts = np.concatenate(counts)
    alpha = np.repeat(alphas, sizes)
    a_tot = alpha * counts.shape[1]
    args = np.concatenate(
        [a_tot, a_tot + counts.sum(axis=1), alpha, (alpha[:, None] + counts).ravel()]
    )
    distinct, inverse = np.unique(args, return_inverse=True)
    logs = _gammaln(distinct)[inverse]
    rows = len(counts)
    log_cells = logs[3 * rows :].reshape(counts.shape)
    values = (
        logs[:rows] - logs[rows : 2 * rows] + (log_cells - logs[2 * rows : 3 * rows, None]).sum(axis=1)
    )
    finite = np.isfinite(values)
    if not finite.all():
        var, context_vars = owners[np.searchsorted(np.cumsum(sizes), finite.argmin(), side="right")]
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
    return float(_log_evidences([((var, context.vars), a, counts[None, :])])[0])


class ScoreTables:
    """Precomputed log context marginal likelihoods and local order scores.

    ``z`` covers every (variable, context) with context variables inside the
    variable's possible-parent set and |S| <= beta: one list per key (i, S)
    in ``CountTable``'s row layout, i's lists in table order making its
    ``los`` kernel row.  ``los`` covers every subset L of each possible-parent
    set, variable i's as one list indexed by the bitmask of L over sorted K_i
    (bit b set when the b-th smallest member of K_i is in L).  Both tables
    are immutable once built.
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
        context = context if isinstance(context, Context) else Context(context)
        return _row(self._z, self.space, var, context, "context marginal likelihood")

    def _level(self, var: int, spec: EnumSpec) -> Iterator[tuple[tuple, float]]:
        """The z entries of ``var`` on ``spec``'s level, as ((variable, value)
        pairs, value) in table order; the spec must fit the tables."""
        var, _ = self._mask(var, spec.usable)
        if spec.beta > self.beta or any(spec.card_of(v) != self.space.cards[v] for v in spec.usable):
            raise ValidationError(
                f"no z entries for variable {var} at beta {spec.beta}, cards {spec.cards}"
            )
        for svars in _context_sets(spec.usable, spec.beta):
            values = product(*(range(self.space.cards[v]) for v in svars))
            for xs, value in zip(values, self._z[(var, svars)]):
                yield tuple(zip(svars, xs)), value

    def _mask(self, var, usable: Iterable[int]) -> tuple[int, int]:
        """``var`` as an int and the bitmask of ``usable`` over sorted K_var."""
        var, usable = as_int("variable", var), set(usable)
        if var not in range(self.space.p) or not usable <= self._bits[var].keys():
            raise ValidationError(f"no local order score for variable {var}, L={sorted(usable)}")
        return var, sum(self._bits[var][u] for u in usable)

    def los(self, var: int, usable: Iterable[int]) -> float:
        var, mask = self._mask(var, usable)
        return self._los[var][mask]

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
        for var, k_var in enumerate(self.pp.sets):
            spec = EnumSpec.for_level(self.space, sorted(k_var), len(k_var), self.beta)
            for items, value in self._level(var, spec):
                ctx = json.dumps({str(v): x for v, x in items}, separators=(",", ":"))
                fh.write(f"{var}\t{ctx}\t{value:.12g}\n")


def _subset_logsumexp(terms: np.ndarray) -> np.ndarray:
    """``out[g, L] = log sum_{b in L} exp(terms[g, b])`` for every bitmask L
    over the rows of each ``terms[g]`` (bit b is row b), column by column;
    -inf for the empty set.  Each row doubles the table, so the cost is 2^n
    per column."""
    g, n, width = terms.shape
    out = np.empty((g, 1 << n, width))
    out[:, 0] = -np.inf
    for b in range(n):
        half = 1 << b
        np.logaddexp(out[:, :half], terms[:, b, None], out=out[:, half : 2 * half])
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


def _log_summed_evidence(
    ev: np.ndarray, cards: Sequence[int], beta: int, member: np.ndarray
) -> np.ndarray:
    """log of the evidence summed over the admissible stagings of every
    subset L, for each row of ``ev`` (laid out as ``_local_order_scores``
    says), before the uniform staging prior.

    Column (k, x) of the pivot block holds log sum_{j in L-k} e^{B(k,x,j)};
    column k of the pair block holds log sum_{j in L, j<k} e^{P(j,k)}.
    Below beta=2 both blocks stay -inf, and below beta=1 so do the plain
    single-variable stages, which leaves the formulas of the module
    docstring for every beta.
    """
    g, n = len(ev), len(cards)
    starts = np.cumsum([0, *cards])[:-1]
    width = sum(cards)
    plain = np.full((g, 1, width), -np.inf)
    terms = np.full((g, n, width + n), -np.inf)
    if beta >= 1:
        plain[:, 0] = ev[:, 1 : 1 + width]
    if beta >= 2:
        at = 1 + width
        for (b, d_j), (a, d_k) in combinations(enumerate(cards), 2):
            block = ev[:, at : at + d_j * d_k]
            grid = block.reshape(g, d_j, d_k)
            at += d_j * d_k
            terms[:, b, starts[a] : starts[a] + d_k] = grid.sum(axis=1)
            terms[:, a, starts[b] : starts[b] + d_j] = grid.sum(axis=2)
            terms[:, b, width + a] = block.sum(axis=1)
    # the steps below work in place on ``sums`` and ``parts``, so a call
    # holds about two arrays of its size at once
    sums = _subset_logsumexp(terms)
    pivot_cols, pair_cols = sums[..., :width], sums[..., width:]
    np.logaddexp(pivot_cols, plain, out=pivot_cols)
    parts = np.full((g, 1 << n, n + 1), -np.inf)
    parts[..., 0] = ev[:, :1]
    np.copyto(parts[..., 1:], np.add.reduceat(pivot_cols, starts, axis=2), where=member)
    top = parts.max(axis=2)
    parts -= top[..., None]
    pos = top + np.log(np.exp(parts, out=parts).sum(axis=2))
    np.copyto(pair_cols, -np.inf, where=~member)
    pair_cols -= pos[..., None]
    pairs = np.exp(pair_cols, out=pair_cols).sum(axis=2)
    return pos + np.log1p(-pairs)


# Subset rows per kernel call.  A call over g variables with |K| = n holds
# several arrays of g * 2^n rows by O(n * d) columns.  Batching pays for the
# per-call overhead on small K; past 2^12 rows it only multiplies the memory
# (tracemalloc peak of the whole build at p=20, binary, |K|=12: 39 MiB in one
# call against 5.6 MiB one variable at a time), so any |K| >= 12 runs one
# variable per call.
_BATCH_ROWS = 1 << 12


def _local_order_scores(ev: np.ndarray, cards: Sequence[int], beta: int) -> Iterator[np.ndarray]:
    """Local order scores of g variables whose sorted possible-parent sets
    have the cardinalities ``cards``, for every subset L of those sets,
    indexed by the bitmask of L.  Yields them as (batch x 2^n) blocks in
    row order, each block at most ``_BATCH_ROWS`` subset rows.

    Row r of the (g x rows) ``ev`` is one variable's kernel row: its z
    tables concatenated in table order, as the module docstring says.
    """
    n = len(cards)
    member = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    log_counts = _log_staging_counts(member, cards, beta)
    step = max(1, _BATCH_ROWS >> n)
    for first in range(0, len(ev), step):
        yield _log_summed_evidence(ev[first : first + step], cards, beta, member) - log_counts


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
    ev = [value for _, value in tables._level(var, spec)]
    cards = [spec.card_of(v) for v in spec.usable]
    (scores,) = _local_order_scores(np.array([ev]), cards, spec.beta)
    return float(scores[0, -1])


def optimal_staging(var: int, spec: EnumSpec, tables: ScoreTables) -> Staging:
    """Exact argmax of the staging score over the admissible stagings.

    The uniform staging prior and the order-position prior are constant
    within a level, so the argmax is by summed stage evidences; ties keep
    the first staging in canonical enumeration order.
    """
    z_l = dict(tables._level(var, spec))
    best, raw = -math.inf, None
    for candidate in iter_raw_stagings(spec):
        total = 0.0
        for items in candidate:
            total += z_l[items]
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

    z: dict[tuple, list[float]] = {}
    evidences = []
    profiles: dict[tuple, list[int]] = {}
    for i in range(space.p):
        tables = list(count_table.tables(i))
        values = _log_evidences(
            [((i, svars), prior.alpha_cell(space, i, svars), counts) for svars, counts in tables]
        )
        ends = np.cumsum([len(counts) for _, counts in tables])
        for (svars, _), block in zip(tables, np.split(values, ends[:-1])):
            z[(i, svars)] = block.tolist()
        evidences.append(values)
        profiles.setdefault(tuple(space.cards[v] for v in sorted(pp[i])), []).append(i)

    los: list = [None] * space.p
    for cards, members in profiles.items():
        ev = np.stack([evidences[i] for i in members])
        blocks = _local_order_scores(ev, cards, beta)
        for i, scores in zip(members, chain.from_iterable(b.tolist() for b in blocks)):
            los[i] = scores
    return ScoreTables(space, pp, beta, prior, z, los)


def log_marginal_likelihood(tree: CStree, data: Dataset, prior: PriorSpec) -> float:
    """Log marginal likelihood of a CStree: the product over all stages of
    their context marginal likelihoods, computed directly from the data.

    Unlike the score tables this accepts any staging, including stages whose
    contexts are larger than a sparsity bound.
    """
    if data.space.cards != tree.space.cards:
        raise ValidationError("dataset and tree have different state spaces")
    space = tree.space
    levels = [(tree.governed_var(lvl), staging) for lvl, staging in enumerate(tree.stagings)]
    by_width: dict[int, list] = {}
    for var, staging in levels:
        counts = stage_counts(data, var, staging)
        by_width.setdefault(space.cards[var], []).extend(
            ((var, s.context.vars), prior.alpha_cell(space, var, s.context.vars), counts[k : k + 1])
            for k, s in enumerate(staging.stages)
        )
    values = {d: iter(_log_evidences(stages).tolist()) for d, stages in by_width.items()}
    total = 0.0
    for var, staging in levels:
        for _ in staging.stages:
            total += next(values[space.cards[var]])
    return total
