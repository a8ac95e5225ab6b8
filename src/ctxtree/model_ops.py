"""Operations on parameterized CStrees: estimation, sampling, densities,
exact KL divergence, and random model generation."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import (
    CStree,
    ResourceCapError,
    Staging,
    StateSpace,
    ValidationError,
    as_int,
    block_stage_ids,
    stage_ids,
)
from .counts import Dataset, stage_counts
from .enumeration import EnumSpec, _check_beta, sample_staging_uniform
from .scoring import PriorSpec

DEFAULT_JOINT_CAP = 1 << 25

# Outcomes ``kl_divergence`` takes its logs of at a time: a block's
# temporaries (64 KiB each) stay small beside the two joint tables.
_KL_BLOCK = 1 << 13


def estimate_parameters(
    tree: CStree,
    data: Dataset,
    mode: str = "map",
    prior: Optional[PriorSpec] = None,
) -> CStree:
    """Fit per-stage categorical distributions.

    "mle" uses stage-count ratios, falling back to uniform for empty stages.
    "map" uses the Dirichlet posterior mode when every posterior cell weight
    exceeds 1, else the posterior mean.  The stage counts come from one
    ``stage_counts`` pass over the distinct rows per level; ``learn`` hands
    the same formulas its count table's rows instead.
    """
    if mode not in ("map", "mle"):
        raise ValidationError(f"mode must be map or mle, got {mode!r}")
    if data.space.cards != tree.space.cards:
        raise ValidationError("dataset and tree have different state spaces")
    if mode == "map" and prior is None:
        prior = PriorSpec()
    level_counts = [
        stage_counts(data, tree.governed_var(lvl), staging) for lvl, staging in enumerate(tree.stagings)
    ]
    return _fit(tree, level_counts, mode, prior)


def _fit(tree: CStree, level_counts, mode: str, prior: Optional[PriorSpec]) -> CStree:
    """``tree`` with the stage distributions that ``estimate_parameters``
    fits from the (stages x d) counts of each level, ``level_counts[lvl]``."""
    params = []
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        d = tree.space.cards[var]
        counts = np.asarray(level_counts[lvl], dtype=float)
        if mode == "mle":
            n = counts.sum(axis=1, keepdims=True)
            theta = np.divide(counts, n, out=np.full(counts.shape, 1.0 / d), where=n > 0)
        else:
            post = counts + [[prior.alpha_cell(tree.space, var, s.context.vars)] for s in staging.stages]
            total = post.sum(axis=1, keepdims=True)
            # the posterior mode where every cell weight exceeds 1, else the mean
            mode_rows = (post > 1.0).all(axis=1, keepdims=True)
            theta = np.divide(post - 1.0, total - d, out=post / total, where=mode_rows)
        theta /= theta.sum(axis=1, keepdims=True)
        params.append(theta.tolist())
    return tree.with_params(params)


def log_density(tree: CStree, outcome: Sequence[int]) -> float:
    """Log probability of a full outcome (indexed by variable, not by order
    position).  Zero-probability stages yield -inf rather than an error."""
    if tree.params is None:
        raise ValidationError("tree has no parameters")
    if len(outcome) != tree.p:
        raise ValidationError(f"outcome has {len(outcome)} values, expected {tree.p}")
    if isinstance(outcome, np.ndarray) and outcome.ndim == 1 and outcome.dtype.kind in "iu":
        values = outcome.tolist()
    else:
        values = [as_int("outcome value", x) for x in outcome]
    for v, d in enumerate(tree.space.cards):
        if not 0 <= values[v] < d:
            raise ValidationError(f"value {values[v]} of variable {v} is outside 0..{d - 1}")
    total = 0.0
    for lvl, staging in enumerate(tree.stagings):
        idx = stage_ids(staging, values.__getitem__)
        theta = tree.params[lvl][idx][values[tree.governed_var(lvl)]]
        if theta == 0.0:
            return -math.inf
        total += math.log(theta)
    return total


def joint_table(tree: CStree, max_joint: int = DEFAULT_JOINT_CAP) -> np.ndarray:
    """Exhaustive joint probability table, axes in natural variable order:
    a view of ``_outcome_table``'s buffer."""
    table = _outcome_table(tree, max_joint)
    return table.transpose([tree.p - 1 - tree.order.index(v) for v in range(tree.p)])


def _outcome_table(tree: CStree, max_joint: int) -> np.ndarray:
    """The joint probability table in one C-contiguous buffer whose axes are
    the variables in reverse tree order, the last level's variable first.

    The levels are built in place.  Level l's table is the block of the
    buffer where every later level's variable is 0; it becomes the first
    slice of level l + 1's block, so each value of the new variable writes
    its own slice from it (the first slice last, in place).  Each level's
    stage ids come from an open grid of its axes, so they and the stage
    probabilities they gather are only as large as the axes the contexts
    read."""
    if tree.params is None:
        raise ValidationError("tree has no parameters")
    size = tree.space.joint_size()
    if size > max_joint:
        raise ResourceCapError(
            f"joint state space has {size} outcomes, above the cap {max_joint}"
        )
    order = tree.order
    cards = tree.space.cards
    table = np.empty([cards[v] for v in reversed(order)])
    table[(0,) * tree.p] = 1.0
    for lvl, staging in enumerate(tree.stagings):
        block = table[(0,) * (tree.p - 1 - lvl)]
        axes = order[lvl - 1 :: -1] if lvl else ()
        grid = dict(zip(axes, np.ix_(*(np.arange(cards[v]) for v in axes))))
        probs = np.asarray(tree.params[lvl])[stage_ids(staging, grid.get)]
        for k in range(len(block) - 1, -1, -1):
            np.multiply(block[0, ...], probs[..., k], out=block[k, ...])
    return table


def sample(tree: CStree, n: int, rng: np.random.Generator) -> Dataset:
    """Forward-sample n rows along the tree's ordering; deterministic given the
    generator state.

    Stream contract: each level draws one block ``rng.random(n)`` and hands
    the uniforms out in stage order, then in row order within each stage.  A
    row's value is the number of entries of its stage's CDF (``cumsum`` of
    the probabilities, divided by its last entry) that are <= its uniform.
    These are the draws, and the generator end state, of one
    ``rng.choice(d, size=k, p=theta)`` per stage holding k > 0 rows, in
    stage order.

    Each level finds its rows' stages with ``block_stage_ids``: from 2**14
    rows, one table of the stage of each outcome of the context variables,
    indexed by each row's code over them; below that, or when the table
    would outgrow the rows, the stage masks.  The level then sorts its rows
    by stage once (stably, so each stage keeps row order), counts each
    stage's values by d - 1 comparisons over the stage's contiguous slice
    of the uniforms, and scatters the values back to row order in one step.
    How a level finds its stages does not change the stream.
    """
    if tree.params is None:
        raise ValidationError("tree has no parameters")
    n = as_int("n", n)
    if n < 1:
        raise ValidationError("n must be >= 1")
    rows = np.empty((n, tree.p), dtype=np.int64)
    # one contiguous narrow column per variable, so stage lookups read
    # little.  The (p x n) work array lives in the tail of the output's
    # buffer: no second block sits beside the output, and the level
    # temporaries, allocated after it, leave no hole below it when freed
    dtype = np.min_scalar_type(max(tree.space.cards) - 1)
    tail = rows.reshape(-1).view(np.uint8)[rows.nbytes - rows.size * dtype.itemsize :]
    cols = tail.view(dtype).reshape(tree.p, n)
    for lvl, staging in enumerate(tree.stagings):
        _draw_level(cols, tree.governed_var(lvl), staging, tree.params[lvl], tree.space.cards, rng)
    # the range check reads the narrow columns, before the rows overwrite them
    bounds = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()
    # a narrow copy first: the work array and the rows share memory
    rows[...] = cols.T.copy()
    return Dataset._adopt(rows, tree.space, names=tree.names, bounds=bounds)


def _draw_level(cols: np.ndarray, var: int, staging: Staging, params, cards, rng) -> None:
    """Fill ``cols[var]`` by the stream contract of ``sample``; the level's
    temporaries are freed on return."""
    n = cols.shape[1]
    uniforms = rng.random(n)
    cdfs = np.cumsum(params, axis=1)
    cdfs /= cdfs[:, -1:]
    if len(cdfs) == 1:
        _count_at_or_below(cdfs[0], uniforms, cols[var])
        return
    ids = block_stage_ids(staging, cols, cards)
    # a stable sort keeps each stage's rows in row order
    by_stage = np.argsort(ids, kind="stable")
    # stage ids in their own narrow type, so the sorted ids are not widened
    stages = np.arange(len(cdfs), dtype=ids.dtype)
    ends = np.searchsorted(ids[by_stage], stages, side="right").tolist()
    values = np.empty(n, dtype=cols.dtype)
    start = 0
    for cdf, end in zip(cdfs, ends):
        _count_at_or_below(cdf, uniforms[start:end], values[start:end])
        start = end
    cols[var][by_stage] = values


def _count_at_or_below(cdf: np.ndarray, uniforms: np.ndarray, out: np.ndarray) -> None:
    """``out`` = how many entries of ``cdf`` are <= each uniform.  The last
    entry is exactly 1.0 and every uniform is below 1, so it never counts."""
    np.less_equal(cdf[0], uniforms, out=out)
    for t in cdf[1:-1].tolist():
        out += t <= uniforms


def kl_divergence(p_tree: CStree, q_tree: CStree, max_joint: int = DEFAULT_JOINT_CAP) -> float:
    """Exact KL divergence D(P || Q) by exhaustive enumeration of the joint
    space.  Returns +inf when Q puts zero mass where P does not.

    P's table is read in its own contiguous layout and Q's through a view in
    that layout, a block of outcomes at a time; each block's terms
    p * (log p - log q) overwrite P's, and P's buffer is summed once."""
    if p_tree.space.cards != q_tree.space.cards:
        raise ValidationError("trees have different state spaces")
    q = joint_table(q_tree, max_joint).transpose(p_tree.order[::-1])
    p = _outcome_table(p_tree, max_joint)
    lead = 0
    while math.prod(p.shape[lead:]) > _KL_BLOCK:
        lead += 1
    # q = 0 where p > 0 gives an infinite term, and so an infinite sum
    with np.errstate(divide="ignore", invalid="ignore"):
        for at in np.ndindex(p.shape[:lead]):
            pvals, qvals = p[at], q[at]
            terms = np.log(pvals)
            terms -= np.log(qvals, out=qvals)
            terms *= pvals
            # outside the support, p stays 0
            np.copyto(pvals, terms, where=pvals > 0)
    return float(np.sum(p))


def random_cstree(
    space: StateSpace,
    beta: int,
    rng: np.random.Generator,
    theta: str = "dirichlet1",
) -> CStree:
    """A random CStree: uniformly random ordering, each level's staging drawn
    uniformly from the admissible set, and (optionally) flat-Dirichlet stage
    distributions."""
    if theta not in ("dirichlet1", "none"):
        raise ValidationError(f"theta must be dirichlet1 or none, got {theta!r}")
    beta = _check_beta(beta)
    p = space.p
    order = tuple(int(v) for v in rng.permutation(p))
    stagings = [Staging.full_level(0)]
    for lvl in range(1, p):
        spec = EnumSpec._checked_level(space, order, lvl, beta)
        stagings.append(sample_staging_uniform(spec, rng))
    tree = CStree(order, space, stagings)
    if theta == "none":
        return tree
    params = []
    for lvl, staging in enumerate(tree.stagings):
        # the stream of one rng.dirichlet(np.ones(d)) call per stage, in stage order
        draws = rng.dirichlet(np.ones(space.cards[tree.governed_var(lvl)]), size=len(staging.stages))
        params.append((draws / draws.sum(axis=1, keepdims=True)).tolist())
    return tree.with_params(params)
