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
    stage_ids,
    stage_index,
)
from .counts import Dataset, stage_counts
from .enumeration import EnumSpec, sample_staging_uniform
from .scoring import PriorSpec

DEFAULT_JOINT_CAP = 1 << 25


def estimate_parameters(
    tree: CStree,
    data: Dataset,
    mode: str = "map",
    prior: Optional[PriorSpec] = None,
) -> CStree:
    """Fit per-stage categorical distributions.

    "mle" uses stage-count ratios, falling back to uniform for empty stages.
    "map" uses the Dirichlet posterior mode when every posterior cell weight
    exceeds 1, else the posterior mean.
    """
    if mode not in ("map", "mle"):
        raise ValidationError(f"mode must be map or mle, got {mode!r}")
    if data.space.cards != tree.space.cards:
        raise ValidationError("dataset and tree have different state spaces")
    if mode == "map" and prior is None:
        prior = PriorSpec()
    params = []
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        d = tree.space.cards[var]
        level_params = []
        for stage, counts in zip(staging.stages, stage_counts(data, var, staging).astype(float)):
            n = counts.sum()
            if mode == "mle":
                theta = counts / n if n > 0 else np.full(d, 1.0 / d)
            else:
                a = prior.alpha_cell(tree.space, var, stage.context.vars)
                post = counts + a
                if np.all(post > 1.0):
                    theta = (post - 1.0) / (post.sum() - d)
                else:
                    theta = post / post.sum()
            theta = theta / theta.sum()
            level_params.append(tuple(float(t) for t in theta))
        params.append(tuple(level_params))
    return tree.with_params(tuple(params))


def log_density(tree: CStree, outcome: Sequence[int]) -> float:
    """Log probability of a full outcome (indexed by variable, not by order
    position).  Zero-probability stages yield -inf rather than an error."""
    if tree.params is None:
        raise ValidationError("tree has no parameters")
    if len(outcome) != tree.p:
        raise ValidationError(f"outcome has {len(outcome)} values, expected {tree.p}")
    assignment = dict(enumerate(outcome))
    for v, d in enumerate(tree.space.cards):
        if not 0 <= assignment[v] < d:
            raise ValidationError(f"value {assignment[v]} of variable {v} is outside 0..{d - 1}")
    total = 0.0
    for lvl, staging in enumerate(tree.stagings):
        idx = stage_index(staging, assignment)
        theta = tree.params[lvl][idx][assignment[tree.governed_var(lvl)]]
        if theta == 0.0:
            return -math.inf
        total += math.log(theta)
    return total


def joint_table(tree: CStree, max_joint: int = DEFAULT_JOINT_CAP) -> np.ndarray:
    """Exhaustive joint probability table, axes in natural variable order."""
    if tree.params is None:
        raise ValidationError("tree has no parameters")
    size = tree.space.joint_size()
    if size > max_joint:
        raise ResourceCapError(
            f"joint state space has {size} outcomes, above the cap {max_joint}"
        )
    order = tree.order
    cards = tree.space.cards
    probs = np.ones(())
    for lvl, staging in enumerate(tree.stagings):
        shape = tuple(cards[v] for v in order[:lvl])
        grid = dict(zip(order[:lvl], np.ix_(*map(np.arange, shape))))
        ids = stage_ids(staging, grid.get, shape)
        probs = probs[..., np.newaxis] * np.asarray(tree.params[lvl])[ids]
    # probs axes follow the ordering; rearrange to natural variable axes
    return probs.transpose([order.index(v) for v in range(tree.p)])


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
    """
    if tree.params is None:
        raise ValidationError("tree has no parameters")
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
        _draw_level(cols, tree.governed_var(lvl), staging, tree.params[lvl], rng)
    # a narrow copy first: the work array and the rows share memory
    rows[...] = cols.T.copy()
    return Dataset._adopt(rows, tree.space, names=tree.names)


def _draw_level(cols: np.ndarray, var: int, staging: Staging, params, rng) -> None:
    """Fill ``cols[var]`` by the stream contract of ``sample``; the level's
    temporaries are freed on return."""
    uniforms = rng.random(cols.shape[1])
    cdfs = [cdf / cdf[-1] for cdf in map(np.cumsum, params)]
    if len(cdfs) == 1:
        cols[var] = cdfs[0].searchsorted(uniforms, side="right")
        return
    ids = stage_ids(staging, cols.__getitem__, cols.shape[1])
    ends = np.cumsum(np.bincount(ids, minlength=len(cdfs))).tolist()
    ids = ids.astype(np.min_scalar_type(len(cdfs) - 1))
    # a stable sort keeps each stage's rows in row order
    by_stage = np.argsort(ids, kind="stable")
    start = 0
    for cdf, end in zip(cdfs, ends):
        cols[var, by_stage[start:end]] = cdf.searchsorted(uniforms[start:end], side="right")
        start = end


def kl_divergence(p_tree: CStree, q_tree: CStree, max_joint: int = DEFAULT_JOINT_CAP) -> float:
    """Exact KL divergence D(P || Q) by exhaustive enumeration of the joint
    space.  Returns +inf when Q puts zero mass where P does not."""
    if p_tree.space.cards != q_tree.space.cards:
        raise ValidationError("trees have different state spaces")
    pvals = joint_table(p_tree, max_joint).ravel()
    qvals = joint_table(q_tree, max_joint).ravel()
    support = pvals > 0
    if not support.all():
        pvals, qvals = pvals[support], qvals[support]
    if not qvals.all():
        return math.inf
    # both tables are this call's own: take logs and products in place
    terms = np.log(pvals)
    terms -= np.log(qvals, out=qvals)
    terms *= pvals
    return float(np.sum(terms))


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
    p = space.p
    order = tuple(int(v) for v in rng.permutation(p))
    stagings = [Staging.full_level(0)]
    for lvl in range(1, p):
        spec = EnumSpec.for_level(space, order, lvl, beta)
        stagings.append(sample_staging_uniform(spec, rng))
    tree = CStree(order, space, stagings)
    if theta == "none":
        return tree
    params = []
    for lvl, staging in enumerate(tree.stagings):
        d = space.cards[tree.governed_var(lvl)]
        level_params = []
        for _ in staging.stages:
            draw = rng.dirichlet(np.ones(d))
            draw = draw / draw.sum()
            level_params.append(tuple(float(t) for t in draw))
        params.append(tuple(level_params))
    return tree.with_params(tuple(params))
