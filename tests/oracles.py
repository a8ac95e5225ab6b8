"""Independent reference implementations used to freeze expected values.

Nothing here imports the enumeration generator, the library's evidence, or
the score tables; stagings come from raw set partitions and evidences from
the sequential predictive (Polya urn) product, so the oracles stay
independent of the code paths they check.  The model-operation oracles at
the end are the exception: they are the per-stage mask implementations that
the vectorized stage lookup replaced, and they share the library's evidence
and estimator formulas, so they check only how stages select outcomes; the
per-outcome stage lookup and log density walk the stages of each level in
turn for the first context an outcome matches.  The set-based order scores
at the very end likewise read the score tables' ``los``; they check only
how the order chain forms predecessor sets, and the stateless chain scores
every candidate ordering afresh at each step and draws over the full
per-position vector, so it checks only how ``run_chain`` keeps positions
and masks and draws over constant segments.  The exact order posterior sums
over predecessor sets instead of orderings and reads only the public
``los``; it checks the chain's stationary law.  The list-then-index staging
argmax walks the library's enumeration; it checks only the tie rule.  The
stratum sampler is the uniform staging sampler as it was before it walked
one draw over the pivot counts; it pins the sampler's draws and its random
stream, and ``stratum_random_cstree`` runs it level by level on specs that
the public ``EnumSpec.for_level`` checks, as ``random_cstree`` did.  The cell-by-cell CSV loader and the per-set count build are the
data layer as it was before it worked on whole columns and collapsed rows;
the void-key collapse is the row collapse as it was before it packed each
row into one integer key.  The per-set count build counts every table on
its own, so it also checks how the build stacks the block tables of one
shape and derives each table as a row of one axis sum over the stack.  The ``csv.writer`` CSV writer is ``write_csv``
as it was before it encoded rows in numpy blocks; it pins the bytes of the
file.  The per-variable score-table build is the score layer as it was
before it ran in batched passes: one evidence call per count table, with
one ``math.lgamma`` per cell, and one closed-form call per variable reading
its z dict.  It shares the library's evidence formula, closed form and
staging counts, so it checks only how the batched build puts the tables
of all variables into one evidence pass, grouped by width, evaluates log
Gamma once per distinct argument, groups variables by cardinality profile and
splits them into batches.  The
product-loop enumerator is ``iter_raw_stagings`` as it was before its pivot
strata came from the walk that the staging argmax shares; it pins the
enumeration order and the stage order inside each staging.  The level-size
partition check is ``core._check_partition`` as it was before it counted
stage sizes over the union of the context variables; it pins which
stagings are rejected and with what message.  The per-key cell walk is the
count table's cap check as it was before it summed elementary symmetric
sums; it pins the total the cap is checked against.
"""

from __future__ import annotations

import math
from itertools import combinations, product


def set_contexts(cards, svars):
    """The contexts over the variables ``svars`` as (variable, value) pairs,
    values counting up with the last variable fastest."""
    return [tuple(zip(svars, xs)) for xs in product(*(range(cards[v]) for v in svars))]


def table_contexts(cards, usable, beta):
    """Every context over at most ``beta`` variables of ``usable``, as
    (variable, value) pairs, in the order of the count and score tables: by
    size, then by variable set, then by ``set_contexts``."""
    for size in range(beta + 1):
        for svars in combinations(sorted(usable), size):
            yield from set_contexts(cards, svars)


def set_partitions(items):
    """All partitions of ``items`` as lists of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for b, block in enumerate(partial):
            yield partial[:b] + [[first] + block] + partial[b + 1 :]
        yield [[first]] + partial


def block_context(block, level_vars, cards):
    """The defining context of an outcome block, or None when the block is
    not expressible as one.  Outcomes are positional over ``level_vars``."""
    const = {}
    for pos, v in enumerate(level_vars):
        values = {outcome[pos] for outcome in block}
        if len(values) == 1:
            const[v] = values.pop()
    free = [cards[pos] for pos, v in enumerate(level_vars) if v not in const]
    if len(block) != math.prod(free):
        return None
    return tuple(sorted(const.items()))


def brute_force_stagings(level_vars, cards, usable, beta):
    """All context-partitions of the level with every block context using at
    most ``beta`` variables, all inside ``usable``.  Returns a set of
    stagings, each a frozenset of context item-tuples."""
    outcomes = list(product(*(range(d) for d in cards)))
    usable = set(usable)
    found = set()
    for partition in set_partitions(outcomes):
        contexts = []
        for block in partition:
            ctx = block_context(block, level_vars, cards)
            if ctx is None or len(ctx) > beta or not {v for v, _ in ctx} <= usable:
                break
            contexts.append(ctx)
        else:
            found.add(frozenset(contexts))
    return found


def is_partition(staging, order, space):
    """True when every outcome of the staging's level lies in exactly one
    stage, found by scanning all the level's outcomes."""
    level_vars = tuple(order[: staging.level])
    for outcome in product(*(range(space.cards[v]) for v in level_vars)):
        assignment = dict(zip(level_vars, outcome))
        hits = sum(
            all(assignment[v] == x for v, x in stage.context.items)
            for stage in staging.stages
        )
        if hits != 1:
            return False
    return True


def product_raw_stagings(spec):
    """``iter_raw_stagings`` as it was before strata 3 and 4 came from the
    pivot walk: each pivot stratum as ``product`` loops over the second
    variables, the stage order inside each staging included."""

    def block(k, xk, j):
        return [tuple(sorted(((k, xk), (j, y)))) for y in range(spec.card_of(j))]

    usable = spec.usable
    d = {v: spec.card_of(v) for v in usable}
    yield ((),)
    if spec.beta < 1:
        return
    for j in usable:
        yield tuple(((j, x),) for x in range(d[j]))
    if spec.beta < 2:
        return
    refined = {
        k: {j: tuple(block(k, xk, j) for xk in range(d[k])) for j in usable if j != k}
        for k in usable
    }
    # stratum 3: pivot k, one second variable per value of k; constant
    # choices are deduplicated through the smaller pivot
    for k in usable:
        others = tuple(j for j in usable if j != k)
        for choice in product(others, repeat=d[k]):
            if len(set(choice)) == 1 and choice[0] < k:
                continue
            stages = []
            for xk, j in enumerate(choice):
                stages.extend(refined[k][j][xk])
            yield tuple(stages)
    # stratum 4: pivot k, a nonempty proper subset of its values refined
    for k in usable:
        others = tuple(j for j in usable if j != k)
        if not others:
            continue
        for mask in range(1, (1 << d[k]) - 1):
            split = [x for x in range(d[k]) if mask >> x & 1]
            plain = [((k, x),) for x in range(d[k]) if not mask >> x & 1]
            for choice in product(others, repeat=len(split)):
                stages = list(plain)
                for xk, j in zip(split, choice):
                    stages.extend(refined[k][j][xk])
                yield tuple(stages)


def level_size_partition_error(staging, order, space):
    """The message with which ``core._check_partition`` rejected a staging
    when it counted stage sizes over the whole level, or None where it
    accepted it."""
    level = staging.level
    level_size = math.prod(space.cards[v] for v in order[:level])
    covered = 0
    seen = []
    for stage in staging.stages:
        ctx = stage.context
        covered += level_size // math.prod(space.cards[v] for v in ctx.vars)
        for other, fixed in seen:
            if all(fixed.get(v, x) == x for v, x in ctx.items):
                return f"level-{level} stages {other} and {ctx} overlap"
        seen.append((ctx, ctx.as_dict()))
    if covered != level_size:
        return f"level-{level} stages cover {covered} of the level's {level_size} outcomes"
    return None


def polya_log_evidence(counts, alphas):
    """Log marginal likelihood of a count vector under a Dirichlet prior,
    via the sequential predictive product."""
    total = 0.0
    a_sum = float(sum(alphas))
    n_seen = 0
    for n_k, a_k in zip(counts, alphas):
        for t in range(int(n_k)):
            total += math.log((a_k + t) / (a_sum + n_seen))
            n_seen += 1
    return total


def path_alphas(level_cards, context_card_prod, d_target, ess):
    """Per-value hyperparameter under the path-uniform allocation, stated via
    the stage-size / level-size ratio."""
    level_size = math.prod(level_cards) if level_cards else 1
    stage_size = level_size // context_card_prod
    return [ess * stage_size / (level_size * d_target)] * d_target


def max_csi_violation(tree, ldag, joint) -> float:
    """Largest defect over all labeled patterns and wildcard completions of
    the pairwise context-specific independence each pattern asserts.

    A pattern on edge src -> tgt with completed assignment c must make
    P(x_tgt | x_src, c) constant in x_src; the defect is the largest
    absolute difference between those conditionals, computed from the joint
    table by exhaustive marginalization.
    """
    import numpy as np

    cards = tree.space.cards
    p = tree.p
    worst = 0.0
    for src, tgt in ldag.edges:
        axis = ldag.axes[(src, tgt)]
        for pattern in ldag.labels[(src, tgt)]:
            fixed = {axis[c]: v for c, v in enumerate(pattern) if v is not None}
            wild = [axis[c] for c, v in enumerate(pattern) if v is None]
            keep = sorted({src, tgt, *fixed, *wild})
            marg = joint.sum(axis=tuple(v for v in range(p) if v not in keep))
            for completion in product(*(range(cards[v]) for v in wild)):
                assignment = dict(fixed)
                assignment.update(zip(wild, completion))
                idx = tuple(
                    assignment.get(v, slice(None)) for v in keep
                )
                sub = np.asarray(marg[idx])  # axes: src and tgt in sorted order
                if src > tgt:
                    sub = sub.T
                cond = sub / sub.sum(axis=1, keepdims=True)
                worst = max(worst, float(np.abs(cond - cond[0]).max()))
    return worst


def count_rows(rows, var, context_items, d):
    counts = [0] * d
    for row in rows:
        if all(row[v] == x for v, x in context_items):
            counts[row[var]] += 1
    return counts


def brute_force_order_score(rows, cards, order, pp_sets, beta, scheme, ess):
    """Log of the unnormalized order posterior, dropping the constant
    order-position prior: per position, log of the average staging evidence
    over the brute-force staging set."""
    total = 0.0
    preds: list[int] = []
    for var in order:
        usable = sorted(set(pp_sets[var]) & set(preds))
        level_cards = [cards[v] for v in preds]
        stagings = brute_force_stagings(preds, level_cards, usable, beta)
        log_scores = []
        for staging in stagings:
            s = 0.0
            for context_items in staging:
                q = math.prod(cards[v] for v, _ in context_items)
                if scheme == "unit":
                    alphas = [1.0] * cards[var]
                else:
                    alphas = path_alphas(level_cards, q, cards[var], ess)
                counts = count_rows(rows, var, context_items, cards[var])
                s += polya_log_evidence(counts, alphas)
            log_scores.append(s - math.log(len(stagings)))
        m = max(log_scores)
        total += m + math.log(sum(math.exp(x - m) for x in log_scores))
        preds.append(var)
    return total


def mask_sample(tree, n, rng):
    """``sample`` with one row mask per stage."""
    import numpy as np

    from ctxtree import Dataset

    rows = np.zeros((n, tree.p), dtype=np.int64)
    for lvl in range(tree.p):
        var = tree.governed_var(lvl)
        d = tree.space.cards[var]
        for idx, stage in enumerate(tree.stagings[lvl].stages):
            mask = np.ones(n, dtype=bool)
            for v, x in stage.context.items:
                mask &= rows[:, v] == x
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            theta = np.asarray(tree.params[lvl][idx])
            rows[mask, var] = rng.choice(d, size=cnt, p=theta)
    return Dataset(rows, tree.space, names=tree.names)


def mask_joint_table(tree):
    """``joint_table`` with one mask over the full ``np.indices`` grid per stage."""
    import numpy as np

    order = tree.order
    cards = tree.space.cards
    probs = np.asarray(tree.params[0][0], dtype=np.float64)
    for lvl in range(1, tree.p):
        var = order[lvl]
        d = cards[var]
        level_shape = tuple(cards[v] for v in order[:lvl])
        theta = np.empty(level_shape + (d,), dtype=np.float64)
        grid = np.indices(level_shape)
        for idx, stage in enumerate(tree.stagings[lvl].stages):
            mask = np.ones(level_shape, dtype=bool)
            for v, x in stage.context.items:
                mask &= grid[order.index(v)] == x
            theta[mask] = np.asarray(tree.params[lvl][idx])
        probs = probs[..., np.newaxis] * theta
    return probs.transpose([order.index(v) for v in range(tree.p)])


def mask_counts(data, var, context):
    """``compute_counts`` with the context's row mask written out."""
    import numpy as np

    mask = np.ones(data.n, dtype=bool)
    for v, x in context.items:
        mask &= data.rows[:, v] == x
    return np.bincount(data.rows[mask, var], minlength=data.space.cards[var])


def stage_index(staging, assignment):
    """Index of the first stage whose context the variable -> value
    ``assignment`` matches."""
    for idx, stage in enumerate(staging.stages):
        if all(assignment.get(v) == x for v, x in stage.context.items):
            return idx
    raise AssertionError(f"no stage of level {staging.level} contains {assignment}")


def per_outcome_log_density(tree, outcome):
    """``log_density`` through ``stage_index``: the sum of log theta over the
    outcome's stages, in level order, or -inf at a zero probability."""
    assignment = dict(enumerate(outcome))
    total = 0.0
    for lvl, staging in enumerate(tree.stagings):
        idx = stage_index(staging, assignment)
        theta = tree.params[lvl][idx][assignment[tree.governed_var(lvl)]]
        if theta == 0.0:
            return -math.inf
        total += math.log(theta)
    return total


def per_stage_estimate(tree, data, mode, prior=None):
    """``estimate_parameters`` with one row-mask count pass per stage."""
    import numpy as np

    from ctxtree import PriorSpec

    if mode == "map" and prior is None:
        prior = PriorSpec()
    params = []
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        d = tree.space.cards[var]
        level_params = []
        for stage in staging.stages:
            counts = mask_counts(data, var, stage.context).astype(np.float64)
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


def per_stage_lml(tree, data, prior):
    """``log_marginal_likelihood`` with one row-mask count pass per stage."""
    from ctxtree import log_context_marginal_likelihood

    total = 0.0
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        for stage in staging.stages:
            counts = mask_counts(data, var, stage.context)
            total += log_context_marginal_likelihood(
                tree.space, var, stage.context, counts, prior
            )
    return total


def set_order_score(order, tables):
    """``ScoreTables.order_score`` with predecessor sets built by set algebra."""
    total = 0.0
    preds = set()
    for var in order:
        total += tables.los(var, tables.pp[var] & preds)
        preds.add(var)
    return total


def set_candidate_scores(order, score, v_pos, tables):
    """Scores of ``order`` (with score ``score``) with order[v_pos] relocated
    to each position: a sweep over every adjacent swap, four terms each,
    with predecessor sets built by set algebra."""
    pp = tables.pp
    los = tables.los
    p = len(order)
    v = order[v_pos]
    k_v = pp[v]
    scores = [0.0] * p
    scores[v_pos] = score

    preds = set(order[:v_pos])
    acc = score
    for a in range(v_pos, 0, -1):
        u = order[a - 1]
        k_u = pp[u]
        preds_wo_u = preds - {u}
        acc += (
            los(v, k_v & preds_wo_u)
            + los(u, k_u & (preds_wo_u | {v}))
            - los(v, k_v & preds)
            - los(u, k_u & preds_wo_u)
        )
        scores[a - 1] = acc
        preds = preds_wo_u

    preds = set(order[:v_pos])
    acc = score
    for a in range(v_pos, p - 1):
        u = order[a + 1]
        k_u = pp[u]
        preds_w_u = preds | {u}
        acc += (
            los(v, k_v & preds_w_u)
            + los(u, k_u & preds)
            - los(v, k_v & preds)
            - los(u, k_u & (preds | {v}))
        )
        scores[a + 1] = acc
        preds = preds_w_u
    return scores


def stateless_relocation_step(order, tables, u_pick, u_at):
    """One relocation Gibbs update of ``order`` (a tuple) from the uniforms
    ``u_pick`` and ``u_at``: every candidate ordering is scored afresh (so
    positions and predecessor masks are rebuilt), and the new position is
    the inverse CDF at ``u_at`` over the p per-position weights.  Returns
    (order, score of the new order, v_pos, new_pos)."""
    p = len(order)
    v_pos = min(int(u_pick * p), p - 1)
    rest = list(order)
    v = rest.pop(v_pos)
    candidates = [tuple(rest[:j] + [v] + rest[j:]) for j in range(p)]
    scores = [tables.order_score(c) for c in candidates]
    top = max(scores)
    cum, acc = [], 0.0
    for s in scores:
        acc += math.exp(s - top)
        cum.append(acc)
    target = u_at * acc
    new_pos = next(j for j, c in enumerate(cum) if c > target)
    return candidates[new_pos], scores[new_pos], v_pos, new_pos


def stateless_run_chain(tables, config):
    """``order_mcmc.run_chain`` with every step a ``stateless_relocation_step``,
    reading the chain's uniforms as one (iterations x 2) block.  Returns the
    chain's record as a ``ChainTrace`` of the oracle's moves and fresh
    scores, the recorded (ordering, score) samples as the oracle reached
    them, and its own count of the steps by move distance."""
    from collections import Counter

    import numpy as np

    from ctxtree import ChainTrace
    from ctxtree.core import validate_order

    rng = np.random.default_rng(config.seed)
    p = tables.space.p
    if config.init == "random":
        order = tuple(int(v) for v in rng.permutation(p))
    else:
        order = validate_order(config.init, p)
    init, moves, samples, distances = order, [], [], Counter()
    uniforms = rng.random((config.iterations, 2)).tolist()
    for step, (u_pick, u_at) in enumerate(uniforms, 1):
        order, score, v_pos, new_pos = stateless_relocation_step(order, tables, u_pick, u_at)
        moves += (v_pos, new_pos)
        distances[abs(new_pos - v_pos)] += 1
        if step > config.burn_in and (step - config.burn_in - 1) % config.thin == 0:
            samples.append((order, score))
    return ChainTrace(init, moves, [score for _, score in samples], config), samples, distances


def _logsumexp(values):
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(x - top) for x in values))


def exact_order_posterior(tables):
    """log Z, the log of the sum of exp(order score) over all p! orderings,
    and P[v][k], the posterior probability that variable v sits at position
    k, by the forward/backward recursion over predecessor sets S (Koivisto &
    Sood 2004), with sets as bitmasks over all variables:

    - f(S) = logsumexp over v in S of f(S - v) + los(v, (S - v) & K_v),
      f(empty) = 0, so log Z = f(all);
    - b(S) = logsumexp over v not in S of los(v, S & K_v) + b(S + v),
      b(all) = 0;
    - P[v][|S|] = sum over S without v of
      exp(f(S) + los(v, S & K_v) + b(S + v) - log Z).

    The local scores come from the public ``ScoreTables.los``."""
    p = tables.space.p
    full = (1 << p) - 1
    k_masks = [sum(1 << u for u in tables.pp[v]) for v in range(p)]
    cache = [{} for _ in range(p)]

    def local(v, preds):
        key = preds & k_masks[v]
        if key not in cache[v]:
            cache[v][key] = tables.los(v, [u for u in range(p) if key >> u & 1])
        return cache[v][key]

    members = [[v for v in range(p) if s >> v & 1] for s in range(full + 1)]
    f = [0.0] * (full + 1)
    for s in range(1, full + 1):
        f[s] = _logsumexp([f[s ^ 1 << v] + local(v, s ^ 1 << v) for v in members[s]])
    b = [0.0] * (full + 1)
    for s in range(full - 1, -1, -1):
        b[s] = _logsumexp([local(v, s) + b[s | 1 << v] for v in range(p) if not s >> v & 1])
    log_z = f[full]
    marginals = [[0.0] * p for _ in range(p)]
    for s in range(full):
        at = len(members[s])
        for v in range(p):
            if not s >> v & 1:
                marginals[v][at] += math.exp(f[s] + local(v, s) + b[s | 1 << v] - log_z)
    return log_z, marginals


def enumerated_argmax(var, spec, tables):
    """``optimal_staging`` as a list of every staging's summed stage evidence,
    the index of its first maximum, and a second walk to that staging."""
    from itertools import islice

    from ctxtree import Context, Stage, Staging
    from ctxtree.enumeration import iter_raw_stagings

    usable_cards = dict(zip(spec.level_vars, spec.cards))
    z_i = {c: tables.z(var, c) for c in table_contexts(usable_cards, spec.usable, spec.beta)}
    evidences = []
    for raw in iter_raw_stagings(spec):
        total = 0.0
        for items in raw:
            total += z_i[items]
        evidences.append(total)
    best = evidences.index(max(evidences))
    raw = next(islice(iter_raw_stagings(spec), best, None))
    level = spec.level
    return Staging(level, tuple(Stage(Context(a), level) for a in raw))


def stratum_sample(spec, rng):
    """``sample_staging_uniform`` as four stratum counts, each drawn from with
    its own bookkeeping and its own copy of the stage rule."""
    from ctxtree import Context, Stage, Staging

    def rand_below(n):
        if n < (1 << 62):
            return int(rng.integers(n))
        bits = n.bit_length()
        words = (bits + 62) // 63
        while True:
            x = 0
            for _ in range(words):
                x = (x << 63) | int(rng.integers(1 << 63))
            x >>= words * 63 - bits
            if x < n:
                return x

    usable = spec.usable
    d = {v: spec.card_of(v) for v in usable}
    m = len(usable)
    pivots = [((m - 1) ** d[k] - (m - 1), m ** d[k] - (m - 1) ** d[k] - 1) for k in usable]
    c1 = 1
    c2 = m if spec.beta >= 1 else 0
    c3 = math.comb(m, 2) + sum(w3 for w3, _ in pivots) if spec.beta >= 2 else 0
    c4 = sum(w4 for _, w4 in pivots) if spec.beta >= 2 else 0
    r = rand_below(c1 + c2 + c3 + c4)
    level = spec.level

    def wrap(raw_stages):
        return Staging(level, tuple(Stage(Context(a), level) for a in raw_stages))

    if r < c1:
        return Staging.full_level(level)
    r -= c1
    if r < c2:
        j = usable[r]
        return wrap(tuple(((j, x),) for x in range(d[j])))
    r -= c2
    if r < c3:
        n_pairs = math.comb(m, 2)
        if r < n_pairs:
            j, k = list(combinations(usable, 2))[r]
            return wrap([
                tuple(sorted(((k, xk), (j, xj)))) for xk in range(d[k]) for xj in range(d[j])
            ])
        r -= n_pairs
        for k, (w, _) in zip(usable, pivots):
            if r < w:
                others = tuple(j for j in usable if j != k)
                while True:
                    choice = [others[rand_below(m - 1)] for _ in range(d[k])]
                    if len(set(choice)) > 1:
                        break
                return wrap([
                    tuple(sorted(((k, xk), (j, xj))))
                    for xk, j in enumerate(choice)
                    for xj in range(d[j])
                ])
            r -= w
        raise AssertionError("stratum 3 weights inconsistent")
    r -= c3
    for k, (_, w) in zip(usable, pivots):
        if r < w:
            others = tuple(j for j in usable if j != k)
            sizes = list(range(1, d[k]))
            weights = [math.comb(d[k], s) * (m - 1) ** s for s in sizes]
            acc = rand_below(sum(weights))
            for s, ws in zip(sizes, weights):
                if acc < ws:
                    n_refined = s
                    break
                acc -= ws
            refined = sorted(rng.choice(d[k], size=n_refined, replace=False).tolist())
            stages = [((k, x),) for x in range(d[k]) if x not in refined]
            for xk in refined:
                j = others[rand_below(m - 1)]
                for xj in range(d[j]):
                    stages.append(tuple(sorted(((k, xk), (j, xj)))))
            return wrap(stages)
        r -= w
    raise AssertionError("stratum 4 weights inconsistent")

def stratum_random_cstree(space, beta, rng):
    """``random_cstree`` with every level's spec built and checked by the
    public ``EnumSpec.for_level`` and its staging drawn by
    ``stratum_sample``."""
    import numpy as np

    from ctxtree import CStree, EnumSpec, Staging

    order = tuple(int(v) for v in rng.permutation(space.p))
    stagings = [Staging.full_level(0)]
    for lvl in range(1, space.p):
        stagings.append(stratum_sample(EnumSpec.for_level(space, order, lvl, beta), rng))
    tree = CStree(order, space, stagings)
    params = [
        [rng.dirichlet(np.ones(space.cards[tree.governed_var(lvl)])) for _ in staging.stages]
        for lvl, staging in enumerate(tree.stagings)
    ]
    return tree.with_params([[(draw / draw.sum()).tolist() for draw in level] for level in params])


def _is_int(token):
    try:
        int(token)
        return True
    except ValueError:
        return False


def cellwise_load_csv(path, cards_row="auto"):
    """``load_csv`` deciding every cell on its own: stripped Python strings,
    one ``int()`` per cell and a dict for first-appearance label codes.  It
    logs through the ``oracles`` logger; the file is read as UTF-8, less one
    leading byte-order mark."""
    import csv
    import logging

    import numpy as np

    from ctxtree import Dataset, ParseError, StateSpace

    logger = logging.getLogger("oracles")
    missing_tokens = ("", "?", "NA")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        table = [[cell.strip() for cell in row] for row in reader if row]
    if not table:
        raise ParseError(f"{path}: empty file")
    names = table[0]
    p = len(names)
    body = table[1:]
    for r, row in enumerate(body, start=2):
        if len(row) != p:
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {p}")

    declared = None
    if body and cards_row != "no":
        head = body[0]
        if all(_is_int(c) for c in head):
            cand = [int(c) for c in head]
            if cards_row == "yes":
                declared = cand
            elif all(d >= 2 for d in cand):
                rest = body[1:]
                ok = bool(rest)
                for row in rest:
                    for j, cell in enumerate(row):
                        if cell in missing_tokens or not _is_int(cell):
                            continue
                        if int(cell) >= cand[j]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    declared = cand
        elif cards_row == "yes":
            raise ParseError(f"{path}: cards row requested but second row is not all integers")
        if declared is not None:
            body = body[1:]

    kept = [row for row in body if not any(c in missing_tokens for c in row)]
    dropped = len(body) - len(kept)
    if dropped:
        logger.warning("%s: dropped %d row(s) with missing cells", path, dropped)
    if not kept:
        raise ParseError(f"{path}: no complete data rows")

    columns = list(zip(*kept))
    codes = np.empty((len(kept), p), dtype=np.int64)
    labels = {}
    for j, col in enumerate(columns):
        if all(_is_int(c) for c in col):
            ints = [int(c) for c in col]
            if not all(-(2**63) <= v < 2**63 for v in ints):
                raise ParseError(f"{path}: column {names[j]!r} is outside the 64-bit range")
            codes[:, j] = ints
        else:
            seen = {}
            for c in col:
                if c not in seen:
                    seen[c] = len(seen)
            codes[:, j] = [seen[c] for c in col]
            labels[j] = tuple(seen)
    if codes.min() < 0:
        raise ParseError(f"{path}: negative category codes")

    if declared is not None:
        cards = declared
        for j in range(p):
            if codes[:, j].max() >= cards[j]:
                raise ParseError(
                    f"{path}: column {names[j]!r} has value {codes[:, j].max()} "
                    f">= declared cardinality {cards[j]}"
                )
    else:
        cards = [int(codes[:, j].max()) + 1 for j in range(p)]
        cards = [max(d, 2) for d in cards]
        for j in range(p):
            if len(np.unique(codes[:, j])) == 1:
                logger.warning(
                    "%s: column %r is constant; inferred cardinality may understate it",
                    path,
                    names[j],
                )
    return Dataset(codes, StateSpace(cards), names=names, labels=labels or None)


def csv_module_write_csv(data, path, cards_row=True):
    """``write_csv`` through ``csv.writer``, one Python list per row."""
    import csv

    names = data.names or tuple(f"X{j}" for j in range(data.p))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        if cards_row:
            writer.writerow(data.space.cards)
        writer.writerows(data.rows.tolist())


def void_key_collapse(rows, cards):
    """``counts._collapse`` with every row made unique as the byte string of
    its narrow codes: the distinct rows as contiguous columns (p x m) of the
    narrowest unsigned type that holds every code, and how often each row
    occurs (m,)."""
    import numpy as np

    narrow = np.ascontiguousarray(rows, dtype=np.min_scalar_type(max(cards) - 1))
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * rows.shape[1]))).ravel()
    _, first, weight = np.unique(keys, return_index=True, return_counts=True)
    return np.ascontiguousarray(narrow[first].T), weight


def per_key_table_cells(space, pp, beta):
    """The cells of every count table of ``build_count_table``, summed by
    walking the keys (i, S)."""
    cards = space.cards
    return sum(
        math.prod(cards[v] for v in svars) * cards[i]
        for i in range(space.p)
        for size in range(beta + 1)
        for svars in combinations(sorted(pp[i]), size)
    )


def per_set_count_tables(data, pp, beta):
    """Every count table of ``build_count_table``, each from its own
    ``bincount`` over all n rows, keyed by (variable, context-variable set)."""
    import math
    from itertools import combinations

    import numpy as np

    cards = data.space.cards
    rows = data.rows
    tables = {}
    for i in range(data.p):
        for size in range(beta + 1):
            for svars in combinations(sorted(pp[i]), size):
                n_cells = math.prod(cards[v] for v in svars)
                code = np.zeros(data.n, dtype=np.int64)
                for v in svars:
                    code = code * cards[v] + rows[:, v]
                flat = np.bincount(code * cards[i] + rows[:, i], minlength=n_cells * cards[i])
                tables[(i, svars)] = flat.reshape(n_cells, cards[i])
    return tables


def per_variable_score_tables(count_table, prior):
    """The z entries and ``los`` lists of ``build_score_tables``, one count
    table at a time for z (one ``math.lgamma`` per cell) and one variable
    at a time for ``los``, with each entry of the closed form read from the
    z dict.  z maps each variable to a dict from context (variable, value)
    pairs to its evidence, in table order."""
    from itertools import combinations

    import numpy as np

    from ctxtree.core import ValidationError
    from ctxtree.enumeration import EnumSpec, count_stagings

    def gammaln(x):
        return np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)

    def log_evidences(counts, alpha, var, context_vars):
        a_tot = alpha * counts.shape[1]
        try:
            values = (
                math.lgamma(a_tot)
                - gammaln(a_tot + counts.sum(axis=1))
                + (gammaln(alpha + counts) - math.lgamma(alpha)).sum(axis=1)
            )
        except (ValueError, OverflowError):
            values = np.array([math.inf])
        if not np.isfinite(values).all():
            raise ValidationError(
                f"non-finite evidence for variable {var}, context variables {context_vars}"
            )
        return values

    def subset_logsumexp(terms):
        out = np.full((1, terms.shape[1]), -np.inf)
        for row in terms:
            out = np.concatenate([out, np.logaddexp(out, row)])
        return out

    def log_staging_counts(member, cards, beta):
        kinds = sorted(set(cards))
        per_kind = member.astype(np.int64) @ (np.asarray(cards)[:, None] == kinds)
        key = per_kind @ (len(cards) + 1) ** np.arange(len(kinds))
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        logs = [
            math.log(count_stagings(EnumSpec.of_cards(np.repeat(kinds, per_kind[f]).tolist(), beta)))
            for f in first
        ]
        return np.asarray(logs)[inverse]

    def local_order_scores(z_i, usable, cards, beta):
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
        sums = subset_logsumexp(terms)
        member = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
        pivots = np.add.reduceat(np.logaddexp(sums[:, :width], plain), starts, axis=1)
        parts = np.column_stack([np.full(1 << n, z_i[()]), np.where(member, pivots, -np.inf)])
        top = parts.max(axis=1)
        pos = top + np.log(np.exp(parts - top[:, None]).sum(axis=1))
        pairs = np.exp(np.where(member, sums[:, width:], -np.inf) - pos[:, None]).sum(axis=1)
        return pos + np.log1p(-pairs) - log_staging_counts(member, cards, beta)

    space = count_table.space
    z, los = {}, []
    for i in range(space.p):
        z_i = z[i] = {}
        for svars, table in count_table.tables(i):
            a = prior.alpha_cell(space, i, svars)
            values = log_evidences(table, a, i, svars).tolist()
            z_i.update(zip(set_contexts(space.cards, svars), values, strict=True))
        k_i = sorted(count_table.pp[i])
        cards = [space.cards[v] for v in k_i]
        los.append(local_order_scores(z_i, k_i, cards, count_table.beta).tolist())
    return z, los
