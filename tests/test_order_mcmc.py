import math
from bisect import bisect_right
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from ctxtree import (
    ChainConfig,
    Dataset,
    PossibleParents,
    PriorSpec,
    StateSpace,
    ValidationError,
    build_count_table,
    build_score_tables,
    map_order,
    random_cstree,
    run_chain,
    sample,
)
import ctxtree.order_mcmc as order_mcmc
from ctxtree.order_mcmc import _BLOCK, ChainTrace, _draw, _links, _segments, dump_trace
from ctxtree.scoring import ScoreTables

from oracles import exact_order_posterior, set_candidate_scores, set_order_score, stateless_run_chain


def make_tables(rows, cards, beta=2, prior=None):
    data = Dataset(np.asarray(rows), StateSpace(cards))
    return build_score_tables(build_count_table(data, beta=beta), prior or PriorSpec())


def test_chain_config_validation():
    with pytest.raises(ValidationError):
        ChainConfig(iterations=10, burn_in=10)
    with pytest.raises(ValidationError):
        ChainConfig(iterations=10, burn_in=2, thin=0)
    with pytest.raises(ValidationError, match="nonnegative"):
        ChainConfig(seed=-1)
    cfg = ChainConfig(iterations=100)
    assert cfg.burn_in == 20  # default 20%


def test_chain_config_rejects_non_integral():
    for field in ("iterations", "burn_in", "seed", "thin"):
        for bad in (1e3 if field == "iterations" else 2.5, np.float64(3.0), "7", True):
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                ChainConfig(**{"iterations": 100, field: bad})
    cfg = ChainConfig(iterations=np.int64(100), burn_in=np.int32(10), seed=np.uint8(3), thin=np.int16(2))
    assert (cfg.iterations, cfg.burn_in, cfg.seed, cfg.thin) == (100, 10, 3, 2)
    assert all(type(x) is int for x in (cfg.iterations, cfg.burn_in, cfg.seed, cfg.thin))
    assert ChainConfig(iterations=np.int64(100)).burn_in == 20


def test_chain_config_rejects_non_integral_init():
    for bad in ((0.9, 1.2), (0, 1.0), (True, False)):
        with pytest.raises(ValidationError, match="init entry must be an integer"):
            ChainConfig(init=bad)
    for good in ((np.int64(1), np.int32(0)), np.array([1, 0])):
        cfg = ChainConfig(init=good)
        assert cfg.init == (1, 0) and all(type(v) is int for v in cfg.init)


def one_step(tables, init, seed=0):
    """The state after one relocation step from ``init``, and its distance."""
    trace = run_chain(tables, ChainConfig(iterations=1, burn_in=0, seed=seed, init=init))
    [(order, score)] = trace.samples
    [dist] = trace.move_distances
    return order, score, dist


def test_relocation_p1():
    tables = make_tables(np.zeros((5, 1), dtype=int) % 2, [2])
    order, score, dist = one_step(tables, (0,))
    assert order == (0,) and dist == 0


def test_relocation_uniform_when_scores_equal():
    # with beta=0 every ordering scores identically, so the chosen variable's
    # new position must be uniform over the p slots: the identity outcome has
    # probability p * (1/p) * (1/p) = 1/4 at p = 4, and a fixed transposition
    # like (1,0,2,3) is reached two ways, so 2/16
    rows = np.random.default_rng(1).integers(0, 2, size=(60, 4))
    tables = make_tables(rows, [2] * 4, beta=0)
    counts = Counter()
    n = 10_000
    for trial in range(n):
        order, _, _ = one_step(tables, (0, 1, 2, 3), seed=trial)
        counts[order] += 1
    for target, prob in [((0, 1, 2, 3), 4 / 16), ((1, 0, 2, 3), 2 / 16)]:
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(counts[target] - n * prob) <= 3 * sigma


def expand(starts, scores, p):
    """The per-position scores of constant segments."""
    ends = starts[1:] + [p]
    return [s for start, end, s in zip(starts, ends, scores) for _ in range(end - start)]


def chain_state(tables, order):
    """What ``run_chain`` keeps for ``order``: positions, masks, score."""
    pos = [0] * len(order)
    for at, v in enumerate(order):
        pos[v] = at
    return pos, tables._pred_masks(order), tables.order_score(order)


def test_incremental_scores_match_full_recompute():
    # full K, then sparse K: an empty K_0, pairs where only one variable is
    # in the other's set (so passing it changes one term alone), and 3, 4 in
    # both; then random asymmetric K at p = 1, 2, 6 and 9
    sparse = PossibleParents([set(), {0, 2}, {0, 5}, {1, 4}, {0, 1, 2, 3}, {3}])
    rng = np.random.default_rng(7)
    cases = [(6, None), (6, sparse)] * 40
    for p in (1, 2, 6, 9):
        for _ in range(20):
            sets = [{u for u in range(p) if u != v and rng.random() < 0.4} for v in range(p)]
            cases.append((p, PossibleParents(sets)))
    for p, pp in cases:
        rows = rng.integers(0, 2, size=(40, p))
        data = Dataset(rows, StateSpace([2] * p))
        tables = build_score_tables(build_count_table(data, pp), PriorSpec())
        links = _links(tables._bits)
        order = tuple(rng.permutation(p).tolist())
        pos, masks, base = chain_state(tables, order)
        assert base == set_order_score(order, tables)
        for v_pos in range(p):
            starts, scores, before, after = _segments(order, pos, masks, base, v_pos, links, tables._los)
            assert starts[0] == 0 and starts == sorted(set(starts))
            assert len(starts) <= 1 + len(links[order[v_pos]])
            # a move to segment k's start passes the neighbours the chain flips
            nb = len(before)
            for k, start in enumerate(starts):
                lo, hi = min(v_pos, start), max(v_pos, start)
                passed = before[: nb - k] if k <= nb else after[: k - nb]
                assert [u for _, u, _, _ in passed] == sorted(
                    (u for u, _, _ in links[order[v_pos]] if lo <= pos[u] <= hi),
                    key=lambda u: abs(pos[u] - v_pos),
                )
            expanded = expand(starts, scores, p)
            assert expanded[v_pos] == base
            assert expanded == pytest.approx(set_candidate_scores(order, base, v_pos, tables), rel=1e-12)
            v = order[v_pos]
            rest = [x for x in order if x != v]
            for j in range(p):
                candidate = tuple(rest[:j] + [v] + rest[j:])
                assert expanded[j] == pytest.approx(tables.order_score(candidate), rel=1e-12)


def test_segment_draw_matches_position_probabilities():
    # variable 0 at position 3 of (1, 5, 2, 0, 6, 3, 4): K_0 = {1, 3} and
    # R_0 = {2, 4}, while 5 and 6 are no one's neighbours, so segments span
    # several positions; every ordering with 1 and 3 before 0 scores about
    # -2000 against the others' ~1 and its weight underflows to 0
    pp = PossibleParents([{1, 3}, set(), {0}, set(), {0}, set(), set()])
    los = [[0.0, 1.0, 0.5, -2000.0], [0.0], [0.0, 0.3], [0.0], [0.0, 0.7], [0.0], [0.0]]
    tables = ScoreTables(StateSpace([2] * 7), pp, 2, PriorSpec(), {}, los)
    order = (1, 5, 2, 0, 6, 3, 4)
    pos, masks, score = chain_state(tables, order)
    starts, scores, _, _ = _segments(order, pos, masks, score, 3, _links(tables._bits), tables._los)
    assert starts == [0, 1, 3, 5, 6]
    full = np.array(set_candidate_scores(order, score, 3, tables))
    probs = np.exp(full - full.max())
    probs /= probs.sum()
    assert (probs[5:] == 0).all() and (probs[:5] > 0.05).all()
    n = 20_000
    counts = Counter(_draw(starts, scores, 7, u)[1] for u in np.random.default_rng(0).random(n))
    assert set(counts) == {0, 1, 2, 3, 4}  # no position of zero weight is drawn
    observed = np.array([counts[j] for j in range(5)])
    expected = n * probs[:5]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert chi2 < 25  # 4 degrees of freedom: p-value about 5e-5
    # uniforms at the edges stay inside the support
    for u in (0.0, np.nextafter(1.0, 0.0)):
        k, at = _draw(starts, scores, 7, u)
        assert probs[at] > 0 and starts[k] <= at


def test_relocation_rejects_non_permutation():
    tables = make_tables(np.random.default_rng(11).integers(0, 2, size=(30, 3)), [2, 2, 2])
    for order in [(0, 0, 1), (0, 1), (0, 1, 7)]:
        with pytest.raises(ValidationError):
            one_step(tables, order)


def test_run_chain_matches_stateless_oracle():
    # the chain keeps positions and predecessor masks across moves and draws
    # over constant segments; the oracle scores every candidate ordering
    # afresh at each step and draws over the p positions from the same
    # uniforms, so orderings and move distances must agree exactly and
    # scores within 1e-12.  The sparse asymmetric K makes a passed variable
    # flip one mask alone; the longest chain crosses a block of uniforms.
    rng = np.random.default_rng(12)
    sparse = PossibleParents([set(), {0, 2}, {0, 5}, {1, 4}, {0, 1, 2, 3}, {3}])
    data = Dataset(rng.integers(0, 2, size=(40, 6)), StateSpace([2] * 6))
    configs = [
        ChainConfig(iterations=400, burn_in=0, seed=1),
        ChainConfig(iterations=400, burn_in=150, seed=2, thin=7),
        ChainConfig(iterations=300, burn_in=20, seed=3, init=(5, 4, 3, 2, 1, 0)),
        ChainConfig(iterations=_BLOCK + 100, burn_in=_BLOCK - 100, seed=6),
    ]

    def check(trace, oracle):
        assert [o for o, _ in trace.samples] == [o for o, _ in oracle.samples]
        assert [s for _, s in trace.samples] == pytest.approx([s for _, s in oracle.samples], rel=1e-12)
        assert trace.move_distances == oracle.move_distances

    for pp in (None, sparse):
        tables = build_score_tables(build_count_table(data, pp), PriorSpec())
        for cfg in configs:
            trace = run_chain(tables, cfg)
            check(trace, stateless_run_chain(tables, cfg))
            assert len(trace.move_distances) > 3  # moves of several distances ran
    for p in (1, 2):
        tables = make_tables(rng.integers(0, 2, size=(20, p)), [2] * p)
        init = tuple(range(p))
        for cfg in (ChainConfig(iterations=50, seed=4), ChainConfig(iterations=50, seed=5, init=init)):
            check(run_chain(tables, cfg), stateless_run_chain(tables, cfg))


def test_run_chain_sample_count_and_determinism():
    rng_rows = np.random.default_rng(3)
    tables = make_tables(rng_rows.integers(0, 2, size=(50, 3)), [2, 2, 2])
    cfg = ChainConfig(iterations=11, burn_in=10, seed=9)
    trace = run_chain(tables, cfg)
    assert len(trace.samples) == 1
    t1 = run_chain(tables, ChainConfig(iterations=500, burn_in=100, seed=5))
    t2 = run_chain(tables, ChainConfig(iterations=500, burn_in=100, seed=5))
    assert t1.samples == t2.samples
    assert t1.move_distances == t2.move_distances
    t3 = run_chain(tables, ChainConfig(iterations=500, burn_in=100, seed=6))
    assert t3.samples != t1.samples


def test_run_chain_thin():
    tables = make_tables(np.random.default_rng(4).integers(0, 2, size=(50, 3)), [2, 2, 2])
    trace = run_chain(tables, ChainConfig(iterations=100, burn_in=20, seed=1, thin=10))
    assert len(trace.samples) == 8


def test_run_chain_fixed_init():
    tables = make_tables(np.random.default_rng(5).integers(0, 2, size=(30, 4)), [2] * 4)
    cfg = ChainConfig(iterations=1, burn_in=0, seed=0, init=(3, 2, 1, 0))
    trace = run_chain(tables, cfg)
    assert len(trace.samples) == 1


def test_trace_scores_consistent():
    rng = np.random.default_rng(6)
    tables = make_tables(rng.integers(0, 2, size=(80, 4)), [2] * 4)
    trace = run_chain(tables, ChainConfig(iterations=300, burn_in=50, seed=2))
    idx = rng.choice(len(trace.samples), size=100)
    for i in idx:
        order, score = trace.samples[int(i)]
        assert score == pytest.approx(tables.order_score(order), rel=1e-9, abs=1e-9)


def test_map_order():
    trace = ChainTrace(samples=[((0, 1), -5.0)])
    assert map_order(trace) == (0, 1)
    trace = ChainTrace(samples=[((0, 1), -5.0), ((1, 0), -2.0), ((0, 1), -2.0)])
    assert map_order(trace) == (1, 0)  # first occurrence of the best score
    # orderings 1 ulp apart tie: the first sampled wins, not float drift
    trace = ChainTrace(samples=[((0, 1), -13499.08329539441), ((1, 0), -13499.083295394408)])
    assert map_order(trace) == (0, 1)
    trace = ChainTrace(samples=[((0, 1), -5e-13), ((1, 0), 0.0)])
    assert map_order(trace) == (0, 1)  # the 1e-12 absolute floor near zero
    trace = ChainTrace(samples=[((0, 1), -2.0 - 1e-9), ((1, 0), -2.0)])
    assert map_order(trace) == (1, 0)  # a real difference still decides
    with pytest.raises(ValidationError):
        map_order(ChainTrace())


def test_map_order_identifies_strong_order():
    # x0 -> x1 -> x2 chain with strong dependence: exhaustive best order must
    # be found by the sampler's argmax
    rng = np.random.default_rng(8)
    n = 400
    x0 = rng.integers(0, 2, n)
    x1 = (x0 ^ (rng.random(n) < 0.05)).astype(int)
    x2 = (x1 ^ (rng.random(n) < 0.05)).astype(int)
    tables = make_tables(np.stack([x0, x1, x2], axis=1), [2, 2, 2])
    best = max(permutations(range(3)), key=tables.order_score)
    trace = run_chain(tables, ChainConfig(iterations=2000, burn_in=200, seed=3))
    assert tables.order_score(map_order(trace)) == pytest.approx(
        tables.order_score(best), rel=1e-12
    )


def test_chain_matches_exact_posterior():
    # p=3 moves a variable at most two places and scores sets of at most two
    # predecessors; the p=5 cases reach longer moves and larger sets, and the
    # sparse asymmetric K (v in K_u without u in K_v) makes a swap change u's
    # term alone.  Sampling noise in the total variation is about 0.02.
    rng = np.random.default_rng(9)
    rows3 = rng.integers(0, 2, size=(300, 3))
    rows3[:, 2] = (rows3[:, 0] & rows3[:, 1]) ^ (rng.random(300) < 0.1)
    rng = np.random.default_rng(9)
    rows5 = rng.integers(0, 2, size=(200, 5))
    rows5[:, 1] = rows5[:, 0] ^ (rng.random(200) < 0.2)
    rows5[:, 2] = rows5[:, 1] ^ (rng.random(200) < 0.2)
    rows5[:, 3] = (rows5[:, 2] & rows5[:, 4]) ^ (rng.random(200) < 0.1)
    sparse = PossibleParents([{1, 2}, {0}, {1, 3, 4}, {2, 4}, {0}])
    cases = [(rows3, None, 20000, 2000), (rows5, None, 40000, 4000), (rows5, sparse, 40000, 4000)]
    for rows, pp, iterations, burn_in in cases:
        p = rows.shape[1]
        data = Dataset(rows, StateSpace([2] * p))
        tables = build_score_tables(build_count_table(data, pp), PriorSpec())
        orders = list(permutations(range(p)))
        scores = np.array([tables.order_score(o) for o in orders])
        exact = np.exp(scores - scores.max())
        exact /= exact.sum()
        trace = run_chain(tables, ChainConfig(iterations=iterations, burn_in=burn_in, seed=4))
        freq = Counter(order for order, _ in trace.samples)
        emp = np.array([freq.get(o, 0) for o in orders], dtype=float)
        emp /= emp.sum()
        assert 0.5 * np.abs(exact - emp).sum() < 0.1


def sparse_tables(p, beta, n, seed):
    """Score tables of n rows from a random CStree over alternating binary
    and ternary variables, each K_v three other variables drawn at random
    (so v in K_u seldom comes with u in K_v)."""
    rng = np.random.default_rng(seed)
    space = StateSpace([2, 3] * (p // 2) + [2] * (p % 2))
    data = sample(random_cstree(space, 2, rng), n, rng)
    others = [[j for j in range(p) if j != i] for i in range(p)]
    pp = PossibleParents(
        [set(rng.choice(others[i], size=min(3, p - 1), replace=False).tolist()) for i in range(p)]
    )
    return build_score_tables(build_count_table(data, pp, beta), PriorSpec())


@pytest.mark.parametrize("p", [3, 4, 5, 6])
@pytest.mark.parametrize("beta", [0, 1, 2])
@pytest.mark.parametrize("sparse", [False, True], ids=["full-K", "sparse-K"])
def test_exact_order_posterior_matches_permutation_sum(p, beta, sparse):
    if sparse:
        tables = sparse_tables(p, beta, 80, seed=p)
    else:
        rng = np.random.default_rng(p)
        cards = [2, 3] * 3
        tables = make_tables(rng.integers(0, cards[:p], size=(80, p)), cards[:p], beta=beta)
    log_z, marginals = exact_order_posterior(tables)
    orders = list(permutations(range(p)))
    scores = np.array([tables.order_score(o) for o in orders])
    top = scores.max()
    want = top + math.log(np.exp(scores - top).sum())
    assert log_z == pytest.approx(want, rel=1e-12)
    weights = np.exp(scores - want)
    for v in range(p):
        for k in range(p):
            mass = sum(w for o, w in zip(orders, weights) if o[k] == v)
            assert marginals[v][k] == pytest.approx(mass, rel=1e-9, abs=1e-15)


def position_marginal_gap(tables, config, exact, batches=40):
    """The largest |chain - exact| position marginal, over every variable v
    and position k, in units of its Monte-Carlo standard error.  The error
    is the larger of the batch-means estimate (the recorded samples in
    ``batches`` consecutive batches), which carries the chain's
    autocorrelation, and the independent-draws error sqrt(P(1 - P) / N)."""
    trace = run_chain(tables, config)
    orders = np.array([order for order, _ in trace.samples])
    n, p = orders.shape
    at = np.argsort(orders, axis=1)[:, :, None] == np.arange(p)
    means = at[: n - n % batches].reshape(batches, -1, p, p).mean(axis=1)
    error = np.maximum(means.std(axis=0, ddof=1) / math.sqrt(batches), np.sqrt(exact * (1 - exact) / n))
    return (np.abs(at.mean(axis=0) - exact) / error).max()


# a gap over 40 batches is roughly Student-t with 39 degrees of freedom; 6
# is its two-sided 1e-4 / 144 quantile (5.9), so a correct chain crosses it
# at any of the at most 144 (v, k) pairs with probability below 1e-4
MAX_MARGINAL_GAP = 6.0
MARGINAL_CHAIN = ChainConfig(iterations=200_000, seed=3, thin=5)


@pytest.mark.parametrize("p, beta", [(10, 0), (11, 1), (12, 2)])
def test_chain_position_marginals_match_exact_posterior(p, beta):
    # beta 0 makes every ordering score alike, so the marginals are 1/p
    tables = sparse_tables(p, beta, 300, seed=beta)
    exact = np.array(exact_order_posterior(tables)[1])
    assert position_marginal_gap(tables, MARGINAL_CHAIN, exact) < MAX_MARGINAL_GAP


def test_position_marginal_check_catches_a_biased_draw(monkeypatch):
    # _draw with the first segment weighted as one position longer than it is
    def biased_draw(starts, scores, p, uniform):
        top = max(scores)
        ends = starts[1:] + [p]
        cum, acc = [], 0.0
        for j, (start, end, s) in enumerate(zip(starts, ends, scores)):
            acc += math.exp(s - top) * (end - start + (j == 0))
            cum.append(acc)
        target = uniform * acc
        k = bisect_right(cum, target)
        below = cum[k - 1] if k else 0.0
        at = starts[k] + int((target - below) / math.exp(scores[k] - top))
        return k, min(at, ends[k] - 1)

    tables = sparse_tables(11, 1, 300, seed=1)
    exact = np.array(exact_order_posterior(tables)[1])
    monkeypatch.setattr(order_mcmc, "_draw", biased_draw)
    assert position_marginal_gap(tables, MARGINAL_CHAIN, exact) > MAX_MARGINAL_GAP


def test_dump_trace_format(tmp_path):
    import io

    tables = make_tables(np.random.default_rng(10).integers(0, 2, size=(30, 3)), [2, 2, 2])
    cfg = ChainConfig(iterations=30, burn_in=10, seed=0, thin=5)
    trace = run_chain(tables, cfg)
    buf = io.StringIO()
    dump_trace(trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == len(trace.samples)
    first = lines[0].split("\t")
    assert int(first[0]) == 11
    float(first[1])
    assert [int(x) for x in first[2].split(",")]
