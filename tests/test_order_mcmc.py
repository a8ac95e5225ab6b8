import math
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
    run_chain,
)
from ctxtree.order_mcmc import ChainTrace, _candidate_scores, dump_trace

from oracles import set_candidate_scores, set_order_score, stateless_run_chain


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


def test_incremental_scores_match_full_recompute():
    # full K, then sparse K: an empty K_0, pairs where only one variable is
    # in the other's set (so a swap changes one term alone), and 3, 4 in both
    sparse = PossibleParents([set(), {0, 2}, {0, 5}, {1, 4}, {0, 1, 2, 3}, {3}])
    rng = np.random.default_rng(7)
    for pp in (None, sparse):
        for trial in range(100):
            p = 6
            rows = rng.integers(0, 2, size=(40, p))
            data = Dataset(rows, StateSpace([2] * p))
            tables = build_score_tables(build_count_table(data, pp), PriorSpec())
            order = tuple(rng.permutation(p).tolist())
            base = tables.order_score(order)
            assert base == set_order_score(order, tables)
            v_pos = int(rng.integers(p))
            scores = _candidate_scores(order, base, v_pos, tables._pred_masks(order), tables)
            assert scores == set_candidate_scores(order, base, v_pos, tables)
            v = order[v_pos]
            rest = [x for x in order if x != v]
            for j in range(p):
                candidate = tuple(rest[:j] + [v] + rest[j:])
                assert scores[j] == pytest.approx(tables.order_score(candidate), rel=1e-9)


def test_relocation_rejects_non_permutation():
    tables = make_tables(np.random.default_rng(11).integers(0, 2, size=(30, 3)), [2, 2, 2])
    for order in [(0, 0, 1), (0, 1), (0, 1, 7)]:
        with pytest.raises(ValidationError):
            one_step(tables, order)


def test_run_chain_matches_stateless_oracle():
    # the chain keeps each predecessor mask across moves; the oracle rebuilds
    # them all at every step, so samples, score floats and move distances
    # must agree bit for bit.  The sparse asymmetric K makes a passed
    # variable flip one mask alone.
    rng = np.random.default_rng(12)
    sparse = PossibleParents([set(), {0, 2}, {0, 5}, {1, 4}, {0, 1, 2, 3}, {3}])
    data = Dataset(rng.integers(0, 2, size=(40, 6)), StateSpace([2] * 6))
    configs = [
        ChainConfig(iterations=400, burn_in=0, seed=1),
        ChainConfig(iterations=400, burn_in=150, seed=2, thin=7),
        ChainConfig(iterations=300, burn_in=20, seed=3, init=(5, 4, 3, 2, 1, 0)),
    ]
    for pp in (None, sparse):
        tables = build_score_tables(build_count_table(data, pp), PriorSpec())
        for cfg in configs:
            trace = run_chain(tables, cfg)
            oracle = stateless_run_chain(tables, cfg)
            assert trace.samples == oracle.samples
            assert trace.move_distances == oracle.move_distances
            assert len(trace.move_distances) > 3  # moves of several distances ran
    for p in (1, 2):
        tables = make_tables(rng.integers(0, 2, size=(20, p)), [2] * p)
        init = tuple(range(p))
        for cfg in (ChainConfig(iterations=50, seed=4), ChainConfig(iterations=50, seed=5, init=init)):
            trace = run_chain(tables, cfg)
            oracle = stateless_run_chain(tables, cfg)
            assert trace.samples == oracle.samples
            assert trace.move_distances == oracle.move_distances


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
