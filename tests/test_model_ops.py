import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxtree import (
    Context,
    CorruptStagingError,
    CStree,
    Dataset,
    PriorSpec,
    ResourceCapError,
    Stage,
    Staging,
    StateSpace,
    ValidationError,
    estimate_parameters,
    joint_table,
    kl_divergence,
    log_density,
    log_marginal_likelihood,
    random_cstree,
    sample,
)
from ctxtree.core import block_stage_ids, stage_ids
from ctxtree.counts import stage_counts
from oracles import (
    is_partition,
    mask_counts,
    mask_joint_table,
    mask_sample,
    per_outcome_log_density,
    per_stage_estimate,
    per_stage_lml,
    stage_index,
)


def binary_pair_tree(theta0, theta1_by_x0):
    space = StateSpace([2, 2])
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(2)])
    tree = CStree((0, 1), space, [staging])
    return tree.with_params(((tuple(theta0),), tuple(tuple(t) for t in theta1_by_x0)))


def test_estimate_mle_ratios():
    rows = np.array([[0, 0]] * 3 + [[0, 1]] * 1 + [[1, 0]] * 2)
    data = Dataset(rows, StateSpace([2, 2]))
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(2)])
    tree = CStree((0, 1), data.space, [staging])
    fitted = estimate_parameters(tree, data, "mle")
    assert fitted.stage_probs(1, 0) == pytest.approx((0.75, 0.25))
    assert fitted.stage_probs(1, 1) == pytest.approx((1.0, 0.0))
    assert fitted.stage_probs(0, 0) == pytest.approx((4 / 6, 2 / 6))


def test_estimate_mle_empty_stage_uniform():
    rows = np.array([[0, 0], [0, 1]])
    data = Dataset(rows, StateSpace([2, 2]))
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(2)])
    tree = CStree((0, 1), data.space, [staging])
    fitted = estimate_parameters(tree, data, "mle")
    assert fitted.stage_probs(1, 1) == pytest.approx((0.5, 0.5))


def test_estimate_map_unit_prior():
    # counts (1,1) with unit prior: posterior Dirichlet(2,2), theta (0.5, 0.5)
    rows = np.array([[0, 0], [0, 1], [1, 0]])
    data = Dataset(rows, StateSpace([2, 2]))
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(2)])
    tree = CStree((0, 1), data.space, [staging])
    fitted = estimate_parameters(tree, data, "map", PriorSpec("unit"))
    assert fitted.stage_probs(1, 0) == pytest.approx((0.5, 0.5))
    # counts (1,0): posterior (2,1) has a boundary cell, so posterior mean
    assert fitted.stage_probs(1, 1) == pytest.approx((2 / 3, 1 / 3))


def test_estimate_map_mode_formula():
    rows = np.array([[0, 0]] * 5 + [[0, 1]] * 3)
    data = Dataset(rows, StateSpace([2, 2]))
    tree = CStree((0, 1), data.space, [Staging.full_level(1)])
    fitted = estimate_parameters(tree, data, "map", PriorSpec("unit"))
    # posterior (6, 4): mode = (5/8, 3/8)
    assert fitted.stage_probs(1, 0) == pytest.approx((5 / 8, 3 / 8))


def test_log_density_p1():
    tree = CStree((0,), StateSpace([2]), []).with_params((((0.3, 0.7),),))
    assert log_density(tree, (1,)) == pytest.approx(math.log(0.7))
    assert log_density(tree, (0,)) == pytest.approx(math.log(0.3))


def test_log_density_uniform_tree():
    space = StateSpace([2, 3])
    tree = CStree((1, 0), space, [Staging.full_level(1)])
    tree = tree.with_params((((1 / 3,) * 3,), ((0.5, 0.5),)))
    for outcome in space.outcomes():
        assert log_density(tree, outcome) == pytest.approx(-math.log(6))


def test_log_density_rejects_out_of_range_values():
    tree = binary_pair_tree((0.5, 0.5), [(0.5, 0.5), (0.5, 0.5)])
    for outcome in [(0, -1), (2, 0), (-1, 0)]:
        with pytest.raises(ValidationError, match="outside 0..1"):
            log_density(tree, outcome)


def test_log_density_checks_values_by_type():
    tree = binary_pair_tree((0.5, 0.5), [(0.5, 0.5), (0.5, 0.5)])
    for outcome in [(0.0, 1.0), (0, 1.5), (True, 1), (0, np.bool_(True)), np.array([0.0, 1.0])]:
        with pytest.raises(ValidationError, match="outcome value must be an integer"):
            log_density(tree, outcome)
    expected = log_density(tree, (1, 0))
    for outcome in [np.array([1, 0]), np.array([1, 0], dtype=np.uint8), (np.int32(1), 0)]:
        assert log_density(tree, outcome) == expected


def test_log_density_zero_prob_is_neg_inf():
    tree = binary_pair_tree((1.0, 0.0), [(0.5, 0.5), (0.5, 0.5)])
    assert log_density(tree, (1, 0)) == -math.inf


def test_density_normalizes():
    rng = np.random.default_rng(0)
    for p in (8, 12):
        tree = random_cstree(StateSpace([2] * p), 2, rng)
        total = sum(
            math.exp(log_density(tree, outcome)) for outcome in tree.space.outcomes()
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_joint_table_matches_log_density():
    rng = np.random.default_rng(1)
    tree = random_cstree(StateSpace([2, 3, 2]), 2, rng)
    table = joint_table(tree)
    for outcome in tree.space.outcomes():
        assert table[outcome] == pytest.approx(
            math.exp(log_density(tree, outcome)), rel=1e-12
        )


def test_joint_table_rejects_uncovered_outcome():
    # level 1 has the stage {X0=0} only, so the outcomes with X0=1 have no
    # stage; the document is refused at load, before any table is filled
    doc = {
        "order": [0, 1],
        "cards": [2, 2],
        "stagings": [
            [{"context": {}, "probs": [0.5, 0.5]}],
            [{"context": {"0": 0}, "probs": [0.3, 0.7]}],
        ],
    }
    with pytest.raises(CorruptStagingError, match="level-1 stages cover 1 of the level's 2"):
        CStree.from_json_dict(doc)


def test_joint_table_cap():
    rng = np.random.default_rng(2)
    tree = random_cstree(StateSpace([2] * 8), 2, rng)
    with pytest.raises(ResourceCapError):
        joint_table(tree, max_joint=100)


def test_sample_deterministic_tree():
    tree = binary_pair_tree((0.0, 1.0), [(1.0, 0.0), (1.0, 0.0)])
    data = sample(tree, 20, np.random.default_rng(0))
    assert np.array_equal(data.rows, np.tile([1, 0], (20, 1)))


def test_sample_same_seed_same_rows():
    rng = np.random.default_rng(3)
    tree = random_cstree(StateSpace([2] * 4), 2, rng)
    d1 = sample(tree, 100, np.random.default_rng(77))
    d2 = sample(tree, 100, np.random.default_rng(77))
    assert np.array_equal(d1.rows, d2.rows)


def test_sample_marginals_match_exact():
    rng = np.random.default_rng(4)
    tree = random_cstree(StateSpace([2] * 5), 2, rng)
    n = 100_000
    data = sample(tree, n, np.random.default_rng(5))
    table = joint_table(tree)
    for v in range(5):
        axes = tuple(a for a in range(5) if a != v)
        exact = table.sum(axis=axes)
        for k in range(2):
            prob = exact[k]
            observed = int((data.rows[:, v] == k).sum())
            sigma = math.sqrt(n * prob * (1 - prob))
            assert abs(observed - n * prob) <= 4 * sigma + 1


def test_sampling_density_consistency():
    # mean negative log density of samples converges to the entropy
    rng = np.random.default_rng(6)
    tree = random_cstree(StateSpace([2] * 5), 2, rng)
    n = 100_000
    data = sample(tree, n, np.random.default_rng(7))
    table = joint_table(tree).ravel()
    entropy = -float(np.sum(table[table > 0] * np.log(table[table > 0])))
    logs = np.array([log_density(tree, tuple(row)) for row in data.rows[:5000]])
    se = logs.std(ddof=1) / math.sqrt(len(logs))
    assert abs(-logs.mean() - entropy) <= 3 * se


def test_kl_self_zero():
    rng = np.random.default_rng(8)
    tree = random_cstree(StateSpace([2, 3, 2]), 2, rng)
    assert kl_divergence(tree, tree) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_formula():
    p_tree = CStree((0,), StateSpace([2]), []).with_params((((0.3, 0.7),),))
    q_tree = CStree((0,), StateSpace([2]), []).with_params((((0.6, 0.4),),))
    expected = 0.3 * math.log(0.3 / 0.6) + 0.7 * math.log(0.7 / 0.4)
    assert kl_divergence(p_tree, q_tree) == pytest.approx(expected, rel=1e-12)


def test_kl_infinite_when_support_violated():
    p_tree = CStree((0,), StateSpace([2]), []).with_params((((0.5, 0.5),),))
    q_tree = CStree((0,), StateSpace([2]), []).with_params((((1.0, 0.0),),))
    assert kl_divergence(p_tree, q_tree) == math.inf
    assert kl_divergence(q_tree, p_tree) < math.inf


def test_kl_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_cstree(StateSpace([2, 2, 3]), 2, rng)
        b = random_cstree(StateSpace([2, 2, 3]), 2, rng)
        assert kl_divergence(a, b) >= 0.0


def test_kl_memory_bounded():
    # 2^16 outcomes, full support: kl needs the first joint table while it
    # builds the second, and at most one table's worth of temporaries after;
    # the bound allows half a table more, so support-masked copies of both
    # tables fail it
    import tracemalloc

    rng = np.random.default_rng(3)
    a = random_cstree(StateSpace([2] * 16), 2, rng)
    b = random_cstree(StateSpace([2] * 16), 2, rng)
    table_a, table_b = joint_table(a).ravel(), joint_table(b).ravel()
    expected = float(np.sum(table_a * (np.log(table_a) - np.log(table_b))))
    peaks = []
    tracemalloc.start()
    try:
        for call in (lambda: joint_table(b), lambda: kl_divergence(a, b)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    build_peak, kl_peak = peaks
    assert kl_peak <= build_peak + 1.5 * table_a.nbytes
    assert kl_divergence(a, b) == pytest.approx(expected, rel=1e-12)


def test_joint_table_and_kl_memory_bounded():
    # 2^20 outcomes, so one table is 8 MiB.  The bounds leave joint_table
    # room for a level's table beside the one built from it, and
    # kl_divergence for one table beside the other's build and a flat copy;
    # full-level stage ids and the gathered (level x d) probabilities kept
    # alive fail both
    import tracemalloc

    rng = np.random.default_rng(7)
    a = random_cstree(StateSpace([2] * 20), 2, rng)
    b = random_cstree(StateSpace([2] * 20), 2, rng)
    table_bytes = 8 << 20
    peaks = []
    tracemalloc.start()
    try:
        for call in (lambda: joint_table(a), lambda: joint_table(b), lambda: kl_divergence(a, b)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks[:2]) <= 2.0 * table_bytes
    assert peaks[2] <= 3.5 * table_bytes


def test_kl_peak_within_two_and_a_half_tables():
    # 2^20 outcomes, 8 MiB a table.  P's table is read in its own layout and
    # Q's through a view in that layout, a block of outcomes at a time, so
    # the call holds the two tables and block-sized temporaries; a flat
    # copy of either table, or a level's table beside the one built from
    # it while the other table is held, fails the bound
    import tracemalloc

    rng = np.random.default_rng(7)
    a = random_cstree(StateSpace([2] * 20), 2, rng)
    b = random_cstree(StateSpace([2] * 20), 2, rng)
    table_a, table_b = joint_table(a).ravel(), joint_table(b).ravel()
    expected = float(np.sum(table_a * (np.log(table_a) - np.log(table_b))))
    del table_a, table_b
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = kl_divergence(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (8 << 20)
    assert got == pytest.approx(expected, rel=1e-12)


def test_kl_space_mismatch():
    rng = np.random.default_rng(10)
    a = random_cstree(StateSpace([2, 2]), 2, rng)
    b = random_cstree(StateSpace([2, 3]), 2, rng)
    with pytest.raises(ValidationError):
        kl_divergence(a, b)


def test_random_cstree_beta0_is_independence_model():
    rng = np.random.default_rng(11)
    tree = random_cstree(StateSpace([2] * 4), 0, rng)
    assert all(is_partition(st, tree.order, tree.space) for st in tree.stagings)
    for staging in tree.stagings:
        assert len(staging.stages) == 1
    table = joint_table(tree)
    marginals = [table.sum(axis=tuple(a for a in range(4) if a != v)) for v in range(4)]
    outer = marginals[0]
    for m in marginals[1:]:
        outer = np.multiply.outer(outer, m)
    assert np.allclose(table, outer, atol=1e-12)


def test_random_cstree_respects_beta():
    rng = np.random.default_rng(12)
    for trial in range(1000):
        tree = random_cstree(StateSpace([2] * 6), 2, rng, theta="none")
        assert tree.max_context_size() <= 2
        if trial < 20:
            assert all(is_partition(st, tree.order, tree.space) for st in tree.stagings)


def test_random_cstree_level_staging_uniform():
    # frequencies of the level-2 staging shape over the 8 admissible forms
    from ctxtree import EnumSpec, enumerate_stagings

    rng = np.random.default_rng(13)
    spec = EnumSpec.of_cards([2, 2], beta=2)

    def shape_key(tree):
        # rewrite contexts in order-position coordinates so different orders
        # map to comparable staging shapes
        pos = {v: i for i, v in enumerate(tree.order)}
        return frozenset(
            tuple(sorted((pos[v], x) for v, x in stage.context.items))
            for stage in tree.stagings[2].stages
        )

    keys = {
        frozenset(stage.context.items for stage in staging.stages)
        for staging in enumerate_stagings(spec)
    }
    n = 40_000
    freq = {k: 0 for k in keys}
    for _ in range(n):
        tree = random_cstree(StateSpace([2, 2, 2]), 2, rng, theta="none")
        freq[shape_key(tree)] += 1
    expected = n / 8
    sigma = math.sqrt(n * (1 / 8) * (7 / 8))
    for k in keys:
        assert abs(freq[k] - expected) <= 3.5 * sigma


def test_roundtrip_log_density_identical(tmp_path):
    rng = np.random.default_rng(14)
    tree = random_cstree(StateSpace([2, 3, 2, 2]), 2, rng)
    path = tmp_path / "m.json"
    tree.to_json(path)
    again = CStree.from_json(path)
    for _ in range(100):
        outcome = tuple(int(rng.integers(d)) for d in tree.space.cards)
        assert abs(log_density(tree, outcome) - log_density(again, outcome)) <= 1e-15


def test_estimate_requires_matching_space():
    rng = np.random.default_rng(15)
    tree = random_cstree(StateSpace([2, 2]), 2, rng)
    data = Dataset(np.zeros((3, 2), dtype=int), StateSpace([3, 2]))
    with pytest.raises(ValidationError):
        estimate_parameters(tree, data, "mle")


def chain_contexts(chain_vars, cards):
    """{u0=x} for each x > 0, then {u0=0, u1=x} for each x > 0, and so on,
    ending with every chain variable fixed to 0: a partition of any level
    holding the chain variables, with contexts as wide as the chain."""
    if not chain_vars:
        return [{}]
    u, rest = chain_vars[0], chain_vars[1:]
    return [{u: x} for x in range(1, cards[u])] + [
        {u: 0, **ctx} for ctx in chain_contexts(rest, cards)
    ]


@st.composite
def parameterized_trees(draw, max_card=4):
    """A valid parameterized CStree with 1-5 variables of cardinality 2 to
    ``max_card``: either from ``random_cstree`` with beta 0-2, or a loaded
    model document whose levels hold chain stagings wider than any beta and
    whose stage distributions may hold zeros, so some stages hold no rows."""
    p = draw(st.integers(1, 5))
    space = StateSpace(draw(st.lists(st.integers(2, max_card), min_size=p, max_size=p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_cstree(space, draw(st.integers(0, 2)), rng)
    order = tuple(int(v) for v in rng.permutation(p))
    stagings = []
    for lvl in range(1, p):
        chain_vars = draw(st.permutations(order[:lvl]))[: draw(st.integers(0, lvl))]
        contexts = chain_contexts(chain_vars, space.cards)
        stagings.append(Staging(lvl, [Stage(Context(ctx), lvl) for ctx in contexts]))
    tree = CStree(order, space, stagings)
    params = []
    for lvl, staging in enumerate(tree.stagings):
        d = space.cards[tree.governed_var(lvl)]
        draws = [rng.dirichlet(np.ones(d)) for _ in staging.stages]
        if draw(st.booleans()):
            draws = [np.where((rng.random(d) < 0.5) | (t == t.max()), t, 0.0) for t in draws]
        params.append(tuple(tuple((t / t.sum()).tolist()) for t in draws))
    return CStree.from_json_dict(tree.with_params(tuple(params)).to_json_dict())


@settings(max_examples=150, deadline=None)
@given(parameterized_trees(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_stage_lookup_matches_per_stage_oracles(tree, n, seed):
    cards = tree.space.cards
    for lvl, staging in enumerate(tree.stagings):
        level_vars = tree.order[:lvl]
        outcomes = np.array(
            list(product(*(range(cards[v]) for v in level_vars))), dtype=np.int64
        ).reshape(math.prod(cards[v] for v in level_vars), lvl)
        pos = {v: j for j, v in enumerate(level_vars)}
        ids = stage_ids(staging, lambda v: outcomes[:, pos[v]])
        assert np.broadcast_to(ids, len(outcomes)).tolist() == [
            stage_index(staging, dict(zip(level_vars, o))) for o in outcomes.tolist()
        ]
    data = sample(tree, n, np.random.default_rng(seed))
    assert np.array_equal(data.rows, mask_sample(tree, n, np.random.default_rng(seed)).rows)
    # uniform rows besides the sampled ones reach zero-probability values
    uniform = np.random.default_rng(seed).integers(0, cards, size=(n, tree.p))
    for row in np.concatenate([data.rows, uniform]):
        expected = per_outcome_log_density(tree, row.tolist())
        assert log_density(tree, row) == expected
        assert log_density(tree, tuple(row.tolist())) == expected
    assert np.array_equal(joint_table(tree), mask_joint_table(tree))
    for mode in ("map", "mle"):
        assert estimate_parameters(tree, data, mode).params == per_stage_estimate(tree, data, mode).params
    prior = PriorSpec()
    assert log_marginal_likelihood(tree, data, prior) == per_stage_lml(tree, data, prior)


@settings(max_examples=200, deadline=None)
@given(
    parameterized_trees(max_card=5),
    st.sampled_from([1, 2, 3]) | st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_sample_stream_matches_choice_oracle(tree, n, seed):
    # the same rows as one rng.choice per stage holding rows, and the
    # generator left in the same state, so later draws from it agree too
    g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(sample(tree, n, g1).rows, mask_sample(tree, n, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state


class _FixedUniforms:
    """A generator stub whose ``random(n)`` returns the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms)

    def random(self, n):
        assert n == len(self.uniforms)
        return self.uniforms.copy()


def test_sample_divides_the_cdf_by_its_last_entry():
    # 0.2 + 0.7 + 0.1 sums to 1 - 2**-53, and each partial sum over it is
    # below its product with the sum's reciprocal: a uniform equal to the
    # quotient tells rng.choice's division from that multiplication
    theta = (0.2, 0.7, 0.1)
    cdf = np.cumsum(theta)
    assert (cdf[:-1] * (1 / cdf[-1]) > cdf[:-1] / cdf[-1]).all()
    uniforms = cdf[:-1] / cdf[-1]
    # rng.choice's rule: cumsum, divide by the last entry, searchsorted right
    want = np.searchsorted(cdf / cdf[-1], uniforms, side="right")
    assert want.tolist() == [1, 2]
    # a one-stage root level, then a level of one stage per value of X0,
    # which gets the uniforms in stage order (the rows' own order here)
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(3)])
    tree = CStree((0, 1), StateSpace([3, 3]), [staging]).with_params(((theta,), (theta,) * 3))
    rows = sample(tree, 2, _FixedUniforms(uniforms)).rows
    assert rows.tolist() == [[1, 1], [2, 2]]


@settings(max_examples=60, deadline=None)
@given(parameterized_trees(max_card=10), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_fit_and_sample_match_per_stage_oracles_to_card_10(tree, n, seed):
    # stage rows of 8 to 10 entries, where numpy's sums switch from one
    # running total to eight; few rows over many stages leave some empty
    g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
    data = sample(tree, n, g1)
    assert np.array_equal(data.rows, mask_sample(tree, n, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state
    for mode, prior in [("mle", None), ("map", None), ("map", PriorSpec("unit"))]:
        fitted = estimate_parameters(tree, data, mode, prior)
        assert fitted.params == per_stage_estimate(tree, data, mode, prior).params


@pytest.mark.parametrize("d", [256, 257])
@pytest.mark.parametrize("n", [1, 3000])
def test_sample_stream_at_work_dtype_boundary(d, n):
    # a d-valued variable fits the narrow work array up to d = 256; its
    # level-1 child has one stage per value, so stage ids cross the same
    # width switch, and value 0 has probability 0, so its stage holds no rows
    space = StateSpace([d, 3])
    staging = Staging(1, [Stage(Context({0: x}), 1) for x in range(d)])
    root = (0.0,) + (1.0 / (d - 1),) * (d - 1)
    tree = CStree((0, 1), space, [staging]).with_params(
        (((root,), tuple((0.2, 0.3, 0.5) for _ in range(d))))
    )
    g1, g2 = np.random.default_rng(d), np.random.default_rng(d)
    rows = sample(tree, n, g1).rows
    assert np.array_equal(rows, mask_sample(tree, n, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state
    if n > 1:
        assert (rows[:, 0].min(), rows[:, 0].max()) == (1, d - 1)
    flipped = CStree((1, 0), space, [Staging.full_level(1)]).with_params(
        (((0.2, 0.3, 0.5),), ((1.0 / d,) * d,))
    )
    g1, g2 = np.random.default_rng(d), np.random.default_rng(d)
    rows = sample(flipped, n, g1).rows
    assert np.array_equal(rows, mask_sample(flipped, n, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state
    if n > 1:
        assert rows[:, 0].max() == d - 1


def _dtype_boundary_tree(stages):
    """Level 1 holds one stage per value of X0, so its ids are uint8 up to
    256 stages and uint16 past that; level 2 mixes context sizes over
    stages + 2 stages.  Every target is ternary, so ids * d passes 255 in
    each case and a product left in uint8 would wrap into other stages."""
    space = StateSpace([stages, 3, 3])
    level1 = Staging(1, [Stage(Context({0: x}), 1) for x in range(stages)])
    level2 = Staging(
        2,
        [Stage(Context({1: 0}), 2), Stage(Context({1: 2}), 2)]
        + [Stage(Context({0: x, 1: 1}), 2) for x in range(stages)],
    )
    rng = np.random.default_rng(stages)
    params = [(tuple(rng.dirichlet(np.ones(stages)).tolist()),)]
    for staging in (level1, level2):
        draws = rng.dirichlet(np.ones(3), size=len(staging.stages))
        params.append(tuple(tuple((t / t.sum()).tolist()) for t in draws))
    return CStree((0, 1, 2), space, [level1, level2]).with_params(tuple(params))


def _check_counts_and_lml(tree, data):
    for lvl, staging in enumerate(tree.stagings):
        var = tree.governed_var(lvl)
        assert stage_counts(data, var, staging).tolist() == [
            mask_counts(data, var, stage.context).tolist() for stage in staging.stages
        ]
    prior = PriorSpec()
    assert log_marginal_likelihood(tree, data, prior) == per_stage_lml(tree, data, prior)


@pytest.mark.parametrize("stages", [100, 256, 257, 300])
def test_stage_lookup_at_id_dtype_boundary(stages):
    tree = _dtype_boundary_tree(stages)
    for staging in tree.stagings:
        level_vars = tree.order[: staging.level]
        outcomes = list(product(*(range(stages if v == 0 else 3) for v in level_vars)))
        columns = np.array(outcomes, dtype=np.int64).reshape(len(outcomes), len(level_vars)).T
        ids = stage_ids(staging, lambda v: columns[level_vars.index(v)])
        assert ids.dtype == np.min_scalar_type(len(staging.stages) - 1)
        assert np.broadcast_to(ids, len(outcomes)).tolist() == [
            stage_index(staging, dict(zip(level_vars, o))) for o in outcomes
        ]

    g1, g2 = np.random.default_rng(0), np.random.default_rng(0)
    data = sample(tree, 3000, g1)
    assert np.array_equal(data.rows, mask_sample(tree, 3000, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state
    for mode in ("map", "mle"):
        assert estimate_parameters(tree, data, mode).params == per_stage_estimate(tree, data, mode).params
    _check_counts_and_lml(tree, data)
    assert np.array_equal(joint_table(tree), mask_joint_table(tree))


# blocks of rows on either side of the code-table threshold of ``block_stage_ids``
TABLE_EDGE = [(1 << 14) - 1, 1 << 14, (1 << 14) + 7]
INDEX_BITS = 15


def _with_index_levels(tree):
    """``tree`` with INDEX_BITS binary variables appended, one stage each,
    and then one binary variable staged by the chain over them, whose code
    table of 2**15 outcomes is larger than any block in TABLE_EDGE."""
    p = tree.p
    bits = range(p, p + INDEX_BITS)
    cards = tree.space.cards + (2,) * (INDEX_BITS + 1)
    chain = Staging(p + INDEX_BITS, [Stage(Context(c), p + INDEX_BITS) for c in chain_contexts(bits, cards)])
    stagings = list(tree.stagings) + [Staging.full_level(lvl) for lvl in bits] + [chain]
    params = tree.params + (((0.5, 0.5),),) * INDEX_BITS + (((0.25, 0.75), (0.75, 0.25)) * 8,)
    order = tree.order + tuple(range(p, p + INDEX_BITS + 1))
    return CStree(order, StateSpace(cards), stagings).with_params(params)


def _check_long_blocks(tree, n, seed):
    """``sample``, the block stage ids, ``stage_counts`` and
    ``log_marginal_likelihood`` on n rows against their oracles.  The counts
    read the rows with the index variables set to each row's index, so all
    n rows are distinct and the counts look stages up in a block of n."""
    tree = _with_index_levels(tree)
    g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = sample(tree, n, g1).rows.copy()
    assert np.array_equal(rows, mask_sample(tree, n, g2).rows)
    assert g1.bit_generator.state == g2.bit_generator.state
    first = tree.p - INDEX_BITS - 1
    rows[:, first:-1] = (np.arange(n)[:, None] >> np.arange(INDEX_BITS)) & 1
    data = Dataset(rows, tree.space)
    columns = data._distinct[0]
    assert columns.shape[1] == n
    for staging in tree.stagings:
        ids = block_stage_ids(staging, columns, tree.space.cards)
        expected = stage_ids(staging, columns.__getitem__)
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected)
    _check_counts_and_lml(tree, data)


@settings(max_examples=20, deadline=None)
@given(parameterized_trees(max_card=5), st.sampled_from(TABLE_EDGE), st.integers(0, 2**32 - 1))
def test_long_block_lookup_matches_per_stage_oracles(tree, n, seed):
    _check_long_blocks(tree, n, seed)


@pytest.mark.parametrize("n", TABLE_EDGE)
@pytest.mark.parametrize("stages", [256, 257, 300])
def test_long_block_lookup_at_id_dtype_boundary(stages, n):
    _check_long_blocks(_dtype_boundary_tree(stages), n, stages)


def test_sample_memory_bounded():
    # the int64 output is n*p*8 bytes; one level's temporaries and the
    # narrow copy of the work array fit in the allowance, a second int64
    # copy of the rows, a work array apart from the output or (n x d) float
    # gathers kept alive do not
    import tracemalloc

    n, p = 50_000, 20
    tree = random_cstree(StateSpace([2] * p), 2, np.random.default_rng(11))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample(tree, n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * p * 8


def test_stage_ids_single_stage_level_broadcasts():
    # the empty context matches without reading a column, so the ids are
    # 0-d and broadcast to any block
    rows = np.ones((7, 3), dtype=np.int64)
    ids = stage_ids(Staging.full_level(2), lambda v: rows[:, v])
    assert ids.shape == () and not np.broadcast_to(ids, 7).any()
    assert stage_ids(Staging.full_level(0), {}.get).shape == ()


@pytest.mark.parametrize(
    "use",
    [
        lambda tree: tree.stage_probs(1, 0),
        lambda tree: log_density(tree, (0, 0, 0, 0)),
        lambda tree: joint_table(tree),
        lambda tree: sample(tree, 5, np.random.default_rng(0)),
    ],
)
def test_bare_tree_has_no_parameters(use, four_var_tree_a):
    with pytest.raises(ValidationError, match="tree has no parameters"):
        use(four_var_tree_a)


@pytest.mark.parametrize(
    "use, message",
    [
        (lambda tree, data: estimate_parameters(tree, data, mode="mean"), "mode must be map or mle, got 'mean'"),
        (lambda tree, data: log_density(tree, (0, 1)), "outcome has 2 values, expected 4"),
        (lambda tree, data: sample(tree, 0, np.random.default_rng(0)), "n must be >= 1"),
        (
            lambda tree, data: random_cstree(tree.space, 2, np.random.default_rng(0), theta="x"),
            "theta must be dirichlet1 or none, got 'x'",
        ),
    ],
)
def test_model_op_checks(use, message):
    tree = random_cstree(StateSpace([2, 2, 3, 2]), 2, np.random.default_rng(1))
    data = sample(tree, 10, np.random.default_rng(2))
    with pytest.raises(ValidationError, match=message):
        use(tree, data)
