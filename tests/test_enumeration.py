import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxtree import (
    EnumSpec,
    StateSpace,
    UnsupportedBoundError,
    ValidationError,
    count_cstrees,
    count_stagings,
    enumerate_stagings,
    max_stage_count,
    random_cstree,
    sample_staging_uniform,
)
from ctxtree.enumeration import _unrank_pair, _within, iter_raw_stagings

from oracles import (
    brute_force_stagings,
    is_partition,
    product_raw_stagings,
    stratum_random_cstree,
    stratum_sample,
)


def staging_key(staging):
    return frozenset(stage.context.items for stage in staging.stages)


@pytest.mark.parametrize(
    "cards,usable,beta,expected",
    [
        ([2], None, 2, 2),
        ([2, 2], None, 2, 8),
        ([2, 2, 2], None, 2, 25),
        ([2, 2, 2], [0], 2, 2),
        ([2, 2, 2, 2], None, 2, 59),
        ([3, 3], None, 2, 16),
        ([2, 3, 4], None, 0, 1),
        ([2, 2, 2], None, 1, 4),
        ([2, 2, 2], [0, 2], 1, 3),
    ],
)
def test_counts_and_lengths(cards, usable, beta, expected):
    spec = EnumSpec.of_cards(cards, beta=beta, usable=usable)
    assert count_stagings(spec) == expected
    assert sum(1 for _ in enumerate_stagings(spec)) == expected


def test_restricted_count_formula():
    # 1 - C(|L|,2) + sum over L of |L|^{d_k}
    spec = EnumSpec.of_cards([2, 3, 2, 4], beta=2, usable=[0, 1, 3])
    assert count_stagings(spec) == 1 - math.comb(3, 2) + 3**2 + 3**3 + 3**4


@pytest.mark.parametrize(
    "cards,usable,beta",
    [
        ([2], None, 2),
        ([2, 2], None, 2),
        ([2, 2, 2], None, 2),
        ([2, 2, 2], [0, 2], 2),
        ([2, 2, 2], [1], 2),
        ([3, 3], None, 2),
        ([2, 3], None, 2),
        ([2, 4], None, 2),
        ([2, 2, 2], None, 1),
        ([3, 3], None, 0),
    ],
)
def test_matches_brute_force(cards, usable, beta):
    spec = EnumSpec.of_cards(cards, beta=beta, usable=usable)
    got = {staging_key(s) for s in enumerate_stagings(spec)}
    level_vars = tuple(range(len(cards)))
    expected = brute_force_stagings(level_vars, cards, usable or level_vars, beta)
    assert got == expected


@given(
    cards=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    beta=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_invariants(cards, beta, data):
    p = len(cards)
    usable = data.draw(
        st.lists(st.sampled_from(range(p)), max_size=p, unique=True)
    )
    spec = EnumSpec.of_cards(cards, beta=beta, usable=usable)
    space = StateSpace(cards)
    order = tuple(range(p))
    seen = set()
    n = 0
    cap = max_stage_count(p, cards)
    for staging in enumerate_stagings(spec):
        n += 1
        key = staging_key(staging)
        assert key not in seen
        seen.add(key)
        assert staging.max_context_size() <= beta
        assert len(staging.stages) <= cap
        assert is_partition(staging, order, space)
    assert n == count_stagings(spec)


def test_enumeration_is_deterministic():
    spec = EnumSpec.of_cards([2, 3, 2], beta=2)
    first = [staging.canonical_key() for staging in enumerate_stagings(spec)]
    second = [staging.canonical_key() for staging in enumerate_stagings(spec)]
    assert first == second


def test_beta_above_two_rejected():
    with pytest.raises(UnsupportedBoundError):
        EnumSpec.of_cards([2, 2], beta=3)
    with pytest.raises(ValidationError):
        EnumSpec.of_cards([2, 2], beta=-1)


def test_spec_validation():
    with pytest.raises(ValidationError):
        EnumSpec.of_cards([2, 1])
    with pytest.raises(ValidationError):
        EnumSpec([0, 1], [2, 2], usable=[2])
    with pytest.raises(ValidationError, match="distinct"):
        EnumSpec([0, 1], [2, 2], usable=[0, 0])


def test_spec_rejects_non_integral():
    # floats and bools raise instead of being truncated; numpy integers pass
    for bad in (2.5, np.float64(2.0), True):
        with pytest.raises(ValidationError, match="cardinality must be an integer"):
            EnumSpec.of_cards([bad, 2])
        with pytest.raises(ValidationError, match="level variable must be an integer"):
            EnumSpec([bad, 3], [2, 2])
        with pytest.raises(ValidationError, match="usable variable must be an integer"):
            EnumSpec([2, 3], [2, 2], usable=[bad])
    for bad in (1.9, np.float64(1.0), True):
        with pytest.raises(ValidationError, match="beta must be an integer"):
            EnumSpec.of_cards([2, 2], beta=bad)
        with pytest.raises(ValidationError, match="beta must be an integer"):
            count_cstrees(StateSpace([2, 2]), beta=bad)
    spec = EnumSpec(np.array([0, 1]), np.array([2, 3]), usable=[np.int64(1)], beta=np.int8(2))
    assert (spec.level_vars, spec.cards, spec.usable, spec.beta) == ((0, 1), (2, 3), (1,), 2)
    assert all(type(x) is int for x in (*spec.level_vars, *spec.cards, *spec.usable, spec.beta))


def test_count_cstrees_fixed_order():
    assert count_cstrees(StateSpace([2]), 2) == 1
    assert count_cstrees(StateSpace([2] * 4), 2, fixed_order=range(4)) == 400
    # order matters for heterogeneous cardinalities
    a = count_cstrees(StateSpace([2, 4, 3]), 2, fixed_order=(0, 1, 2))
    b = count_cstrees(StateSpace([2, 4, 3]), 2, fixed_order=(1, 2, 0))
    assert a != b
    assert count_cstrees(StateSpace([2, 4, 3]), 2, fixed_order=np.array([0, 1, 2])) == a
    # the order must be a permutation of the variables, given as integers
    for bad in ((0, 0, 0), (1,), (0, 1, 5), (0.0, 1.0, 2.0), (True, 0, 2)):
        with pytest.raises(ValidationError, match="order"):
            count_cstrees(StateSpace([2, 3, 2]), 2, fixed_order=bad)


def test_for_level_checks_level():
    space = StateSpace([2, 3, 4])
    assert EnumSpec.for_level(space, (2, 0, 1), 0).level_vars == ()
    spec = EnumSpec.for_level(space, (2, 0, 1), np.int64(3))
    assert (spec.level_vars, spec.cards) == ((2, 0, 1), (4, 2, 3))
    for bad in (7, 4, -1, 1.5, True):
        with pytest.raises(ValidationError, match="level"):
            EnumSpec.for_level(space, (2, 0, 1), bad)


def test_checked_level_is_for_level_unchecked():
    # learn and random_cstree build their specs this way from a checked
    # ordering; fields, cards and equality are those of for_level
    space = StateSpace([2, 3, 4, 2])
    order = (2, 0, 3, 1)
    for level in range(5):
        for usable in (None, tuple(sorted(order[:level]))[1:]):
            spec = EnumSpec._checked_level(space, order, level, 2, usable)
            assert spec == EnumSpec.for_level(space, order, level, 2, usable)
            assert [spec.card_of(v) for v in order[:level]] == list(spec.cards)


def test_count_cstrees_all_orders_matches_permutation_sum():
    for cards in ([2, 3, 2, 4], [2, 2, 3], [3, 2]):
        space = StateSpace(cards)
        explicit = sum(
            count_cstrees(space, 2, fixed_order=perm)
            for perm in permutations(range(len(cards)))
        )
        assert count_cstrees(space, 2) == explicit


def test_count_cstrees_equal_cards_shortcut():
    space = StateSpace([2] * 11)
    per_level = [count_stagings(EnumSpec.of_cards([2] * i, 2)) for i in range(1, 11)]
    assert count_cstrees(space, 2) == math.factorial(11) * math.prod(per_level)


@pytest.mark.parametrize(
    "level,cards,expected",
    [
        (2, [2, 2], 4),
        (5, [2, 2, 2, 2, 2], 4),
        (3, [2, 3, 4], 12),
        (1, [5], 5),
        (0, [], 1),
        (np.int64(2), np.array([3, 2, 4]), 6),
    ],
)
def test_max_stage_count(level, cards, expected):
    assert max_stage_count(level, cards) == expected


def test_max_stage_count_attained():
    spec = EnumSpec.of_cards([2, 3, 4], beta=2)
    biggest = max(len(s.stages) for s in enumerate_stagings(spec))
    assert biggest == max_stage_count(3, [2, 3, 4]) == 12


def test_sample_beta0_always_trivial():
    rng = np.random.default_rng(0)
    spec = EnumSpec.of_cards([2, 2, 2], beta=0)
    for _ in range(20):
        staging = sample_staging_uniform(spec, rng)
        assert len(staging.stages) == 1
        assert staging.stages[0].context.size() == 0


def test_sample_uniform_i2_binary():
    # chi-square style check: each of the 8 stagings within 3 sigma of 1/8
    rng = np.random.default_rng(2024)
    spec = EnumSpec.of_cards([2, 2], beta=2)
    keys = [staging.canonical_key() for staging in enumerate_stagings(spec)]
    n = 80_000
    freq = {k: 0 for k in keys}
    for _ in range(n):
        freq[sample_staging_uniform(spec, rng).canonical_key()] += 1
    expected = n / len(keys)
    sigma = math.sqrt(n * (1 / len(keys)) * (1 - 1 / len(keys)))
    for k in keys:
        assert abs(freq[k] - expected) <= 3 * sigma


def test_sample_uniform_i3_binary():
    rng = np.random.default_rng(7)
    spec = EnumSpec.of_cards([2, 2, 2], beta=2)
    keys = [staging.canonical_key() for staging in enumerate_stagings(spec)]
    n = 50_000
    freq = {k: 0 for k in keys}
    for _ in range(n):
        freq[sample_staging_uniform(spec, rng).canonical_key()] += 1
    expected = n / len(keys)
    sigma = math.sqrt(n * (1 / len(keys)) * (1 - 1 / len(keys)))
    for k in keys:
        assert abs(freq[k] - expected) <= 3.5 * sigma


def test_sample_restricted_support():
    rng = np.random.default_rng(5)
    spec = EnumSpec.of_cards([2, 2, 2], beta=2, usable=[0])
    allowed = {staging.canonical_key() for staging in enumerate_stagings(spec)}
    assert len(allowed) == 2
    seen = set()
    for _ in range(200):
        seen.add(sample_staging_uniform(spec, rng).canonical_key())
    assert seen == allowed


def test_sample_mixed_cards_in_enumerated_set():
    rng = np.random.default_rng(11)
    spec = EnumSpec.of_cards([3, 2, 4], beta=2)
    allowed = {staging.canonical_key() for staging in enumerate_stagings(spec)}
    for _ in range(500):
        assert sample_staging_uniform(spec, rng).canonical_key() in allowed


@st.composite
def enum_specs(draw):
    cards = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    usable = draw(st.lists(st.sampled_from(range(len(cards))), max_size=len(cards), unique=True))
    return EnumSpec.of_cards(cards, beta=draw(st.integers(0, 2)), usable=usable)


@settings(max_examples=200, deadline=None)
@given(enum_specs(), st.integers(0, 2**32 - 1))
# a count past 2**62, which _rand_below draws in 63-bit words
@example(EnumSpec.of_cards([40] * 3 + [2] * 10), 3)
def test_sample_stream_matches_stratum_oracle(spec, seed):
    # the same stagings as the per-stratum sampler, and the generator left
    # in the same state, so the draws of random_cstree stay fixed
    g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(8):
        assert sample_staging_uniform(spec, g1) == stratum_sample(spec, g2)
    assert g1.bit_generator.state == g2.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    cards=st.lists(st.integers(2, 4), max_size=5),
    beta=st.integers(0, 2),
    keep=st.lists(st.booleans(), min_size=5, max_size=5),
)
# |L| = 5 with four values per pivot: 3,116 stagings
@example(cards=[4] * 5, beta=2, keep=[True] * 5)
def test_raw_stagings_match_product_oracle(cards, beta, keep):
    # the walk gives the product loops' stagings in their order, and the
    # stages inside each staging in theirs: plain stages first, then the
    # refined blocks in value order, which the argmax's running sums follow
    usable = [v for v in range(len(cards)) if keep[v]]
    spec = EnumSpec.of_cards(cards, beta=beta, usable=usable)
    assert list(iter_raw_stagings(spec)) == list(product_raw_stagings(spec))


slack_rows = st.lists(
    st.lists(st.integers(-2, 4).map(float), min_size=1, max_size=3), max_size=4
)


@settings(max_examples=300, deadline=None)
@given(slack_rows, st.one_of(st.integers(-3, 12).map(float), st.just(math.inf)))
@example([[0.0]], 0.0)
@example([[1.0], [0.0, 2.0]], -1.0)
@example([[3.0, 0.0], [1.0]], math.inf)
def test_within_is_the_brute_force_filter(slacks, budget):
    # integer slacks make every sum exact: the walk yields exactly the index
    # tuples whose slacks sum to at most the budget, lexicographically, each
    # with the budget it leaves
    expected = []
    for choice in product(*(range(len(row)) for row in slacks)):
        total = sum(row[c] for row, c in zip(slacks, choice))
        if total <= budget:
            expected.append((choice, budget - total))
    assert list(_within(slacks, budget)) == expected


def test_unrank_pair_is_the_rth_combination():
    for m in range(2, 31):
        pairs = list(combinations(range(m), 2))
        assert [_unrank_pair(r, m) for r in range(len(pairs))] == pairs


@pytest.mark.parametrize("p", [5, 100, 400])
def test_random_cstree_draws_match_stratum_oracle(p):
    # the same tree and the generator left in the same state as with the
    # per-stratum sampler on checked specs
    space = StateSpace([2, 3, 2, 4][: min(p, 4)] * (p // 4) + [2] * (p % 4))
    g1, g2 = np.random.default_rng(p), np.random.default_rng(p)
    assert random_cstree(space, 2, g1).to_json() == stratum_random_cstree(space, 2, g2).to_json()
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize(
    "level_vars, cards, message",
    [((0, 1), (2,), "cards must align with level_vars"), ((0, 0), (2, 2), "level variables must be distinct")],
)
def test_enum_spec_checks(level_vars, cards, message):
    with pytest.raises(ValidationError, match=message):
        EnumSpec(level_vars, cards)
