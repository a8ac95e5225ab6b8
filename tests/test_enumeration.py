import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
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
    sample_staging_uniform,
)

from oracles import brute_force_stagings, is_partition


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
