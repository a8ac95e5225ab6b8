"""Enumeration, counting, and uniform sampling of admissible level stagings.

For a context-sparsity bound ``beta <= 2`` and a set ``L`` of usable context
variables, the admissible stagings of a level split into four strata:

1. the single staging whose one stage has the empty context;
2. for each usable variable ``j``, the staging splitting the level by the
   value of ``j`` (one stage per value);
3. pure two-variable stagings: a pivot ``k`` appears in every context, and
   each value of ``k`` is refined by a second usable variable chosen per
   value.  Choices that pick the same second variable for every value of
   ``k`` give a staging with one common pair {j, k}; such a staging would
   be produced from either pivot, so it is emitted only at the smaller
   pivot;
4. blended stagings: a pivot ``k``, a nonempty proper subset of its values
   refined by a per-value second variable, the remaining values left as
   single-variable stages.

Closed-form counts per stratum (writing m = |L|):
stratum 1 has 1; stratum 2 has m; stratum 3 has
C(m, 2) + sum_k ((m-1)^{d_k} - (m-1)); stratum 4 has
sum_k (m^{d_k} - (m-1)^{d_k} - 1).  The total telescopes to
1 - C(m, 2) + sum_{k in L} m^{d_k}.

Bounds above 2 would require solving further cases of an open cube-face
partition enumeration problem (Alon and Balogh) and are rejected.

Enumeration is lazy with O(1) memory per staging; counts are exact big
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    Context,
    Stage,
    Staging,
    StateSpace,
    UnsupportedBoundError,
    ValidationError,
    as_int,
)

# A staging is represented internally as a tuple of contexts, each context a
# sorted tuple of (variable, value) pairs.  Public functions wrap these in
# core.Staging.
Assignment = tuple[tuple[int, int], ...]
RawStaging = tuple[Assignment, ...]


def _check_beta(beta: int) -> int:
    beta = as_int("beta", beta)
    if beta < 0:
        raise ValidationError(f"beta must be nonnegative, got {beta}")
    if beta > 2:
        raise UnsupportedBoundError(
            f"beta={beta} is not supported: enumerating stagings with more than "
            "two context variables is an open cube-face partition problem "
            "(Alon and Balogh); only beta <= 2 is implemented"
        )
    return beta


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: a level's variables, their cardinalities, the usable
    subset L of context variables, and the sparsity bound beta."""

    level_vars: tuple[int, ...]
    cards: tuple[int, ...]
    usable: tuple[int, ...]
    beta: int

    def __init__(
        self,
        level_vars: Sequence[int],
        cards: Sequence[int],
        usable: Optional[Sequence[int]] = None,
        beta: int = 2,
    ):
        level_vars = tuple(as_int("level variable", v) for v in level_vars)
        cards = tuple(as_int("cardinality", d) for d in cards)
        if len(cards) != len(level_vars):
            raise ValidationError("cards must align with level_vars")
        if any(d < 2 for d in cards):
            raise ValidationError(f"cardinalities must be >= 2, got {cards}")
        if len(set(level_vars)) != len(level_vars):
            raise ValidationError("level variables must be distinct")
        if usable is None:
            usable = level_vars
        usable = tuple(sorted(as_int("usable variable", v) for v in usable))
        if len(set(usable)) != len(usable):
            raise ValidationError(f"usable variables must be distinct, got {usable}")
        if not set(usable) <= set(level_vars):
            raise ValidationError(
                f"usable variables {usable} not contained in level variables {level_vars}"
            )
        object.__setattr__(self, "level_vars", level_vars)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "usable", usable)
        object.__setattr__(self, "beta", _check_beta(beta))

    @property
    def level(self) -> int:
        return len(self.level_vars)

    def card_of(self, var: int) -> int:
        return self.cards[self.level_vars.index(var)]

    @staticmethod
    def for_level(
        space: StateSpace,
        order: Sequence[int],
        level: int,
        beta: int = 2,
        usable: Optional[Sequence[int]] = None,
    ) -> "EnumSpec":
        level_vars = tuple(order[:level])
        cards = tuple(space.cards[v] for v in level_vars)
        return EnumSpec(level_vars, cards, usable, beta)

    @staticmethod
    def of_cards(cards: Sequence[int], beta: int = 2, usable=None) -> "EnumSpec":
        """A level over variables 0..len(cards)-1 in natural order."""
        return EnumSpec(tuple(range(len(cards))), cards, usable, beta)


def iter_raw_stagings(spec: EnumSpec) -> Iterator[RawStaging]:
    """Yield each admissible staging once, as a tuple of contexts, in
    deterministic stratum order.  Stage order within a staging is not
    canonical here; enumerate_stagings sorts it."""
    usable = spec.usable
    d = {v: spec.card_of(v) for v in usable}

    yield ((),)

    if spec.beta < 1:
        return

    for j in usable:
        yield tuple(((j, x),) for x in range(d[j]))

    if spec.beta < 2:
        return

    # refined[k][j][xk]: the stages fixing k = xk and running over values of j
    refined: dict[int, dict[int, tuple]] = {}
    for k in usable:
        refined[k] = {
            j: tuple(
                tuple(tuple(sorted(((k, xk), (j, xj)))) for xj in range(d[j]))
                for xk in range(d[k])
            )
            for j in usable
            if j != k
        }

    # Stratum 3: pivot k, one second variable per value of k.  Constant
    # choices are deduplicated through the smaller pivot.
    for k in usable:
        others = tuple(j for j in usable if j != k)
        blocks = refined[k]
        for choice in product(others, repeat=d[k]):
            if len(set(choice)) == 1 and choice[0] < k:
                continue
            stages: list = []
            for xk, j in enumerate(choice):
                stages.extend(blocks[j][xk])
            yield tuple(stages)

    # Stratum 4: pivot k, a nonempty proper subset of its values refined.
    for k in usable:
        others = tuple(j for j in usable if j != k)
        if not others:
            continue
        blocks = refined[k]
        for mask in range(1, (1 << d[k]) - 1):
            split = [x for x in range(d[k]) if mask >> x & 1]
            plain = [((k, x),) for x in range(d[k]) if not mask >> x & 1]
            for choice in product(others, repeat=len(split)):
                stages = list(plain)
                for xk, j in zip(split, choice):
                    stages.extend(blocks[j][xk])
                yield tuple(stages)


def enumerate_stagings(spec: EnumSpec) -> Iterator[Staging]:
    """Yield every admissible staging of the level exactly once, in canonical
    form, in deterministic enumeration order."""
    level = spec.level
    cache: dict[Assignment, tuple[tuple, Stage]] = {}
    for raw in iter_raw_stagings(spec):
        keyed = []
        for a in raw:
            entry = cache.get(a)
            if entry is None:
                stage = Stage(Context(a), level)
                entry = cache[a] = (stage.sort_key(), stage)
            keyed.append(entry)
        keyed.sort(key=lambda e: e[0])
        yield Staging._trusted(level, tuple(s for _, s in keyed))


def _pivot_counts(m: int, dk: int) -> tuple[int, int]:
    """Stagings of strata 3 and 4 at one pivot of dk values among m usable
    variables; stratum 3 leaves out the constant choices, which the common
    pair stagings count once."""
    return (m - 1) ** dk - (m - 1), m**dk - (m - 1) ** dk - 1


def _stratum_counts(spec: EnumSpec) -> tuple[int, int, int, int]:
    m = len(spec.usable)
    c1 = 1
    c2 = m if spec.beta >= 1 else 0
    c3 = c4 = 0
    if spec.beta >= 2:
        pivots = [_pivot_counts(m, spec.card_of(v)) for v in spec.usable]
        c3 = math.comb(m, 2) + sum(w3 for w3, _ in pivots)
        c4 = sum(w4 for _, w4 in pivots)
    return c1, c2, c3, c4


def count_stagings(spec: EnumSpec) -> int:
    """Closed-form count of admissible stagings (exact big integer): the sum
    of the stratum counts that ``sample_staging_uniform`` draws from."""
    return sum(_stratum_counts(spec))


def count_cstrees(space: StateSpace, beta: int = 2, fixed_order: Optional[Sequence[int]] = None) -> int:
    """Number of CStrees on ``space`` under the bound ``beta``.

    With ``fixed_order`` this is the product of per-level staging counts over
    levels 1..p-1; without, the products are summed over all p! orderings.
    The per-level count depends only on the multiset of cardinalities in the
    level, so the sum over orderings is evaluated by dynamic programming
    over card multisets rather than by iterating permutations.
    With equal cardinalities every ordering gives the same product, so the
    all-orders count is p! * prod over m = 1..p-1 of the level-m count.
    """
    _check_beta(beta)
    p = space.p
    if fixed_order is not None:
        order = tuple(fixed_order)
        total = 1
        for i in range(1, p):
            total *= count_stagings(EnumSpec.of_cards([space.cards[v] for v in order[:i]], beta))
        return total

    distinct = sorted(set(space.cards))
    pool = [space.cards.count(d) for d in distinct]
    start = tuple(0 for _ in distinct)
    dp = {start: 1}
    for size in range(1, p + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for state, acc in dp.items():
            for t, d in enumerate(distinct):
                if state[t] >= pool[t]:
                    continue
                new_state = tuple(
                    c + 1 if u == t else c for u, c in enumerate(state)
                )
                # which concrete variable of this cardinality comes next
                ways = pool[t] - state[t]
                cards_now = [d2 for u, d2 in enumerate(distinct) for _ in range(new_state[u])]
                w = count_stagings(EnumSpec.of_cards(cards_now, beta)) if size <= p - 1 else 1
                nxt[new_state] = nxt.get(new_state, 0) + acc * ways * w
        dp = nxt
    return dp[tuple(pool)]


def max_stage_count(level: int, cards: Sequence[int]) -> int:
    """Largest number of stages any admissible staging of the level can have.

    For a single-variable level this is its cardinality; otherwise the
    product of the two largest cardinalities among the level variables.
    """
    if level < 1:
        return 1
    cards = sorted(int(d) for d in cards[:level])
    if len(cards) < level:
        raise ValidationError(f"need {level} cardinalities, got {len(cards)}")
    if level == 1:
        return cards[0]
    return cards[-1] * cards[-2]


def _rand_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) that stays exact for big-integer n."""
    if n <= 0:
        raise ValidationError("empty range")
    if n < (1 << 62):
        return int(rng.integers(n))
    # rejection sampling from fixed-width words
    bits = n.bit_length()
    words = (bits + 62) // 63
    while True:
        x = 0
        for _ in range(words):
            x = (x << 63) | int(rng.integers(1 << 63))
        x >>= words * 63 - bits
        if x < n:
            return x


def sample_staging_uniform(spec: EnumSpec, rng: np.random.Generator) -> Staging:
    """Draw a staging uniformly from the admissible set.

    The stratum is picked with probability proportional to its closed-form
    count, then a staging is drawn uniformly within the stratum.
    """
    c1, c2, c3, c4 = _stratum_counts(spec)
    total = c1 + c2 + c3 + c4
    r = _rand_below(rng, total)
    usable = spec.usable
    d = {v: spec.card_of(v) for v in usable}
    m = len(usable)
    level = spec.level

    def wrap(raw_stages) -> Staging:
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
            stages = [
                tuple(sorted(((k, xk), (j, xj))))
                for xk in range(d[k])
                for xj in range(d[j])
            ]
            return wrap(stages)
        r -= n_pairs
        for k in usable:
            w = _pivot_counts(m, d[k])[0]
            if r < w:
                others = tuple(j for j in usable if j != k)
                while True:
                    choice = [others[_rand_below(rng, m - 1)] for _ in range(d[k])]
                    if len(set(choice)) > 1:
                        break
                stages = [
                    tuple(sorted(((k, xk), (j, xj))))
                    for xk, j in enumerate(choice)
                    for xj in range(d[j])
                ]
                return wrap(stages)
            r -= w
        raise AssertionError("stratum 3 weights inconsistent")
    r -= c3

    for k in usable:
        w = _pivot_counts(m, d[k])[1]
        if r < w:
            others = tuple(j for j in usable if j != k)
            sizes = list(range(1, d[k]))
            weights = [math.comb(d[k], s) * (m - 1) ** s for s in sizes]
            acc = _rand_below(rng, sum(weights))
            for s, ws in zip(sizes, weights):
                if acc < ws:
                    n_refined = s
                    break
                acc -= ws
            refined = sorted(rng.choice(d[k], size=n_refined, replace=False).tolist())
            stages = [((k, x),) for x in range(d[k]) if x not in refined]
            for xk in refined:
                j = others[_rand_below(rng, m - 1)]
                for xj in range(d[j]):
                    stages.append(tuple(sorted(((k, xk), (j, xj)))))
            return wrap(stages)
        r -= w
    raise AssertionError("stratum 4 weights inconsistent")
