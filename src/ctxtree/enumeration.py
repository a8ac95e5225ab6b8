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
1 - C(m, 2) + sum_{k in L} m^{d_k}; ``_staging_count`` is that one count.

Strata 3 and 4 have one definition, the walk ``_pivot_walk``.  It lists
each staging as its pivot k and a refinement of k's values (None for a
plain stage, else the index in L - k of the second variable): stratum 3
then 4, pivots increasing, then the refined values' bitmask increasing,
then choices in lexicographic order.  ``iter_raw_stagings`` runs it at
zero slacks and infinite budgets, ``scoring.optimal_staging`` on its band.

Bounds above 2 would require solving further cases of an open cube-face
partition enumeration problem (Alon and Balogh) and are rejected.

Enumeration is lazy with O(1) memory per staging; counts are exact big
integers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    Context,
    Stage,
    Staging,
    StateSpace,
    UnsupportedBoundError,
    ValidationError,
    as_int,
    validate_order,
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
        self._set(level_vars, cards, usable, _check_beta(beta))

    def _set(self, level_vars: tuple, cards: tuple, usable: tuple, beta: int) -> None:
        """Set the frozen fields and the card of each level variable."""
        for name, value in (
            ("level_vars", level_vars),
            ("cards", cards),
            ("usable", usable),
            ("beta", beta),
            ("_card", dict(zip(level_vars, cards))),
        ):
            object.__setattr__(self, name, value)

    @property
    def level(self) -> int:
        return len(self.level_vars)

    def card_of(self, var: int) -> int:
        return self._card[var]

    @staticmethod
    def for_level(
        space: StateSpace,
        order: Sequence[int],
        level: int,
        beta: int = 2,
        usable: Optional[Sequence[int]] = None,
    ) -> "EnumSpec":
        level = as_int("level", level)
        if not 0 <= level <= len(order):
            raise ValidationError(f"level must be in 0..{len(order)}, got {level}")
        level_vars = order[:level]
        return EnumSpec(level_vars, [space.cards[v] for v in level_vars], usable, beta)

    @staticmethod
    def _checked_level(
        space: StateSpace, order: tuple, level: int, beta: int, usable: Optional[tuple] = None
    ) -> "EnumSpec":
        """``for_level`` without its checks, for callers that have checked
        them once: ``order`` a tuple of distinct ints, ``level`` in range,
        ``usable`` a sorted tuple inside ``order[:level]`` and ``beta``
        in 0..2."""
        level_vars = order[:level]
        spec = object.__new__(EnumSpec)
        spec._set(
            level_vars,
            tuple(space.cards[v] for v in level_vars),
            tuple(sorted(level_vars)) if usable is None else usable,
            beta,
        )
        return spec

    @staticmethod
    def of_cards(cards: Sequence[int], beta: int = 2, usable=None) -> "EnumSpec":
        """A level over variables 0..len(cards)-1 in natural order."""
        return EnumSpec(tuple(range(len(cards))), cards, usable, beta)


def _pivot_options(spec: EnumSpec, k: int, options: Iterable[int]) -> tuple[list, dict]:
    """What each value x of pivot k, the k-th usable variable, can become:
    the plain stage ``plain[x]`` = {k = x}, or the block ``blocks[c][x]`` of
    stages {k = x, j = y} over y, for j the c-th member of L - k and each
    option c in ``options``."""
    kv = spec.usable[k]
    others = spec.usable[:k] + spec.usable[k + 1 :]
    xs = range(spec.card_of(kv))
    blocks = {}
    for c in options:
        j = others[c]
        ys = range(spec.card_of(j))
        # a context lists its smaller variable first, and j > k exactly when c >= k
        blocks[c] = [[((kv, x), (j, y)) if c >= k else ((j, y), (kv, x)) for y in ys] for x in xs]
    return [((kv, x),) for x in xs], blocks


def _pivot_stages(plain: Sequence, blocks, refine: Sequence[Optional[int]]) -> list:
    """A pivot staging's stages: ``plain[x]`` for each value x that
    ``refine`` leaves whole (None), then ``blocks[refine[x]][x]`` for each
    refined one, both in value order.  ``optimal_staging`` sums z entries
    in this order."""
    stages = [plain[x] for x, c in enumerate(refine) if c is None]
    for x, c in enumerate(refine):
        if c is not None:
            stages += blocks[c][x]
    return stages


def _within(slacks: Sequence[Sequence[float]], budget: float) -> Iterator[tuple[tuple, float]]:
    """Every index tuple c, one index per row of ``slacks``, whose slacks
    ``slacks[r][c[r]]`` sum to at most ``budget``, in lexicographic order,
    each with the budget it leaves.  A branch is cut once the least slacks
    of its remaining rows overrun what is left."""
    least = [0.0]
    for row in reversed(slacks):
        least.append(least[-1] + min(row))
    least.reverse()

    def walk(r: int, prefix: tuple, left: float) -> Iterator[tuple[tuple, float]]:
        if r == len(slacks):
            yield prefix, left
            return
        for c, s in enumerate(slacks[r]):
            if s + least[r + 1] <= left:
                yield from walk(r + 1, (*prefix, c), left - s)

    return walk(0, (), budget) if least[0] <= budget else iter(())


def _pivot_walk(plain: dict, slacks: dict, budgets: dict) -> Iterator[tuple[int, Sequence]]:
    """The stagings of strata 3 and 4 whose slacks at their pivot k sum to
    at most ``budgets[k]``, in enumeration order, as (k, refine); the three
    mappings hold the same pivots k, the k-th usable variables, increasing.
    ``plain[k][x]`` is the slack of leaving value x of k whole,
    ``slacks[k][x][c]`` that of refining it by the c-th member of L - k;
    ``refine[x]`` is that c, or None for a plain value."""
    for k, budget in budgets.items():
        for choice, _ in _within(slacks[k], budget):
            # a constant choice of j < k is the pair staging listed at pivot j
            if choice[0] >= k or choice.count(choice[0]) < len(choice):
                yield k, choice
    for k, budget in budgets.items():
        d = len(plain[k])
        # value x plain (bit 0) or refined (bit 1), high bit first, so the
        # masks of refined values come in increasing order
        bits = [(plain[k][x], min(slacks[k][x])) for x in reversed(range(d))]
        for high_first, left in _within(bits, budget):
            split = [x for x in range(d) if high_first[d - 1 - x]]
            if 0 < len(split) < d:
                for choice, _ in _within([slacks[k][x] for x in split], left):
                    refine = [None] * d
                    for x, c in zip(split, choice):
                        refine[x] = c
                    yield k, refine


def iter_raw_stagings(spec: EnumSpec) -> Iterator[RawStaging]:
    """Yield each admissible staging once, as a tuple of contexts, in
    deterministic stratum order.  Stage order within a staging is not
    canonical here; enumerate_stagings sorts it."""
    yield ((),)

    if spec.beta < 1:
        return

    for j in spec.usable:
        yield tuple(((j, x),) for x in range(spec.card_of(j)))

    m = len(spec.usable)
    if spec.beta < 2 or m < 2:
        return

    # the walk at zero slacks and infinite budgets: both pivot strata whole
    options = [_pivot_options(spec, k, range(m - 1)) for k in range(m)]
    plain = {k: [0.0] * len(stages) for k, (stages, _) in enumerate(options)}
    refined = {k: [[0.0] * (m - 1)] * len(row) for k, row in plain.items()}
    for k, refine in _pivot_walk(plain, refined, dict.fromkeys(plain, math.inf)):
        yield tuple(_pivot_stages(*options[k], refine))


def enumerate_stagings(spec: EnumSpec) -> Iterator[Staging]:
    """Yield every admissible staging of the level exactly once, in canonical
    form, in deterministic enumeration order."""
    level, card = spec.level, spec.card_of
    # every context of at most beta usable variables, in ``Stage.sort_key``
    # order: by size, then by variables, then by values
    contexts = [
        tuple(zip(svars, xs))
        for size in range(spec.beta + 1)
        for svars in combinations(spec.usable, size)
        for xs in product(*(range(card(v)) for v in svars))
    ]
    rank = {a: r for r, a in enumerate(contexts)}
    stages = [Stage(Context(a), level) for a in contexts]
    for raw in iter_raw_stagings(spec):
        yield Staging._trusted(level, tuple([stages[r] for r in sorted([rank[a] for a in raw])]))


def _staging_count(cards: Sequence[int], beta: int) -> int:
    """Number of admissible stagings of a level whose usable variables have
    the cardinalities ``cards`` (exact big integer): the closed form of the
    module docstring."""
    m = len(cards)
    if beta < 2:
        return 1 + m * beta
    return 1 - math.comb(m, 2) + sum(m**d for d in cards)


def count_stagings(spec: EnumSpec) -> int:
    """Closed-form count of admissible stagings (exact big integer)."""
    return _staging_count([spec.card_of(v) for v in spec.usable], spec.beta)


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
    beta = _check_beta(beta)
    p = space.p
    if fixed_order is not None:
        cards = [space.cards[v] for v in validate_order(fixed_order, p)]
        return math.prod(_staging_count(cards[:i], beta) for i in range(1, p))

    distinct = sorted(set(space.cards))
    pool = tuple(space.cards.count(d) for d in distinct)
    # dp[state]: orderings of state[t] first variables of cardinality distinct[t]
    dp = {(0,) * len(distinct): 1}
    for _ in range(p):
        nxt: dict[tuple[int, ...], int] = {}
        for state, acc in dp.items():
            w = acc * _staging_count([d for d, c in zip(distinct, state) for _ in range(c)], beta)
            for t, c in enumerate(state):
                if c < pool[t]:
                    new = state[:t] + (c + 1,) + state[t + 1 :]
                    # pool[t] - c concrete variables of this cardinality can come next
                    nxt[new] = nxt.get(new, 0) + w * (pool[t] - c)
        dp = nxt
    return dp[pool]


def max_stage_count(level: int, cards: Sequence[int]) -> int:
    """Largest number of stages any admissible staging of the level can have.

    For a single-variable level this is its cardinality; otherwise the
    product of the two largest cardinalities among the level variables.
    """
    level = as_int("level", level)
    if level < 0:
        raise ValidationError(f"level must be nonnegative, got {level}")
    cards = sorted(as_int("cardinality", d) for d in cards[:level])
    if len(cards) < level or min(cards, default=2) < 2:
        raise ValidationError(f"need {level} cardinalities >= 2, got {cards}")
    return math.prod(cards[-2:])


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


def _unrank_pair(r: int, m: int) -> tuple[int, int]:
    """``list(combinations(range(m), 2))[r]``, by arithmetic.  Counted from
    the last pair, t = C(m, 2) - 1 - r: the i + 1 pairs whose first member
    is m - 2 - i follow the i (i + 1) / 2 pairs of larger first members."""
    t = math.comb(m, 2) - 1 - r
    i = (math.isqrt(8 * t + 1) - 1) // 2
    return m - 2 - i, m - 1 - (t - i * (i + 1) // 2)


def sample_staging_uniform(spec: EnumSpec, rng: np.random.Generator) -> Staging:
    """Draw a staging uniformly from the admissible set.

    One draw r below ``count_stagings`` picks the empty context, a single
    variable, a common pair, or a (stratum, pivot) cell in proportion to its
    closed-form count; a staging is then drawn uniformly within the cell.
    """
    r = _rand_below(rng, count_stagings(spec))
    usable = spec.usable
    d = [spec.card_of(v) for v in usable]
    m = len(usable)
    n_pairs = math.comb(m, 2)
    if r == 0:
        stages = [()]
    elif r <= m:
        j = usable[r - 1]
        stages = [((j, x),) for x in range(d[r - 1])]
    else:
        if r <= m + n_pairs:
            # the pair of the c-th and k-th usable variables, c < k: pivot
            # k with every value refined by its c-th other variable
            c, k = _unrank_pair(r - m - 1, m)
            refine: list = [c] * d[k]
        else:
            r -= 1 + m + n_pairs
            for stratum, k in product((3, 4), range(m)):
                # the module docstring's counts of strata 3 and 4 at pivot k
                w = m ** d[k] - (m - 1) ** d[k] - 1 if stratum == 4 else (m - 1) ** d[k] - (m - 1)
                if r < w:
                    break
                r -= w
            else:
                raise AssertionError("pivot weights inconsistent")
            if stratum == 3:
                # uniform over the non-constant choices, by rejection
                refine = []
                while len(set(refine)) < 2:
                    refine = [_rand_below(rng, m - 1) for _ in range(d[k])]
            else:
                # how many values are refined, then which, then by what
                weights = [math.comb(d[k], s) * (m - 1) ** s for s in range(1, d[k])]
                acc = _rand_below(rng, sum(weights))
                n_refined = 1 + bisect_right(list(accumulate(weights)), acc)
                refine = [None] * d[k]
                for xk in sorted(rng.choice(d[k], size=n_refined, replace=False).tolist()):
                    refine[xk] = _rand_below(rng, m - 1)
        stages = _pivot_stages(*_pivot_options(spec, k, set(refine) - {None}), refine)
    level = spec.level
    return Staging(level, tuple(Stage(Context(a), level) for a in stages))
