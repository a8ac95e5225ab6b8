"""Gibbs sampler over variable orderings via the relocation move.

Each step picks a variable v uniformly at random and samples its new
position with probability proportional to the exponentiated score of the
ordering that inserts v there.  The order score is a sum of per-position
local order scores, and moving v past u changes only v's term, when u is in
K_v, and u's term, when v is in K_u.  So the candidate score is piecewise
constant in v's new position: it changes only where v passes a member of
its neighbour list K_v | R_v, with R_v = {u : v in K_u}.  A step sorts the
neighbours' positions, walks the O(|K_v| + |R_v|) constant segments with
two table reads per relation crossed, draws a segment by its length times
its exponentiated score and then a position inside it, all from one uniform
by inverse CDF.  The chain keeps every variable's position and predecessor
mask; a move of distance delta flips the bits of the passed neighbours and
updates delta + 1 positions.  A step therefore costs
O((|K_v| + |R_v|) log(|K_v| + |R_v|) + delta), not O(p).  The move is an
exact Gibbs update on the variable's position (the relocation move of
Friedman & Koller 2003), so the normalized order posterior is stationary
for the chain.

The chain is recorded as moves, not orderings: the initial ordering, each
step's (v_pos, new_pos) in one integer array and each recorded score in one
float array.  Recording a step appends two integers and at most one float,
whatever p is, and allocates nothing that outlives the step.  Samples are
replayed from the moves on demand, one list pop and insert per move.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Optional, Union

import numpy as np

from .core import ValidationError, as_int, validate_order
from .scoring import ScoreTables

# steps whose uniforms are drawn at once, so a long chain holds no more;
# consecutive blocks read the generator as one (iterations x 2) block would
_BLOCK = 4096


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5000
    burn_in: Optional[int] = None  # defaults to 20% of iterations
    seed: int = 0
    thin: int = 1
    init: Union[str, tuple[int, ...]] = "random"

    def __post_init__(self):
        for name in ("iterations", "seed", "thin"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        burn = self.iterations // 5 if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", as_int("burn_in", burn))
        if not (self.iterations > self.burn_in >= 0):
            raise ValidationError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if not (isinstance(self.init, str) and self.init == "random"):
            object.__setattr__(self, "init", tuple(as_int("init entry", v) for v in self.init))


@dataclass(frozen=True)
class ChainTrace:
    """A chain's record: its initial ordering ``init``, each step's
    (v_pos, new_pos) flat in ``moves`` (the variable at position v_pos of
    the ordering moved to position new_pos), and the log score of each
    recorded sample in ``scores``.  Sample i is recorded after step
    burn_in + 1 + i * thin of ``config`` (after step i + 1 without one).

    ``run_chain`` fills ``moves`` (4-byte integers) and ``scores`` (8-byte
    floats) as arrays, so the record costs 8 bytes per step and 8 per
    sample.  ``samples`` is a read-only sequence of the (ordering, log
    score) pairs, replayed from ``init`` and ``moves``: iterating replays
    every move once, and indexing replays from the start up to that
    sample, an O(p) list pop and insert per move.  ``move_distances``
    counts the steps by |new_pos - v_pos| when it is first read."""

    init: tuple[int, ...]
    moves: Sequence[int]
    scores: Sequence[float]
    config: Optional[ChainConfig] = None

    @cached_property
    def move_distances(self) -> Counter:
        at = iter(self.moves)
        return Counter(abs(a - b) for a, b in zip(at, at))

    @property
    def samples(self) -> Sequence[tuple[tuple[int, ...], float]]:
        return _Samples(self)

    def _steps(self) -> range:
        """The number of steps taken when each sample was recorded."""
        start, thin = (self.config.burn_in + 1, self.config.thin) if self.config else (1, 1)
        return range(start, start + thin * len(self.scores), thin)

    def _replay(self, steps: Iterable[int]):
        """The ordering after each of the increasing step counts ``steps``."""
        order = list(self.init)
        at = iter(self.moves)
        moves = zip(at, at)
        done = 0
        for step in steps:
            for v_pos, new_pos in islice(moves, step - done):
                order.insert(new_pos, order.pop(v_pos))
            done = step
            yield tuple(order)


class _Samples(Sequence):
    """A trace's (ordering, log score) samples, replayed from its moves."""

    __slots__ = ("_trace",)

    def __init__(self, trace: ChainTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        trace = self._trace
        return next(trace._replay([trace._steps()[index]])), trace.scores[index]

    def __iter__(self):
        trace = self._trace
        return zip(trace._replay(trace._steps()), trace.scores)

    # Sequence's own would index, and so replay from the start, per sample
    def __reversed__(self):
        return reversed(list(self))

    def index(self, value, start=0, stop=None):
        return list(self).index(value, start, len(self) if stop is None else stop)


def _links(bits: list[dict[int, int]], los: list) -> list[list[tuple]]:
    """Each v's neighbours u in K_v | R_v as (u, u's bit in v's predecessor
    mask or 0, v's bit in u's predecessor mask or 0, u's local order
    scores)."""
    reverse = [set() for _ in bits]
    for v, bits_v in enumerate(bits):
        for u in bits_v:
            reverse[u].add(v)
    return [
        [(u, bits_v.get(u, 0), bits[u].get(v, 0), los[u]) for u in sorted(bits_v.keys() | reverse[v])]
        for v, bits_v in enumerate(bits)
    ]


def _segments(order, pos, masks, score, v_pos, links, los):
    """The constant segments of the score of ``order`` with order[v_pos]
    moved to each position, given every variable's position ``pos`` and
    predecessor mask ``masks`` in ``order`` and its score ``score``.

    Returns the segments' first positions from 0 up, their scores (v's own
    is ``score``; each runs up to the next start, the last to p), and the
    neighbours as (position, link) pairs before and after v, nearest first.
    """
    v = order[v_pos]
    los_v = los[v]
    before, after = [], []
    for link in links[v]:
        at = pos[link[0]]
        (before if at < v_pos else after).append((at, link))
    before.sort(reverse=True)
    after.sort()
    starts, scores = [], []
    # toward the front, v leaves the segment starting just past each
    # neighbour it passes, nearest first
    mask_v, acc = masks[v], score
    for a, (u, bit_u, bit_v, los_u) in before:
        starts.append(a + 1)
        scores.append(acc)
        if bit_u:
            acc += los_v[mask_v ^ bit_u] - los_v[mask_v]
            mask_v ^= bit_u
        if bit_v:
            mask_u = masks[u]
            acc += los_u[mask_u ^ bit_v] - los_u[mask_u]
    starts.append(0)
    scores.append(acc)
    starts.reverse()
    scores.reverse()
    # toward the back, it enters the segment starting at each one
    mask_v, acc = masks[v], score
    for b, (u, bit_u, bit_v, los_u) in after:
        if bit_u:
            acc += los_v[mask_v ^ bit_u] - los_v[mask_v]
            mask_v ^= bit_u
        if bit_v:
            mask_u = masks[u]
            acc += los_u[mask_u ^ bit_v] - los_u[mask_u]
        starts.append(b)
        scores.append(acc)
    return starts, scores, before, after


def _draw(starts, scores, p, uniform):
    """The index of the drawn segment and the drawn position: inverse CDF at
    ``uniform`` over the positions 0..p-1, each weighted by exp(score - max)
    of its segment."""
    top = max(scores)
    ends = starts[1:] + [p]
    cum, acc = [], 0.0
    for start, end, s in zip(starts, ends, scores):
        acc += math.exp(s - top) * (end - start)
        cum.append(acc)
    target = uniform * acc  # < acc, so some segment of positive weight holds it
    k = bisect_right(cum, target)
    below = cum[k - 1] if k else 0.0
    at = starts[k] + int((target - below) / math.exp(scores[k] - top))
    return k, min(at, ends[k] - 1)


def run_chain(tables: ScoreTables, config: ChainConfig) -> ChainTrace:
    """Run the relocation sampler; deterministic given config.seed.

    After the initial ordering, each step takes two uniforms: one picks the
    variable (position floor(u * p)), one its new position.  Post-burn-in
    states are recorded every ``thin`` steps along with their scores.
    """
    rng = np.random.default_rng(config.seed)
    p = tables.space.p
    if config.init == "random":
        order = [int(v) for v in rng.permutation(p)]
    else:
        order = list(validate_order(config.init, p))
    init = tuple(order)
    score = tables.order_score(order)
    masks = tables._pred_masks(order)
    pos = [0] * p
    for at, v in enumerate(order):
        pos[v] = at
    los = tables._los
    links = _links(tables._bits, los)
    moves, recorded = array("i"), array("d")
    record = config.burn_in + 1
    for first in range(0, config.iterations, _BLOCK):
        block = rng.random((min(_BLOCK, config.iterations - first), 2))
        picks = np.minimum((block[:, 0] * p).astype(np.intp), p - 1).tolist()
        for step, v_pos, u_at in zip(count(first + 1), picks, block[:, 1].tolist()):
            starts, scores, before, after = _segments(order, pos, masks, score, v_pos, links, los)
            k, new_pos = _draw(starts, scores, p, u_at)
            moves.append(v_pos)
            moves.append(new_pos)
            if new_pos != v_pos:
                v = order.pop(v_pos)
                order.insert(new_pos, v)
                # the neighbours v passes swap their predecessor bits with v
                nb = len(before)
                mask_v = masks[v]
                for _, (u, bit_u, bit_v, _) in before[: nb - k] if k <= nb else after[: k - nb]:
                    mask_v ^= bit_u
                    masks[u] ^= bit_v
                masks[v] = mask_v
                for at in range(min(v_pos, new_pos), max(v_pos, new_pos) + 1):
                    pos[order[at]] = at
                score = scores[k]
            if step == record:
                recorded.append(score)
                record += config.thin
    return ChainTrace(init, moves, recorded, config)


def map_order(trace: ChainTrace) -> tuple[int, ...]:
    """The first sampled ordering whose recorded score is within 1e-12
    relative (at least 1e-12 absolute) of the maximal one.

    The chain's running score drifts by a few ulps from the exact order
    score, so orderings that tie exactly can differ in their last bits; the
    tolerance lets the sampling order, not that drift, break such ties.
    Only the moves up to that sample are replayed.
    """
    scores = trace.scores
    if not scores:
        raise ValidationError("trace holds no samples")
    best = max(scores)
    floor = best - max(1e-12 * abs(best), 1e-12)
    index = next(i for i, score in enumerate(scores) if score >= floor)
    return trace.samples[index][0]


def dump_trace(trace: ChainTrace, fh) -> None:
    """One line per recorded sample: iteration, log score, comma-joined order."""
    for it, (order, score) in zip(trace._steps(), trace.samples):
        fh.write(f"{it}\t{score:.12g}\t{','.join(map(str, order))}\n")
