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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass
class ChainTrace:
    """Recorded (ordering, log score) samples plus move bookkeeping."""

    samples: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    move_distances: Counter = field(default_factory=Counter)
    config: Optional[ChainConfig] = None


def _links(bits: list[dict[int, int]]) -> list[list[tuple[int, int, int]]]:
    """Each v's neighbours u in K_v | R_v as (u, u's bit in v's predecessor
    mask or 0, v's bit in u's predecessor mask or 0)."""
    reverse = [set() for _ in bits]
    for v, bits_v in enumerate(bits):
        for u in bits_v:
            reverse[u].add(v)
    return [
        [(u, bits_v.get(u, 0), bits[u].get(v, 0)) for u in sorted(bits_v.keys() | reverse[v])]
        for v, bits_v in enumerate(bits)
    ]


def _segments(order, pos, masks, score, v_pos, links, los):
    """The constant segments of the score of ``order`` with order[v_pos]
    moved to each position, given every variable's position ``pos`` and
    predecessor mask ``masks`` in ``order`` and its score ``score``.

    Returns the segments' first positions from 0 up, their scores (v's own
    is ``score``; each runs up to the next start, the last to p), and the
    neighbours (position, u, bit_u, bit_v) before and after v, nearest first.
    """
    v = order[v_pos]
    los_v = los[v]
    before, after = [], []
    for u, bit_u, bit_v in links[v]:
        at = pos[u]
        (before if at < v_pos else after).append((at, u, bit_u, bit_v))
    before.sort(reverse=True)
    after.sort()
    starts, scores = [], []
    # toward the front, v leaves the segment starting just past each
    # neighbour it passes, nearest first
    mask_v, acc = masks[v], score
    for a, u, bit_u, bit_v in before:
        starts.append(a + 1)
        scores.append(acc)
        if bit_u:
            acc += los_v[mask_v ^ bit_u] - los_v[mask_v]
            mask_v ^= bit_u
        if bit_v:
            mask_u = masks[u]
            acc += los[u][mask_u ^ bit_v] - los[u][mask_u]
    starts.append(0)
    scores.append(acc)
    starts.reverse()
    scores.reverse()
    # toward the back, it enters the segment starting at each one
    mask_v, acc = masks[v], score
    for b, u, bit_u, bit_v in after:
        if bit_u:
            acc += los_v[mask_v ^ bit_u] - los_v[mask_v]
            mask_v ^= bit_u
        if bit_v:
            mask_u = masks[u]
            acc += los[u][mask_u ^ bit_v] - los[u][mask_u]
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
    score = tables.order_score(order)
    masks = tables._pred_masks(order)
    pos = [0] * p
    for at, v in enumerate(order):
        pos[v] = at
    links = _links(tables._bits)
    los = tables._los
    trace = ChainTrace(config=config)
    for first in range(0, config.iterations, _BLOCK):
        block = rng.random((min(_BLOCK, config.iterations - first), 2)).tolist()
        for step, (u_pick, u_at) in enumerate(block, first + 1):
            v_pos = min(int(u_pick * p), p - 1)
            starts, scores, before, after = _segments(order, pos, masks, score, v_pos, links, los)
            k, new_pos = _draw(starts, scores, p, u_at)
            lo, hi = min(v_pos, new_pos), max(v_pos, new_pos)
            v = order.pop(v_pos)
            # the neighbours v passes swap their predecessor bits with v
            nb = len(before)
            for _, u, bit_u, bit_v in before[: nb - k] if k <= nb else after[: k - nb]:
                masks[v] ^= bit_u
                masks[u] ^= bit_v
            order.insert(new_pos, v)
            for at in range(lo, hi + 1):
                pos[order[at]] = at
            score = scores[k]
            trace.move_distances[hi - lo] += 1
            if step > config.burn_in and (step - config.burn_in - 1) % config.thin == 0:
                trace.samples.append((tuple(order), score))
    return trace


def map_order(trace: ChainTrace) -> tuple[int, ...]:
    """The first sampled ordering whose recorded score is within 1e-12
    relative (at least 1e-12 absolute) of the maximal one.

    The chain's running score drifts by a few ulps from the exact order
    score, so orderings that tie exactly can differ in their last bits; the
    tolerance lets the sampling order, not that drift, break such ties.
    """
    if not trace.samples:
        raise ValidationError("trace holds no samples")
    best = max(score for _, score in trace.samples)
    floor = best - max(1e-12 * abs(best), 1e-12)
    return next(order for order, score in trace.samples if score >= floor)


def dump_trace(trace: ChainTrace, fh) -> None:
    """One line per recorded sample: iteration, log score, comma-joined order."""
    config = trace.config
    start = (config.burn_in + 1) if config else 1
    thin = config.thin if config else 1
    for idx, (order, score) in enumerate(trace.samples):
        it = start + idx * thin
        fh.write(f"{it}\t{score:.12g}\t{','.join(map(str, order))}\n")
