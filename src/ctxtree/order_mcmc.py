"""Gibbs sampler over variable orderings via the relocation move.

Each step picks a variable uniformly at random, scores the orderings
obtained by inserting it at every position, and samples the new position
with probability proportional to the exponentiated scores.  Because the
order score is a sum of per-position local order scores, the p candidate
scores are computed incrementally by adjacent swaps, each touching only the
two affected terms.  The chain keeps every variable's predecessor mask, built
once in O(sum_i |K_i|); a step makes 4(p-1) reads of the local order score
tables, and a move of distance delta flips 2*delta mask bits.
The move is a Gibbs update on the variable's position, so the normalized
order posterior is stationary for the chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import ValidationError, validate_order
from .scoring import ScoreTables


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5000
    burn_in: Optional[int] = None  # defaults to 20% of iterations
    seed: int = 0
    thin: int = 1
    init: Union[str, tuple[int, ...]] = "random"

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        burn = self.iterations // 5 if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", int(burn))
        if not (self.iterations > self.burn_in >= 0):
            raise ValidationError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if self.init != "random":
            object.__setattr__(self, "init", tuple(int(v) for v in self.init))


@dataclass
class ChainTrace:
    """Recorded (ordering, log score) samples plus move bookkeeping."""

    samples: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    move_distances: Counter = field(default_factory=Counter)
    config: Optional[ChainConfig] = None


def _candidate_scores(order, score, v_pos, masks, tables) -> list[float]:
    """Scores of the orderings with order[v_pos] relocated to each position,
    given each variable's predecessor mask ``masks`` in ``order``.

    Moving v one place past its neighbour u, in either direction, flips u's
    bit in v's predecessor mask and v's bit in u's; no other term changes.
    """
    los = tables._los
    bits = tables._bits
    p = len(order)
    v = order[v_pos]
    los_v = los[v]
    bits_v = bits[v]
    scores = [0.0] * p
    scores[v_pos] = score
    # sweep the chosen variable toward the front, then toward the back
    for step, stop in ((-1, -1), (1, p)):
        mask_v = masks[v]
        acc = score
        for a in range(v_pos + step, stop, step):
            u = order[a]
            los_u = los[u]
            mask_u = masks[u]
            moved_v = mask_v ^ bits_v.get(u, 0)
            acc += (
                los_v[moved_v]
                + los_u[mask_u ^ bits[u].get(v, 0)]
                - los_v[mask_v]
                - los_u[mask_u]
            )
            scores[a] = acc
            mask_v = moved_v
    return scores


def run_chain(tables: ScoreTables, config: ChainConfig) -> ChainTrace:
    """Run the relocation sampler; deterministic given config.seed.

    Post-burn-in states are recorded every ``thin`` steps along with their
    scores.
    """
    rng = np.random.default_rng(config.seed)
    p = tables.space.p
    if config.init == "random":
        order = [int(v) for v in rng.permutation(p)]
    else:
        order = list(validate_order(config.init, p))
    score = tables.order_score(order)
    masks = tables._pred_masks(order)
    bits = tables._bits
    trace = ChainTrace(config=config)
    for step in range(1, config.iterations + 1):
        dist = 0
        if p > 1:
            v_pos = int(rng.integers(p))
            scores = _candidate_scores(order, score, v_pos, masks, tables)
            arr = np.array(scores)
            w = np.exp(arr - arr.max())
            new_pos = int(rng.choice(p, p=w / w.sum()))
            if new_pos != v_pos:
                v = order.pop(v_pos)
                # the variables v passes swap their predecessor bits with v
                for u in order[min(v_pos, new_pos) : max(v_pos, new_pos)]:
                    masks[v] ^= bits[v].get(u, 0)
                    masks[u] ^= bits[u].get(v, 0)
                order.insert(new_pos, v)
                score = scores[new_pos]
                dist = abs(new_pos - v_pos)
        trace.move_distances[dist] += 1
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
