"""Core value types for context-specific staged tree models (CStrees).

A CStree pairs a variable ordering with one staging per level.  Level ``i``
is the outcome space of the first ``i`` ordered variables; a staging
partitions that space into stages, each stage being the set of level
outcomes that agree with a fixed partial assignment (its context).  The
staging of level ``i`` governs the conditional distribution of the variable
at order position ``i + 1``; the first variable is governed by a root stage
with empty context, stored here uniformly as the staging of level 0.

Partition invariant: each level of a ``CStree`` is partitioned by its
stages.  The constructor checks this from the contexts alone, in O(s^2 *
beta) for s stages of at most beta context variables: every two stages
must conflict (fix a shared variable to different values), so they are
disjoint, and the stage sizes (products of the cardinalities of the level
variables outside the context) must add up to the level size, so they
cover it.  A violation raises CorruptStagingError; a bare ``Staging`` is
not checked.

Stage lookup lives here: ``stage_index`` (one outcome) and ``stage_ids`` (a
block of outcomes) share ``Context.mask``, and since every ``CStree`` level
is a partition, the first stage matching an outcome is its only one.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np


class CtxTreeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CtxTreeError):
    """Invalid model, data, or configuration supplied by the caller."""


class ParseError(ValidationError):
    """Malformed input file."""


class CorruptStagingError(CtxTreeError):
    """A staging violated the partition invariant."""


class UnsupportedBoundError(ValidationError):
    """Requested context-sparsity bound is outside the supported range."""


class ResourceCapError(CtxTreeError):
    """A configured memory or size cap would be exceeded."""


def as_int(name: str, value) -> int:
    """``value`` as an int, if it is a Python or numpy integer (not a bool):
    a float or a bool raises rather than being truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class StateSpace:
    """Per-variable category counts; variable ``i`` takes values 0..cards[i]-1."""

    cards: tuple[int, ...]

    def __init__(self, cards: Sequence[int]):
        cards = tuple(as_int("cardinality", d) for d in cards)
        if len(cards) < 1:
            raise ValidationError("state space needs at least one variable")
        if any(d < 2 for d in cards):
            raise ValidationError(f"every cardinality must be >= 2, got {cards}")
        object.__setattr__(self, "cards", cards)

    @property
    def p(self) -> int:
        return len(self.cards)

    def joint_size(self) -> int:
        return math.prod(self.cards)

    def outcomes(self) -> Iterator[tuple[int, ...]]:
        """All joint outcomes, in lexicographic order of the natural variable order."""
        return product(*(range(d) for d in self.cards))


def validate_order(order: Sequence[int], p: int) -> tuple[int, ...]:
    """Check that ``order`` is a permutation of 0..p-1 and return it as a tuple."""
    order = tuple(as_int("order entry", v) for v in order)
    if sorted(order) != list(range(p)):
        raise ValidationError(f"order {order} is not a permutation of 0..{p - 1}")
    return order


@dataclass(frozen=True)
class Context:
    """A partial assignment x_S, stored as (variable, value) pairs sorted by variable.

    The empty context is valid and denotes a whole level.
    """

    items: tuple[tuple[int, int], ...] = ()

    def __init__(self, items: Union[Mapping[int, int], Sequence[tuple[int, int]]] = ()):
        if isinstance(items, Mapping):
            items = items.items()
        pairs = tuple(
            sorted((as_int("context variable", v), as_int("context value", x)) for v, x in items)
        )
        seen = [v for v, _ in pairs]
        if len(set(seen)) != len(seen):
            raise ValidationError(f"context assigns a variable twice: {pairs}")
        object.__setattr__(self, "items", pairs)

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.items)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(x for _, x in self.items)

    def size(self) -> int:
        return len(self.items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    def mask(self, column: Callable):
        """Where every context variable takes its context value; ``column(v)``
        gives v's values as scalars or as arrays that broadcast together."""
        hit = True
        for v, x in self.items:
            hit = hit & (column(v) == x)
        return hit

    def matches(self, assignment: Mapping[int, int]) -> bool:
        """True if every context variable takes its context value in ``assignment``."""
        return bool(self.mask(assignment.get))

    def check_in_space(self, space: StateSpace) -> None:
        for v, x in self.items:
            if not (0 <= v < space.p):
                raise ValidationError(f"context variable {v} out of range for p={space.p}")
            if not (0 <= x < space.cards[v]):
                raise ValidationError(
                    f"context value {x} out of range for variable {v} (d={space.cards[v]})"
                )

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return "{" + ",".join(f"{v}={x}" for v, x in self.items) + "}"


@dataclass(frozen=True)
class Stage:
    """One block of a level staging: the level outcomes agreeing with ``context``."""

    context: Context
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValidationError("stage level must be >= 0")
        if self.context.size() > self.level:
            raise ValidationError(
                f"context {self.context} has more variables than level {self.level}"
            )

    def sort_key(self) -> tuple:
        return (self.context.size(), self.context.vars, self.context.values)


def stage_members(stage: Stage, order: Sequence[int], space: StateSpace) -> Iterator[tuple[int, ...]]:
    """Yield the level outcomes of ``stage``, positionally under ``order``.

    An outcome is a tuple of values for the first ``stage.level`` ordered
    variables.  The count of yielded outcomes is the product of the
    cardinalities of the level variables outside the stage context.
    """
    level_vars = tuple(order[: stage.level])
    ctx = stage.context.as_dict()
    for v in ctx:
        if v not in level_vars:
            raise ValidationError(
                f"context variable {v} is not among the first {stage.level} ordered variables"
            )
    stage.context.check_in_space(space)
    axes = [
        (ctx[v],) if v in ctx else tuple(range(space.cards[v]))
        for v in level_vars
    ]
    return product(*axes)


@dataclass(frozen=True)
class Staging:
    """A partition of level ``level`` into stages, kept in canonical order.

    Canonical order sorts stages by (context size, context variables,
    context values), which makes equality of stagings decidable by
    structural comparison.
    """

    level: int
    stages: tuple[Stage, ...]

    def __init__(self, level: int, stages: Sequence[Stage]):
        stages = tuple(sorted(stages, key=Stage.sort_key))
        if not stages:
            raise ValidationError("a staging needs at least one stage")
        for s in stages:
            if s.level != level:
                raise ValidationError(f"stage level {s.level} != staging level {level}")
        contexts = [s.context for s in stages]
        if len(set(contexts)) != len(contexts):
            raise ValidationError("staging contains duplicate stage contexts")
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "stages", stages)

    def max_context_size(self) -> int:
        """ms of the staging: the largest context-variable set over its stages."""
        return max(s.context.size() for s in self.stages)

    def canonical_key(self) -> tuple:
        return tuple((s.context.vars, s.context.values) for s in self.stages)

    @staticmethod
    def full_level(level: int) -> "Staging":
        """The single-stage staging whose one stage has the empty context."""
        return Staging(level, (Stage(Context(), level),))

    @staticmethod
    def _trusted(level: int, stages: tuple) -> "Staging":
        # skips sorting and validation: callers must pass canonically sorted,
        # distinct stages of the right level
        obj = object.__new__(Staging)
        object.__setattr__(obj, "level", level)
        object.__setattr__(obj, "stages", stages)
        return obj


def find_stage(staging: Staging, prefix: Sequence[int], order: Sequence[int]) -> Stage:
    """Return the first stage containing ``prefix``.

    ``prefix`` gives values for the first ``staging.level`` variables of
    ``order``, positionally.  Raises CorruptStagingError when no stage
    matches, which a staging taken from a ``CStree`` never does.
    """
    if len(prefix) != staging.level:
        raise ValidationError(
            f"prefix length {len(prefix)} != staging level {staging.level}"
        )
    assignment = {order[j]: prefix[j] for j in range(staging.level)}
    return staging.stages[stage_index(staging, assignment)]


def stage_index(staging: Staging, assignment: Mapping[int, int]) -> int:
    """Index of the first stage whose context the variable -> value
    ``assignment`` matches."""
    for idx, stage in enumerate(staging.stages):
        if stage.context.matches(assignment):
            return idx
    raise CorruptStagingError(
        f"no stage of level {staging.level} contains {dict(sorted(assignment.items()))}"
    )


def stage_ids(staging: Staging, column: Callable, shape) -> np.ndarray:
    """The stage of each outcome in a block of level outcomes (``column`` as in
    ``Context.mask``), as an array of ``shape``.  Stage 0 takes what no other
    stage claims, which in a partition is exactly its own outcomes."""
    ids = np.zeros(shape, dtype=np.intp)
    for idx in range(len(staging.stages) - 1, 0, -1):
        np.copyto(ids, idx, where=staging.stages[idx].context.mask(column))
    return ids


def _check_partition(staging: Staging, order: Sequence[int], space: StateSpace) -> None:
    """Raise CorruptStagingError unless the stages partition the level,
    judged from the contexts alone (see the module docstring)."""
    level = staging.level
    level_size = math.prod(space.cards[v] for v in order[:level])
    covered = 0
    seen: list[tuple[Context, dict[int, int]]] = []
    for stage in staging.stages:
        ctx = stage.context
        covered += level_size // math.prod(space.cards[v] for v in ctx.vars)
        for other, fixed in seen:
            if all(fixed.get(v, x) == x for v, x in ctx.items):
                raise CorruptStagingError(f"level-{level} stages {other} and {ctx} overlap")
        seen.append((ctx, ctx.as_dict()))
    if covered != level_size:
        raise CorruptStagingError(
            f"level-{level} stages cover {covered} of the level's {level_size} outcomes"
        )


@dataclass(frozen=True)
class PossibleParents:
    """Per-variable sets K_i of variables allowed to appear in stage contexts."""

    sets: tuple[frozenset[int], ...]

    def __init__(self, sets: Sequence[Union[frozenset, set, Sequence[int]]]):
        frozen = tuple(frozenset(as_int("possible parent", j) for j in s) for s in sets)
        p = len(frozen)
        for i, k in enumerate(frozen):
            if i in k:
                raise ValidationError(f"K_{i} contains its own variable")
            bad = [j for j in k if not (0 <= j < p)]
            if bad:
                raise ValidationError(f"K_{i} has out-of-range variables {bad}")
        object.__setattr__(self, "sets", frozen)

    @property
    def p(self) -> int:
        return len(self.sets)

    @property
    def alpha(self) -> int:
        """The classic graph-sparsity bound implied by the sets: max |K_i|."""
        return max((len(k) for k in self.sets), default=0)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.sets[i]

    @staticmethod
    def full(p: int) -> "PossibleParents":
        return PossibleParents([set(range(p)) - {i} for i in range(p)])


@dataclass(frozen=True, eq=False)
class CStree:
    """A variable ordering plus one staging per level, optionally parameterized.

    ``stagings`` holds levels 0..p-1; level 0 is the root staging, a single
    stage with empty context governing the first ordered variable.  The
    constructor also accepts stagings for levels 1..p-1 only and prepends
    the root staging.

    ``params``, when present, aligns with ``stagings``: ``params[lvl][s]``
    is the probability vector of stage ``s`` of the level-``lvl`` staging,
    over the values of the governed variable ``order[lvl]``.
    """

    order: tuple[int, ...]
    space: StateSpace
    stagings: tuple[Staging, ...]
    params: Optional[tuple[tuple[tuple[float, ...], ...], ...]] = None
    names: Optional[tuple[str, ...]] = None
    labels: Optional[dict] = None

    def __init__(
        self,
        order: Sequence[int],
        space: StateSpace,
        stagings: Sequence[Staging],
        params=None,
        names: Optional[Sequence[str]] = None,
        labels: Optional[Mapping[int, Sequence[str]]] = None,
    ):
        p = space.p
        order = validate_order(order, p)
        stagings = tuple(stagings)
        if len(stagings) == p - 1 or (p == 1 and len(stagings) == 0):
            stagings = (Staging.full_level(0),) + stagings
        if len(stagings) != p:
            raise ValidationError(
                f"expected {p - 1} or {p} stagings for p={p}, got {len(stagings)}"
            )
        for lvl, st in enumerate(stagings):
            if st.level != lvl:
                raise ValidationError(f"staging at index {lvl} has level {st.level}")
            level_vars = set(order[:lvl])
            for stage in st.stages:
                stage.context.check_in_space(space)
                outside = set(stage.context.vars) - level_vars
                if outside:
                    raise ValidationError(
                        f"level-{lvl} stage context uses variables {sorted(outside)} "
                        f"outside the level prefix"
                    )
            _check_partition(st, order, space)
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != p:
                raise ValidationError(f"expected {p} names, got {len(names)}")
        if labels is not None:
            labels = {int(v): tuple(str(s) for s in seq) for v, seq in labels.items()}
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "stagings", stagings)
        self._set_params(params)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return self.space.p

    def governed_var(self, level: int) -> int:
        """The variable whose conditional the level-``level`` staging governs."""
        return self.order[level]

    def level_vars(self, level: int) -> tuple[int, ...]:
        return self.order[:level]

    def max_context_size(self) -> int:
        return max(st.max_context_size() for st in self.stagings)

    def stage_probs(self, level: int, stage_index: int) -> tuple[float, ...]:
        if self.params is None:
            raise ValidationError("tree has no parameters")
        return self.params[level][stage_index]

    def _set_params(self, params) -> None:
        """Check ``params`` against the stagings and store them as float tuples."""
        if params is not None:
            params = tuple(
                tuple(tuple(float(t) for t in probs) for probs in level)
                for level in params
            )
            if len(params) != self.p:
                raise ValidationError("params must align with stagings (one entry per level)")
            for lvl, level_params in enumerate(params):
                d = self.space.cards[self.order[lvl]]
                if len(level_params) != len(self.stagings[lvl].stages):
                    raise ValidationError(f"params at level {lvl} do not align with stages")
                for probs in level_params:
                    if len(probs) != d:
                        raise ValidationError(
                            f"stage distribution at level {lvl} has length {len(probs)}, expected {d}"
                        )
                    if not all(math.isfinite(t) and t >= 0 for t in probs):
                        raise ValidationError("stage probabilities must be finite and nonnegative")
                    if abs(sum(probs) - 1.0) > 1e-12:
                        raise ValidationError(
                            f"stage probabilities at level {lvl} sum to {sum(probs)!r}, not 1"
                        )
        object.__setattr__(self, "params", params)

    def with_params(self, params) -> "CStree":
        """This tree with ``params``; only they are checked, the rest already was."""
        tree = copy.copy(self)
        tree._set_params(params)
        return tree

    # -- model document (JSON) ------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "order": list(self.order),
            "cards": list(self.space.cards),
        }
        if self.names is not None:
            doc["names"] = list(self.names)
        if self.labels:
            doc["labels"] = {str(v): list(seq) for v, seq in sorted(self.labels.items())}
        stagings = []
        for lvl, st in enumerate(self.stagings):
            entries = []
            for s_idx, stage in enumerate(st.stages):
                entry = {
                    "context": {str(v): x for v, x in stage.context.items},
                    "probs": list(self.params[lvl][s_idx]) if self.params is not None else None,
                }
                entries.append(entry)
            stagings.append(entries)
        doc["stagings"] = stagings
        return doc

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @staticmethod
    def from_json_dict(doc: Mapping) -> "CStree":
        """The tree a model document describes.  A malformed document raises
        ParseError; stagings that are not partitions, CorruptStagingError."""
        if not isinstance(doc, Mapping):
            raise ParseError(f"model document must be a JSON object, got {type(doc).__name__}")
        try:
            space = StateSpace(doc["cards"])
            stagings = []
            params = []
            for lvl, entries in enumerate(doc["stagings"]):
                stages = [
                    Stage(Context({int(v): x for v, x in entry["context"].items()}), lvl)
                    for entry in entries
                ]
                level_order = sorted(range(len(stages)), key=lambda s: stages[s].sort_key())
                stagings.append(Staging(lvl, [stages[j] for j in level_order]))
                params.append([entries[j].get("probs") for j in level_order])
            bare = [q is None for level in params for q in level]
            if any(bare) and not all(bare):
                raise ParseError("model document mixes parameterized and bare stages")
            labels = doc.get("labels")
            return CStree(
                doc["order"],
                space,
                stagings,
                params=None if all(bare) else params,
                names=doc.get("names"),
                labels={int(v): seq for v, seq in labels.items()} if labels else None,
            )
        except KeyError as exc:
            raise ParseError(f"model document is missing field {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed model document ({exc})") from None

    @staticmethod
    def from_json(path) -> "CStree":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON ({exc})") from None
        return CStree.from_json_dict(doc)
