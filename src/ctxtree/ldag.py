"""LDAG export: the labeled-DAG representation of a CStree.

The parent set of the variable at order position i is the union of the
context-variable sets over the stages of its level (a singleton stage's
context covers all predecessors, so any singleton forces the full
predecessor set in).  For each edge j -> t, every stage of t's level whose
context omits j contributes one label pattern over the coordinates
pa(t) \\ {j}: context coordinates fixed, the rest wildcarded.  The label
then says the edge's dependence vanishes whenever any of its patterns is
realized.

Patterns are compressed with the usual wildcard convention: whenever d_k
patterns agree everywhere except coordinate k, where they take all d_k
values, they merge into one pattern with a wildcard at k.  Merging repeats
to a fixed point; overlapping merged patterns are kept as-is (no further
minimization is attempted, which may represent some outcomes redundantly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CStree, ValidationError

# wildcard coordinate inside a pattern
STAR = None

Pattern = tuple  # values and STARs, over an edge's label coordinates


def _merge_patterns(patterns: set[Pattern], axis_cards: Sequence[int]) -> set[Pattern]:
    """Apply the wildcard merge rule until no coordinate-complete family
    remains."""
    current = set(patterns)
    n = len(axis_cards)
    # a merged pattern always has one more wildcard than the patterns it
    # consumes, so the rewriting cannot cycle
    while True:
        merged: set[Pattern] = set()
        consumed: set[Pattern] = set()
        for c in range(n):
            groups: dict[tuple, set[int]] = {}
            for pat in current:
                if pat[c] is STAR:
                    continue
                rest = pat[:c] + pat[c + 1 :]
                groups.setdefault(rest, set()).add(pat[c])
            for rest, values in groups.items():
                if len(values) == axis_cards[c]:
                    merged.add(rest[:c] + (STAR,) + rest[c:])
                    for v in values:
                        consumed.add(rest[:c] + (v,) + rest[c:])
        nxt = (current - consumed) | merged
        if nxt == current:
            return current
        current = nxt


def _pattern_sort_key(pat: Pattern) -> tuple:
    return tuple((1, 0) if v is STAR else (0, v) for v in pat)


@dataclass(frozen=True)
class Ldag:
    """A DAG plus, per edge, the set of label patterns under which the edge's
    dependence vanishes.

    ``labels[(j, t)]`` is a tuple of patterns over ``axes[(j, t)]``, the
    sorted tuple pa(t) \\ {j}; a pattern coordinate is a value of that
    variable or None for a wildcard.  Edges point forward in the tree order.
    """

    p: int
    edges: tuple[tuple[int, int], ...]
    axes: dict
    labels: dict
    names: Optional[tuple[str, ...]] = None


def to_ldag(tree: CStree) -> Ldag:
    """Construct the LDAG of a CStree by the union-of-contexts rule."""
    order = tree.order
    cards = tree.space.cards
    parents: dict[int, set[int]] = {v: set() for v in range(tree.p)}
    for lvl in range(1, tree.p):
        target = tree.governed_var(lvl)
        for stage in tree.stagings[lvl].stages:
            parents[target].update(stage.context.vars)

    edges = []
    axes = {}
    labels = {}
    for lvl in range(1, tree.p):
        target = tree.governed_var(lvl)
        pa = sorted(parents[target])
        for source in pa:
            axis = tuple(v for v in pa if v != source)
            raw: set[Pattern] = set()
            for stage in tree.stagings[lvl].stages:
                ctx = stage.context.as_dict()
                if source in ctx:
                    continue
                raw.add(tuple(ctx.get(v, STAR) for v in axis))
            merged = _merge_patterns(raw, [cards[v] for v in axis])
            edges.append((source, target))
            axes[(source, target)] = axis
            labels[(source, target)] = tuple(sorted(merged, key=_pattern_sort_key))
    edge_order = sorted(range(len(edges)), key=lambda e: edges[e])
    edges = tuple(edges[e] for e in edge_order)
    return Ldag(tree.p, edges, axes, labels, names=tree.names)


def _pattern_str(pat: Pattern) -> str:
    cells = ["*" if v is STAR else str(v) for v in pat]
    if len(cells) == 1:
        return cells[0]
    return "(" + ",".join(cells) + ")"


def label_str(ldag: Ldag, edge: tuple[int, int]) -> str:
    return ",".join(_pattern_str(p) for p in ldag.labels[edge])


# DOT's keywords, in any case, are not node ids unless quoted
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def _node_id(ldag: Ldag, v: int) -> str:
    name = ldag.names[v] if ldag.names else str(v)
    # a DOT numeral is ASCII digits only: "1²" would split into two ids
    numeral = name.isascii() and name.isdigit()
    bare = numeral or (name.isalnum() and not name[0].isdigit())
    if bare and name.lower() not in _DOT_KEYWORDS:
        return name
    if name.endswith("\\"):
        # a DOT quoted string cannot escape a final backslash: it would
        # escape the closing quote instead
        raise ValidationError(f"variable {v} name {name!r} ends in a backslash, which DOT cannot quote")
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(ldag: Ldag, names: Optional[Sequence[str]] = None) -> str:
    """Render the LDAG as a DOT digraph with deterministic node and edge
    order.  Empty labels are rendered as unlabeled edges.  Two variables
    whose names give the same node id raise ValidationError, since DOT
    would draw them as one node."""
    if names is not None:
        names = tuple(str(n) for n in names)
        if len(names) != ldag.p:
            raise ValidationError(f"expected {ldag.p} names, got {len(names)}")
        ldag = Ldag(ldag.p, ldag.edges, ldag.axes, ldag.labels, names)
    ids = [_node_id(ldag, v) for v in range(ldag.p)]
    first = {}
    for v, node in enumerate(ids):
        if first.setdefault(node, v) != v:
            raise ValidationError(f"variables {first[node]} and {v} have the same DOT node id {node}")
    lines = ["digraph {"]
    lines.extend(f"  {node};" for node in ids)
    for edge in ldag.edges:
        src, tgt = ids[edge[0]], ids[edge[1]]
        if ldag.labels[edge]:
            lines.append(f'  {src} -> {tgt} [label="{label_str(ldag, edge)}"];')
        else:
            lines.append(f"  {src} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ldag_to_json_dict(ldag: Ldag) -> dict:
    doc: dict = {"p": ldag.p}
    if ldag.names is not None:
        doc["names"] = list(ldag.names)
    doc["edges"] = [
        {
            "source": s,
            "target": t,
            "axis": list(ldag.axes[(s, t)]),
            "patterns": [
                ["*" if v is STAR else v for v in pat] for pat in ldag.labels[(s, t)]
            ],
        }
        for s, t in ldag.edges
    ]
    return doc
