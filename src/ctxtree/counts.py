"""Dataset ingestion and sufficient statistics.

The count table stores, for every variable i and every admissible context
x_S with S inside the possible-parent set K_i and |S| <= beta, the vector of
cell counts over the values of variable i.  The build collapses identical
rows once, so each distinct row is tabulated once with its multiplicity as a
weight.  It makes one weighted ``bincount`` pass over the distinct rows per
variable i and largest context-variable set S, |S| = min(beta, |K_i|), and
gets every smaller table by summing axes of a largest table that contains
it.  Tables are int64 and immutable afterwards.

``load_csv`` tokenizes with ``csv.reader`` and makes every other decision
(integer parsing, missing cells, the cardinality row, label codes) once per
distinct label of a column rather than once per cell.
"""

from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Optional, Sequence

import numpy as np

from .core import (
    Context,
    ParseError,
    PossibleParents,
    ResourceCapError,
    Staging,
    StateSpace,
    ValidationError,
    stage_ids,
)
from .enumeration import _check_beta

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("", "?", "NA")

DEFAULT_MAX_CELLS = 1 << 26

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of integer category codes plus its state space."""

    rows: np.ndarray
    space: StateSpace
    names: Optional[tuple[str, ...]] = None
    labels: Optional[dict] = None

    def __init__(self, rows, space: StateSpace, names=None, labels=None):
        rows = np.asarray(rows)
        if rows.dtype.kind == "f" and not (np.isfinite(rows) & (np.trunc(rows) == rows)).all():
            raise ValidationError("rows must hold whole numbers")
        rows = rows.astype(np.int64, copy=False)
        if rows.ndim != 2:
            raise ValidationError("rows must be a 2-d array")
        n, p = rows.shape
        if n < 1:
            raise ValidationError("dataset needs at least one row")
        if p != space.p:
            raise ValidationError(f"rows have {p} columns, state space has {space.p}")
        for j in range(p):
            col = rows[:, j]
            if col.min() < 0 or col.max() >= space.cards[j]:
                raise ValidationError(
                    f"column {j} has values outside 0..{space.cards[j] - 1}"
                )
        # freeze a view, so the caller's own array stays writable
        rows = rows.view()
        rows.setflags(write=False)
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != p:
                raise ValidationError(f"expected {p} names, got {len(names)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]


def _int_or_none(label: str) -> Optional[int]:
    try:
        return int(label)
    except ValueError:
        return None


def _read_rows(path) -> list[list[str]]:
    """The non-blank rows of a UTF-8 CSV file, as csv.reader splits them."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _record_line(path, record: int) -> int:
    """The file line on which non-blank CSV record ``record`` (0 is the
    header) ends; blank lines and quoted line breaks shift it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(islice((reader.line_num for row in reader if row), record, None))


def _declares_cards(head: list[int], values: list[list], inverse: np.ndarray) -> bool:
    """Auto mode: the head row declares the cardinalities when every value
    is >= 2, later rows exist, and every integer cell in them lies below its
    column's head value."""
    if inverse.shape[1] < 2 or min(head) < 2:
        return False
    for j, d in enumerate(head):
        seen = np.flatnonzero(np.bincount(inverse[j, 1:], minlength=len(values[j])))
        if any(values[j][k] is not None and values[j][k] >= d for k in seen.tolist()):
            return False
    return True


def load_csv(path, cards_row: str = "auto") -> Dataset:
    """Load a categorical dataset from a UTF-8 CSV file.

    The first row is a header of variable names.  An optional second header
    row of integers declares per-variable cardinalities; without it,
    cardinalities are inferred as max observed value + 1.  ``cards_row`` is
    one of "yes", "no", or "auto"; in auto mode the second row is taken as a
    declaration when all its cells are integers >= 2 that strictly bound
    every later value in their column.

    Values are parsed as integers when a whole column is numeric; otherwise
    the column's string labels are coded in first-appearance order and the
    label table is kept on the dataset.  Rows containing a missing cell
    ("", "?", or "NA") are dropped with a logged count.  Cells are stripped
    of surrounding whitespace.
    """
    if cards_row not in ("auto", "yes", "no"):
        raise ValidationError(f"cards_row must be auto/yes/no, got {cards_row!r}")
    table = _read_rows(path)
    if not table:
        raise ParseError(f"{path}: empty file")
    names = [cell.strip() for cell in table[0]]
    p = len(names)
    body = table[1:]
    for r, row in enumerate(body, start=1):
        if len(row) != p:
            raise ParseError(f"{path}: line {_record_line(path, r)} has {len(row)} cells, expected {p}")
    if not body:
        raise ParseError(f"{path}: no complete data rows")

    # Every per-cell decision is made once per distinct label of a column:
    # labels[j] lists the column's stripped labels, values[j] holds each
    # label's int() or None, and inverse[j, r] is the label of cell (r, j).
    inverse = np.empty((p, len(body)), dtype=np.intp)
    labels, values = [], []
    for j, col in enumerate(zip(*body)):
        raw = list(dict.fromkeys(col))
        stripped = [s.strip() for s in raw]
        labels.append(list(dict.fromkeys(stripped)))
        values.append([_int_or_none(s) for s in labels[j]])
        label_of = {s: k for k, s in enumerate(labels[j])}
        code_of = {s: label_of[t] for s, t in zip(raw, stripped)}
        inverse[j] = np.fromiter(map(code_of.__getitem__, col), dtype=np.intp, count=len(body))
    # the per-cell Python lists hold most of the memory
    del table, body

    declared: Optional[list[int]] = None
    if cards_row != "no":
        head = [values[j][inverse[j, 0]] for j in range(p)]
        if all(v is not None for v in head):
            if cards_row == "yes" or _declares_cards(head, values, inverse):
                declared = head
        elif cards_row == "yes":
            raise ParseError(f"{path}: cards row requested but second row is not all integers")
        if declared is not None:
            inverse = inverse[:, 1:]

    missing = np.zeros(inverse.shape[1], dtype=bool)
    for j in range(p):
        missing |= np.array([s in MISSING_TOKENS for s in labels[j]])[inverse[j]]
    dropped = int(missing.sum())
    if dropped:
        logger.warning("%s: dropped %d row(s) with missing cells", path, dropped)
        inverse = inverse[:, ~missing]
    if not inverse.shape[1]:
        raise ParseError(f"{path}: no complete data rows")

    codes = np.empty(inverse.shape[::-1], dtype=np.int64)
    label_map: dict[int, tuple[str, ...]] = {}
    for j, col in enumerate(inverse):
        present = np.flatnonzero(np.bincount(col, minlength=len(labels[j])))
        ints = [values[j][k] for k in present.tolist()]
        lookup = np.zeros(len(labels[j]), dtype=np.int64)
        if all(v is not None for v in ints):
            for v in ints:
                if not _INT64.min <= v <= _INT64.max:
                    raise ParseError(
                        f"{path}: column {names[j]!r} has value {v} "
                        "outside the 64-bit integer range"
                    )
            lookup[present] = ints
        else:
            present, first = np.unique(col, return_index=True)
            order = present[np.argsort(first)]
            lookup[order] = np.arange(len(order))
            label_map[j] = tuple(labels[j][k] for k in order.tolist())
        codes[:, j] = lookup[col]
    lo, hi = codes.min(axis=0).tolist(), codes.max(axis=0).tolist()
    if min(lo) < 0:
        raise ParseError(f"{path}: negative category codes")

    if declared is not None:
        cards = declared
        for j in range(p):
            if hi[j] >= cards[j]:
                raise ParseError(
                    f"{path}: column {names[j]!r} has value {hi[j]} "
                    f">= declared cardinality {cards[j]}"
                )
    else:
        cards = [max(h + 1, 2) for h in hi]
    for j in range(p):
        if lo[j] == hi[j]:
            logger.warning(
                "%s: column %r is constant; inferred cardinality may understate it",
                path,
                names[j],
            )
    return Dataset(codes, StateSpace(cards), names=names, labels=label_map or None)


def write_csv(data: Dataset, path, cards_row: bool = True) -> None:
    """Write a dataset as UTF-8 with a names header and (by default) a
    cardinality row."""
    names = data.names or tuple(f"X{j}" for j in range(data.p))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        if cards_row:
            writer.writerow(data.space.cards)
        writer.writerows(data.rows.tolist())


def compute_counts(data: Dataset, var: int, context: Context) -> np.ndarray:
    """N_isk for k = 0..d_i-1: rows matching ``context`` with row[var] = k."""
    if var in context.vars:
        raise ValidationError(f"context conditions on the target variable {var}")
    context.check_in_space(data.space)
    mask = np.broadcast_to(context.mask(lambda v: data.rows[:, v]), data.n)
    return np.bincount(data.rows[mask, var], minlength=data.space.cards[var])


def stage_counts(data: Dataset, var: int, staging: Staging) -> np.ndarray:
    """The (stages x d_var) counts N_isk of ``var``'s values over the rows each
    stage holds; ``staging`` must partition its level, as in a ``CStree``."""
    d = data.space.cards[var]
    ids = stage_ids(staging, lambda v: data.rows[:, v], data.n)
    counts = np.bincount(ids * d + data.rows[:, var], minlength=len(staging.stages) * d)
    return counts.reshape(-1, d)


def _context_sets(pp: PossibleParents, var: int, beta: int):
    k_i = sorted(pp[var])
    for size in range(0, beta + 1):
        yield from combinations(k_i, size)


class CountTable:
    """Counts N_isk for every (variable, admissible context) pair.

    Internally one integer array per (variable, context-variable-set) pair,
    indexed by the mixed-radix code of the context values; lookups by
    context are O(|S|).
    """

    def __init__(self, space: StateSpace, pp: PossibleParents, beta: int, tables):
        self.space = space
        self.pp = pp
        self.beta = beta
        self._tables = tables

    def _cell(self, svars: tuple[int, ...], values: Sequence[int]) -> int:
        code = 0
        for v, x in zip(svars, values):
            code = code * self.space.cards[v] + x
        return code

    def counts(self, var: int, context: Context) -> np.ndarray:
        svars = context.vars
        try:
            table = self._tables[(var, svars)]
        except KeyError:
            raise ValidationError(
                f"count table has no entry for variable {var}, context {context}"
            ) from None
        return table[self._cell(svars, context.values)]

    def tables(self, var: int):
        """Each count table of ``var``, in deterministic order: its context
        variables S, the context of each row as (variable, value) pairs, and
        the (cells x d_var) counts."""
        for svars in _context_sets(self.pp, var, self.beta):
            values = product(*(range(self.space.cards[v]) for v in svars))
            yield svars, [tuple(zip(svars, xs)) for xs in values], self._tables[(var, svars)]

    def contexts(self, var: int):
        """All admissible contexts for ``var``, in deterministic order."""
        for _, cell_contexts, _ in self.tables(var):
            for items in cell_contexts:
                yield Context(items)


def build_count_table(
    data: Dataset,
    pp: Optional[PossibleParents] = None,
    beta: int = 2,
    max_cells: int = DEFAULT_MAX_CELLS,
    threads: int = 1,
) -> CountTable:
    """Tabulate N_isk for every variable and every context with S inside K_i,
    |S| <= beta.

    ``beta`` is checked first, as ``EnumSpec`` checks it.  Raises
    ResourceCapError when the table would exceed ``max_cells`` entries; the
    table size grows as O(p * C(|K|, beta) * d^beta) cells.
    """
    beta = _check_beta(beta)
    space = data.space
    if pp is None:
        pp = PossibleParents.full(space.p)
    if pp.p != space.p:
        raise ValidationError("possible-parent sets do not match the state space")

    cards = space.cards
    total_cells = sum(
        math.prod(cards[v] for v in svars) * cards[i]
        for i in range(space.p)
        for svars in _context_sets(pp, i, beta)
    )
    if total_cells > max_cells:
        raise ResourceCapError(
            f"count table needs {total_cells} cells, above the cap {max_cells}; "
            "table size grows as O(p * C(|K|, beta) * d^beta), so reduce the "
            "possible-parent sets or beta"
        )

    # distinct rows as contiguous columns, and how often each row occurs
    narrow = np.ascontiguousarray(data.rows, dtype=np.min_scalar_type(max(cards) - 1))
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * space.p))).ravel()
    _, first, weight = np.unique(keys, return_index=True, return_counts=True)
    columns = np.ascontiguousarray(data.rows[first].T)
    weight = weight.astype(np.float64)

    def run(job):
        i, svars = job
        # mixed-radix code of (x_S, x_i), x_i least significant
        code, radix = columns[i], cards[i]
        for v in reversed(svars):
            code = code + radix * columns[v]
            radix *= cards[v]
        flat = np.bincount(code, weights=weight, minlength=radix)
        # every count is an integer <= n < 2**53, so the float sums are exact
        shape = [cards[v] for v in svars] + [cards[i]]
        return (i, svars), flat.astype(np.int64).reshape(shape)

    jobs = [
        (i, svars)
        for i in range(space.p)
        for svars in combinations(sorted(pp[i]), min(beta, len(pp[i])))
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            largest = dict(pool.map(run, jobs))
    else:
        largest = dict(map(run, jobs))

    tables = {}
    for i in range(space.p):
        k_i = sorted(pp[i])
        size = min(beta, len(k_i))
        for svars in _context_sets(pp, i, beta):
            fill = [v for v in k_i if v not in svars][: size - len(svars)]
            sup = tuple(sorted(svars + tuple(fill)))
            axes = tuple(pos for pos, v in enumerate(sup) if v not in svars)
            table = largest[(i, sup)].sum(axis=axes).reshape(-1, cards[i])
            table.setflags(write=False)
            tables[(i, svars)] = table
    return CountTable(space, pp, beta, tables)
