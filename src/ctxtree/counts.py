"""Dataset ingestion and sufficient statistics.

The count table stores, for every variable i and every admissible context
x_S with S inside the possible-parent set K_i and |S| <= beta, the vector of
cell counts over the values of variable i.  Tables are built in one
vectorized pass per (variable, context-variable-set) pair and are immutable
afterwards.
"""

from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product
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

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("", "?", "NA")

DEFAULT_MAX_CELLS = 1 << 26


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of integer category codes plus its state space."""

    rows: np.ndarray
    space: StateSpace
    names: Optional[tuple[str, ...]] = None
    labels: Optional[dict] = None

    def __init__(self, rows, space: StateSpace, names=None, labels=None):
        rows = np.asarray(rows, dtype=np.int64)
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


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def load_csv(path, cards_row: str = "auto") -> Dataset:
    """Load a categorical dataset from a CSV file.

    The first row is a header of variable names.  An optional second header
    row of integers declares per-variable cardinalities; without it,
    cardinalities are inferred as max observed value + 1.  ``cards_row`` is
    one of "yes", "no", or "auto"; in auto mode the second row is taken as a
    declaration when all its cells are integers >= 2 that strictly bound
    every later value in their column.

    Values are parsed as integers when a whole column is numeric; otherwise
    the column's string labels are coded in first-appearance order and the
    label table is kept on the dataset.  Rows containing a missing cell
    ("", "?", or "NA") are dropped with a logged count.
    """
    if cards_row not in ("auto", "yes", "no"):
        raise ValidationError(f"cards_row must be auto/yes/no, got {cards_row!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        table = [[cell.strip() for cell in row] for row in reader if row]
    if not table:
        raise ParseError(f"{path}: empty file")
    names = table[0]
    p = len(names)
    body = table[1:]
    for r, row in enumerate(body, start=2):
        if len(row) != p:
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {p}")

    declared: Optional[list[int]] = None
    if body and cards_row != "no":
        head = body[0]
        if all(_is_int(c) for c in head):
            cand = [int(c) for c in head]
            if cards_row == "yes":
                declared = cand
            elif all(d >= 2 for d in cand):
                rest = body[1:]
                ok = bool(rest)
                for row in rest:
                    for j, cell in enumerate(row):
                        if cell in MISSING_TOKENS or not _is_int(cell):
                            continue
                        if int(cell) >= cand[j]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    declared = cand
        elif cards_row == "yes":
            raise ParseError(f"{path}: cards row requested but second row is not all integers")
        if declared is not None:
            body = body[1:]

    kept = [row for row in body if not any(c in MISSING_TOKENS for c in row)]
    dropped = len(body) - len(kept)
    if dropped:
        logger.warning("%s: dropped %d row(s) with missing cells", path, dropped)
    if not kept:
        raise ParseError(f"{path}: no complete data rows")

    columns = list(zip(*kept))
    codes = np.empty((len(kept), p), dtype=np.int64)
    labels: dict[int, tuple[str, ...]] = {}
    for j, col in enumerate(columns):
        if all(_is_int(c) for c in col):
            codes[:, j] = [int(c) for c in col]
        else:
            seen: dict[str, int] = {}
            for c in col:
                if c not in seen:
                    seen[c] = len(seen)
            codes[:, j] = [seen[c] for c in col]
            labels[j] = tuple(seen)
    if codes.min() < 0:
        raise ParseError(f"{path}: negative category codes")

    if declared is not None:
        cards = declared
        for j in range(p):
            if codes[:, j].max() >= cards[j]:
                raise ParseError(
                    f"{path}: column {names[j]!r} has value {codes[:, j].max()} "
                    f">= declared cardinality {cards[j]}"
                )
    else:
        cards = [int(codes[:, j].max()) + 1 for j in range(p)]
        cards = [max(d, 2) for d in cards]
    for j in range(p):
        if len(np.unique(codes[:, j])) == 1:
            logger.warning(
                "%s: column %r is constant; inferred cardinality may understate it",
                path,
                names[j],
            )
    return Dataset(codes, StateSpace(cards), names=names, labels=labels or None)


def write_csv(data: Dataset, path, cards_row: bool = True) -> None:
    """Write a dataset with a names header and (by default) a cardinality row."""
    names = data.names or tuple(f"X{j}" for j in range(data.p))
    with open(path, "w", newline="") as fh:
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

    def total(self, var: int, context: Context) -> int:
        return int(self.counts(var, context).sum())

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

    def n(self) -> int:
        return int(self._tables[(0, ())].sum())


def build_count_table(
    data: Dataset,
    pp: Optional[PossibleParents] = None,
    beta: int = 2,
    max_cells: int = DEFAULT_MAX_CELLS,
    threads: int = 1,
) -> CountTable:
    """Tabulate N_isk for every variable and every context with S inside K_i,
    |S| <= beta.

    Raises ResourceCapError when the table would exceed ``max_cells``
    entries; the table size grows as O(p * C(|K|, beta) * d^beta) cells.
    """
    space = data.space
    if pp is None:
        pp = PossibleParents.full(space.p)
    if pp.p != space.p:
        raise ValidationError("possible-parent sets do not match the state space")

    jobs = []
    total_cells = 0
    for i in range(space.p):
        d_i = space.cards[i]
        for svars in _context_sets(pp, i, beta):
            n_cells = math.prod(space.cards[v] for v in svars)
            total_cells += n_cells * d_i
            jobs.append((i, svars, n_cells))
    if total_cells > max_cells:
        raise ResourceCapError(
            f"count table needs {total_cells} cells, above the cap {max_cells}; "
            "table size grows as O(p * C(|K|, beta) * d^beta), so reduce the "
            "possible-parent sets or beta"
        )

    rows = data.rows

    def run(job):
        i, svars, n_cells = job
        d_i = space.cards[i]
        code = np.zeros(rows.shape[0], dtype=np.int64)
        for v in svars:
            code = code * space.cards[v] + rows[:, v]
        flat = np.bincount(code * d_i + rows[:, i], minlength=n_cells * d_i)
        table = flat.reshape(n_cells, d_i)
        table.setflags(write=False)
        return (i, svars), table

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    return CountTable(space, pp, beta, dict(results))
