"""Dataset ingestion and sufficient statistics.

A ``Dataset`` owns a frozen copy of its rows and collapses identical rows
once, on first use, into its distinct rows (as narrow columns) and their
multiplicities.  Every count over the dataset reads that collapse, so each
distinct row is tabulated once with its multiplicity as a weight; counts
are integers below 2**53, so the float weights keep them exact.

The count table stores, for every variable i and every admissible context
x_S with S inside the possible-parent set K_i and |S| <= beta, the vector of
cell counts over the values of variable i.  The build runs on one thread.
It groups the variables by their largest context-variable sets S,
|S| = min(beta, |K_i|), computes the mixed-radix code of x_S over the
distinct rows once per S, and then makes one weighted ``bincount`` of
(code, x_i) per variable i that S serves.  Every smaller table is the sum
over axes of a largest table that contains it.  Tables are int64 and
immutable afterwards.  ``stage_counts`` tabulates the stages of a
staging over the same distinct rows.

``load_csv`` reads the file's bytes once.  A file whose header is a
quote-free first line and whose body holds only ASCII digits, commas and
line breaks is parsed by one ``np.loadtxt`` call into int64 rows.  Every
other file goes through ``csv.reader``, with each decision (integer
parsing, missing cells, the cardinality row, label codes) made once per
distinct label of a column rather than once per cell.  The cardinality-row
rule and the checks on the codes serve both paths.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .core import (
    Context,
    ParseError,
    PossibleParents,
    ResourceCapError,
    Staging,
    StateSpace,
    ValidationError,
    as_int,
    stage_ids,
)
from .enumeration import _check_beta

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("", "?", "NA")

DEFAULT_MAX_CELLS = 1 << 26

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of integer category codes plus its state space.

    The dataset owns its rows: they are copied at construction and frozen,
    so writing to the caller's array afterwards changes nothing here.  The
    distinct rows and their multiplicities are computed once, on first use,
    and shared by every count over this dataset.
    """

    rows: np.ndarray
    space: StateSpace
    names: Optional[tuple[str, ...]] = None
    labels: Optional[dict] = None

    def __init__(self, rows, space: StateSpace, names=None, labels=None):
        rows = np.asarray(rows)
        if rows.dtype.kind == "f" and not (np.isfinite(rows) & (np.trunc(rows) == rows)).all():
            raise ValidationError("rows must hold whole numbers")
        self._set(np.array(rows, dtype=np.int64, order="C"), space, names, labels)

    @classmethod
    def _adopt(cls, rows: np.ndarray, space: StateSpace, names=None, labels=None) -> "Dataset":
        """A dataset over ``rows``, an int64 array the library has just made
        and keeps no other reference to; it is frozen in place, not copied."""
        data = cls.__new__(cls)
        data._set(rows, space, names, labels)
        return data

    def _set(self, rows: np.ndarray, space: StateSpace, names, labels) -> None:
        if rows.ndim != 2:
            raise ValidationError("rows must be a 2-d array")
        n, p = rows.shape
        if n < 1:
            raise ValidationError("dataset needs at least one row")
        if p != space.p:
            raise ValidationError(f"rows have {p} columns, state space has {space.p}")
        lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
        for j, d in enumerate(space.cards):
            if lo[j] < 0 or hi[j] >= d:
                raise ValidationError(f"column {j} has values outside 0..{d - 1}")
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

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return _collapse(self.rows, self.space.cards)


def _collapse(rows: np.ndarray, cards) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` as contiguous columns (p x m) of the
    narrowest unsigned type that holds every code, and how often each row
    occurs (m,)."""
    narrow = np.ascontiguousarray(rows, dtype=np.min_scalar_type(max(cards) - 1))
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * rows.shape[1]))).ravel()
    _, first, weight = np.unique(keys, return_index=True, return_counts=True)
    return np.ascontiguousarray(narrow[first].T), weight


def _int_or_none(label: str) -> Optional[int]:
    try:
        return int(label)
    except ValueError:
        return None


def _text(raw: bytes) -> io.TextIOWrapper:
    """The file's bytes as UTF-8 text, decoded as read, with line endings
    left as they are for csv.reader."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _records(path, raw: bytes):
    """The non-blank records of a UTF-8 CSV file's bytes, as csv.reader
    splits them."""
    try:
        yield from (row for row in csv.reader(_text(raw)) if row)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _record_line(raw: bytes, record: int) -> int:
    """The file line on which non-blank CSV record ``record`` (0 is the
    header) ends; blank lines and quoted line breaks shift it."""
    reader = csv.reader(_text(raw))
    return next(islice((reader.line_num for row in reader if row), record, None))


def _split_header(raw: bytes) -> Optional[tuple[list[str], int]]:
    """The stripped header names and the offset at which the body starts,
    when the file's first line is its header record and holds no quote, so
    that splitting it on commas is what csv.reader does; None otherwise."""
    header = raw.split(b"\n", 1)[0].split(b"\r", 1)[0]
    if not header or b'"' in header:
        return None
    try:
        fields = header.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if max(map(len, fields)) > csv.field_size_limit():
        return None
    return [cell.strip() for cell in fields], len(header)


def _int_records(body: bytes, p: int) -> Optional[np.ndarray]:
    """The body's records as an int64 matrix, when every one has p cells,
    each a run of ASCII digits inside the int64 range; None otherwise.
    Anything that ``int()`` could read otherwise (a sign, whitespace, an
    underscore, a non-ASCII digit) or that is not an integer fails the
    byte check or the parse."""
    if body.translate(None, b"0123456789,\r\n") or not body.strip(b"\r\n"):
        return None
    try:
        records = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    return records if records.shape[1] == p else None


def _read_header(path, raw: bytes) -> list[str]:
    """The stripped names of the header record of a CSV file's bytes,
    parsed without the rows below it."""
    header = next(_records(path, raw), None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    return [cell.strip() for cell in header]


def _declared_cards(path, cards_row: str, head: list, rest_below) -> Optional[list[int]]:
    """The cardinalities the second record declares under the cards-row rule,
    or None.  ``head`` holds that record's integers (None for a cell that is
    not one); ``rest_below()`` tells whether later records exist and each of
    their integer cells lies below its column's head value."""
    if cards_row == "no":
        return None
    if None in head:
        if cards_row == "yes":
            raise ParseError(f"{path}: cards row requested but second row is not all integers")
        return None
    if cards_row == "yes" or (min(head) >= 2 and rest_below()):
        return head
    return None


def _label_codes(path, raw: bytes, cards_row: str):
    """The general path of ``load_csv``: names, codes, declared cardinalities
    and label table, with every per-cell decision (integer parsing, missing
    cells, the cardinality row, label codes) made once per distinct label of
    a column rather than once per cell."""
    table = list(_records(path, raw))
    if not table:
        raise ParseError(f"{path}: empty file")
    names = [cell.strip() for cell in table[0]]
    p = len(names)
    body = table[1:]
    for r, row in enumerate(body, start=1):
        if len(row) != p:
            raise ParseError(f"{path}: line {_record_line(raw, r)} has {len(row)} cells, expected {p}")
    if not body:
        raise ParseError(f"{path}: no complete data rows")

    # labels[j] lists column j's stripped labels, values[j] holds each
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

    head = [values[j][inverse[j, 0]] for j in range(p)]

    def rest_below():
        if inverse.shape[1] < 2:
            return False
        for j, d in enumerate(head):
            seen = np.flatnonzero(np.bincount(inverse[j, 1:], minlength=len(values[j])))
            if any(values[j][k] is not None and values[j][k] >= d for k in seen.tolist()):
                return False
        return True

    declared = _declared_cards(path, cards_row, head, rest_below)
    if declared is not None:
        inverse = inverse[:, 1:]

    missing = np.zeros(inverse.shape[1], dtype=bool)
    for j in range(p):
        missing |= np.array([s in MISSING_TOKENS for s in labels[j]])[inverse[j]]
    dropped = int(missing.sum())
    if dropped:
        logger.warning("%s: dropped %d row(s) with missing cells", path, dropped)
        inverse = inverse[:, ~missing]

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
    return names, codes, declared, label_map or None


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

    The file is read once, as bytes.  When the header is its first line and
    holds no quote, and the rest holds only ASCII digits, commas and line
    breaks and parses as int64 rows of the header's width, the rows come
    from one ``np.loadtxt`` call.  Any other file (labels, missing cells,
    signs, whitespace, quotes, ragged rows, values past int64) goes through
    ``csv.reader``.  Both paths give the same dataset or the same error.
    """
    if cards_row not in ("auto", "yes", "no"):
        raise ValidationError(f"cards_row must be auto/yes/no, got {cards_row!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_csv(path, raw, cards_row)


def _parse_csv(path, raw: bytes, cards_row: str) -> Dataset:
    """``load_csv`` on the file's bytes ``raw``, already read."""
    split = _split_header(raw)
    records = None if split is None else _int_records(raw[split[1]:], len(split[0]))
    if records is None:
        names, codes, declared, label_map = _label_codes(path, raw, cards_row)
    else:
        names, label_map = split[0], None
        declared = _declared_cards(
            path,
            cards_row,
            records[0].tolist(),
            lambda: len(records) > 1 and bool((records[1:] < records[0]).all()),
        )
        codes = records if declared is None else records[1:]

    if not len(codes):
        raise ParseError(f"{path}: no complete data rows")
    lo, hi = codes.min(axis=0).tolist(), codes.max(axis=0).tolist()
    if min(lo) < 0:
        raise ParseError(f"{path}: negative category codes")
    if declared is not None:
        cards = declared
        for j in range(len(names)):
            if hi[j] >= cards[j]:
                raise ParseError(
                    f"{path}: column {names[j]!r} has value {hi[j]} "
                    f">= declared cardinality {cards[j]}"
                )
    else:
        cards = [max(h + 1, 2) for h in hi]
    for j in range(len(names)):
        if lo[j] == hi[j]:
            logger.warning(
                "%s: column %r is constant; inferred cardinality may understate it",
                path,
                names[j],
            )
    return Dataset._adopt(codes, StateSpace(cards), names=names, labels=label_map)


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
    var = as_int("variable", var)
    if not 0 <= var < data.p:
        raise ValidationError(f"variable {var} out of range for p={data.p}")
    if var in context.vars:
        raise ValidationError(f"context conditions on the target variable {var}")
    context.check_in_space(data.space)
    mask = np.broadcast_to(context.mask(lambda v: data.rows[:, v]), data.n)
    return np.bincount(data.rows[mask, var], minlength=data.space.cards[var])


def stage_counts(data: Dataset, var: int, staging: Staging) -> np.ndarray:
    """The (stages x d_var) counts N_isk of ``var``'s values over the rows each
    stage holds; ``staging`` must partition its level, as in a ``CStree``."""
    d = data.space.cards[var]
    columns, weight = data._distinct
    ids = stage_ids(staging, columns.__getitem__, len(weight))
    code = ids * d + columns[var].astype(np.intp)
    counts = np.bincount(code, weights=weight, minlength=len(staging.stages) * d)
    # every count is an integer <= n < 2**53, so the float sums are exact
    return counts.astype(np.int64).reshape(-1, d)


def _context_sets(usable, beta: int):
    """The sets S inside ``usable`` with |S| <= beta, in table order."""
    for size in range(0, beta + 1):
        yield from combinations(sorted(usable), size)


def _row(tables: dict, space: StateSpace, var, context: Context, what: str):
    """The row of ``tables[(var, context.vars)]`` that holds ``context``, in
    the layout count and score tables share (see ``CountTable``)."""
    var = as_int("variable", var)
    context.check_in_space(space)
    try:
        table = tables[(var, context.vars)]
    except KeyError:
        raise ValidationError(f"no {what} for variable {var}, context {context}") from None
    code = 0
    for v, x in context.items:
        code = code * space.cards[v] + x
    return table[code]


class CountTable:
    """Counts N_isk for every (variable, admissible context) pair.

    One read-only int64 array per key (variable i, sorted S inside K_i,
    |S| <= beta), whose row r is the context with mixed-radix code r, first
    variable most significant, as in the score tables; lookups are O(|S|).
    """

    def __init__(self, space: StateSpace, pp: PossibleParents, beta: int, tables):
        self.space = space
        self.pp = pp
        self.beta = beta
        self._tables = tables

    def counts(self, var: int, context: Context) -> np.ndarray:
        return _row(self._tables, self.space, var, context, "counts")

    def tables(self, var: int):
        """Each count table of ``var`` as (S, (cells x d_var) counts) in table
        order, row r the context of S with mixed-radix code r."""
        for svars in _context_sets(self.pp[var], self.beta):
            yield svars, self._tables[(var, svars)]


def build_count_table(
    data: Dataset,
    pp: Optional[PossibleParents] = None,
    beta: int = 2,
    max_cells: int = DEFAULT_MAX_CELLS,
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
        for svars in _context_sets(pp[i], beta)
    )
    if total_cells > max_cells:
        raise ResourceCapError(
            f"count table needs {total_cells} cells, above the cap {max_cells}; "
            "table size grows as O(p * C(|K|, beta) * d^beta), so reduce the "
            "possible-parent sets or beta"
        )

    columns, weight = data._distinct
    columns, weight = columns.astype(np.int64), weight.astype(np.float64)

    # the targets i of each largest context-variable set S, |S| = min(beta, |K_i|)
    targets: dict[tuple, list[int]] = {}
    for i in range(space.p):
        for svars in combinations(sorted(pp[i]), min(beta, len(pp[i]))):
            targets.setdefault(svars, []).append(i)

    largest = {}
    code_i = np.empty(len(weight), dtype=np.int64)
    for svars, group in targets.items():
        # mixed-radix code of x_S, first variable most significant
        code, radix = 0, 1
        for v in svars:
            code = code * cards[v] + columns[v]
            radix *= cards[v]
        for i in group:
            # the code of (x_S, x_i), x_i least significant
            np.multiply(code, cards[i], out=code_i)
            code_i += columns[i]
            flat = np.bincount(code_i, weights=weight, minlength=radix * cards[i])
            # every count is an integer <= n < 2**53, so the float sums are exact
            shape = [cards[v] for v in svars] + [cards[i]]
            largest[(i, svars)] = flat.astype(np.int64).reshape(shape)

    tables = {}
    for i in range(space.p):
        k_i = sorted(pp[i])
        size = min(beta, len(k_i))
        for svars in _context_sets(pp[i], beta):
            fill = [v for v in k_i if v not in svars][: size - len(svars)]
            sup = tuple(sorted(svars + tuple(fill)))
            axes = tuple(pos for pos, v in enumerate(sup) if v not in svars)
            table = largest[(i, sup)].sum(axis=axes).reshape(-1, cards[i])
            table.setflags(write=False)
            tables[(i, svars)] = table
    return CountTable(space, pp, beta, tables)
