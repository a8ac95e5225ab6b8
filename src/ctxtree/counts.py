"""Dataset ingestion and sufficient statistics.

A ``Dataset`` owns a frozen copy of its rows and collapses identical rows
once, on first use, into its distinct rows (as narrow columns) and their
multiplicities.  While the product of the cardinalities is below 2**63 the
collapse packs each row into one int64 mixed-radix key, makes the keys
unique and decodes the columns with one ``divmod`` each; larger state
spaces make the rows unique as byte strings.  The count table and
``stage_counts`` weight each distinct row by its multiplicity (exact in
floats below 2**53); ``compute_counts`` masks the full rows.

The count table stores, for every variable i and every admissible context
x_S with S inside the possible-parent set K_i and |S| <= beta, the vector of
cell counts over the values of variable i.  The build runs on one thread.
One walk over the keys (i, S) sums the cells for the cap before any row is
collapsed.  Each variable's blocks are then K_i itself when its table, of
prod(d_v, v in K_i) * d_i cells, has no more cells than there are distinct
rows, and otherwise each subset of K_i of size min(beta, |K_i|).  The
mixed-radix code of x_B over the distinct rows is summed once per block B,
in int64 from the narrow columns, then one weighted ``bincount`` of (code,
x_i) per variable i it serves.  The block tables of one shape (the
cardinalities of B, then d_i) are the rows of one int64 stack, so the
tables come from one axis sum per (shape, kept positions of B) over the
whole stack, not one per (i, S).  Each table is a read-only row view of the
first such sum of i that holds S (the sums are of integers, so any would
do).

``load_csv`` reads the file's bytes once, less a leading byte-order mark.  A
file whose header is a quote-free first line and whose body holds only
ASCII digits, commas and line breaks is parsed in numpy, a block of whole
lines at a time: the cells end where a digit meets a separator, each row's
shape is checked from the separator bytes, and each cell's value is its
digits summed by place.  The blocks stay in narrow types until they are
joined into the int64 rows; one pass over the rows below the first then
decides the cardinality-row rule and gives the column ranges.  Every other
file goes through ``csv.reader``, with each decision (integer parsing,
missing cells, the cardinality row, label codes) made once per distinct
label of a column rather than once per cell.  The cardinality-row rule and
the checks on the codes serve both paths.  ``write_csv`` encodes the rows
as fixed-width digit cells in numpy, a block of rows at a time, and writes
each block's bytes with one call.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
import re
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

# Bytes ``load_csv``'s integer path reads per block, cut at a line break:
# a block's temporaries stay within a few megabytes whatever the file size.
_READ_BLOCK_BYTES = 1 << 16

_INT_BYTES = b"0123456789,\r\n"

_LINE_BREAK = re.compile(rb"[\r\n]")

# Cells ``write_csv`` encodes per write: a block's buffers stay within a
# few megabytes whatever the row count, and blocks from 1k to 16k rows of
# 20 cells write equally fast.
_WRITE_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of integer category codes plus its state space.

    The dataset owns its rows: they are copied at construction and frozen,
    so writing to the caller's array afterwards changes nothing here; the
    range check reads ``_column_bounds``, as ``load_csv``'s does.  The
    distinct rows and their multiplicities are computed once, on first use,
    and shared by every count over this dataset.
    """

    rows: np.ndarray
    space: StateSpace
    names: Optional[tuple[str, ...]] = None
    labels: Optional[dict] = None

    def __init__(self, rows, space: StateSpace, names=None, labels=None):
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iuf":
            raise ValidationError(f"rows must hold integers or whole-number floats, got dtype {rows.dtype}")
        if rows.dtype.kind == "f":
            # checked before the int64 cast, which warns on values past its
            # range; the bound is a float64, which float16 rows cannot overflow
            if not ((np.trunc(rows) == rows) & (abs(rows) < np.float64(2**63))).all():
                raise ValidationError("rows must hold whole numbers of magnitude below 2**63")
        self._set(np.array(rows, dtype=np.int64, order="C"), space, names, labels)

    @classmethod
    def _adopt(cls, rows: np.ndarray, space: StateSpace, names=None, labels=None, bounds=None) -> "Dataset":
        """A dataset over ``rows``, an int64 array the library has just made
        and keeps no other reference to; it is frozen in place, not copied.
        ``bounds``, when given, is each column's (minimum, maximum) as two
        lists, already found by the caller; the range check reads them."""
        data = cls.__new__(cls)
        data._set(rows, space, names, labels, bounds)
        return data

    def _set(self, rows: np.ndarray, space: StateSpace, names, labels, bounds=None) -> None:
        if rows.ndim != 2:
            raise ValidationError("rows must be a 2-d array")
        n, p = rows.shape
        if n < 1:
            raise ValidationError("dataset needs at least one row")
        if p != space.p:
            raise ValidationError(f"rows have {p} columns, state space has {space.p}")
        lo, hi = bounds or (b.tolist() for b in _column_bounds(rows))
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
    occurs (m,).

    While the product of the cardinalities is below 2**63, each row is one
    int64 mixed-radix key (column 0 most significant; every partial sum is
    below the product), the keys are made unique, and the columns are the
    keys' digits.  Otherwise the rows are made unique as byte strings of
    their narrow codes.  The rows come out in the same order either way
    when every code fits in one byte."""
    narrow_type = np.min_scalar_type(max(cards) - 1)
    if math.prod(cards) >= 1 << 63:
        narrow = np.ascontiguousarray(rows, dtype=narrow_type)
        keys = narrow.view(np.dtype((np.void, narrow.itemsize * rows.shape[1]))).ravel()
        _, first, weight = np.unique(keys, return_index=True, return_counts=True)
        return np.ascontiguousarray(narrow[first].T), weight
    place = np.array([math.prod(cards[j + 1 :]) for j in range(len(cards))], dtype=np.int64)
    keys, weight = np.unique(rows @ place, return_counts=True)
    columns = np.empty((len(cards), len(keys)), dtype=narrow_type)
    for j in range(len(cards) - 1, -1, -1):
        keys, columns[j] = np.divmod(keys, cards[j])
    return columns, weight


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
    found = _LINE_BREAK.search(raw)
    header = raw[: found.start() if found else len(raw)]
    if not header or b'"' in header:
        return None
    try:
        fields = header.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if max(map(len, fields)) > csv.field_size_limit():
        return None
    return [cell.strip() for cell in fields], len(header)


def _int_records(raw: bytes, start: int, p: int) -> Optional[np.ndarray]:
    """The records of the body ``raw[start:]`` as int64 rows, when there is
    one and every record has p cells, each a run of at most 19 ASCII digits
    that is at most 2**63 - 1; None otherwise.  The body, when there is one,
    starts with a line break.

    The body is read in numpy blocks of whole lines, views of ``raw``, each
    cut at the first line break at or after ``_READ_BLOCK_BYTES`` from its
    start, and the blocks are joined straight into int64.  Runs of CR and LF
    are blank lines and are skipped, as csv.reader skips them.  Anything
    that ``int()`` could read otherwise (a sign, whitespace, an underscore,
    a non-ASCII digit), an empty cell, a ragged row, a value past the int64
    range or a cell of 20 or more digits gives None."""
    if start == len(raw) or len(raw.translate(None, _INT_BYTES)) != len(raw[:start].translate(None, _INT_BYTES)):
        return None
    whole = np.frombuffer(raw, dtype=np.uint8)
    blocks = []
    while start < len(raw):
        found = _LINE_BREAK.search(raw, start + _READ_BLOCK_BYTES)
        if found:
            # the block ends with the break the next block starts with
            end = found.start()
            block = whole[start : end + 1]
        else:
            end = len(raw)
            block = np.frombuffer(raw[start:] + b"\n", dtype=np.uint8)
        values = _int_block(block, p)
        if values is None:
            return None
        blocks.append(values)
        start = end
    rows = np.concatenate(blocks, dtype=np.int64)
    return rows if len(rows) else None


def _int_block(block: np.ndarray, p: int) -> Optional[np.ndarray]:
    """The rows of ``block``, bytes that hold only ASCII digits, commas and
    line breaks and that start and end with a line break, in the narrowest
    unsigned type that holds them; None unless every row has p cells of 1
    to 19 digits, each at most 2**63 - 1."""
    digit = block > 47
    comma = block == 44
    # the last digit of each cell
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    rows, extra = divmod(len(ends), p)
    commas = np.count_nonzero(comma)
    if extra or commas != rows * (p - 1):
        return None
    # every comma sits between two digits, so it ends one cell and starts
    # the next; with rows * (p - 1) commas and none after a row's last
    # cell, every row has p cells
    cells = ends.reshape(rows, p)
    between = np.count_nonzero(comma[1:-1] & digit[:-2] & digit[2:])
    if between != commas or (block[1:][cells[:, -1]] == 44).any():
        return None
    values = block[ends] - np.uint8(48)
    if np.count_nonzero(digit) > len(ends):
        # one Horner step per further digit; ``going`` marks the cells that
        # have one at ``at``.  A cell that has ended may read a byte of the
        # block's end through a negative index, which ``going`` masks
        at, going, place = ends - 1, digit[ends - 1], 10
        while going.any():
            if place == 10**19:
                return None
            dtype = np.min_scalar_type(10 * place - 1)
            digits = np.where(going, block[at] - np.uint8(48), np.uint8(0)).astype(dtype)
            values = digits * dtype.type(place) + values
            at, place = at - 1, 10 * place
            going &= digit[at]
        # 19 digits stay below 2**64 in uint64, but may pass the int64 range
        if place == 10**19 and values.max() > _INT64.max:
            return None
    return values.reshape(rows, p)


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

    The file is read once, as bytes, and one leading UTF-8 byte-order mark
    is skipped.  When the header is its first line and holds no quote, and
    every later line is blank or holds as many cells as the header, each a
    run of at most 19 ASCII digits whose value is at most 2**63 - 1, the
    rows are parsed from the bytes in numpy blocks of whole lines.  Any
    other file (labels, missing cells, signs, whitespace, quotes, ragged
    rows, longer or larger numbers) goes through ``csv.reader``.  Both
    paths give the same dataset or the same error.
    """
    if cards_row not in ("auto", "yes", "no"):
        raise ValidationError(f"cards_row must be auto/yes/no, got {cards_row!r}")
    return _parse_csv(path, _read_bytes(path), cards_row)


def _read_bytes(path) -> bytes:
    """A CSV file's bytes, less one leading UTF-8 byte-order mark, which
    would otherwise start the first name."""
    with open(path, "rb") as fh:
        return fh.read().removeprefix(codecs.BOM_UTF8)


def _parse_csv(path, raw: bytes, cards_row: str) -> Dataset:
    """``load_csv`` on the file's bytes ``raw``, already read."""
    split = _split_header(raw)
    records = None if split is None else _int_records(raw, split[1], len(split[0]))
    if records is None:
        names, codes, declared, label_map = _label_codes(path, raw, cards_row)
        bounds = _column_bounds(codes)
    else:
        # one pass over the rows below the first decides the cards-row rule
        # and gives the column ranges, with the first row when it is data
        names, label_map = split[0], None
        head, codes = records[0], records[1:]
        # with no rows below, the head's own range holds no value below it
        bounds = _column_bounds(codes) or (head, head)
        declared = _declared_cards(path, cards_row, head.tolist(), lambda: bool((bounds[1] < head).all()))
        if declared is None:
            codes = records
            bounds = np.minimum(bounds[0], head), np.maximum(bounds[1], head)

    if not len(codes):
        raise ParseError(f"{path}: no complete data rows")
    lo, hi = bounds[0].tolist(), bounds[1].tolist()
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
    return Dataset._adopt(codes, StateSpace(cards), names=names, labels=label_map, bounds=(lo, hi))


def _column_bounds(codes: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Each column's minimum and maximum, or None for no rows."""
    if not len(codes):
        return None
    top = len(codes) - len(codes) % 64
    if top:
        # whole groups of 64 rows, reduced as one long row each, which numpy
        # does far faster than a column at a time; a group's minima and
        # maxima stand in for its rows
        wide = codes[:top].reshape(-1, 64 * codes.shape[1])
        lows, highs = (f(wide, axis=0).reshape(64, -1) for f in (np.min, np.max))
        codes = np.concatenate([lows, highs, codes[top:]])
    return codes.min(axis=0), codes.max(axis=0)


def write_csv(data: Dataset, path, cards_row: bool = True) -> None:
    """Write a dataset as a UTF-8 CSV file.

    The file holds the names header (``X0``, ``X1``, ... when the dataset
    has none) and, when ``cards_row`` is true, the cardinality row, both as
    ``csv.writer`` quotes them; then one line per row of decimal category
    codes joined by commas (labels are not written).  Every line ends in
    ``\\r\\n``.
    """
    names = data.names or tuple(f"X{j}" for j in range(data.p))
    head = io.StringIO()
    writer = csv.writer(head)
    writer.writerow(names)
    if cards_row:
        writer.writerow(data.space.cards)
    top = int(data.rows.max())
    width, narrow = len(str(top)), np.min_scalar_type(top)
    step = max(1, _WRITE_BLOCK_CELLS // data.p)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for start in range(0, data.n, step):
            fh.write(_encode_rows(data.rows[start : start + step].astype(narrow), width))


def _encode_rows(block: np.ndarray, width: int) -> bytes:
    """The CSV lines of ``block``'s non-negative codes, none wider than
    ``width`` digits.  Each code gets a fixed cell of ``width`` digits and a
    comma, with NUL bytes in place of leading zeros; the last comma of a
    line is followed by a line feed and becomes a carriage return, and the
    NUL bytes are then deleted."""
    m, p = block.shape
    lines = np.empty((m, p * (width + 1) + 1), dtype=np.uint8)
    cells = lines[:, :-1].reshape(m, p, width + 1)
    cells[..., width] = ord(",")
    lines[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    for e in range(width):
        place = 10**e
        digit = block // place % 10
        digit += ord("0")
        if e:
            digit[block < place] = 0
        cells[..., width - 1 - e] = digit
    return lines.tobytes().translate(None, b"\0")


def _check_target(space: StateSpace, var, context: Context) -> int:
    """``var`` as an int, once it is a variable of ``space`` and ``context``
    is a context in ``space`` that does not condition on it."""
    var = as_int("variable", var)
    if not 0 <= var < space.p:
        raise ValidationError(f"variable {var} out of range for p={space.p}")
    if var in context.vars:
        raise ValidationError(f"context conditions on the target variable {var}")
    context.check_in_space(space)
    return var


def compute_counts(data: Dataset, var: int, context: Context) -> np.ndarray:
    """N_isk for k = 0..d_i-1: rows matching ``context`` with row[var] = k."""
    var = _check_target(data.space, var, context)
    mask = np.broadcast_to(context.mask(lambda v: data.rows[:, v]), data.n)
    return np.bincount(data.rows[mask, var], minlength=data.space.cards[var])


def stage_counts(data: Dataset, var: int, staging: Staging) -> np.ndarray:
    """The (stages x d_var) counts N_isk of ``var``'s values over the rows each
    stage holds; ``staging`` must partition its level, as in a ``CStree``."""
    d = data.space.cards[var]
    columns, weight = data._distinct
    # widened first: narrow ids times d can pass their type's range
    code = stage_ids(staging, columns.__getitem__).astype(np.intp) * d + columns[var]
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
    weight = weight.astype(np.float64)

    # the targets i of each block: K_i itself when its table has no more
    # cells than there are distinct rows, else each min(beta, |K_i|)-subset
    targets: dict[tuple, list[int]] = {}
    for i in range(space.p):
        family = tuple(sorted(pp[i]))
        if math.prod(cards[v] for v in family) * cards[i] <= len(weight):
            blocks = [family]
        else:
            blocks = combinations(family, min(beta, len(family)))
        for svars in blocks:
            targets.setdefault(svars, []).append(i)

    # the block tables of one shape (the block's cardinalities, then d_i)
    # are the rows of one stack; ``slots`` holds each row's cells flat
    members: dict[tuple, list[tuple]] = {}
    for sup, group in targets.items():
        for i in group:
            members.setdefault((*(cards[v] for v in sup), cards[i]), []).append((i, sup))
    stacks, slots = {}, {}
    for shape, keys in members.items():
        stacks[shape] = np.empty((len(keys), *shape), dtype=np.int64)
        slots.update(zip(keys, stacks[shape].reshape(len(keys), -1)))

    code_i = np.empty(len(weight), dtype=np.int64)
    for sup, group in targets.items():
        # mixed-radix code of x_B, first variable most significant, summed
        # in int64 from the narrow columns
        code, radix = np.zeros(len(weight), dtype=np.int64), 1
        for v in sup:
            code *= cards[v]
            code += columns[v]
            radix *= cards[v]
        for i in group:
            # the code of (x_B, x_i), x_i least significant
            np.multiply(code, cards[i], out=code_i)
            code_i += columns[i]
            # every count is an integer <= n < 2**53, so the float sums are exact
            slots[(i, sup)][:] = np.bincount(code_i, weights=weight, minlength=radix * cards[i])

    # one axis sum per (shape, kept block positions) gives those tables for
    # every row of the stack; a table is the first such row of i that holds S
    tables = {}
    for shape, keys in members.items():
        stack, m = stacks[shape], len(shape) - 1
        stack.setflags(write=False)
        for size in range(min(beta, m) + 1):
            for kept in combinations(range(m), size):
                axes = tuple(1 + k for k in range(m) if k not in kept)
                summed = stack.sum(axis=axes) if axes else stack
                summed.setflags(write=False)
                for (i, sup), table in zip(keys, summed.reshape(len(keys), -1, shape[-1])):
                    tables.setdefault((i, tuple([sup[k] for k in kept])), table)
    return CountTable(space, pp, beta, tables)
