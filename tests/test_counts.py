import codecs
import csv
import importlib
import logging
import math
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxtree import (
    Context,
    Dataset,
    ParseError,
    PossibleParents,
    PriorSpec,
    ResourceCapError,
    StateSpace,
    UnsupportedBoundError,
    ValidationError,
    build_count_table,
    compute_counts,
    load_csv,
    log_marginal_likelihood,
    random_cstree,
    write_csv,
)
from ctxtree.counts import _WRITE_BLOCK_CELLS, _collapse, _int_records, _split_header, stage_counts
from oracles import (
    cellwise_load_csv,
    csv_module_write_csv,
    per_key_table_cells,
    per_set_count_tables,
    table_contexts,
    void_key_collapse,
)

counts_module = importlib.import_module("ctxtree.counts")


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_declared_cards(tmp_path):
    path = write(tmp_path, "a,b\n2,2\n0,1\n1,0\n")
    data = load_csv(path)
    assert (data.n, data.p) == (2, 2)
    assert data.space.cards == (2, 2)
    assert data.names == ("a", "b")


def test_load_declared_cards_explicit(tmp_path):
    # all values below the declared bound, so auto and yes agree
    path = write(tmp_path, "a,b\n3,2\n0,1\n2,0\n")
    assert load_csv(path, cards_row="yes").space.cards == (3, 2)
    assert load_csv(path, cards_row="auto").space.cards == (3, 2)
    # with cards_row=no the first body row is data
    data = load_csv(path, cards_row="no")
    assert data.n == 3
    assert data.space.cards == (4, 3)


def test_load_inferred_cards(tmp_path):
    path = write(tmp_path, "a,b\n0,1\n1,2\n1,0\n")
    data = load_csv(path)
    assert data.space.cards == (2, 3)
    assert data.n == 3


def test_load_auto_not_fooled_by_data_row(tmp_path):
    # second row (2,2) cannot be a declaration: later values reach 2
    path = write(tmp_path, "a,b\n2,2\n2,1\n0,2\n")
    data = load_csv(path)
    assert data.n == 3
    assert data.space.cards == (3, 3)


def test_load_missing_rows_dropped(tmp_path, caplog):
    path = write(tmp_path, "a,b\n0,1\n,1\n1,?\n1,0\nNA,0\n")
    with caplog.at_level(logging.WARNING):
        data = load_csv(path)
    assert data.n == 2
    assert any("dropped 3 row" in m for m in caplog.messages)


def test_load_label_mapping(tmp_path):
    path = write(tmp_path, "color,size\nred,0\nblue,1\nred,0\ngreen,1\n")
    data = load_csv(path)
    assert data.labels == {0: ("red", "blue", "green")}
    assert data.rows[:, 0].tolist() == [0, 1, 0, 2]
    assert data.space.cards == (3, 2)


@pytest.mark.parametrize(
    "body, fast",
    [("0,1\r\n1,0\r\n1,1\r\n", True), ("red,0\nblue,1\nred,1\n", False)],
    ids=["int-path", "csv-reader-path"],
)
def test_load_skips_one_byte_order_mark(tmp_path, body, fast):
    raw = ("a,b\r\n" + body).encode()
    names, start = _split_header(raw)
    assert (_int_records(raw, start, len(names)) is not None) == fast
    (tmp_path / "plain.csv").write_bytes(raw)
    (tmp_path / "bom.csv").write_bytes(codecs.BOM_UTF8 + raw)
    (tmp_path / "bom2.csv").write_bytes(codecs.BOM_UTF8 * 2 + raw)
    want, got = load_csv(tmp_path / "plain.csv"), load_csv(tmp_path / "bom.csv")
    assert got.names == want.names == ("a", "b")
    assert np.array_equal(got.rows, want.rows)
    assert (got.space.cards, got.labels) == (want.space.cards, want.labels)
    # only one mark is skipped
    assert load_csv(tmp_path / "bom2.csv").names == ("\ufeffa", "b")


def test_load_errors(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, ""))
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n0,1\n0\n"))
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n2,2\n0,5\n1,0\n", "bad.csv"), cards_row="yes")
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n,\n?,NA\n"))
    # a ragged row is named by the file line it starts on
    with pytest.raises(ParseError, match="line 5 has 1 cells, expected 2"):
        load_csv(write(tmp_path, "a,b\n\n\n0,1\n0\n"))
    with pytest.raises(ParseError, match="line 5 has 1 cells, expected 2"):
        load_csv(write(tmp_path, 'a,b\n"x\ny",1\n\n0\n'))


def test_load_integer_outside_int64(tmp_path):
    # auto mode takes the second row as data: 2 is not above the later 2
    for value in ("99999999999999999999", "-99999999999999999999"):
        path = write(tmp_path, f"a,b\n2,2\n0,1\n{value},2\n")
        for mode in ("auto", "no"):
            with pytest.raises(ParseError, match="column 'a'"):
                load_csv(path, cards_row=mode)
    # the same value among labels is a label
    data = load_csv(write(tmp_path, "a\nx\n99999999999999999999\n"))
    assert data.labels == {0: ("x", "99999999999999999999")}


def test_load_unreadable_text(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b\n0,1\n\xff\xfe,0\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)
    # a field longer than the csv module's limit
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a\n" + "1" * 200_000 + "\n"))


def test_load_unsplittable_header(tmp_path):
    # a header the integer path cannot split is left to csv.reader
    path = tmp_path / "d.csv"
    path.write_bytes(b"a\xff,b\n0,1\n")
    assert _split_header(path.read_bytes()) is None
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_csv(path)
    raw = b"a" * (csv.field_size_limit() + 1) + b",b\n0,1\n"
    path.write_bytes(raw)
    assert _split_header(raw) is None
    with pytest.raises(ParseError, match="field larger than field limit"):
        load_csv(path)


def test_load_constant_column_warns(tmp_path, caplog):
    path = write(tmp_path, "a,b\n0,1\n0,0\n")
    with caplog.at_level(logging.WARNING):
        data = load_csv(path)
    assert data.space.cards == (2, 2)
    assert any("constant" in m for m in caplog.messages)
    # a declared cardinality is not inferred, so there is nothing to warn of
    caplog.clear()
    path = write(tmp_path, "a,b\n3,2\n0,1\n0,0\n", name="declared.csv")
    with caplog.at_level(logging.WARNING):
        data = load_csv(path)
    assert data.space.cards == (3, 2)
    assert not any("constant" in m for m in caplog.messages)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    multi_digit = StateSpace([11, 257, 2])
    for data in (
        Dataset(np.array([[0, 2], [1, 0]]), StateSpace([2, 3]), names=("u", "v")),
        Dataset(rng.integers(0, multi_digit.cards, size=(300, 3)), multi_digit, names=("u", "v", "w")),
    ):
        path = tmp_path / "out.csv"
        write_csv(data, path)
        again = load_csv(path)
        assert again.space.cards == data.space.cards
        assert np.array_equal(again.rows, data.rows)
        assert again.names == data.names


def test_dataset_leaves_caller_array_writable():
    rows = np.zeros((4, 2), dtype=np.int64)
    data = Dataset(rows, StateSpace([2, 2]))
    assert rows.flags.writeable
    assert not data.rows.flags.writeable
    with pytest.raises(ValueError):
        data.rows[0, 0] = 1


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((0, 2), dtype=int), StateSpace([2, 2]))
    with pytest.raises(ValidationError):
        Dataset(np.array([[0, 3]]), StateSpace([2, 2]))
    for bad in (0.7, 1.2, np.nan, np.inf):
        with pytest.raises(ValidationError, match="whole numbers"):
            Dataset(np.array([[bad, 1.0], [1.0, 0.0]]), StateSpace([2, 2]))
    # past the int64 range: rejected before the cast, so no cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1e300, 2.0**63, -1e19):
            with pytest.raises(ValidationError, match="whole numbers of magnitude below 2\\*\\*63"):
                Dataset(np.array([[bad, 0]]), StateSpace([2, 2]))
    data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), StateSpace([2, 2]))
    assert data.rows.dtype == np.int64 and data.rows.tolist() == [[0, 1], [1, 0]]
    for dtype in (np.uint8, np.int16, np.float32):
        assert Dataset(np.array([[0, 1], [1, 0]], dtype=dtype), StateSpace([2, 2])).rows.tolist() == [[0, 1], [1, 0]]
    # as for scalars (``as_int``), bools, strings and complex numbers are not codes
    for bad in (
        np.array([[False, True], [True, False]]),
        np.array([["0", "1"], ["1", "0"]]),
        np.array([[0j, 1 + 0j], [1 + 1j, 0j]]),
        np.array([[0, 1], [1, 0]], dtype=object),
    ):
        with pytest.raises(ValidationError, match=f"integers or whole-number floats, got dtype {bad.dtype}"):
            Dataset(bad, StateSpace([2, 2]))


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_dataset_rejects_an_out_of_range_cell_anywhere(n, dtype):
    # the column bounds reduce whole groups of 64 rows, then the tail
    cards = [2, 3, 4]
    rng = np.random.default_rng(n)
    rows = np.column_stack([rng.integers(0, d, size=n) for d in cards])
    assert Dataset(rows.astype(dtype), StateSpace(cards)).rows.tolist() == rows.tolist()
    top = n - n % 64
    # the first group, the last full group and the tail, where there are such
    for r in {0, top - 1, n - 1} - {-1}:
        for j, d in enumerate(cards):
            for bad in (-1, d):
                broken = rows.copy()
                broken[r, j] = bad
                with pytest.raises(ValidationError, match=f"column {j} has values outside 0..{d - 1}"):
                    Dataset(broken.astype(dtype), StateSpace(cards))


def test_compute_counts_marginal():
    data = Dataset(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), StateSpace([2, 2]))
    assert compute_counts(data, 0, Context()).tolist() == [2, 2]
    assert compute_counts(data, 0, Context()).sum() == data.n


def test_compute_counts_conditional():
    # rows 00,01,10,11; second variable given first = 0
    data = Dataset(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), StateSpace([2, 2]))
    assert compute_counts(data, 1, Context({0: 0})).tolist() == [1, 1]


def test_compute_counts_no_match():
    data = Dataset(np.array([[0, 0], [0, 1]]), StateSpace([2, 2]))
    assert compute_counts(data, 1, Context({0: 1})).tolist() == [0, 0]
    with pytest.raises(ValidationError):
        compute_counts(data, 0, Context({0: 0}))


@pytest.mark.parametrize("var", [-1, True, 0.0, 2])
def test_compute_counts_rejects_bad_variable(var):
    data = Dataset(np.array([[0, 0], [0, 1], [1, 1]]), StateSpace([2, 2]))
    with pytest.raises(ValidationError):
        compute_counts(data, var, Context())


def test_table_beta0_has_only_marginals():
    rng = np.random.default_rng(0)
    data = Dataset(rng.integers(0, 2, size=(50, 3)), StateSpace([2, 2, 2]))
    table = build_count_table(data, beta=0)
    for i in range(3):
        assert [svars for svars, _ in table.tables(i)] == [()]
        assert table.counts(i, Context()).sum() == 50
        with pytest.raises(ValidationError):
            table.counts(i, Context({(i + 1) % 3: 0}))


def test_table_context_key_count():
    rng = np.random.default_rng(1)
    data = Dataset(rng.integers(0, 2, size=(40, 3)), StateSpace([2, 2, 2]))
    table = build_count_table(data, beta=2)
    for i in range(3):
        # 1 empty + 2 vars * 2 values + 1 pair * 4 cells
        assert sum(len(t) for _, t in table.tables(i)) == 9
        contexts = list(table_contexts(data.space.cards, table.pp[i], table.beta))
        assert len(contexts) == 9
        # each of the 4 context-variable sets splits the 40 rows
        assert sum(table.counts(i, Context(c)).sum() for c in contexts) == 4 * 40


def test_table_marginalization_identity():
    rng = np.random.default_rng(2)
    data = Dataset(rng.integers(0, 3, size=(200, 3)), StateSpace([3, 3, 3]))
    table = build_count_table(data, beta=2)
    base = table.counts(0, Context({1: 1}))
    sliced = sum(table.counts(0, Context({1: 1, 2: x})) for x in range(3))
    assert np.array_equal(base, sliced)
    marginal = table.counts(0, Context())
    assert np.array_equal(marginal, sum(table.counts(0, Context({1: x})) for x in range(3)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_table_row_order_invariance(seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(30, 3))
    space = StateSpace([2, 2, 2])
    table = build_count_table(Dataset(rows, space), beta=2)
    shuffled = rows[rng.permutation(30)]
    table2 = build_count_table(Dataset(shuffled, space), beta=2)
    for i in range(3):
        for items in table_contexts(space.cards, table.pp[i], table.beta):
            ctx = Context(items)
            assert np.array_equal(table.counts(i, ctx), table2.counts(i, ctx))


@pytest.mark.parametrize("module", ["concurrent.futures", "scipy"])
def test_import_starts_no_thread_pool(module, child_env):
    # the count table is built on one thread, so importing the package
    # loads no executor machinery; numpy is its only runtime dependency,
    # so it loads no scipy either
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, ctxtree; print({module!r} in sys.modules)"],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_table_memory_cap():
    rng = np.random.default_rng(4)
    data = Dataset(rng.integers(0, 2, size=(10, 6)), StateSpace([2] * 6))
    with pytest.raises(ResourceCapError):
        build_count_table(data, beta=2, max_cells=10)


def test_table_rejects_beta_before_sizing():
    rng = np.random.default_rng(6)
    data = Dataset(rng.integers(0, 2, size=(10, 3)), StateSpace([2] * 3))
    with pytest.raises(ValidationError, match="nonnegative"):
        build_count_table(data, beta=-1)
    # full K at p=100 would need far more cells than the cap at beta=3
    data = Dataset(rng.integers(0, 2, size=(10, 100)), StateSpace([2] * 100))
    with pytest.raises(UnsupportedBoundError):
        build_count_table(data, beta=3)


def test_table_missing_entry_error():
    rng = np.random.default_rng(5)
    data = Dataset(rng.integers(0, 2, size=(10, 3)), StateSpace([2] * 3))
    table = build_count_table(data, PossibleParents([{1}, {0}, {0}]), beta=1)
    with pytest.raises(ValidationError):
        table.counts(0, Context({2: 0}))
    # a variable index must be an integer, not a bool or a float
    for var in (True, 0.0, 1.0):
        with pytest.raises(ValidationError, match="must be an integer"):
            table.counts(var, Context())
    # out-of-range context values raise rather than reading another cell
    table = build_count_table(Dataset(rng.integers(0, 3, size=(30, 3)), StateSpace([3] * 3)), beta=2)
    for context in ({1: 0, 2: 4}, {1: -1}, {1: 7}, {3: 0}):
        with pytest.raises(ValidationError, match="out of range"):
            table.counts(0, Context(context))


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _load_logged(loader, logger_name, path, cards_row):
    """The loaded dataset, or the type of the error it raised, and the
    warnings it logged."""
    handler = _Warnings()
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return loader(path, cards_row=cards_row), handler.messages
    except (ParseError, ValidationError) as exc:
        return type(exc), handler.messages
    finally:
        logger.removeHandler(handler)


CELL_TOKENS = {
    "int": ["0", "1", "2", "3"],
    "label": ["red", "blue", "a b", "x,y", 'q"t', "l\nm", "\x00", "n\x00"],
    "mixed": ["0", "1", "01", "+1", "-1", "green", "1.0"],
}


@st.composite
def csv_texts(draw):
    p = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_TOKENS)), min_size=p, max_size=p))

    def cell(token):
        pad = st.sampled_from(["", " ", "\t"])
        token = draw(pad) + token + draw(pad)
        if draw(st.booleans()) or any(c in token for c in ',"\n'):
            return '"' + token.replace('"', '""') + '"'
        return token

    def data_cell(kind):
        if draw(st.integers(0, 7)) == 0:
            return cell(draw(st.sampled_from(["", "?", "NA"])))
        return cell(draw(st.sampled_from(CELL_TOKENS[kind])))

    lines = [",".join(cell(f"c{j}") for j in range(p))]
    cards = draw(st.sampled_from(["absent", "good", "bad"]))
    if cards == "good":
        lines.append(",".join(cell(str(draw(st.integers(2, 5)))) for _ in range(p)))
    elif cards == "bad":
        pool = ["1", "2", "3", "x", "NA", "", "-2"]
        lines.append(",".join(cell(draw(st.sampled_from(pool))) for _ in range(p)))
    for _ in range(draw(st.integers(0, 8))):
        width = p + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 15)) == 0 else 0)
        lines.append(",".join(data_cell(kinds[j % p]) for j in range(width)))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@given(csv_texts())
# only the first row after a would-be cards row breaks its bound
@example("c0\n2\n2\n0\n")
@settings(max_examples=300, deadline=None)
def test_load_matches_cellwise_oracle(tmp_path_factory, text):
    _assert_loads_as_oracle(tmp_path_factory, text)


def _assert_loads_as_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for mode in ("auto", "yes", "no"):
        got, got_log = _load_logged(load_csv, "ctxtree.counts", path, mode)
        want, want_log = _load_logged(cellwise_load_csv, "oracles", path, mode)
        assert got_log == want_log
        if isinstance(want, type):
            assert got is want
            continue
        assert isinstance(got, Dataset)
        assert got.rows.dtype == np.int64
        assert np.array_equal(got.rows, want.rows)
        assert got.space.cards == want.space.cards
        assert got.names == want.names
        assert got.labels == want.labels


@st.composite
def count_problems(draw):
    p = draw(st.integers(1, 5))
    cards = draw(st.lists(st.integers(2, 4), min_size=p, max_size=p))
    n = draw(st.integers(1, 40))
    rows = np.array(
        [[draw(st.integers(0, d - 1)) for d in cards] for _ in range(n)], dtype=np.int64
    ).reshape(n, p)
    sets = [
        draw(st.sets(st.sampled_from([j for j in range(p) if j != i]), max_size=3))
        if p > 1
        else set()
        for i in range(p)
    ]
    return Dataset(rows, StateSpace(cards)), PossibleParents(sets), draw(st.integers(0, 2))


def shared_set_problem(beta):
    """Variables 0 and 1, of cardinalities 3 and 2, share the context set
    {2, 3}; variable 2 has |K_2| = 3 and variable 3 an empty K_3."""
    cards = (3, 2, 4, 2)
    rows = np.random.default_rng(9).integers(0, cards, size=(9, 4))
    pp = PossibleParents([{2, 3}, {2, 3}, {0, 1, 3}, set()])
    return Dataset(rows, StateSpace(cards)), pp, beta


def block_rule_problem(beta):
    """Variable 0's whole family {1, 3, 4} (2 * 4 * 2 * 2 = 32 cells) fits
    within the distinct rows, so it is counted as one block; variable 1's
    {2, 3, 4} (4 * 4 * 2 * 2 = 64 cells) and variable 4's {0, 1, 2, 3}
    (128 cells) do not, so they are counted in subsets of size beta;
    variable 2 has |K_2| = 1 and variable 3 an empty K_3."""
    cards = (2, 2, 4, 4, 2)
    rows = np.random.default_rng(3).integers(0, cards, size=(60, 5))
    m = len(np.unique(rows, axis=0))
    assert 32 <= m < 64
    pp = PossibleParents([{1, 3, 4}, {2, 3, 4}, {0}, set(), {0, 1, 2, 3}])
    return Dataset(rows, StateSpace(cards)), pp, beta


@given(count_problems())
@example(shared_set_problem(0))
@example(shared_set_problem(1))
@example(shared_set_problem(2))
@example(block_rule_problem(0))
@example(block_rule_problem(1))
@example(block_rule_problem(2))
@settings(max_examples=200, deadline=None)
def test_table_matches_per_set_oracle(problem):
    data, pp, beta = problem
    want = per_set_count_tables(data, pp, beta)
    table = build_count_table(data, pp, beta)
    got = {(i, svars): t for i in range(data.p) for svars, t in table.tables(i)}
    assert got.keys() == want.keys()
    for key, t in got.items():
        assert t.dtype == np.int64
        assert not t.flags.writeable
        assert np.array_equal(t, want[key])


def test_table_cap_checked_before_collapse(monkeypatch):
    counts_module = importlib.import_module("ctxtree.counts")
    collapse, calls = counts_module._collapse, []

    def counted(rows, cards):
        calls.append(rows.shape)
        return collapse(rows, cards)

    monkeypatch.setattr(counts_module, "_collapse", counted)
    data = Dataset(np.random.default_rng(4).integers(0, 2, size=(10, 6)), StateSpace([2] * 6))
    with pytest.raises(ResourceCapError, match="above the cap 10"):
        build_count_table(data, beta=2, max_cells=10)
    assert calls == []
    build_count_table(data, beta=2)
    assert calls == [(10, 6)]


@pytest.mark.parametrize("beta", [0, 1, 2])
def test_table_cap_exact_boundary(beta):
    # mixed cardinalities and |K_i| from 0 to 3, so some K_i are smaller
    # than beta: the closed form's total is the per-key walk's, a table of
    # exactly the cap is built and one cell more is refused
    cards = [2, 3, 4, 2, 3]
    pp = PossibleParents([set(), {2}, {0, 1}, {0, 2, 4}, {1, 2, 3}])
    data = Dataset(np.random.default_rng(29).integers(0, cards, size=(40, 5)), StateSpace(cards))
    total = per_key_table_cells(data.space, pp, beta)
    table = build_count_table(data, pp, beta, max_cells=total)
    assert sum(t.size for i in range(5) for _, t in table.tables(i)) == total
    with pytest.raises(ResourceCapError, match=f"needs {total} cells, above the cap {total - 1};"):
        build_count_table(data, pp, beta, max_cells=total - 1)


@settings(max_examples=40, deadline=None)
@given(
    cards=st.lists(st.integers(2, 5), min_size=1, max_size=9),
    beta=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_cap_total_matches_per_key_walk(cards, beta, seed):
    # the cap is checked before any row is counted, so max_cells=0 reports
    # the closed form's total alone
    rng = np.random.default_rng(seed)
    p = len(cards)
    pp = PossibleParents([{j for j in range(p) if j != i and rng.random() < 0.6} for i in range(p)])
    data = Dataset(np.zeros((1, p), dtype=np.int64), StateSpace(cards))
    total = per_key_table_cells(data.space, pp, beta)
    with pytest.raises(ResourceCapError, match=f"needs {total} cells,"):
        build_count_table(data, pp, beta, max_cells=0)


def boundary_problem(side):
    """Rows whose cardinalities multiply to just below (side -1), exactly
    (side 0) or just above (side 1) 2**63: 40 binary columns around one wide
    one, with every column's top code present."""
    cards = [2] * 20 + [(1 << 23) + side] + [2] * 20
    rng = np.random.default_rng(5)
    base = rng.integers(0, cards, size=(12, len(cards)))
    base[0] = np.array(cards) - 1
    return base[rng.integers(0, 12, size=30)], tuple(cards)


@st.composite
def collapse_problems(draw):
    """Rows with repeats over cardinalities of one and several bytes, or
    whose product sits just below, at or just above 2**63."""
    if draw(st.booleans()):
        p = draw(st.integers(1, 6))
        cards = draw(st.lists(st.sampled_from([2, 3, 4, 5, 257, (1 << 16) + 1]), min_size=p, max_size=p))
    else:
        # k binary columns and one wide one whose product is 2**63 + side * 2**k
        k = draw(st.integers(1, 60))
        wide = (1 << (63 - k)) + draw(st.sampled_from([-1, 0, 1]))
        cards = [2] * k
        cards.insert(draw(st.integers(0, k)), wide)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, cards, size=(draw(st.integers(1, 20)), len(cards)))
    if draw(st.booleans()):
        base[0] = np.array(cards) - 1
    rows = base[rng.integers(0, len(base), size=draw(st.integers(1, 60)))]
    return rows, tuple(cards)


def _two_hundred_binary_rows():
    rng = np.random.default_rng(8)
    base = rng.integers(0, 2, size=(40, 20))
    return base[rng.integers(0, 40, size=200)], (2,) * 20


@given(collapse_problems())
@example(_two_hundred_binary_rows())
@example(boundary_problem(-1))
@example(boundary_problem(0))
@example(boundary_problem(1))
@settings(max_examples=200, deadline=None)
def test_collapse_matches_void_key_oracle(problem):
    rows, cards = problem
    columns, weight = _collapse(rows, cards)
    want_columns, want_weight = void_key_collapse(rows, cards)
    assert columns.dtype == np.min_scalar_type(max(cards) - 1)
    assert columns.dtype.kind == "u"
    assert columns.shape == (len(cards), len(weight))
    assert columns.flags.c_contiguous
    assert weight.sum() == len(rows)
    got = dict(zip(map(tuple, columns.T.tolist()), weight.tolist()))
    assert len(got) == len(weight)
    assert got == dict(zip(map(tuple, want_columns.T.tolist()), want_weight.tolist()))
    if max(cards) <= 256:
        assert np.array_equal(columns, want_columns)
        assert np.array_equal(weight, want_weight)


def test_collapse_packs_rows_below_two_to_the_63(monkeypatch):
    # the integer key serves every state space whose keys fit in an int64;
    # np.unique sees byte-string keys only above that
    kinds = []
    unique = np.unique

    def spy(keys, **kwargs):
        kinds.append(keys.dtype.kind)
        return unique(keys, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    for side in (-1, 0, 1):
        _collapse(*boundary_problem(side))
    assert math.prod(boundary_problem(-1)[1]) == (1 << 63) - (1 << 40)
    assert kinds == ["i", "V", "V"]


def test_collapse_memory_bounded():
    # 200,000 rows of 20 binary columns, 50,000 of them distinct: the
    # int64 keys and their sort stay well within the rows' own size
    import tracemalloc

    rng = np.random.default_rng(11)
    keys = rng.choice(1 << 20, size=50_000, replace=False)
    picks = np.concatenate([np.arange(50_000), rng.integers(0, 50_000, size=150_000)])
    rows = (keys[picks, None] >> np.arange(19, -1, -1)) & 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, weight = _collapse(rows, (2,) * 20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(weight) == 50_000
    assert peak <= 0.25 * rows.nbytes


def test_table_build_memory_bounded():
    # the same rows, collapsed beforehand, with |K_i| = 6: the block codes
    # are summed in int64 from the narrow distinct columns, so the build
    # stays well below an int64 copy of those columns
    import tracemalloc

    rng = np.random.default_rng(11)
    keys = rng.choice(1 << 20, size=50_000, replace=False)
    picks = np.concatenate([np.arange(50_000), rng.integers(0, 50_000, size=150_000)])
    data = Dataset((keys[picks, None] >> np.arange(19, -1, -1)) & 1, StateSpace([2] * 20))
    pp = PossibleParents(
        [set(rng.choice([j for j in range(20) if j != i], size=6, replace=False).tolist()) for i in range(20)]
    )
    columns, _ = data._distinct
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_count_table(data, pp, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * columns.size * 8


INT_CELLS = ["0", "1", "2", "3", "00", "01", "007", "10"]
# cells that must send a file to the csv.reader path, or that sit at its edge
ODD_CELLS = [
    "", "?", "NA", " 1", "+1", "-1", "1_0", "\u0663",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
    "0000000000000000001", "00000000000000000001",
]


@st.composite
def int_csv_texts(draw):
    """Texts of plain digit cells, as the integer fast path reads them, with
    the defects that must send a file to the general path or give its error."""
    p = draw(st.integers(1, 4))
    quoted = draw(st.integers(0, 7)) == 0
    header = ",".join(f'"c{j}"' if quoted and draw(st.booleans()) else f"c{j}" for j in range(p))
    if draw(st.integers(0, 5)) == 0:
        header = "\ufeff" + header
    lines = [header]
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["2", "3", "4", "5"])) for _ in range(p)))
    for _ in range(draw(st.integers(0, 8))):
        width = p + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 15)) == 0 else 0)
        pool = ODD_CELLS if draw(st.integers(0, 31)) == 0 else INT_CELLS
        line = ",".join(draw(st.sampled_from(pool)) for _ in range(width))
        lines.append(line + ("," if draw(st.integers(0, 20)) == 0 else ""))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@given(int_csv_texts())
@example("c0,c1\r\n007,1\r\n\r\n0,1")
@example("\ufeffc0\n9223372036854775807\n0\n")
@example("c0,c1\n0,1,\n1,0,\n")
@settings(max_examples=300, deadline=None)
def test_load_int_texts_match_cellwise_oracle(tmp_path_factory, text):
    _assert_loads_as_oracle(tmp_path_factory, text)


# every cell width the integer path reads, each with leading zeros too
WIDE_ROWS = "".join(
    f"{'1' * w},{'0' * (w - 1)}7,{'9' * w}\r\n" for w in range(1, 19)
)
# (text, whether the integer path reads it rather than csv.reader)
BLOCK_TEXTS = [
    # CRLF line ends: small blocks end between a CR and its LF
    ("c0,c1\r\n0,1\r\n1,0\r\n\r\n10,2\r\n", True),
    # a line longer than any block
    ("c0,c1,c2,c3,c4,c5\n" + "0123,456,7,89,1000,2\n" * 3 + "5,4,3,2,1,0", True),
    ("c0,c1,c2\r\n" + WIDE_ROWS, True),
    ("c0,c1,c2\r\n2,3,4\r\n" + WIDE_ROWS, True),
    # 19-digit cells are read in uint64 up to the int64 maximum
    ("c0\n1\n9223372036854775807\n", True),
    ("c0,c1\n0,1\n1234567890123456789,0\n", True),
    # a trailing comma, at a block's end at some sizes, makes a ragged row
    ("c0,c1\n0,1,\n1,0\n", False),
    ("c0,c1,c2\n0,1,\n1,0\n", False),
    ("c0,c1\n0,1\n1,0,", False),
    ("c0,c1\n,0,1\n1,0\n", False),
    ("c0,c1\n0,,1\n1,0\n", False),
    ("c0\r1\r\r0\r", True),
    # a zero-padded 19-digit cell under a cards row; 2**63 and a 20th digit,
    # even a padding zero, are left to csv.reader
    ("c0,c1\n3,2\n0000000000000000002,1\n0,0\n", True),
    ("c0\n1\n9223372036854775808\n", False),
    ("c0,c1\n0,1\n00000000000000000001,0\n", False),
]


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("text, fast", BLOCK_TEXTS, ids=range(len(BLOCK_TEXTS)))
def test_int_path_at_block_boundaries(tmp_path_factory, block, text, fast):
    raw = text.encode()
    names, start = _split_header(raw)
    with mock.patch.object(counts_module, "_READ_BLOCK_BYTES", block):
        assert (_int_records(raw, start, len(names)) is not None) == fast
        _assert_loads_as_oracle(tmp_path_factory, text)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
@given(text=int_csv_texts())
@settings(max_examples=60, deadline=None)
def test_load_int_texts_match_cellwise_oracle_in_small_blocks(tmp_path_factory, block, text):
    with mock.patch.object(counts_module, "_READ_BLOCK_BYTES", block):
        _assert_loads_as_oracle(tmp_path_factory, text)


def test_load_csv_memory_bounded(tmp_path):
    # the bytes are parsed a block at a time into narrow values; the peak
    # holds the file's bytes, the narrow blocks and the int64 rows
    import tracemalloc

    rows = np.random.default_rng(12).integers(0, 2, size=(200_000, 20))
    write_csv(Dataset(rows, StateSpace([2] * 20)), tmp_path / "d.csv")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = load_csv(tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.rows, rows)
    assert peak <= 1.5 * rows.nbytes


@st.composite
def datasets_to_write(draw):
    p = draw(st.integers(1, 6))
    card = st.integers(2, 1000) | st.sampled_from([10, 11, 100, 101, 10**12, 2**62])
    cards = draw(st.lists(card, min_size=p, max_size=p))
    step = max(1, _WRITE_BLOCK_CELLS // p)
    n = draw(st.integers(1, 30) | st.sampled_from([step - 1, step, step + 1, 2 * step + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # dividing by a random power of ten mixes codes of every width in a column
    rows = rng.integers(0, cards, size=(n, p)) // 10 ** rng.integers(0, 19, size=(n, p))
    char = st.sampled_from(',"\r\n ;xé✓\x00') | st.characters(blacklist_categories=("Cs",))
    name = st.text(char, max_size=6)
    names = draw(st.none() | st.lists(name, min_size=p, max_size=p))
    return Dataset(rows, StateSpace(cards), names=names)


@given(datasets_to_write(), st.booleans())
@example(Dataset(np.zeros((1, 1), dtype=np.int64), StateSpace([2])), True)
@settings(max_examples=150, deadline=None)
def test_write_csv_matches_csv_module_bytes(tmp_path_factory, data, cards_row):
    folder = tmp_path_factory.mktemp("write")
    write_csv(data, folder / "got.csv", cards_row=cards_row)
    csv_module_write_csv(data, folder / "want.csv", cards_row=cards_row)
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


def test_write_csv_memory_bounded(tmp_path):
    # the rows are encoded a block at a time: a writer that holds every row
    # as text or Python objects at once peaks above the rows' own size
    import tracemalloc

    data = Dataset(np.random.default_rng(4).integers(0, 2, size=(50_000, 20)), StateSpace([2] * 20))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_csv(data, tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * data.rows.nbytes


def test_write_csv_output_takes_fast_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    data = Dataset(rng.integers(0, 3, size=(200, 4)), StateSpace([3, 3, 3, 4]), names=("a", "b", "c", "d"))
    paths = {True: tmp_path / "cards.csv", False: tmp_path / "bare.csv"}
    for cards_row, path in paths.items():
        write_csv(data, path, cards_row=cards_row)

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called on an integer file")

    monkeypatch.setattr(csv, "reader", no_reader)
    for cards_row, path in paths.items():
        got = load_csv(path)
        assert np.array_equal(got.rows, data.rows)
        assert got.names == data.names
        assert got.space.cards == ((3, 3, 3, 4) if cards_row else (3, 3, 3, 3))
    # a label file still needs the reader, so the patch is in force
    with pytest.raises(AssertionError):
        load_csv(write(tmp_path, "a\nx\n"))


def test_dataset_owns_its_rows():
    rng = np.random.default_rng(6)
    space = StateSpace([2, 3, 2])
    rows = rng.integers(0, 2, size=(300, 3))
    pristine = Dataset(rows.copy(), space)
    frozen_view = rows.view()
    frozen_view.setflags(write=False)
    owned = rows.copy()
    owned.setflags(write=False)
    tree = random_cstree(space, 2, rng)
    for given in (rows, frozen_view, owned):
        data = Dataset(given, space)
        # written after construction, before any count; a read-only array
        # that owns its memory can be made writable again
        target = rows if given.base is rows else given
        target.setflags(write=True)
        target[:] = 1 - target
        table, want = build_count_table(data), build_count_table(pristine)
        for i in range(space.p):
            for (_, got), (_, ref) in zip(table.tables(i), want.tables(i)):
                assert np.array_equal(got, ref)
        for lvl, staging in enumerate(tree.stagings):
            var = tree.governed_var(lvl)
            assert np.array_equal(stage_counts(data, var, staging), stage_counts(pristine, var, staging))
        assert log_marginal_likelihood(tree, data, PriorSpec()) == log_marginal_likelihood(
            tree, pristine, PriorSpec()
        )
        target[:] = 1 - target


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Dataset(np.array([0, 1]), StateSpace([2])), "rows must be a 2-d array"),
        (lambda: Dataset(np.zeros((2, 3), dtype=int), StateSpace([2, 2])), "rows have 3 columns, state space has 2"),
        (lambda: Dataset(np.zeros((2, 2), dtype=int), StateSpace([2, 2]), names=["a"]), "expected 2 names, got 1"),
        (lambda: load_csv("d.csv", cards_row="maybe"), "cards_row must be auto/yes/no, got 'maybe'"),
        (
            lambda: build_count_table(Dataset(np.zeros((2, 2), dtype=int), StateSpace([2, 2])), PossibleParents.full(3)),
            "possible-parent sets do not match the state space",
        ),
        (
            lambda: build_count_table(Dataset(np.zeros((2, 2), dtype=int), StateSpace([2, 2])), [{1}, {0}]),
            "pp must be a PossibleParents or None, got list",
        ),
    ],
)
def test_input_checks(make, message):
    with pytest.raises(ValidationError, match=message):
        make()
