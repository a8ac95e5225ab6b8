import csv
import logging

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
from ctxtree.counts import stage_counts
from oracles import cellwise_load_csv, per_set_count_tables, table_contexts


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


def test_load_constant_column_warns(tmp_path, caplog):
    path = write(tmp_path, "a,b\n0,1\n0,0\n")
    with caplog.at_level(logging.WARNING):
        data = load_csv(path)
    assert data.space.cards == (2, 2)
    assert any("constant" in m for m in caplog.messages)


def test_csv_roundtrip(tmp_path):
    space = StateSpace([2, 3])
    data = Dataset(np.array([[0, 2], [1, 0]]), space, names=("u", "v"))
    path = tmp_path / "out.csv"
    write_csv(data, path)
    again = load_csv(path)
    assert again.space.cards == (2, 3)
    assert np.array_equal(again.rows, data.rows)
    assert again.names == ("u", "v")


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
    data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), StateSpace([2, 2]))
    assert data.rows.dtype == np.int64 and data.rows.tolist() == [[0, 1], [1, 0]]


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


def test_table_threads_match_serial():
    rng = np.random.default_rng(3)
    data = Dataset(rng.integers(0, 2, size=(100, 4)), StateSpace([2] * 4))
    t1 = build_count_table(data, beta=2, threads=1)
    t2 = build_count_table(data, beta=2, threads=4)
    for i in range(4):
        for items in table_contexts(data.space.cards, t1.pp[i], t1.beta):
            ctx = Context(items)
            assert np.array_equal(t1.counts(i, ctx), t2.counts(i, ctx))


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


@given(count_problems())
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


INT_CELLS = ["0", "1", "2", "3", "00", "01", "007", "10"]
# cells that must send a file to the csv.reader path, or that sit at its edge
ODD_CELLS = [
    "", "?", "NA", " 1", "+1", "-1", "1_0", "\u0663",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
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
