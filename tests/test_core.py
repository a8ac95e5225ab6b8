import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxtree import (
    Context,
    CorruptStagingError,
    CStree,
    ParseError,
    PossibleParents,
    Stage,
    Staging,
    StateSpace,
    ValidationError,
    export_dot,
    max_stage_count,
    sample,
    stage_members,
    to_ldag,
)
from ctxtree import core
from ctxtree.core import _check_partition, block_stage_ids, stage_ids
from oracles import is_partition, level_size_partition_error


def test_state_space_validation():
    with pytest.raises(ValidationError):
        StateSpace([])
    with pytest.raises(ValidationError):
        StateSpace([2, 1])
    s = StateSpace([2, 3, 4])
    assert s.p == 3
    assert s.joint_size() == 24


def test_state_space_big_joint():
    s = StateSpace([4] * 40)
    assert s.joint_size() == 4**40  # exact big integer


def test_state_space_rejects_non_integral_cards():
    for bad in ([2.7, 3.9], [2, 3.0], [True, 2], ["2", 2]):
        with pytest.raises(ValidationError, match="cardinality must be an integer"):
            StateSpace(bad)
    assert StateSpace(np.array([2, 3])).cards == (2, 3)
    assert all(type(d) is int for d in StateSpace(np.array([2, 3])).cards)


def test_context_canonical_form():
    c = Context({3: 1, 0: 2})
    assert c.items == ((0, 2), (3, 1))
    assert c.vars == (0, 3)
    assert Context([(3, 1), (0, 2)]) == c
    with pytest.raises(ValidationError):
        Context([(1, 0), (1, 1)])
    assert Context().size() == 0
    assert str(Context()) == "{}"


@given(st.dictionaries(st.integers(0, 8), st.integers(0, 3), max_size=6))
@settings(max_examples=100, deadline=None)
def test_context_roundtrip(d):
    c = Context(d)
    assert c.as_dict() == d
    assert Context(c.items) == c


def test_context_matches():
    c = Context({1: 0, 2: 1})
    assert c.mask({0: 1, 1: 0, 2: 1}.get) is True
    assert c.mask({1: 1, 2: 1}.get) is False
    assert c.mask({1: 0}.get) is False  # unassigned context variable
    assert Context().mask({}.get) is True
    columns = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
    assert c.mask(columns.__getitem__).tolist() == [True, False, True, False]


def test_context_rejects_non_integral_pairs():
    for bad in ({0: 1.7}, {0: True}, {1.0: 0}, [(0, 1.5)], [(False, 1)]):
        with pytest.raises(ValidationError, match="context (variable|value) must be an integer"):
            Context(bad)
    assert Context({np.int64(1): np.uint8(0)}).items == ((1, 0),)


def test_stage_members_whole_level():
    space = StateSpace([2, 2])
    members = list(stage_members(Stage(Context(), 2), (0, 1), space))
    assert members == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_stage_members_level3_single_context():
    # binary level 3, context fixing the third ordered variable to 0
    space = StateSpace([2, 2, 2])
    stage = Stage(Context({2: 0}), 3)
    members = set(stage_members(stage, (0, 1, 2), space))
    assert members == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}


def test_stage_members_level3_pair_context():
    space = StateSpace([2, 2, 2])
    stage = Stage(Context({1: 0, 2: 1}), 3)
    members = set(stage_members(stage, (0, 1, 2), space))
    assert members == {(0, 0, 1), (1, 0, 1)}


def test_stage_members_respects_order():
    space = StateSpace([2, 3])
    stage = Stage(Context({1: 2}), 1)
    assert list(stage_members(stage, (1, 0), space)) == [(2,)]


def test_stage_members_context_outside_level():
    space = StateSpace([2, 2, 2])
    stage = Stage(Context({2: 0}), 2)
    with pytest.raises(ValidationError):
        list(stage_members(stage, (0, 1, 2), space))


@given(
    cards=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_stage_members_cardinality(cards, data):
    space = StateSpace(cards)
    p = space.p
    level = data.draw(st.integers(1, p))
    n_ctx = data.draw(st.integers(0, level))
    ctx_vars = data.draw(
        st.lists(st.sampled_from(range(level)), min_size=n_ctx, max_size=n_ctx, unique=True)
    )
    ctx = Context({v: data.draw(st.integers(0, cards[v] - 1)) for v in ctx_vars})
    stage = Stage(ctx, level)
    members = list(stage_members(stage, tuple(range(p)), space))
    expected = math.prod(cards[v] for v in range(level) if v not in ctx_vars)
    assert len(members) == expected
    assert len(set(members)) == expected


def test_staging_canonical_sorting():
    a = Stage(Context({0: 0, 1: 0}), 2)
    b = Stage(Context({1: 1}), 2)
    st1 = Staging(2, [a, b])
    st2 = Staging(2, [b, a])
    assert st1 == st2
    assert [s.context.size() for s in st1.stages] == [1, 2]
    assert st1.canonical_key() == st2.canonical_key()


def test_staging_rejects_duplicates_and_mismatched_levels():
    with pytest.raises(ValidationError):
        Staging(2, [Stage(Context({0: 0}), 2), Stage(Context({0: 0}), 2)])
    with pytest.raises(ValidationError):
        Staging(2, [Stage(Context({0: 0}), 1)])
    with pytest.raises(ValidationError):
        Staging(1, [])


def _pair_tree():
    staging = Staging(1, [Stage(Context({0: v}), 1) for v in range(2)])
    tree = CStree((0, 1), StateSpace([2, 2]), [staging])
    return tree.with_params((((0.5, 0.5),), ((0.5, 0.5), (0.3, 0.7))))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Staging(1.5, [Stage(Context(), 1.5)]), id="staging-float-level"),
        pytest.param(lambda: Staging(1.0, [Stage(Context(), 1)]), id="staging-whole-float-level"),
        pytest.param(lambda: Stage(Context(), 1.5), id="stage-float-level"),
        pytest.param(lambda: Stage(Context(), True), id="stage-bool-level"),
        pytest.param(lambda: max_stage_count(2.5, [2, 2]), id="max-stage-float-level"),
        pytest.param(lambda: max_stage_count(-1, [2, 2]), id="max-stage-negative-level"),
        pytest.param(lambda: max_stage_count(2, [0, 1]), id="max-stage-card-below-2"),
        pytest.param(lambda: max_stage_count(2, [2.0, 2]), id="max-stage-float-card"),
        pytest.param(lambda: sample(_pair_tree(), 2.5, np.random.default_rng(0)), id="sample-float-n"),
        pytest.param(lambda: sample(_pair_tree(), True, np.random.default_rng(0)), id="sample-bool-n"),
        pytest.param(lambda: export_dot(to_ldag(_pair_tree()), names=["a"]), id="dot-too-few-names"),
    ],
)
def test_bad_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_stage_ids_single_stage():
    staging = Staging.full_level(2)
    assert stage_ids(staging, [1, 0].__getitem__) == 0


def test_stage_ids_reference_tree(four_var_tree_a):
    # one outcome as the 0-d block of Python ints, and the whole level as
    # one block of columns; stages are in canonical order
    staging = four_var_tree_a.stagings[3]
    contexts = [stage.context for stage in staging.stages]
    blue = stage_ids(staging, [1, 1, 0].__getitem__)
    assert blue.shape == () and contexts[blue] == Context({2: 0})
    white = stage_ids(staging, [1, 1, 1].__getitem__)
    assert contexts[white] == Context({0: 1, 1: 1, 2: 1})
    level = np.array(list(product(range(2), repeat=3))).T
    ids = stage_ids(staging, level.__getitem__)
    assert [contexts[i] for i in ids] == [
        Context({2: 0}),
        Context({1: 0, 2: 1}),
        Context({2: 0}),
        Context({0: 0, 1: 1, 2: 1}),
        Context({2: 0}),
        Context({1: 0, 2: 1}),
        Context({2: 0}),
        Context({0: 1, 1: 1, 2: 1}),
    ]


@pytest.mark.parametrize("n", [(1 << 14) - 1, 1 << 14, (1 << 14) + 7])
def test_block_stage_ids_reads_a_table_from_table_rows(n, monkeypatch):
    # columns are uint16 for the 300-valued X0.  The ternary X1 alone gives a
    # uint8 code; X0 and X1 give a uint16 code over 900 outcomes; a chain
    # over the 15 binary variables would need a table of 2**15 outcomes, more
    # than the block holds, so it reads the masks at every n
    cards = (300, 3) + (2,) * 15
    columns = np.random.default_rng(n).integers(0, cards, size=(n, len(cards))).T.astype(np.uint16)
    chain = [{v: 1, **{u: 0 for u in range(2, v)}} for v in range(2, 17)]
    stagings = {
        "X1": [{1: x} for x in range(3)],
        "X0,X1": [{1: 0}, {1: 2}] + [{0: x, 1: 1} for x in range(300)],
        "chain": chain + [{u: 0 for u in range(2, 17)}],
    }
    grids = []
    lookup = core.stage_ids

    def spy(staging, column):
        grids.append(isinstance(column.__self__, dict))
        return lookup(staging, column)

    for name, contexts in stagings.items():
        staging = Staging(17, [Stage(Context(c), 17) for c in contexts])
        expected = stage_ids(staging, columns.__getitem__)
        grids.clear()
        monkeypatch.setattr(core, "stage_ids", spy)
        ids = block_stage_ids(staging, columns, cards)
        monkeypatch.undo()
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected)
        assert grids == [n >= 1 << 14 and name != "chain"]


def tree_with_last_level(staging: Staging, cards) -> CStree:
    """A tree over variables 0..level in natural order whose last level has
    ``staging`` and whose other levels are whole."""
    level = staging.level
    stagings = [Staging.full_level(lvl) for lvl in range(level)] + [staging]
    return CStree(tuple(range(level + 1)), StateSpace(cards), stagings)


def test_check_partition(four_var_tree_a):
    assert all(
        is_partition(st, four_var_tree_a.order, four_var_tree_a.space)
        for st in four_var_tree_a.stagings
    )
    missing = Staging(1, [Stage(Context({0: 0}), 1)])
    with pytest.raises(CorruptStagingError, match="level-1 stages cover 1 of the level's 2 outcomes"):
        tree_with_last_level(missing, [2, 2])
    overlapping = Staging(2, [Stage(Context(), 2), Stage(Context({0: 0}), 2)])
    with pytest.raises(CorruptStagingError, match="overlap"):
        tree_with_last_level(overlapping, [2, 2, 2])
    # the sizes add up to the level's 4 outcomes, yet (0,0) lies in both
    # stages and (1,1) in neither
    sizes_add_up = Staging(2, [Stage(Context({0: 0}), 2), Stage(Context({1: 0}), 2)])
    with pytest.raises(CorruptStagingError, match=r"stages \{0=0\} and \{1=0\} overlap"):
        tree_with_last_level(sizes_add_up, [2, 2, 2])


def test_from_json_dict_rejects_non_partition(non_partition_doc):
    with pytest.raises(CorruptStagingError, match="level-1 stages"):
        CStree.from_json_dict(non_partition_doc)


def test_from_json_dict_malformed_document(malformed_model_doc):
    with pytest.raises(ParseError):
        CStree.from_json_dict(malformed_model_doc)


def contexts_of(cards, level):
    """Contexts over the level's variables 0..level-1, each fixed or free."""
    values = st.tuples(*(st.none() | st.integers(0, cards[v] - 1) for v in range(level)))
    return values.map(lambda xs: {v: x for v, x in enumerate(xs) if x is not None})


@st.composite
def level_stagings(draw):
    """A level (0-4 variables, cards 2-4) and a staging of it: either random
    distinct contexts, or a partition grown by splitting stages on a free
    variable, then maybe broken by dropping or adding one stage."""
    level = draw(st.integers(0, 4))
    cards = draw(st.lists(st.integers(2, 4), min_size=level + 1, max_size=level + 1))
    if draw(st.booleans()):
        contexts = draw(
            st.lists(contexts_of(cards, level), min_size=1, max_size=8, unique_by=str)
        )
    else:
        contexts = [{}]
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(contexts) - 1))
            free = [v for v in range(level) if v not in contexts[at]]
            if free:
                v = draw(st.sampled_from(free))
                ctx = contexts.pop(at)
                contexts += [{**ctx, v: x} for x in range(cards[v])]
        change = draw(st.sampled_from(["keep", "drop", "add"]))
        if change == "drop" and len(contexts) > 1:
            contexts.pop(draw(st.integers(0, len(contexts) - 1)))
        elif change == "add":
            extra = draw(contexts_of(cards, level))
            if extra not in contexts:
                contexts.append(extra)
    staging = Staging(level, [Stage(Context(ctx), level) for ctx in contexts])
    return cards, staging


@settings(max_examples=400, deadline=None)
@given(level_stagings())
def test_constructor_accepts_exactly_the_partitions(case):
    cards, staging = case
    if is_partition(staging, tuple(range(staging.level + 1)), StateSpace(cards)):
        tree_with_last_level(staging, cards)
    else:
        with pytest.raises(CorruptStagingError):
            tree_with_last_level(staging, cards)


@settings(max_examples=400, deadline=None)
@given(level_stagings())
def test_check_partition_matches_level_size_rule(case):
    # counting sizes over the context variables' union rejects the same
    # stagings, with the same message, as counting them over the level
    cards, staging = case
    order, space = tuple(range(staging.level + 1)), StateSpace(cards)
    try:
        _check_partition(staging, order, space)
        got = None
    except CorruptStagingError as e:
        got = str(e)
    assert got == level_size_partition_error(staging, order, space)


def test_possible_parents():
    pp = PossibleParents.full(4)
    assert pp.alpha == 3
    assert pp[2] == frozenset({0, 1, 3})
    with pytest.raises(ValidationError):
        PossibleParents([{0}, set()])
    with pytest.raises(ValidationError):
        PossibleParents([{5}, set()])


def test_possible_parents_rejects_non_integral_members():
    for bad in ([{1.9}, {0}], [{1}, {0.0}], [{True}, set()]):
        with pytest.raises(ValidationError, match="possible parent must be an integer"):
            PossibleParents(bad)
    assert PossibleParents([{np.int64(1)}, set()]).sets == (frozenset({1}), frozenset())


def test_cstree_prepends_root(four_var_tree_a):
    assert len(four_var_tree_a.stagings) == 4
    assert four_var_tree_a.stagings[0].level == 0
    assert four_var_tree_a.stagings[0].stages[0].context == Context()
    assert four_var_tree_a.governed_var(0) == 0
    assert four_var_tree_a.max_context_size() == 3


def test_cstree_p1():
    tree = CStree((0,), StateSpace([3]), [])
    assert len(tree.stagings) == 1
    tree = tree.with_params((((0.2, 0.3, 0.5),),))
    assert tree.stage_probs(0, 0) == (0.2, 0.3, 0.5)


def test_cstree_validation():
    space = StateSpace([2, 2])
    with pytest.raises(ValidationError):
        CStree((0, 0), space, [Staging.full_level(1)])
    with pytest.raises(ValidationError):
        # context on a variable outside the level prefix
        CStree((0, 1), space, [Staging(1, [Stage(Context({1: 0}), 1), Stage(Context({1: 1}), 1)])])
    tree = CStree((0, 1), space, [Staging.full_level(1)])
    with pytest.raises(ValidationError):
        tree.with_params((((0.5, 0.5),), ((0.5, 0.6),)))  # bad sum
    with pytest.raises(ValidationError):
        tree.with_params((((0.5, 0.5),), ((1.0,),)))  # bad length


def test_cstree_rejects_non_integral_order():
    space = StateSpace([2, 2])
    for bad in ((1.5, 0.2), (1.0, 0), (True, False)):
        with pytest.raises(ValidationError, match="order entry must be an integer"):
            CStree(bad, space, [Staging.full_level(1)])
    assert CStree(np.array([1, 0]), space, [Staging.full_level(1)]).order == (1, 0)


@pytest.mark.parametrize("probs", [(math.nan, math.nan), (math.nan, 1.0)])
def test_cstree_rejects_non_finite_probs(probs):
    # NaN slips past both the sign test and the sum test
    space = StateSpace([2, 2])
    params = ((probs,), ((0.5, 0.5),))
    with pytest.raises(ValidationError, match="finite"):
        CStree((0, 1), space, [Staging.full_level(1)], params)
    with pytest.raises(ValidationError, match="finite"):
        CStree((0, 1), space, [Staging.full_level(1)]).with_params(params)


def test_cstree_json_roundtrip(four_var_tree_a):
    text = four_var_tree_a.to_json()
    doc = json.loads(text)
    assert doc["order"] == [0, 1, 2, 3]
    assert doc["cards"] == [2, 2, 2, 2]
    assert len(doc["stagings"]) == 4
    assert doc["stagings"][0] == [{"context": {}, "probs": None}]
    again = CStree.from_json_dict(doc)
    assert again.to_json() == text


def test_cstree_json_roundtrip_with_params(tmp_path):
    space = StateSpace([2, 3])
    tree = CStree(
        (1, 0),
        space,
        [Staging(1, [Stage(Context({1: v}), 1) for v in range(3)])],
        names=("a", "b"),
        labels={1: ("lo", "mid", "hi")},
    )
    params = (((0.25, 0.25, 0.5),), ((0.5, 0.5), (0.125, 0.875), (1.0, 0.0)))
    tree = tree.with_params(params)
    path = tmp_path / "m.json"
    tree.to_json(path)
    again = CStree.from_json(path)
    assert again.params == params
    assert again.names == ("a", "b")
    assert again.labels == {1: ("lo", "mid", "hi")}
    assert again.to_json() == tree.to_json()


@pytest.mark.parametrize(
    "labels, message",
    [
        ({5: ("a", "b")}, r"labels name variable 5, outside 0\.\.1"),
        ({-1: ("a", "b")}, r"labels name variable -1"),
        ({"1": ("a", "b")}, "label variable must be an integer"),
        ({1: ("lo", "lo")}, "labels of variable 1 repeat a label"),
        ({1: ("lo", "mid", "hi", "top")}, "variable 1 has 4 labels for 3 values"),
    ],
)
def test_labels_checked(labels, message):
    with pytest.raises(ValidationError, match=message):
        CStree((0, 1), StateSpace([2, 3]), [Staging.full_level(1)], labels=labels)


def test_labels_may_name_fewer_values():
    # load_csv codes a label column 0..k-1 under a declared cardinality above k
    tree = CStree((0, 1), StateSpace([2, 3]), [Staging.full_level(1)], labels={1: ("lo",)})
    assert CStree.from_json_dict(tree.to_json_dict()).labels == {1: ("lo",)}


def _param_tree() -> CStree:
    return CStree((1, 0, 2), StateSpace([2, 3, 2]), [Staging.full_level(1), Staging.full_level(2)]).with_params(
        [[(0.2, 0.3, 0.5)], [(0.5, 0.5)], [(0.4, 0.6)]]
    )


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Stage(Context(), -1), "stage level must be >= 0"),
        (lambda: Stage(Context({0: 0, 1: 0}), 1), "has more variables than level 1"),
        (lambda: CStree((0, 1, 2), StateSpace([2, 2, 2]), [Staging.full_level(1)]), "expected 2 or 3 stagings for p=3, got 1"),
        (
            lambda: CStree((0, 1), StateSpace([2, 2]), [Staging.full_level(1), Staging.full_level(0)]),
            "staging at index 0 has level 1",
        ),
        (lambda: CStree((0, 1), StateSpace([2, 2]), [Staging.full_level(1)], names=["a"]), "expected 2 names, got 1"),
        (lambda: _param_tree().with_params(_param_tree().params[:2]), "params must align with stagings"),
        (
            lambda: _param_tree().with_params(_param_tree().params[:2] + (((0.5, 0.5),) * 2,)),
            "params at level 2 do not align with stages",
        ),
    ],
)
def test_tree_checks(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_level_vars_follow_the_order():
    tree = _param_tree()
    assert [tree.level_vars(lvl) for lvl in range(3)] == [(), (1,), (1, 0)]


def test_model_document_checks(tmp_path):
    doc = _param_tree().to_json_dict()
    doc["stagings"][2][0]["probs"] = None
    with pytest.raises(ParseError, match="mixes parameterized and bare stages"):
        CStree.from_json_dict(doc)
    path = tmp_path / "m.json"
    path.write_text("order: [0, 1]\n")
    with pytest.raises(ParseError, match="invalid JSON"):
        CStree.from_json(path)
