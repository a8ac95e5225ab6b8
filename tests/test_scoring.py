import io
import json
import math
import tracemalloc
from itertools import chain, combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxtree.enumeration
import ctxtree.scoring
from ctxtree import (
    Context,
    CStree,
    Dataset,
    EnumSpec,
    PossibleParents,
    PriorSpec,
    ResourceCapError,
    Stage,
    Staging,
    StateSpace,
    ValidationError,
    build_count_table,
    build_score_tables,
    count_stagings,
    enumerate_stagings,
    log_context_marginal_likelihood,
    log_local_order_score,
    log_marginal_likelihood,
    log_order_score,
    log_staging_score,
    optimal_staging,
    random_cstree,
    sample,
)

from oracles import (
    brute_force_order_score,
    count_rows,
    path_alphas,
    per_set_count_tables,
    per_stage_lml,
    per_variable_score_tables,
    polya_log_evidence,
    table_contexts,
)

UNIT = PriorSpec("unit")
BDEU = PriorSpec("bdeu-path", 1.0)


def make_tables(rows, cards, prior=BDEU, pp=None, beta=2):
    data = Dataset(np.asarray(rows), StateSpace(cards))
    return build_score_tables(build_count_table(data, pp, beta), prior)


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def dump_z_text(tables):
    buf = io.StringIO()
    tables.dump_z(buf)
    return buf.getvalue()


def assert_los_match_enumeration(tables, cards, beta):
    """Every los entry against log-sum-exp over the enumerated stagings."""
    for i in range(len(cards)):
        for usable in subsets(tables.pp[i]):
            spec = EnumSpec(usable, [cards[j] for j in usable], beta=beta)
            oracle = np.logaddexp.reduce(
                [log_staging_score(i, s, tables, spec) for s in enumerate_stagings(spec)]
            )
            assert tables.los(i, usable) == pytest.approx(oracle, rel=1e-12, abs=0)


def test_prior_spec_validation():
    with pytest.raises(ValidationError):
        PriorSpec("bdeu")
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan, np.float64(np.inf)):
        with pytest.raises(ValidationError, match="ess must be finite and positive"):
            PriorSpec("unit", bad)
    for bad in ("1", None, True, np.bool_(True), 1 + 0j):
        with pytest.raises(ValidationError, match="ess must be a real number"):
            PriorSpec("bdeu-path", bad)
    assert PriorSpec("bdeu-path", np.float32(0.5)).ess == 0.5
    assert PriorSpec("bdeu-path", 2).ess == 2


def test_evidence_empty_counts_is_one():
    space = StateSpace([2, 2])
    for prior in (UNIT, BDEU):
        assert log_context_marginal_likelihood(space, 0, Context(), [0, 0], prior) == 0.0


@pytest.mark.parametrize(
    "var, context, counts, message",
    [
        (5, Context(), [1, 1], "variable 5 out of range for p=2"),
        (-1, Context(), [1, 1], "variable -1 out of range for p=2"),
        (0, Context({0: 1}), [1, 1], "context conditions on the target variable 0"),
        (0, Context({1: 5}), [1, 1], r"context value 5 out of range for variable 1 \(d=2\)"),
        (0, Context({3: 0}), [1, 1], "context variable 3 out of range for p=2"),
        (0, Context(), [-0.2, 0], r"counts must be finite and non-negative, got \[-0.2, 0.0\]"),
        (0, Context(), [2, -0.1], r"counts must be finite and non-negative, got \[2.0, -0.1\]"),
        (0, Context(), [math.nan, 0], "counts must be finite and non-negative"),
        (0, Context(), [1, math.inf], "counts must be finite and non-negative"),
    ],
    ids=[
        "var-past-p",
        "var-negative",
        "context-on-target",
        "context-value-past-card",
        "context-var-past-p",
        "negative-first-count",
        "negative-last-count",
        "nan-count",
        "infinite-count",
    ],
)
def test_context_evidence_rejects_bad_input(var, context, counts, message):
    # the checks compute_counts makes on a (variable, context) pair, plus
    # counts that a table could hold
    with pytest.raises(ValidationError, match=message):
        log_context_marginal_likelihood(StateSpace([2, 2]), var, context, counts, BDEU)


def close(value, reference, tol):
    """Within ``tol`` relative, or ``tol`` absolute where |reference| < 1."""
    return abs(value - reference) <= tol * max(abs(reference), 1.0)


def test_gammaln_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    alphas = [1e-6, 1 / 96, 1 / 16, 0.25, 0.5, 1.0, 1.5, 3.0]
    counts = [0, 1, 2, 3, 5, 10, 99, 1000, 12345, 199_999]
    xs = np.array([a + k for a in alphas for k in counts] + rng.uniform(0.5, 3, 200).tolist())
    values = ctxtree.scoring._gammaln(xs)
    assert values.dtype == np.float64 and values.shape == xs.shape
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), values.tolist()):
            assert close(value, float(mpmath.loggamma(x)), 1e-14), x


def test_non_finite_evidence_raises():
    # alpha underflowing to 0 and a_tot past the float range have no finite
    # log-gamma; a subnormal alpha still has one.  At ess 1e-323 only the
    # one-variable contexts' alpha (ess / 4) underflows, and the error names them
    ct = build_count_table(Dataset(np.array([[0, 1], [1, 1], [0, 0]]), StateSpace([2, 2])))
    for ess, svars in ((5e-324, r"\(\)"), (1e-323, r"\(1,\)"), (1e308, r"\(\)")):
        message = f"non-finite evidence for variable 0, context variables {svars}$"
        with pytest.raises(ValidationError, match=message):
            build_score_tables(ct, PriorSpec("bdeu-path", ess))
    assert math.isfinite(build_score_tables(ct, PriorSpec("bdeu-path", 1e-320)).order_score((0, 1)))


def test_tables_match_scipy_gammaln(monkeypatch):
    # z and los from math.lgamma against scipy's gammaln on the same counts,
    # for the arrays and the scalars of the evidence alike: mixed
    # cardinalities, small and large n, tiny to large alphas
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(21)
    cards = [2, 3, 2, 4, 2, 3]
    for n in (30, 20_000):
        rows = np.column_stack([rng.integers(0, d, size=n) for d in cards])
        rows[:, 1] = (rows[:, 0] + rows[:, 1] * (rng.random(n) < 0.3)) % 3
        count_table = build_count_table(Dataset(rows, StateSpace(cards)), beta=2)
        for prior in (BDEU, UNIT, PriorSpec("bdeu-path", 0.01), PriorSpec("bdeu-path", 50.0)):
            ours = build_score_tables(count_table, prior)
            with monkeypatch.context() as m:
                m.setattr(ctxtree.scoring, "_gammaln", special.gammaln)
                m.setattr(math, "lgamma", lambda x: float(special.gammaln(x)))
                ref = build_score_tables(count_table, prior)
            assert dump_z_text(ours).count("\n") == dump_z_text(ref).count("\n")
            for var in range(len(cards)):
                for items in table_contexts(cards, ours.pp[var], 2):
                    assert close(ours.z(var, items), ref.z(var, items), 1e-12), (var, items)
                assert len(ours._los[var]) == len(ref._los[var])
                for value, expected in zip(ours._los[var], ref._los[var]):
                    assert close(value, expected, 1e-12), var


def test_evidence_unit_prior_closed_forms():
    space = StateSpace([2, 2])
    v = log_context_marginal_likelihood(space, 0, Context(), [1, 1], UNIT)
    assert v == pytest.approx(math.log(1 / 6), abs=1e-12)
    v = log_context_marginal_likelihood(space, 0, Context(), [2, 0], UNIT)
    assert v == pytest.approx(math.log(1 / 3), abs=1e-12)


def test_evidence_matches_polya_oracle():
    rng = np.random.default_rng(0)
    space = StateSpace([3, 2, 4])
    for _ in range(50):
        var = int(rng.integers(3))
        others = [v for v in range(3) if v != var]
        k = int(rng.integers(0, 3))
        svars = sorted(rng.choice(others, size=min(k, 2), replace=False).tolist())
        ctx = Context({v: int(rng.integers(space.cards[v])) for v in svars})
        counts = rng.integers(0, 12, size=space.cards[var])
        for prior in (UNIT, PriorSpec("bdeu-path", float(rng.uniform(0.5, 4.0)))):
            a = prior.alpha_cell(space, var, ctx.vars)
            expected = polya_log_evidence(counts, [a] * space.cards[var])
            got = log_context_marginal_likelihood(space, var, ctx, counts, prior)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_evidence_exponentiates_to_direct_product():
    # small-count unit-prior evidence is a product of rationals
    from fractions import Fraction

    space = StateSpace([2, 3])
    counts = [3, 1, 2]
    direct = Fraction(1)
    a, a_tot, seen = Fraction(1), Fraction(3), 0
    for k, n_k in enumerate(counts):
        for t in range(n_k):
            direct *= Fraction(a + t, a_tot + seen)
            seen += 1
    got = math.exp(log_context_marginal_likelihood(space, 1, Context(), counts, UNIT))
    assert got == pytest.approx(float(direct), rel=1e-10)


def test_local_order_score_decomposable():
    # data outside K_i and i itself cannot move the local score of i
    rng = np.random.default_rng(19)
    rows = rng.integers(0, 2, size=(60, 3))
    perturbed = rows.copy()
    perturbed[:, 2] = rng.integers(0, 2, size=60)
    pp = PossibleParents([{1}, {0}, {0, 1}])
    t1 = make_tables(rows, [2, 2, 2], pp=pp)
    t2 = make_tables(perturbed, [2, 2, 2], pp=pp)
    for L in (frozenset(), frozenset({1})):
        assert t1.los(0, L) == t2.los(0, L)
    # and the per-position decomposition sums to the order score
    order = (1, 0, 2)
    total = t1.los(1, frozenset()) + t1.los(0, frozenset({1})) + t1.los(2, frozenset({0, 1}))
    assert t1.order_score(order) == pytest.approx(total, rel=1e-12)


def test_path_alpha_level_form_cancels():
    # the stated stage-size / level-size allocation equals ess/(d_i * prod d_S)
    prior = PriorSpec("bdeu-path", 2.5)
    space = StateSpace([2, 3, 4, 2])
    for level_vars in ([0, 1], [0, 1, 2], [1, 2, 3]):
        for svars in ([], [level_vars[0]], level_vars[:2]):
            q = math.prod(space.cards[v] for v in svars)
            stated = path_alphas(
                [space.cards[v] for v in level_vars], q, space.cards[3], 2.5
            )[0]
            assert prior.alpha_cell(space, 3, svars) == pytest.approx(stated, rel=1e-12)


def test_staging_evidence_equals_parent_set_bdeu():
    # a staging that mimics parent set {0} scores the textbook local evidence
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 2, size=(60, 3))
    space = StateSpace([2, 2, 2])
    data = Dataset(rows, space)
    prior = PriorSpec("bdeu-path", 1.0)
    total = 0.0
    for x0 in range(2):
        counts = [int(((rows[:, 0] == x0) & (rows[:, 2] == k)).sum()) for k in range(2)]
        # classic BDeu cell alpha: ess / (q_i * r_i) with q_i = d_0 = 2, r_i = 2
        total += polya_log_evidence(counts, [1.0 / 4] * 2)
    got = sum(
        log_context_marginal_likelihood(
            space,
            2,
            Context({0: x0}),
            [int(((rows[:, 0] == x0) & (rows[:, 2] == k)).sum()) for k in range(2)],
            prior,
        )
        for x0 in range(2)
    )
    assert got == pytest.approx(total, rel=1e-12)


def test_staging_score_single_stage():
    rng = np.random.default_rng(2)
    tables = make_tables(rng.integers(0, 2, size=(30, 2)), [2, 2])
    spec = EnumSpec([0], [2], usable=[0], beta=2)
    staging = Staging.full_level(1)
    got = log_staging_score(1, staging, tables, spec)
    assert got == pytest.approx(tables.z(1, Context()) - math.log(2), rel=1e-12)


def test_staging_score_commutes():
    rng = np.random.default_rng(3)
    tables = make_tables(rng.integers(0, 2, size=(40, 3)), [2, 2, 2])
    spec = EnumSpec([0, 1], [2, 2], beta=2)
    a = Stage(Context({0: 0}), 2)
    b = Stage(Context({0: 1}), 2)
    s1 = Staging(2, [a, b])
    s2 = Staging(2, [b, a])
    assert log_staging_score(2, s1, tables, spec) == log_staging_score(2, s2, tables, spec)


def test_local_order_score_empty_L():
    rng = np.random.default_rng(4)
    tables = make_tables(rng.integers(0, 2, size=(25, 2)), [2, 2])
    spec = EnumSpec([], [], usable=[], beta=2)
    assert log_local_order_score(1, spec, tables) == pytest.approx(
        tables.z(1, Context()), rel=1e-12
    )


def test_local_order_score_two_term():
    rng = np.random.default_rng(5)
    tables = make_tables(rng.integers(0, 2, size=(35, 2)), [2, 2])
    spec = EnumSpec([0], [2], usable=[0], beta=2)
    s0 = log_staging_score(1, Staging.full_level(1), tables, spec)
    s1 = log_staging_score(
        1, Staging(1, [Stage(Context({0: v}), 1) for v in range(2)]), tables, spec
    )
    expected = np.logaddexp(s0, s1)
    assert log_local_order_score(1, spec, tables) == pytest.approx(expected, rel=1e-12)


def test_local_order_score_is_mean_of_evidences():
    rng = np.random.default_rng(6)
    for cards in ([2, 2, 2], [3, 2, 3]):
        rows = rng.integers(0, cards, size=(50, 3))
        tables = make_tables(rows, cards)
        spec = EnumSpec([0, 1], cards[:2], beta=2)
        scores = [
            log_staging_score(2, staging, tables, spec)
            for staging in enumerate_stagings(spec)
        ]
        los = log_local_order_score(2, spec, tables)
        assert min(scores) <= los <= max(scores) + math.log(len(scores))
        assert los == pytest.approx(
            np.logaddexp.reduce(scores), rel=1e-12
        )
        # every table entry against the enumeration oracle
        assert_los_match_enumeration(tables, cards, 2)


def test_los_closed_form_matches_enumeration_p6():
    # |L| up to 5 with cards 2..4: pair subtraction and mixed pivot choices
    rng = np.random.default_rng(20)
    cards = [2, 3, 4, 2, 3, 2]
    rows = rng.integers(0, cards, size=(200, 6))
    rows[:, 5] = (rows[:, 0] + rows[:, 1]) % 2  # some real dependence
    for beta in (0, 1, 2):
        tables = make_tables(rows, cards, beta=beta)
        assert_los_match_enumeration(tables, cards, beta)
        for i in range(6):
            spec = EnumSpec(tables.pp[i], [cards[j] for j in sorted(tables.pp[i])], beta=beta)
            assert log_local_order_score(i, spec, tables) == tables.los(i, tables.pp[i])


@settings(max_examples=25, deadline=None)
@given(
    cards=st.lists(st.integers(2, 4), min_size=2, max_size=4),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_los_closed_form_matches_enumeration_random(cards, n, seed):
    rows = np.random.default_rng(seed).integers(0, cards, size=(n, len(cards)))
    assert_los_match_enumeration(make_tables(rows, cards), cards, 2)


def test_score_build_never_enumerates(monkeypatch):
    # the los entries and the staging argmax come from closed forms alone;
    # scoring does not import the enumerator, so a later import is caught too
    def refuse(spec):
        raise AssertionError("staging enumeration on the scoring hot path")

    monkeypatch.setattr(ctxtree.enumeration, "iter_raw_stagings", refuse)
    monkeypatch.setattr(ctxtree.scoring, "iter_raw_stagings", refuse, raising=False)
    rng = np.random.default_rng(21)
    cards = [2, 3, 2, 3]
    tables = make_tables(rng.integers(0, cards, size=(60, 4)), cards)
    spec = EnumSpec([0, 1, 2], cards[:3], beta=2)
    assert log_local_order_score(3, spec, tables) == tables.los(3, {0, 1, 2})
    optimal_staging(3, spec, tables)


def assert_tables_match_oracle(count_table, prior):
    tables = build_score_tables(count_table, prior)
    z, los = per_variable_score_tables(count_table, prior)
    assert dump_z_text(tables).count("\n") == sum(map(len, z.values()))
    for var, z_i in z.items():
        for items, value in z_i.items():
            assert tables.z(var, items) == value, (var, items)
    assert tables._los == los


@settings(max_examples=50, deadline=None)
@given(
    cards=st.lists(st.integers(2, 4), min_size=2, max_size=8),
    n=st.integers(1, 120),
    beta=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_tables_equal_per_variable_oracle(cards, n, beta, seed):
    # bit for bit: random K_i (empty sets included) over mixed
    # cardinalities, so variables fall into profiles of several sizes
    rng = np.random.default_rng(seed)
    p = len(cards)
    rows = rng.integers(0, cards, size=(n, p))
    keep = rng.random() * 1.2
    pp = PossibleParents([{j for j in range(p) if j != i and rng.random() < keep} for i in range(p)])
    count_table = build_count_table(Dataset(rows, StateSpace(cards)), pp, beta)
    for prior in (UNIT, PriorSpec("bdeu-path", 0.01), BDEU, PriorSpec("bdeu-path", 50.0)):
        assert_tables_match_oracle(count_table, prior)


def test_batched_tables_span_several_batches(monkeypatch):
    # 40 binary variables with |K| = 8 share one profile of 40 * 2^8 subset
    # rows, which the 2^12-row cap splits into batches of 16, 16 and 8
    rng = np.random.default_rng(22)
    p = 40
    rows = rng.integers(0, 2, size=(300, p))
    pp = PossibleParents(
        [set(rng.choice([j for j in range(p) if j != i], size=8, replace=False).tolist()) for i in range(p)]
    )
    count_table = build_count_table(Dataset(rows, StateSpace([2] * p)), pp, 2)
    batches = []
    kernel = ctxtree.scoring._log_summed_evidence

    def spy(ev, *args):
        batches.append(len(ev))
        return kernel(ev, *args)

    monkeypatch.setattr(ctxtree.scoring, "_log_summed_evidence", spy)
    assert_tables_match_oracle(count_table, BDEU)
    assert batches == [16, 16, 8]


def shape_batch_problem(cards, k_size, n, seed):
    """Rows drawn uniformly over ``cards`` and a K_i of ``k_size`` other
    variables drawn at random for each i."""
    rng = np.random.default_rng(seed)
    p = len(cards)
    rows = rng.integers(0, cards, size=(n, p))
    others = [[j for j in range(p) if j != i] for i in range(p)]
    pp = PossibleParents([set(rng.choice(o, size=k_size, replace=False).tolist()) for o in others])
    return Dataset(rows, StateSpace(cards)), pp


@pytest.mark.parametrize(
    "cards, k_size", [((2,) * 60, 4), ((2, 3) * 30, 6)], ids=["binary-k4", "mixed-k6"]
)
@pytest.mark.parametrize("n, family", [(3000, True), (20, False)], ids=["family-blocks", "pair-blocks"])
def test_shape_batched_tables_equal_oracles(cards, k_size, n, family):
    # bit for bit at p = 60, where many variables share each block-table
    # shape and each evidence width: with 3000 rows every K_i's family table
    # fits within the distinct rows and is counted as one block, with 20
    # rows none does and the tables come from the shared pair blocks
    data, pp = shape_batch_problem(cards, k_size, n, seed=25)
    distinct = len(data._distinct[1])
    fits = [math.prod(cards[v] for v in pp[i]) * cards[i] <= distinct for i in range(data.p)]
    assert fits == [family] * data.p
    count_table = build_count_table(data, pp, 2)
    want = per_set_count_tables(data, pp, 2)
    got = {(i, svars): t for i in range(data.p) for svars, t in count_table.tables(i)}
    assert got.keys() == want.keys()
    for key, t in got.items():
        assert t.dtype == np.int64 and not t.flags.writeable, key
        assert np.array_equal(t, want[key]), key
    for prior in (UNIT, BDEU):
        assert_tables_match_oracle(count_table, prior)


def spy_evidence_passes(monkeypatch):
    """Record each ``_log_evidences`` call's tables as (key, width) pairs,
    and each ``_gammaln`` argument."""
    evidences, gammaln = ctxtree.scoring._log_evidences, ctxtree.scoring._gammaln
    calls, args = [], []

    def spy_evidences(space, prior, tables):
        calls.append([(owner, counts.shape[1]) for owner, counts in tables])
        return evidences(space, prior, tables)

    def spy_gammaln(x):
        args.append(x.copy())
        return gammaln(x)

    monkeypatch.setattr(ctxtree.scoring, "_log_evidences", spy_evidences)
    monkeypatch.setattr(ctxtree.scoring, "_gammaln", spy_gammaln)
    return calls, args


def test_score_build_one_evidence_pass_per_width(monkeypatch):
    # one evidence call over every table, in variable and then table order;
    # within it cardinalities 2, 3 and 4 give three log Gamma passes, each
    # evaluating log Gamma once per distinct argument
    cards = (2, 3, 4) * 5
    data, pp = shape_batch_problem(cards, 4, 200, seed=26)
    count_table = build_count_table(data, pp, 2)
    calls, args = spy_evidence_passes(monkeypatch)
    assert_tables_match_oracle(count_table, BDEU)
    assert calls == [[((i, svars), cards[i]) for i in range(data.p) for svars, _ in count_table.tables(i)]]
    assert len(args) == 3
    for x in args:
        assert len(np.unique(x)) == x.size


def test_marginal_likelihood_one_evidence_pass(monkeypatch):
    # every stage of a mixed-width tree in one evidence call, in level and
    # then stage order, with one log Gamma pass per width
    rng = np.random.default_rng(29)
    space = StateSpace([2, 3, 4, 3, 2, 4])
    tree = random_cstree(space, 2, rng)
    data = sample(tree, 300, rng)
    want = per_stage_lml(tree, data, BDEU)
    calls, args = spy_evidence_passes(monkeypatch)
    assert log_marginal_likelihood(tree, data, BDEU) == pytest.approx(want, rel=1e-12)
    stages = [
        ((tree.governed_var(lvl), stage.context.vars), space.cards[tree.governed_var(lvl)])
        for lvl, staging in enumerate(tree.stagings)
        for stage in staging.stages
    ]
    assert calls == [stages]
    assert len(args) == 3
    for x in args:
        assert len(np.unique(x)) == x.size


@st.composite
def evidence_tables(draw):
    """A state space and a list of count tables of mixed widths, keyed
    (variable, context variables), with a row per context."""
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
    tables = []
    for _ in range(draw(st.integers(1, 12))):
        var = draw(st.integers(0, len(cards) - 1))
        others = [v for v in range(len(cards)) if v != var]
        svars = tuple(sorted(draw(st.sets(st.sampled_from(others), max_size=2))))
        shape = (math.prod(cards[v] for v in svars), cards[var])
        cells = draw(st.lists(st.integers(0, 60), min_size=math.prod(shape), max_size=math.prod(shape)))
        tables.append(((var, svars), np.array(cells, dtype=np.int64).reshape(shape)))
    return StateSpace(cards), tables


@settings(max_examples=60, deadline=None)
@given(problem=evidence_tables(), prior=st.sampled_from([BDEU, UNIT, PriorSpec("bdeu-path", 0.3)]))
def test_evidences_of_a_mixed_list_equal_single_table_calls(problem, prior):
    # bit for bit: grouping by width and putting the values back in input
    # order changes no value
    space, tables = problem
    got = ctxtree.scoring._log_evidences(space, prior, tables)
    alone = [ctxtree.scoring._log_evidences(space, prior, [table]) for table in tables]
    assert got.dtype == np.float64
    assert np.array_equal(got, np.concatenate(alone))


def test_non_finite_evidence_names_the_lowest_failing_variable():
    # at ess 1e-323 the one-variable contexts of variables 1 (d = 3) and 2
    # (d = 2) have an alpha that underflows to 0; the error names the first
    # failing table in variable order, not the first of some width
    data = Dataset(np.array([[0, 1, 1], [1, 2, 0], [0, 0, 1]]), StateSpace([2, 3, 2]))
    count_table = build_count_table(data, PossibleParents([set(), {0, 2}, {0, 1}]), 2)
    message = r"non-finite evidence for variable 1, context variables \(0,\)$"
    with pytest.raises(ValidationError, match=message):
        build_score_tables(count_table, PriorSpec("bdeu-path", 1e-323))


def test_batched_build_memory_stays_near_per_variable():
    # at |K| = 12 the batch cap leaves one variable per kernel call, so the
    # build's peak stays near the per-variable oracle's
    rng = np.random.default_rng(23)
    p = 20
    rows = rng.integers(0, 2, size=(1000, p))
    pp = PossibleParents(
        [set(rng.choice([j for j in range(p) if j != i], size=12, replace=False).tolist()) for i in range(p)]
    )
    count_table = build_count_table(Dataset(rows, StateSpace([2] * p)), pp, 2)

    def peak(build):
        tracemalloc.start()
        try:
            build(count_table, BDEU)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(build_score_tables) <= 1.25 * peak(per_variable_score_tables)


def test_prior_over_stagings_is_proper():
    spec = EnumSpec.of_cards([2, 2, 2], beta=2)
    n = count_stagings(spec)
    total = sum(math.exp(-math.log(n)) for _ in enumerate_stagings(spec))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_tables_shapes_p3_binary():
    rng = np.random.default_rng(7)
    tables = make_tables(rng.integers(0, 2, size=(30, 3)), [2, 2, 2])
    per_var = [int(line.split("\t")[0]) for line in dump_z_text(tables).splitlines()]
    for i in range(3):
        assert per_var.count(i) == 9
        los = {L: tables.los(i, L) for L in subsets(tables.pp[i])}
        assert len(los) == 4
        assert all(math.isfinite(v) for v in los.values())


def test_tables_beta0_los_constant():
    rng = np.random.default_rng(8)
    tables = make_tables(rng.integers(0, 2, size=(30, 3)), [2, 2, 2], beta=0)
    for i in range(3):
        values = {tables.los(i, L) for L in subsets(tables.pp[i])}
        assert len(values) == 1


def test_tables_deterministic_rebuild():
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2, size=(50, 3))
    t1 = make_tables(rows, [2, 2, 2])
    t2 = make_tables(rows, [2, 2, 2])
    assert dump_z_text(t1) == dump_z_text(t2)
    for i in range(3):
        for L in subsets(t1.pp[i]):
            assert t1.los(i, L) == t2.los(i, L)


def test_order_score_p1():
    rng = np.random.default_rng(10)
    tables = make_tables(rng.integers(0, 3, size=(20, 1)), [3])
    assert log_order_score((0,), tables) == pytest.approx(tables.z(0, Context()), rel=1e-12)


def test_order_score_rejects_non_permutation():
    tables = make_tables(np.random.default_rng(11).integers(0, 2, size=(30, 3)), [2, 2, 2])
    for order in [(0, 0, 1), (0, 1), (0, 1, 7), (-1, 0, 1)]:
        with pytest.raises(ValidationError, match="not a permutation"):
            log_order_score(order, tables)


def test_los_rejects_unknown_variable_or_set():
    pp = PossibleParents([{1}, {0, 2}, set()])
    tables = make_tables(np.random.default_rng(12).integers(0, 2, size=(30, 3)), [2, 2, 2], pp=pp)
    assert tables.los(1, [2, 0, 2]) == tables.los(1, {0, 2})
    for var, usable in [(-1, ()), (3, ()), (0, {2}), (2, {0}), (1, {0, 1})]:
        with pytest.raises(ValidationError, match="no local order score"):
            tables.los(var, usable)
    for var in (True, 0.0):
        with pytest.raises(ValidationError, match="must be an integer"):
            tables.los(var, [])


def test_order_score_symmetry():
    rows = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1]])
    # swapping the two identical-margin columns leaves both orders equal
    tables = make_tables(rows, [2, 2])
    assert log_order_score((0, 1), tables) == pytest.approx(
        log_order_score((1, 0), tables), rel=1e-12
    )


@pytest.mark.parametrize("scheme", ["unit", "bdeu-path"])
def test_order_score_brute_force(scheme):
    rng = np.random.default_rng(12)
    prior = PriorSpec(scheme, 1.0)
    for _ in range(3):
        rows = rng.integers(0, 2, size=(80, 3))
        tables = make_tables(rows, [2, 2, 2], prior=prior)
        pp = [set(range(3)) - {i} for i in range(3)]
        for order in permutations(range(3)):
            expected = brute_force_order_score(
                rows.tolist(), [2, 2, 2], order, pp, 2, scheme, 1.0
            )
            assert log_order_score(order, tables) == pytest.approx(expected, rel=1e-9)


def test_order_score_restricted_parents():
    rng = np.random.default_rng(13)
    rows = rng.integers(0, 2, size=(60, 3))
    pp = PossibleParents([{1}, {0, 2}, set()])
    tables = make_tables(rows, [2, 2, 2], pp=pp)
    expected = brute_force_order_score(
        rows.tolist(), [2, 2, 2], (2, 0, 1), [set(s) for s in pp.sets], 2, "bdeu-path", 1.0
    )
    assert log_order_score((2, 0, 1), tables) == pytest.approx(expected, rel=1e-9)


def test_missing_z_entry_names_context():
    rng = np.random.default_rng(14)
    tables = make_tables(rng.integers(0, 2, size=(20, 2)), [2, 2], beta=1)
    with pytest.raises(ValidationError, match="context"):
        tables.z(0, Context({1: 0, 0: 0}))
    # a variable index must be an integer, not a bool or a float
    for var in (True, 0.0, 1.0):
        with pytest.raises(ValidationError, match="must be an integer"):
            tables.z(var, Context())


def test_z_accepts_context_pairs_in_any_order():
    rng = np.random.default_rng(14)
    tables = make_tables(rng.integers(0, 2, size=(20, 3)), [2, 2, 2])
    expected = tables.z(0, Context({1: 0, 2: 1}))
    assert tables.z(0, ((2, 1), (1, 0))) == expected
    assert tables.z(0, {2: 1, 1: 0}) == expected


def test_max_k_cap():
    rng = np.random.default_rng(15)
    p = 18
    data = Dataset(rng.integers(0, 2, size=(10, p)), StateSpace([2] * p))
    counts = build_count_table(data, beta=1)
    with pytest.raises(ResourceCapError):
        build_score_tables(counts, BDEU)


def test_log_marginal_likelihood_tree(four_var_tree_a):
    rng = np.random.default_rng(16)
    rows = rng.integers(0, 2, size=(100, 4))
    data = Dataset(rows, four_var_tree_a.space)
    got = log_marginal_likelihood(four_var_tree_a, data, BDEU)
    # independent per-stage accumulation via the urn oracle
    expected = 0.0
    for lvl, staging in enumerate(four_var_tree_a.stagings):
        var = four_var_tree_a.order[lvl]
        for stage in staging.stages:
            counts = count_rows(rows.tolist(), var, stage.context.items, 2)
            a = BDEU.alpha_cell(four_var_tree_a.space, var, stage.context.vars)
            expected += polya_log_evidence(counts, [a, a])
    assert got == pytest.approx(expected, rel=1e-10)
    # the level-3 staging contributes exactly its four stage terms
    assert len(four_var_tree_a.stagings[3].stages) == 4


def test_score_equivalence_saturated_p2():
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 2, size=(40, 2))
    space = StateSpace([2, 2])
    data = Dataset(rows, space)

    def saturated(order):
        first = order[0]
        staging = Staging(1, [Stage(Context({first: v}), 1) for v in range(2)])
        return CStree(order, space, [staging])

    a = log_marginal_likelihood(saturated((0, 1)), data, BDEU)
    b = log_marginal_likelihood(saturated((1, 0)), data, BDEU)
    assert a == pytest.approx(b, abs=1e-9)


def test_dump_z_matches_oracle_entries():
    # byte for byte and in order: what ``ctxtree score --dump-scores`` writes
    rng = np.random.default_rng(24)
    cards = [2, 3, 2, 3, 3]
    rows = rng.integers(0, cards, size=(70, 5))
    pp = PossibleParents([{1, 2, 4}, {0, 3}, set(), {0, 1, 2, 4}, {3}])
    for beta in (0, 1, 2):
        count_table = build_count_table(Dataset(rows, StateSpace(cards)), pp, beta)
        z, _ = per_variable_score_tables(count_table, BDEU)
        want = "".join(
            f"{var}\t{json.dumps({str(v): x for v, x in items}, separators=(',', ':'))}\t{value:.12g}\n"
            for var, z_i in z.items()
            for items, value in z_i.items()
        )
        assert dump_z_text(build_score_tables(count_table, BDEU)) == want


def test_level_readers_reject_specs_the_tables_cannot_serve():
    # usable outside K_var, beta above the tables' and cards unlike the space's
    rows = np.random.default_rng(25).integers(0, 2, size=(30, 4))
    pp = PossibleParents([{1}, {0}, {0, 1, 3}, {0, 1, 2}])
    tables = make_tables(rows, [2] * 4, pp=pp, beta=1)
    cases = [
        (1, EnumSpec([0, 2], [2, 2], beta=1)),
        (3, EnumSpec([0, 1, 2], [2, 2, 2], beta=2)),
        (3, EnumSpec([0, 1, 2], [3, 2, 2], beta=1)),
    ]
    for var, spec in cases:
        for reader in (log_local_order_score, optimal_staging):
            with pytest.raises(ValidationError, match=f"variable {var}"):
                reader(var, spec, tables)
    with pytest.raises(ValidationError, match="must be an integer"):
        optimal_staging(3.0, EnumSpec([0, 1, 2], [2, 2, 2], beta=1), tables)


def test_dump_z_format():
    rng = np.random.default_rng(18)
    tables = make_tables(rng.integers(0, 2, size=(30, 2)), [2, 2])
    buf = io.StringIO()
    tables.dump_z(buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 2 * 3  # per variable: empty context + 2 single-var cells
    for line in lines:
        var, ctx, value = line.split("\t")
        int(var)
        float(value)
        assert ctx.startswith("{")


@pytest.mark.parametrize(
    "use, message",
    [
        (
            lambda tree, data: log_context_marginal_likelihood(tree.space, 2, Context(), [1, 2], PriorSpec()),
            r"expected 3 counts for variable 2, got \(2,\)",
        ),
        (
            lambda tree, data: log_marginal_likelihood(tree, Dataset(data.rows, StateSpace([2, 3, 3])), PriorSpec()),
            "dataset and tree have different state spaces",
        ),
        (lambda tree, data: log_marginal_likelihood(tree, data, None), "prior must be a PriorSpec, got None"),
        (
            lambda tree, data: log_context_marginal_likelihood(tree.space, 2, Context(), [1, 2, 0], "unit"),
            "prior must be a PriorSpec, got 'unit'",
        ),
        (
            lambda tree, data: build_score_tables(build_count_table(data), 1.0),
            "prior must be a PriorSpec, got 1.0",
        ),
    ],
)
def test_evidence_input_checks(use, message):
    tree = CStree((0, 1, 2), StateSpace([2, 2, 3]), [Staging.full_level(1), Staging.full_level(2)])
    data = Dataset(np.array([[0, 1, 2], [1, 0, 0]]), tree.space)
    with pytest.raises(ValidationError, match=message):
        use(tree, data)
