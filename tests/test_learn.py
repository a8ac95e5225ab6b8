import importlib
import json

import numpy as np
import pytest

from ctxtree import (
    ChainConfig,
    Context,
    Dataset,
    EnumSpec,
    LearnConfig,
    ParseError,
    PossibleParents,
    PriorSpec,
    ResourceCapError,
    StateSpace,
    ValidationError,
    build_count_table,
    build_score_tables,
    enumerate_stagings,
    kl_divergence,
    learn,
    load_possible_parents,
    log_marginal_likelihood,
    log_staging_score,
    optimal_staging,
    possible_parents_from_cpdag,
    random_cstree,
    sample,
)
from ctxtree.enumeration import iter_raw_stagings
from oracles import enumerated_argmax, is_partition, table_contexts


def make_tables(rows, cards, pp=None):
    data = Dataset(np.asarray(rows), StateSpace(cards))
    return build_score_tables(build_count_table(data, pp, 2), PriorSpec())


def test_cpdag_empty():
    pp = possible_parents_from_cpdag({"directed": [], "undirected": []}, 3)
    assert all(k == frozenset() for k in pp.sets)


def test_cpdag_rule():
    # undirected 0-1 plus directed 2->1
    pp = possible_parents_from_cpdag(
        {"directed": [[2, 1]], "undirected": [[0, 1]]}, 3
    )
    assert pp[1] == frozenset({0, 2})
    assert pp[0] == frozenset({1})
    assert pp[2] == frozenset()


def test_cpdag_complete_undirected():
    p = 5
    edges = [[i, j] for i in range(p) for j in range(i + 1, p)]
    pp = possible_parents_from_cpdag({"undirected": edges}, p)
    assert pp.alpha == p - 1
    for i in range(p):
        assert pp[i] == frozenset(set(range(p)) - {i})


def test_cpdag_errors():
    with pytest.raises(ParseError):
        possible_parents_from_cpdag({"directed": [[1, 1]]}, 3)
    with pytest.raises(ParseError):
        possible_parents_from_cpdag({"undirected": [[0, 9]]}, 3)
    for edges in ([[0, 1, 2]], [[0]], [[0, "1"]], [[0, 1.0]], [[True, 2]], [5], 5):
        with pytest.raises(ParseError):
            possible_parents_from_cpdag({"directed": edges}, 3)
    with pytest.raises(ParseError, match="JSON object"):
        possible_parents_from_cpdag("g.json", 3)


@pytest.mark.parametrize(
    "doc",
    [
        {"0": ["x"]},
        {"0": 5},
        {"directed": [[0, 1, 2]]},
        {"0": [1.5]},
        {"0": [True]},
        {"0": ["1"]},
        {"0": [1.0]},
        {"0": [7]},
        {"0": [0]},
        {"0": "12"},
        [[0, 1]],
        # one variable named twice: a repeated key, a leading zero, a non-ASCII digit
        '{"0": [1], "0": [2]}',
        {"0": [1], "00": [2]},
        {"\u0660": [1]},
        '{"directed": [[0, 1]], "directed": []}',
    ],
)
def test_load_possible_parents_malformed(tmp_path, doc):
    path = tmp_path / "pp.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ParseError, match="pp.json"):
        load_possible_parents(path, 3)


def test_load_possible_parents_mapping(tmp_path):
    path = tmp_path / "pp.json"
    path.write_text(json.dumps({"0": [1, 2], "2": [0]}))
    pp = load_possible_parents(path, 3)
    assert pp[0] == frozenset({1, 2})
    assert pp[1] == frozenset()
    assert pp[2] == frozenset({0})


def test_load_possible_parents_cpdag_form(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"directed": [[0, 2]], "undirected": []}))
    pp = load_possible_parents(path, 3)
    assert pp[2] == frozenset({0})


def test_load_possible_parents_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_possible_parents(path, 3)
    path.write_text(json.dumps({"x": [1]}))
    with pytest.raises(ParseError):
        load_possible_parents(path, 3)


def test_optimal_staging_empty_L():
    tables = make_tables(np.random.default_rng(0).integers(0, 2, size=(30, 3)), [2, 2, 2])
    spec = EnumSpec([0, 1], [2, 2], usable=[], beta=2)
    staging = optimal_staging(2, spec, tables)
    assert len(staging.stages) == 1
    assert staging.stages[0].context == Context()


def test_optimal_staging_prefers_coarse_under_independence():
    # target independent of its predecessors: at n=10000 the unsplit staging
    # should win in at least 9 of 10 replicates
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        rows = rng.integers(0, 2, size=(10_000, 3))
        tables = make_tables(rows, [2, 2, 2])
        spec = EnumSpec([0, 1], [2, 2], beta=2)
        staging = optimal_staging(2, spec, tables)
        if len(staging.stages) == 1:
            wins += 1
        # the winner never scores below the trivial staging
        best = log_staging_score(2, staging, tables, spec)
        from ctxtree import Staging

        trivial = log_staging_score(2, Staging.full_level(2), tables, spec)
        assert best >= trivial - 1e-12
    assert wins >= 9


def test_optimal_staging_matches_enumerated_max():
    rng = np.random.default_rng(1)
    for cards in [[2, 2, 2]] * 50 + [[3, 2, 3]] * 10:
        rows = rng.integers(0, cards, size=(25, 3))
        tables = make_tables(rows, cards)
        spec = EnumSpec([0, 1], cards[:2], beta=2)
        got = optimal_staging(2, spec, tables)
        scores = {
            staging.canonical_key(): log_staging_score(2, staging, tables, spec)
            for staging in enumerate_stagings(spec)
        }
        best = max(scores.values())
        assert scores[got.canonical_key()] == pytest.approx(best, rel=1e-12)


def test_optimal_staging_tie_rule_matches_enumerated_argmax():
    # 2-6 rows leave most contexts empty or equal, so many stagings share the
    # maximal summed evidence exactly; the first in iter_raw_stagings order wins
    rng = np.random.default_rng(13)
    ties = 0
    for trial in range(150):
        cards = rng.integers(2, 4, size=4).tolist()
        rows = rng.integers(0, cards, size=(int(rng.integers(2, 7)), 4))
        data = Dataset(rows, StateSpace(cards))
        for prior in (PriorSpec(), PriorSpec("unit")):
            tables = build_score_tables(build_count_table(data), prior)
            order = rng.permutation(4).tolist()
            for lvl in range(1, 4):
                usable = [v for v in order[:lvl] if rng.random() < 0.8]
                spec = EnumSpec.for_level(data.space, order, lvl, 2, usable)
                var = order[lvl]
                assert optimal_staging(var, spec, tables) == enumerated_argmax(var, spec, tables)
                z_i = {c: tables.z(var, c) for c in table_contexts(cards, spec.usable, 2)}
                evidences = [sum(z_i[items] for items in raw) for raw in iter_raw_stagings(spec)]
                ties += evidences.count(max(evidences)) > 1
    assert ties > 100


def test_learn_p1():
    data = Dataset(np.array([[0], [1], [1]]), StateSpace([2]))
    tree = learn(data, LearnConfig(chain=ChainConfig(iterations=5, burn_in=0, seed=0)))
    assert tree.p == 1
    assert tree.params is not None


def test_learn_respects_possible_parents():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2, size=(200, 4))
    data = Dataset(rows, StateSpace([2] * 4))
    pp = PossibleParents([{1}, {0}, {3}, {2}])
    cfg = LearnConfig(
        chain=ChainConfig(iterations=200, burn_in=50, seed=1),
        possible_parents=pp,
        estimator="none",
    )
    tree = learn(data, cfg)
    for lvl in range(1, 4):
        var = tree.governed_var(lvl)
        for stage in tree.stagings[lvl].stages:
            assert set(stage.context.vars) <= pp[var]
            assert set(stage.context.vars) <= set(tree.order[:lvl])


def test_learn_beta_bound_holds():
    rng = np.random.default_rng(3)
    truth = random_cstree(StateSpace([2] * 4), 2, rng)
    data = sample(truth, 500, rng)
    tree = learn(
        data,
        LearnConfig(beta=1, chain=ChainConfig(iterations=300, burn_in=50, seed=2), estimator="none"),
    )
    assert tree.max_context_size() <= 1


def test_learn_deterministic_and_accurate():
    rng = np.random.default_rng(4)
    truth = random_cstree(StateSpace([2] * 5), 2, rng)
    data = sample(truth, 10_000, rng)
    cfg = LearnConfig(chain=ChainConfig(iterations=2000, burn_in=400, seed=11))
    t1 = learn(data, cfg)
    t2 = learn(data, cfg)
    assert t1.to_json() == t2.to_json()
    assert all(is_partition(st, t1.order, t1.space) for st in t1.stagings)
    assert kl_divergence(truth, t1) < 0.05


def test_learn_returned_order_score_is_trace_max():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, size=(150, 3))
    data = Dataset(rows, StateSpace([2] * 3))
    cfg = LearnConfig(chain=ChainConfig(iterations=400, burn_in=100, seed=3), estimator="none")
    tree, trace = learn(data, cfg, return_trace=True)
    tables = build_score_tables(build_count_table(data, None, 2), PriorSpec())
    best = max(score for _, score in trace.samples)
    assert tables.order_score(tree.order) == pytest.approx(best, rel=1e-12)


def test_learn_config_validation(tmp_path):
    with pytest.raises(ValidationError):
        LearnConfig(estimator="bogus")
    path = tmp_path / "pp.json"
    path.write_text(json.dumps({"0": [1]}))
    for src in (str(path), path, {"0": [1]}):
        with pytest.raises(ValidationError, match="load_possible_parents"):
            LearnConfig(possible_parents=src)


def test_learn_config_rejects_non_integral():
    for field in ("beta", "max_cells", "threads"):
        for bad in (1.5, np.float64(2.0), "2", True):
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                LearnConfig(**{field: bad})
    cfg = LearnConfig(beta=np.int64(1), max_cells=np.int32(1000), threads=np.uint8(2))
    assert (cfg.beta, cfg.max_cells, cfg.threads) == (1, 1000, 2)
    assert all(type(x) is int for x in (cfg.beta, cfg.max_cells, cfg.threads))


@pytest.mark.parametrize(
    "pp",
    [None, PossibleParents([set(range(1, 18))] + [set()] * 17)],
    ids=["full-K-p20", "one-K-of-17"],
)
def test_k_cap_checked_before_counting(monkeypatch, pp):
    # the attribute ``ctxtree.learn`` is the function, so fetch the module
    learn_module = importlib.import_module("ctxtree.learn")

    def no_counting(*args, **kwargs):
        raise AssertionError("build_count_table called before the |K| cap check")

    monkeypatch.setattr(learn_module, "build_count_table", no_counting)
    p = 20 if pp is None else pp.p
    data = Dataset(np.random.default_rng(0).integers(0, 2, size=(50, p)), StateSpace([2] * p))
    with pytest.raises(ResourceCapError, match="exceeds the cap 16") as info:
        learn(data, LearnConfig(possible_parents=pp))
    assert "beta" not in str(info.value)


def test_learn_and_random_cstree_check_each_level_once(monkeypatch):
    # with_params keeps the checked structure; only the first build of a
    # tree runs the partition check
    import ctxtree.core

    calls = []
    check = ctxtree.core._check_partition
    monkeypatch.setattr(
        ctxtree.core, "_check_partition", lambda *args: calls.append(1) or check(*args)
    )
    space = StateSpace([2, 3, 2, 2])
    truth = random_cstree(space, 2, np.random.default_rng(0))
    assert len(calls) == space.p
    data = sample(truth, 200, np.random.default_rng(1))
    calls.clear()
    learn(data, LearnConfig(chain=ChainConfig(iterations=50, seed=0)))
    assert len(calls) == space.p


def test_learn_then_lml_collapse_rows_once(monkeypatch):
    counts_module = importlib.import_module("ctxtree.counts")
    collapse, calls = counts_module._collapse, []

    def counted(rows, cards):
        calls.append(rows.shape)
        return collapse(rows, cards)

    monkeypatch.setattr(counts_module, "_collapse", counted)
    rng = np.random.default_rng(7)
    space = StateSpace([2, 3, 2, 2])
    data = sample(random_cstree(space, 2, rng), 500, rng)
    tree = learn(data, LearnConfig(chain=ChainConfig(iterations=50, seed=1)))
    log_marginal_likelihood(tree, data, PriorSpec())
    assert calls == [(500, 4)]
