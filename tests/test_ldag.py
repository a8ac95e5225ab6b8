import numpy as np
import pytest

from ctxtree import (
    CStree,
    Staging,
    StateSpace,
    ValidationError,
    export_dot,
    joint_table,
    ldag_to_json_dict,
    random_cstree,
    to_ldag,
)
from ctxtree.ldag import _merge_patterns, label_str

from oracles import max_csi_violation


def test_reference_tree_a(four_var_tree_a):
    g = to_ldag(four_var_tree_a)
    assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert g.axes[(0, 2)] == (1,)
    assert g.labels[(0, 2)] == ((1,),)
    assert g.axes[(0, 3)] == (1, 2)
    assert g.labels[(0, 3)] == ((0, 1), (None, 0))
    assert g.labels[(1, 3)] == ((None, 0),)
    assert g.labels[(1, 2)] == ()
    assert g.labels[(2, 3)] == ()


def test_reference_tree_b(four_var_tree_b):
    g = to_ldag(four_var_tree_b)
    assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert g.labels[(1, 3)] == ((1, None), (None, 1))
    assert g.labels[(0, 2)] == ((1,),)
    for edge in ((0, 3), (1, 2), (2, 3)):
        assert g.labels[edge] == ()


def test_independence_tree_has_no_edges():
    space = StateSpace([2, 3, 2])
    tree = CStree((2, 0, 1), space, [Staging.full_level(lvl) for lvl in range(1, 3)])
    g = to_ldag(tree)
    assert g.edges == ()


def test_singleton_stages_force_full_parent_set():
    # an all-singleton level-2 staging makes both predecessors parents
    from ctxtree import Context, Stage

    space = StateSpace([2, 2, 2])
    staging = Staging(
        2, [Stage(Context({0: a, 1: b}), 2) for a in range(2) for b in range(2)]
    )
    tree = CStree((0, 1, 2), space, [Staging.full_level(1), staging])
    g = to_ldag(tree)
    assert (0, 2) in g.edges and (1, 2) in g.edges
    assert g.labels[(0, 2)] == () and g.labels[(1, 2)] == ()


def test_merge_patterns_pairwise():
    merged = _merge_patterns({(1, 1), (1, 0), (0, 1)}, [2, 2])
    assert merged == {(1, None), (None, 1)}
    # incomplete families stay unmerged
    assert _merge_patterns({(0, 1), (None, 0)}, [2, 2]) == {(0, 1), (None, 0)}


def test_merge_patterns_ternary_needs_all_values():
    assert _merge_patterns({(0,), (1,)}, [3]) == {(0,), (1,)}
    assert _merge_patterns({(0,), (1,), (2,)}, [3]) == {(None,)}


def test_merge_patterns_cascades():
    got = _merge_patterns({(0, 0), (0, 1), (1, 0), (1, 1)}, [2, 2])
    assert got == {(None, None)}


def test_export_dot_reference(four_var_tree_a):
    dot = export_dot(to_ldag(four_var_tree_a), names=["1", "2", "3", "4"])
    assert '1 -> 4 [label="(0,1),(*,0)"]' in dot
    assert '1 -> 3 [label="1"]' in dot
    assert '2 -> 4 [label="(*,0)"]' in dot
    assert "3 -> 4;" in dot
    assert dot == export_dot(to_ldag(four_var_tree_a), names=["1", "2", "3", "4"])
    # names are rendered as strings, as CStree stores them
    assert dot == export_dot(to_ldag(four_var_tree_a), names=[1, 2, 3, 4])


def test_export_dot_empty_graph():
    space = StateSpace([2, 2])
    tree = CStree((0, 1), space, [Staging.full_level(1)])
    dot = export_dot(to_ldag(tree), names=["left", "right"])
    assert "digraph {" in dot
    assert "left;" in dot and "right;" in dot
    assert "->" not in dot


def test_export_dot_quotes_names():
    tree = CStree((0, 1), StateSpace([2, 2]), [Staging.full_level(1)])
    dot = export_dot(to_ldag(tree), names=['say "hi"', "a\\b"])
    assert '"say \\"hi\\"";' in dot and '"a\\b";' in dot
    # DOT cannot escape a backslash just before the closing quote
    with pytest.raises(ValidationError, match=r"variable 1 name 'a\\\\' ends in a backslash"):
        export_dot(to_ldag(tree), names=["x", "a\\"])


@pytest.mark.parametrize("keyword", ["node", "Edge", "GRAPH", "digraph", "subGraph", "strict"])
def test_export_dot_quotes_keywords(four_var_tree_a, keyword):
    dot = export_dot(to_ldag(four_var_tree_a), names=[keyword, "b", "c", "d"])
    assert f'  "{keyword}";' in dot and f'  "{keyword}" -> d' in dot
    assert f"  {keyword};" not in dot


def test_export_dot_quotes_names_that_are_not_one_dot_id(four_var_tree_a):
    dot = export_dot(to_ldag(four_var_tree_a), names=["1\u00b2", "2a", "\u0663", "007"])
    assert '  "1\u00b2";\n  "2a";\n  "\u0663";\n  007;\n' in dot


def test_export_dot_rejects_equal_node_ids(four_var_tree_a):
    graph = to_ldag(four_var_tree_a)
    with pytest.raises(ValidationError, match="variables 0 and 2 have the same DOT node id a"):
        export_dot(graph, names=["a", "b", "a", "c"])
    with pytest.raises(ValidationError, match='variables 1 and 3 have the same DOT node id "x y"'):
        export_dot(graph, names=["a", "x y", "c", "x y"])


def test_label_str_single_and_multi(four_var_tree_b):
    g = to_ldag(four_var_tree_b)
    assert label_str(g, (1, 3)) == "(1,*),(*,1)"
    assert label_str(g, (0, 2)) == "1"


def test_ldag_json(four_var_tree_a):
    doc = ldag_to_json_dict(to_ldag(four_var_tree_a))
    assert doc["p"] == 4
    by_edge = {(e["source"], e["target"]): e for e in doc["edges"]}
    assert by_edge[(0, 3)]["axis"] == [1, 2]
    assert by_edge[(0, 3)]["patterns"] == [[0, 1], ["*", 0]]


def test_ldag_json_keeps_names():
    tree = CStree((1, 0), StateSpace([2, 2]), [Staging.full_level(1)], names=["x", "y"])
    assert ldag_to_json_dict(to_ldag(tree)) == {"p": 2, "names": ["x", "y"], "edges": []}


def test_edges_point_forward():
    rng = np.random.default_rng(0)
    for _ in range(25):
        tree = random_cstree(StateSpace([2, 3, 2, 2]), 2, rng, theta="none")
        g = to_ldag(tree)
        pos = {v: i for i, v in enumerate(tree.order)}
        for src, tgt in g.edges:
            assert pos[src] < pos[tgt]


def test_parent_iff_in_some_context():
    rng = np.random.default_rng(1)
    for _ in range(25):
        tree = random_cstree(StateSpace([2] * 5), 2, rng, theta="none")
        g = to_ldag(tree)
        for lvl in range(1, 5):
            tgt = tree.governed_var(lvl)
            expected = set()
            for stage in tree.stagings[lvl].stages:
                expected |= set(stage.context.vars)
            assert {s for s, t in g.edges if t == tgt} == expected


def test_labels_numerically_sound():
    rng = np.random.default_rng(2)
    for _ in range(8):
        tree = random_cstree(StateSpace([2, 2, 3, 2]), 2, rng)
        g = to_ldag(tree)
        assert max_csi_violation(tree, g, joint_table(tree)) <= 1e-12
