import pytest
from hypothesis import given, strategies as st

from ternarydraw.tree import (TernaryTree, TreeError, complete_height,
                              complete_tree, heavy_order, heavy_path,
                              is_complete, random_ternary_tree, subtree_sizes,
                              tree_from_json, tree_to_json)


def test_complete_tree_sizes():
    for h in range(1, 8):
        t = complete_tree(h)
        assert t.n == (3 ** h - 1) // 2
        assert complete_height(t) == h
        assert is_complete(t)


def recursive_complete_children(h):
    """complete_tree's definition: preorder ids, children in slot order."""
    children = []

    def build(height):
        idx = len(children)
        children.append(())
        if height > 1:
            children[idx] = tuple(build(height - 1) for _ in range(3))
        return idx

    build(h)
    return tuple(children)


def test_complete_tree_matches_recursive_definition():
    for h in range(1, 9):
        assert complete_tree(h).children == recursive_complete_children(h)


def test_complete_tree_rejects_bad_height():
    with pytest.raises(TreeError):
        complete_tree(0)


def test_single_node():
    t = TernaryTree(((),))
    assert t.n == 1
    assert t.is_leaf(0)
    assert t.parent(0) is None


def test_validation_too_many_children():
    with pytest.raises(TreeError):
        TernaryTree(((1, 2, 3, 4), (), (), (), ()))


def test_validation_two_parents():
    with pytest.raises(TreeError):
        TernaryTree(((1, 2), (2,), ()))


def test_validation_disconnected():
    with pytest.raises(TreeError):
        TernaryTree(((1,), (), ()))


def test_parent_and_topo():
    t = complete_tree(3)
    topo = t.topo_order()
    seen = set()
    for v in topo:
        p = t.parent(v)
        assert p is None or p in seen
        seen.add(v)
    assert seen == set(range(t.n))


def test_subtree_sizes_complete():
    t = complete_tree(3)
    sizes = subtree_sizes(t)
    assert sizes[t.root] == 13
    assert sorted(sizes).count(1) == 9
    assert sizes.count(4) == 3


def test_heavy_order_tiebreak_by_slot():
    t = complete_tree(2)
    order = heavy_order(t)
    assert order.heaviest[0] == t.children[0][0]
    assert order.second[0] == t.children[0][1]
    assert order.lightest[0] == t.children[0][2]


def test_heavy_path_reaches_leaf():
    t = complete_tree(4)
    path = heavy_path(t, t.root)
    assert len(path) == 4
    assert t.is_leaf(path[-1])


def test_random_tree_determinism():
    a = random_ternary_tree(200, 7)
    b = random_ternary_tree(200, 7)
    assert a == b
    assert a != random_ternary_tree(200, 8)


@given(st.integers(1, 300), st.integers(0, 50))
def test_random_tree_is_valid_ternary(n, seed):
    t = random_ternary_tree(n, seed)
    assert t.n == n
    assert all(len(kids) <= 3 for kids in t.children)


def test_complete_height_negative_cases():
    assert complete_height(TernaryTree(((1,), ()))) is None  # 1 child
    # uneven leaf depths
    t = TernaryTree(((1, 2, 3), (), (), (4, 5, 6), (), (), ()))
    assert complete_height(t) is None


@given(st.integers(1, 120), st.integers(0, 20))
def test_json_roundtrip(n, seed):
    t = random_ternary_tree(n, seed)
    assert tree_from_json(tree_to_json(t)) == t


def test_json_rejects_bad_count():
    obj = tree_to_json(complete_tree(2))
    obj["n"] = 99
    with pytest.raises(TreeError):
        tree_from_json(obj)


@pytest.mark.parametrize("field,value", [
    ("n", 3.0), ("n", True), ("root", 0.0), ("root", False),
    ("children", [[1.0, 2], [], []]), ("children", [[True, 2], [], []]),
])
def test_json_ids_must_be_integers(field, value):
    obj = {"n": 3, "root": 0, "children": [[1, 2], [], []]}
    obj[field] = value
    with pytest.raises(ValueError):
        tree_from_json(obj)
