import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternarydraw.geometry import edge_arrays
from ternarydraw.layout_general import draw_general, heavy_paths
from ternarydraw.tree import (TernaryTree, TreeError, complete_tree, level_order,
                              random_ternary_tree, tree_from_json, tree_to_json)
from ternarydraw.verify import _subtree_boxes, node_ranks

from conftest import off_zero, path_tree


def test_complete_tree_sizes():
    for h in range(1, 9):
        t = complete_tree(h)  # its height and sizes set by construction
        assert t.n == (3 ** h - 1) // 2
        assert t.complete_height == h
        rebuilt = TernaryTree(t.table)  # both computed from the table
        assert rebuilt.complete_height == h
        assert np.array_equal(rebuilt.size, t.size)


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
        t = complete_tree(h)  # built by arithmetic, not validated
        assert tuple(map(tuple, tree_to_json(t)["children"])) == recursive_complete_children(h)
        checked = TernaryTree(recursive_complete_children(h))
        assert t == checked and t.n == checked.n
        for a, b in zip((t.parents, t.size), (checked.parents, checked.size)):
            assert np.array_equal(a, b)


def test_complete_tree_rejects_bad_height():
    for h in (0, 40, 10 ** 7):  # h past 39 is refused before 3 ** h is computed
        with pytest.raises(TreeError):
            complete_tree(h)


def test_level_order_of_a_complete_tree():
    # T_3 in preorder: the root 0, its children 1, 5, 9, then theirs
    assert level_order(complete_tree(3)).tolist() == [0, 1, 5, 9, 2, 3, 4, 6, 7, 8, 10, 11, 12]
    t = off_zero(complete_tree(4))  # the same order under any ids
    order = level_order(t)
    assert order[0] == t.root and sorted(order.tolist()) == list(range(t.n))
    assert t.table[order[:13]].ravel().tolist() == order[1:].tolist()


@pytest.mark.parametrize("n", [0, -1])
def test_random_tree_rejects_fewer_than_one_node(n):
    with pytest.raises(TreeError):
        random_ternary_tree(n, 0)


def test_single_node():
    t = TernaryTree(((),))
    assert t.n == 1
    assert t.table.tolist() == [[-1, -1, -1]]
    assert t.parents.tolist() == [-1]


def test_validation_too_many_children():
    with pytest.raises(TreeError):
        TernaryTree(((1, 2, 3, 4), (), (), (), ()))


def test_validation_two_parents():
    with pytest.raises(TreeError):
        TernaryTree(((1, 2), (2,), ()))


def test_validation_disconnected():
    with pytest.raises(TreeError):
        TernaryTree(((1,), (), ()))
    with pytest.raises(TreeError):  # node 2 is its own parent
        TernaryTree(((1,), (), (2,)))


def test_sizes_match_the_oracle():
    trees = (complete_tree.__wrapped__(3), random_ternary_tree(300, 4),
             TernaryTree(((), (0, 2), ()), 1))
    for t in trees:
        children = tree_to_json(t)["children"]
        assert t.size.tolist() == oracle_sizes(children, oracle_tree(children, t.root)[1])


def test_subtree_sizes_complete():
    t = complete_tree(3)
    sizes = t.size.tolist()
    assert sizes[t.root] == 13
    assert sorted(sizes).count(1) == 9
    assert sizes.count(4) == 3


def test_heavy_order_tiebreak_by_slot():
    t = complete_tree(2)
    assert heavy_paths(t)[0][0].tolist() == t.table[0].tolist() == [1, 2, 3]


def test_building_a_tree_leaves_its_heavy_paths_unbuilt():
    # the heavy paths belong to the layout and die with it: neither building
    # the tree, nor reading its paths, nor drawing it caches more than sizes
    trees = (random_ternary_tree(500, 1), complete_tree.__wrapped__(6),
             TernaryTree(((1, 2), (), ())), TernaryTree(random_ternary_tree(50, 2).table),
             TernaryTree(((),)))
    for t in trees:
        assert not set(vars(t)) - {"table", "parents", "root", "n", "size", "complete_height"}
        _, start, _, hp = heavy_paths(t)
        assert hp[start[t.root]] == t.root
        cached = set(vars(t))
        draw_general(t)
        assert set(vars(t)) == cached | {"size"}
        assert not cached - {"table", "parents", "root", "n", "size", "complete_height"}


def test_heavy_path_reaches_leaf():
    t = complete_tree(4)
    _, start, length, hp = heavy_paths(t)
    path = hp[start[t.root]:start[t.root] + length[t.root]]
    assert len(path) == 4 and path[0] == t.root
    assert t.table[path[-1], 0] < 0


def heads_and_depths(start, hp):
    """Each node's path head and its depth below it, from heavy_paths'
    ``start`` and ``hp``: v sits at hp[start[v] + depth[v]]."""
    at = np.empty(len(hp), np.int64)
    at[hp] = np.arange(len(hp))
    return hp[start], at - start


def test_random_tree_determinism():
    a = random_ternary_tree(200, 7)
    b = random_ternary_tree(200, 7)
    assert a == b
    assert a != random_ternary_tree(200, 8)


def randrange_random_tree(n, seed):
    """random_ternary_tree's definition: one rng.randrange per node, over the
    open nodes, with a full node swap-removed before the new one is appended.
    """
    rng = random.Random(seed)
    table = np.full((n, 3), -1)
    filled = [0] * n
    open_nodes = [0]
    for v in range(1, n):
        i = rng.randrange(len(open_nodes))
        u = open_nodes[i]
        table[u, filled[u]] = v
        filled[u] += 1
        if filled[u] == 3:
            open_nodes[i] = open_nodes[-1]
            open_nodes.pop()
        open_nodes.append(v)
    return table


@pytest.mark.parametrize("seed", [0, 1, 7, -5, 2 ** 32 + 1, 2 ** 70 + 3])
def test_random_tree_matches_randrange_oracle(seed):
    for n in (1, 2, 3, 4, 10, 1000, 20000):
        t = random_ternary_tree(n, seed)
        assert np.array_equal(t.table, randrange_random_tree(n, seed)), n


def inline_randbelow(getrandbits, m):
    bits = m.bit_length()
    r = getrandbits(bits)
    while r >= m:
        r = getrandbits(bits)
    return r


def test_randrange_is_the_inline_rejection_draw():
    # random_ternary_tree draws randrange(m) this way; a Python whose
    # randrange draws otherwise fails here by name
    for seed in (0, 1, 7, 2 ** 70 + 3):
        a, b = random.Random(seed), random.Random(seed)
        for m in [*range(1, 71), 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 3 << 19]:
            for _ in range(20):
                assert a.randrange(m) == inline_randbelow(b.getrandbits, m), (seed, m)


def slicing_tree_to_json(t):
    """tree_to_json as one sliced list per row of the table's list."""
    counts = (t.table >= 0).sum(axis=1).tolist()
    return {"n": t.n, "root": t.root, "children": [r[:k] for r, k in zip(t.table.tolist(), counts)]}


def test_tree_to_json_matches_slicing_oracle():
    path = TernaryTree([[v + 1] for v in range(99)] + [[]])
    trees = [TernaryTree(((),)), complete_tree(6), path, TernaryTree(((), (0, 2), ()), root=1),
             *(random_ternary_tree(n, seed) for n in (2, 50, 3000) for seed in (0, 3))]
    for t in trees:
        assert tree_to_json(t) == slicing_tree_to_json(t)


@given(st.integers(1, 300), st.integers(0, 50))
def test_random_tree_is_valid_ternary(n, seed):
    t = random_ternary_tree(n, seed)
    assert t.n == n
    assert t.table.shape == (n, 3)
    assert tree_from_json(tree_to_json(t)) == t


def test_complete_height_negative_cases():
    assert TernaryTree(((1,), ())).complete_height is None  # 1 child
    # uneven leaf depths
    t = TernaryTree(((1, 2, 3), (), (), (4, 5, 6), (), (), ()))
    assert t.complete_height is None


def test_complete_height_of_a_single_node():
    assert TernaryTree(((),)).complete_height == 1
    assert TernaryTree(np.full((1, 3), -1)).complete_height == 1


@pytest.mark.parametrize("h", range(2, 8))
def test_complete_height_of_relabelled_complete_trees(h):
    t = off_zero(complete_tree(h))
    assert "complete_height" not in vars(t)  # found by the level walk, not copied
    assert t.complete_height == h


@pytest.mark.parametrize("h", range(2, 6))
@pytest.mark.parametrize("leaf", ["first", "last"])
def test_complete_height_is_none_when_leaves_lie_on_two_depths(h, leaf):
    # every node has 0 or 3 children: one leaf of T_h grows three leaves
    t = complete_tree(h)
    leaves = np.flatnonzero(t.table[:, 0] < 0)
    table = np.concatenate([t.table, np.full((3, 3), -1)])
    table[leaves[0 if leaf == "first" else -1]] = np.arange(t.n, t.n + 3)
    grown = TernaryTree(table)
    assert set((grown.table >= 0).sum(axis=1).tolist()) == {0, 3}
    assert grown.complete_height is None
    assert off_zero(grown).complete_height is None


@pytest.mark.parametrize("seed", range(6))
def test_edge_arrays_keep_the_nonzero_order(seed):
    for t in (random_ternary_tree(300, seed), off_zero(random_ternary_tree(300, seed)),
              off_zero(complete_tree(5)), path_tree(50)):
        parent, slot = np.nonzero(t.table >= 0)  # row-major: by parent, then by slot
        got = edge_arrays(t)
        assert [a.dtype for a in got] == [parent.dtype, t.table.dtype]
        assert got[0].tolist() == parent.tolist()
        assert got[1].tolist() == t.table[parent, slot].tolist()


@given(st.integers(1, 120), st.integers(0, 20))
def test_json_roundtrip(n, seed):
    t = random_ternary_tree(n, seed)
    assert tree_from_json(tree_to_json(t)) == t


def test_json_rejects_bad_count():
    obj = tree_to_json(complete_tree(2))
    obj["n"] = 99
    with pytest.raises(TreeError):
        tree_from_json(obj)


@pytest.mark.parametrize("obj", [
    [], None, {}, {"n": 2}, {"children": 5}, {"children": [[1], 5]},
    {"root": 0.0, "children": [[]]}, {"n": "1", "children": [[]]},
    {"children": [[[1]], []]}, {"children": [[1, [2]], [], []]},
])
def test_json_tree_must_be_an_object(obj):
    with pytest.raises(TreeError):
        tree_from_json(obj)


@pytest.mark.parametrize("field,value", [
    ("n", 3.0), ("n", True), ("root", 0.0), ("root", False),
    ("children", [[1.0, 2], [], []]), ("children", [[True, 2], [], []]),
])
def test_json_ids_must_be_integers(field, value):
    obj = {"n": 3, "root": 0, "children": [[1, 2], [], []]}
    obj[field] = value
    with pytest.raises(TreeError):
        tree_from_json(obj)


# The tuple-walking tree code the array tree replaced, kept as the oracle:
# validation and the walk order from TernaryTree.__post_init__, then the
# subtree sizes, heavy order and paths, edge_arrays and complete_height on
# top of it.

def oracle_tree(children, root):
    """(parent, topo) of a valid tree, TreeError otherwise."""
    n = len(children)
    if n == 0:
        raise TreeError("tree must have at least one node")
    if not 0 <= root < n:
        raise TreeError("root id out of range")
    parent = [-1] * n
    for v, kids in enumerate(children):
        if len(kids) > 3:
            raise TreeError(f"node {v} has {len(kids)} children (max 3)")
        for c in kids:
            if not 0 <= int(c) < n:
                raise TreeError(f"child id {c} out of range")
            if c == root or parent[c] != -1:
                raise TreeError(f"node {c} has two parents or is the root")
            parent[c] = v
    stack = [root]
    topo = []
    while stack:
        v = stack.pop()
        topo.append(v)
        stack.extend(children[v])
    if len(topo) != n:
        raise TreeError("tree is not connected")
    return parent, tuple(topo)


def oracle_sizes(children, topo):
    size = [1] * len(children)
    for v in reversed(topo):
        for c in children[v]:
            size[v] += size[c]
    return size


def oracle_heavy_order(children, sizes):
    """Per node, its children by non-increasing subtree size, ties by slot,
    padded with -1."""
    return [sorted(kids, key=sizes.__getitem__, reverse=True) + [-1] * (3 - len(kids))
            for kids in children]


def oracle_heavy_path(order, start):
    path = [start]
    while order[path[-1]][0] >= 0:
        path.append(order[path[-1]][0])
    return path


def oracle_edge_arrays(children):
    parent = [v for v, kids in enumerate(children) for _ in kids]
    return parent, [c for kids in children for c in kids]


def oracle_complete_height(children, topo):
    depth = [0] * len(children)
    leaf_depth = None
    for v in topo:
        kids = children[v]
        if kids:
            if len(kids) != 3:
                return None
            for c in kids:
                depth[c] = depth[v] + 1
        elif leaf_depth is None:
            leaf_depth = depth[v]
        elif leaf_depth != depth[v]:
            return None
    return leaf_depth + 1


def spider(legs):
    """A root with one path per entry of legs, of that many nodes each."""
    children = [[]]
    for length in legs:
        v = 0
        for _ in range(length):
            children[v].append(len(children))
            v = len(children)
            children.append([])
    return children


@st.composite
def trees(draw):
    """(children as lists, root) with ids shuffled, so the root is not 0."""
    kind = draw(st.sampled_from(["random", "path", "spider", "complete"]))
    if kind == "random":
        children = tree_to_json(random_ternary_tree(draw(st.integers(1, 150)),
                                                    draw(st.integers(0, 10 ** 6))))["children"]
    elif kind == "path":
        n = draw(st.integers(1, 150))
        children = [[v + 1] if v + 1 < n else [] for v in range(n)]
    elif kind == "spider":
        children = spider(draw(st.lists(st.integers(0, 40), max_size=3)))
    else:
        children = tree_to_json(complete_tree(draw(st.integers(1, 7))))["children"]
    n = len(children)
    ids = draw(st.permutations(range(n)))
    if n > 1 and ids[0] == 0:
        ids = ids[1:] + ids[:1]
    relabeled = [None] * n
    for v, kids in enumerate(children):
        relabeled[ids[v]] = [ids[c] for c in kids]
    return relabeled, ids[0]


def assert_matches_oracle(children, root):
    parent, topo = oracle_tree(children, root)
    t = TernaryTree(tuple(map(tuple, children)), root)
    assert t.n == len(children) and t.root == root
    assert t.parents.tolist() == parent
    assert (t.table[:, 0] < 0).tolist() == [not k for k in children]
    sizes = oracle_sizes(children, topo)
    assert t.size.tolist() == sizes
    order = oracle_heavy_order(children, sizes)
    K, start, length, hp = heavy_paths(t)
    head, depth = heads_and_depths(start, hp)
    assert K.tolist() == order
    paths = [oracle_heavy_path(order, v) for v in range(t.n)]
    assert [hp[s + d:s + k].tolist()
            for s, d, k in zip(start.tolist(), depth.tolist(), length.tolist())] == paths
    assert [paths[u][d] for u, d in zip(head.tolist(), depth.tolist())] == list(range(t.n))
    assert all(v == root or order[parent[v]][0] != v for v in head.tolist())
    assert [a.tolist() for a in edge_arrays(t)] == list(oracle_edge_arrays(children))
    assert t.complete_height == oracle_complete_height(children, topo)
    assert TernaryTree(t.table, root) == t == tree_from_json(tree_to_json(t))
    assert tree_to_json(t)["children"] == children


@settings(max_examples=300, deadline=None)
@given(trees())
def test_array_tree_matches_tuple_oracle(tree):
    assert_matches_oracle(*tree)


MUTATIONS = ["duplicate-child", "detached-cycle", "root-as-child", "out-of-range",
             "four-children", "disconnected-node"]


@settings(max_examples=300, deadline=None)
@given(trees(), st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
def test_array_tree_rejects_what_the_oracle_rejects(tree, mutation, rnd):
    children, root = tree
    n = len(children)
    parent, _ = oracle_tree(children, root)
    free = [v for v in range(n) if len(children[v]) < 3]
    non_root = [v for v in range(n) if v != root]
    if mutation == "duplicate-child" and n > 2:  # in place of another child: n - 1 entries still
        kids = rnd.choice([k for k in children if k])
        i = rnd.randrange(len(kids))
        kids[i] = rnd.choice([v for v in non_root if v != kids[i]])
    elif mutation == "detached-cycle" and non_root:
        v = rnd.choice(non_root)  # hang v under one of its own descendants
        below, stack = [], [v]
        while stack:
            u = stack.pop()
            below.append(u)
            stack.extend(children[u])
        children[parent[v]].remove(v)
        children[rnd.choice([u for u in below if len(children[u]) < 3])].append(v)
    elif mutation == "root-as-child":
        if rnd.random() < 0.5 and n > 1:
            kids = rnd.choice([k for k in children if k])
            kids[rnd.randrange(len(kids))] = root
        else:
            children[rnd.choice(free)].append(root)
    elif mutation == "out-of-range":
        bad = rnd.choice([-1, n, n + 7, 2 ** 63, -2 ** 63 - 1])
        if any(children):
            kids = rnd.choice([k for k in children if k])
            kids[rnd.randrange(len(kids))] = bad
        else:
            children[0].append(bad)
    elif mutation == "four-children":
        v = rnd.randrange(n)
        children[v].extend([rnd.randrange(n)] * (4 - len(children[v])))
    elif mutation == "disconnected-node" and non_root:
        leaf = rnd.choice([v for v in non_root if not children[v]])
        children[parent[leaf]].remove(leaf)
    else:
        return  # a single node has no non-root node to mutate
    with pytest.raises(TreeError):
        oracle_tree(children, root)
    with pytest.raises(TreeError):
        TernaryTree(tuple(map(tuple, children)), root)
    if all(0 <= c < 2 ** 63 for k in children for c in k) and max(map(len, children)) <= 3:
        table = np.full((n, 3), -1)
        for v, kids in enumerate(children):
            table[v, :len(kids)] = kids
        with pytest.raises(TreeError):
            TernaryTree(table, root)


def brute_subtree_members(children, v):
    members, stack = [], [v]
    while stack:
        u = stack.pop()
        members.append(u)
        stack.extend(children[u])
    return members


def assert_boxes_match_brute_force(children, root, rnd):
    """The doubling reductions against per-subtree min, max and sum, and the
    verifier's subtree boxes against the min and max of each subtree's
    ranks, for random positions."""
    t = TernaryTree(tuple(map(tuple, children)), root)
    members = [brute_subtree_members(children, v) for v in range(t.n)]
    values = np.array([[rnd.randint(-9, 9) for _ in range(t.n)] for _ in range(2)])
    for ufunc, fn in ((np.minimum, min), (np.maximum, max), (np.add, sum)):
        assert t.reduce_subtrees(ufunc, values).tolist() == [
            [fn(row[u] for u in m) for m in members] for row in values.tolist()]
    r = node_ranks(np.array([[rnd.randint(-20, 20), rnd.randint(-20, 20)] for _ in range(t.n)]))
    rx, ry = r.rx.tolist(), r.ry.tolist()
    box = _subtree_boxes(r, t)
    assert box.dtype == np.int32
    assert box.T.tolist() == [[min(rx[u] for u in m), min(ry[u] for u in m),
                               -max(rx[u] for u in m), -max(ry[u] for u in m)] for m in members]
    assert t.size.tolist() == list(map(len, members))


@settings(max_examples=200, deadline=None)
@given(trees(), st.randoms(use_true_random=False))
def test_subtree_reductions_match_brute_force(tree, rnd):
    assert_boxes_match_brute_force(*tree, rnd)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_subtree_reductions_on_paths_around_powers_of_two(k, extra):
    # depth 2^k - 1 takes k doubling passes, 2^k and 2^k + 1 take k + 1
    n, rnd = 2 ** k + extra + 1, random.Random(k * 3 + extra)
    ids = list(range(n))
    rnd.shuffle(ids)  # the root is ids[0], seldom node 0
    children = [[] for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        children[a].append(b)
    assert_boxes_match_brute_force(children, ids[0], rnd)


def test_size_of_a_long_path():
    n = 2 ** 17 + 1
    t = TernaryTree(np.column_stack([np.append(np.arange(1, n), -1), np.full((n, 2), -1)]))
    assert np.array_equal(t.size, np.arange(n, 0, -1))


def test_child_table_rows_hold_children_before_empty_slots():
    with pytest.raises(TreeError):
        TernaryTree(np.array([[-1, 1, -1], [-1, -1, -1]]))
    with pytest.raises(TreeError):
        TernaryTree(np.array([[1, -1, 2], [-1, -1, -1], [-1, -1, -1]]))
    with pytest.raises(TreeError):
        TernaryTree(np.array([[1, -2, -1], [-1, -1, -1]]))
    assert TernaryTree(np.array([[1, -1, -1], [-1, -1, -1]])) == TernaryTree(((1,), ()))


def test_tree_arrays_are_read_only():
    t = random_ternary_tree(50, 1)
    for a in (t.table, t.parents, t.size, complete_tree(3).size):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("bad", [-1, 3, 2 ** 63, 2 ** 64, 1.0, True, None, "1", *(
    pytest.param(np.full((1, 3), -1).astype(t), id=np.dtype(t).name)
    for t in (np.float64, np.uint64, object, str))])
def test_constructor_rejects_bad_child_ids(bad):
    """Ids in child lists, or a child table whose dtype does not cast
    safely to int64."""
    with pytest.raises(TreeError):
        TernaryTree(bad if isinstance(bad, np.ndarray) else ((1, bad), (), ()))
