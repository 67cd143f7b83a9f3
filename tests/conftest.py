import json

import numpy as np
import pytest
from hypothesis import strategies as st

from ternarydraw.geometry import GridDrawing, drawing_from_json, drawing_json, drawing_to_json
from ternarydraw.layout_general import draw_general
from ternarydraw.pareto import levels, reconstruct_drawing
from ternarydraw.tree import TernaryTree, complete_tree, random_ternary_tree


def path_tree(n: int) -> TernaryTree:
    return TernaryTree(tuple((i + 1,) if i + 1 < n else () for i in range(n)))


def caterpillar_tree(spine: int) -> TernaryTree:
    """Spine of `spine` nodes, each with two extra leaf children."""
    total = 3 * spine
    children: list[list[int]] = [[] for _ in range(total)]
    leaf = spine
    for i in range(spine):
        if i + 1 < spine:
            children[i].append(i + 1)
        children[i].extend((leaf, leaf + 1))
        leaf += 2
    return TernaryTree(tuple(tuple(c) for c in children))


def min_area_drawing(h: int):
    """The minimum-area 1-2 drawing of T_h, rebuilt from the frontiers' recipes."""
    fronts = list(levels(h))
    return reconstruct_drawing(fronts, fronts[-1].min_area()[1])


@pytest.fixture(scope="session")
def corpus():
    """Shared tree corpus: 500 random trees (seeds split across three sizes),
    complete trees up to h=9, paths, and caterpillars."""
    trees = []
    for seed in range(0, 167):
        trees.append(random_ternary_tree(100, seed))
    for seed in range(167, 333):
        trees.append(random_ternary_tree(1000, seed))
    for seed in range(333, 500):
        trees.append(random_ternary_tree(10000, seed))
    for h in range(1, 10):
        trees.append(complete_tree(h))
    for n in (1, 2, 3, 10, 100, 1000):
        trees.append(path_tree(n))
    for spine in (1, 5, 50, 300):
        trees.append(caterpillar_tree(spine))
    return trees


def shuffled(t, seed):
    """t with its node ids permuted, so that any id can be the root."""
    perm = np.random.default_rng(seed).permutation(t.n)
    table = np.full((t.n, 3), -1)
    table[perm] = np.where(t.table >= 0, perm[t.table], -1)
    return TernaryTree(table, perm[t.root].item())


def off_zero(t):
    """t relabelled so that its root is not node 0."""
    return next(u for u in (shuffled(t, s) for s in range(20)) if u.root != 0)


coordinate = st.one_of(st.integers(-3, 3), st.integers(-2 ** 62 + 1, 2 ** 62 - 1))


@st.composite
def drawings(draw, max_n=30):
    """A random tree under random ids, at random positions (mostly not a
    planar drawing) or at those of its general layout."""
    t = shuffled(random_ternary_tree(draw(st.integers(1, max_n)), draw(st.integers(0, 99))),
                 draw(st.integers(0, 99)))
    if draw(st.booleans()):
        return draw_general(t)
    return GridDrawing(t, np.array(draw(st.lists(coordinate, min_size=2 * t.n,
                                                 max_size=2 * t.n))).reshape(-1, 2))


def layouts(d):
    """Other JSON layouts of d's document: none of them is drawing_json's."""
    obj, text = drawing_to_json(d), drawing_json(d)
    reordered = {"pos": obj["pos"], "tree": dict(reversed(obj["tree"].items()))}
    return (json.dumps(obj, indent=4), json.dumps(obj), json.dumps(obj, separators=(",", ":")),
            json.dumps(reordered, indent=2), text + "\n\n", " " + text, "\n" + text,
            text.replace("\n", "\r\n"))


def canonical_bytes(children, pos, root=0):
    """The drawing_json layout of a document, whatever its values."""
    return json.dumps({"tree": {"n": len(children), "root": root, "children": children},
                       "pos": pos}, indent=2).encode()


def raised(read, data: bytes):
    """read(data), or the type and message of the ValueError it raises."""
    try:
        return read(data)
    except ValueError as e:
        return type(e), str(e)


def json_drawing(data: bytes):
    """The drawing that json and drawing_from_json read from data."""
    return drawing_from_json(json.loads(data))
