import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ternarydraw import geometry
from ternarydraw.geometry import (Extents, GridDrawing, drawing_from_json,
                                  drawing_json, drawing_json_blocks, drawing_to_json,
                                  edge_segments, extents, read_drawing_json)
from ternarydraw.layout_complete import (draw_c1_only, draw_c2_only,
                                         draw_golden, draw_upper_1149)
from ternarydraw.layout_general import draw_general
from ternarydraw.tree import (TernaryTree, TreeError, complete_tree, index_dtype, random_ternary_tree,
                              tree_to_json)
from ternarydraw.verify import build_report, node_ranks

from conftest import canonical_bytes, drawings, json_drawing, layouts, min_area_drawing, raised
from test_layout_complete import rotate  # the construction oracle's rotation


def t2_drawing():
    """The unique 1-2 drawing of T_2 up to congruence."""
    return draw_c1_only(2)


def test_single_point_extents():
    d = GridDrawing(complete_tree(1), ((0, 0),))
    assert extents(d) == Extents(1, 1, 0, 0, 0, 0)


def test_t2_extents():
    e = extents(t2_drawing())
    assert (e.width, e.height, e.left_width, e.right_width) == (3, 2, 1, 1)
    assert (e.top_height, e.bottom_height) == (0, 1)
    assert e.area == 6


def test_three_collinear_extents():
    t = TernaryTree(((1, 2), (), ()), root=0)
    d = GridDrawing(t, ((0, 0), (-1, 0), (1, 0)))
    assert extents(d) == Extents(3, 1, 1, 1, 0, 0)


def test_extents_counts_edge_spans():
    # long edge covers grid lines that carry no node
    t = TernaryTree(((1,), ()))
    d = GridDrawing(t, ((0, 0), (5, 0)))
    e = extents(d)
    assert (e.width, e.right_width) == (6, 5)


def test_extents_count_the_lines_a_diagonal_edge_crosses():
    # a tree drawing is connected, so the edge (0, 0)-(2, 1) meets column 1
    # though no node lies on it
    d = GridDrawing(TernaryTree(((1,), ())), ((0, 0), (2, 1)))
    assert extents(d) == build_report(d).extents == Extents(3, 2, 0, 2, 0, 1)


def test_rotate_t2_cw():
    e = extents(rotate(t2_drawing(), 1))
    assert (e.width, e.height) == (2, 3)
    assert (e.left_width, e.right_width) == (1, 0)
    assert (e.top_height, e.bottom_height) == (1, 1)


def test_rotate_double_half_turn_is_identity():
    d = t2_drawing()
    assert rotate(rotate(d, 2), 2) == d
    assert rotate(rotate(rotate(d, 1), 1), 2) == d


def test_rotate_rejects_zero_turns():
    with pytest.raises(ValueError):
        rotate(t2_drawing(), 0)


@given(st.integers(1, 80), st.integers(0, 20), st.sampled_from([1, 2, 3]))
def test_rotate_permutes_extents(n, seed, q):
    d = draw_general(random_ternary_tree(n, seed))
    e, r = extents(d), extents(rotate(d, q))
    if q == 2:
        assert (r.width, r.height) == (e.width, e.height)
        assert (r.left_width, r.right_width) == (e.right_width, e.left_width)
    else:
        assert (r.width, r.height) == (e.height, e.width)
    assert r.area == e.area


def test_pos_is_a_read_only_copy_compared_by_value():
    t = TernaryTree(((1,), ()))
    src = np.array([[0, 0], [3, 0]])
    d = GridDrawing(t, src)
    with pytest.raises(ValueError):
        d.pos[1, 0] = 7
    src[1, 0] = 9
    assert d.pos.tolist() == [[0, 0], [3, 0]]
    assert d == GridDrawing(t, ((0, 0), (3, 0)))
    assert d != GridDrawing(t, ((0, 0), (4, 0)))
    assert d != GridDrawing(TernaryTree(((), (0,)), root=1), ((0, 0), (3, 0)))
    assert d != object()  # __eq__ returns NotImplemented: identity decides
    root = d.root_pos()
    assert root == (0, 0) and all(type(c) is int for c in root)


def test_pos_dtype_follows_integrality():
    # any integer dtype is kept as int64; any other is refused, even with
    # integral values, so no drawing is off the grid
    t = TernaryTree(((1,), ()))
    for dtype in (np.int8, np.uint32, np.int64):
        assert GridDrawing(t, np.array([[0, 0], [1, 0]], dtype)).pos.dtype == np.int64
    for pos in (((0, 0), (0.5, 0)), ((0, 0), (2.0, 0)), np.zeros((2, 2), bool),
                np.zeros((2, 2), object)):
        with pytest.raises(ValueError):
            GridDrawing(t, pos)


@pytest.mark.parametrize("pos", [((0, 0), (True, 0)), [[0, False], [1, 0]],
                                 [(0, 0), (np.True_, 0)], [np.zeros(2, int), np.ones(2, bool)]])
def test_bool_among_sequence_positions_rejected(pos):
    # numpy types each of these as int64, so the dtype test alone lets them in
    assert np.array(pos).dtype == np.int64
    with pytest.raises(ValueError, match="integers"):
        GridDrawing(TernaryTree(((1,), ())), pos)


def test_position_count_mismatch_rejected():
    with pytest.raises(ValueError):
        GridDrawing(complete_tree(2), ((0, 0),))


def test_edge_segments_count():
    d = t2_drawing()
    assert len(edge_segments(d)) == d.tree.n - 1


@given(st.integers(1, 60), st.integers(0, 15))
def test_drawing_json_roundtrip(n, seed):
    d = draw_general(random_ternary_tree(n, seed))
    assert drawing_from_json(drawing_to_json(d)) == d


@pytest.mark.parametrize("missing", ["tree", "pos"])
def test_drawing_json_without_tree_or_pos_is_a_value_error(missing):
    obj = drawing_to_json(t2_drawing())
    del obj[missing]
    with pytest.raises(ValueError, match='"tree" and "pos"'):  # not KeyError
        drawing_from_json(obj)


def dumped(d):
    return json.dumps(drawing_to_json(d), indent=2)


def test_drawing_json_matches_json_dumps_on_general_drawings(corpus):
    for t in corpus[::10]:  # every size of random tree, complete trees, paths
        d = draw_general(t)
        assert drawing_json(d) == dumped(d)


def test_drawing_json_matches_json_dumps_on_complete_drawings():
    for h in range(1, 8):
        for d in (draw_c1_only(h), draw_c2_only(h), draw_upper_1149(h),
                  *draw_golden(h), min_area_drawing(h)):
            assert drawing_json(d) == dumped(d)


def test_drawing_json_child_counts_and_extreme_coordinates():
    big = 2 ** 62 - 1
    t = TernaryTree(((1, 2, 3), (4,), (5, 6), (), (), (), ()), root=0)
    d = GridDrawing(t, ((0, 0), (-big, 0), (0, -1), (big, 0), (-big, big),
                        (-7, -1), (0, big)))
    assert sorted({len(k) for k in tree_to_json(t)["children"]}) == [0, 1, 2, 3]
    assert drawing_json(d) == dumped(d)
    single = GridDrawing(complete_tree(1), ((-3, 5),))
    assert drawing_json(single) == dumped(single)
    rooted = GridDrawing(TernaryTree(((), (0,)), root=1), ((0, 1), (0, 0)))
    assert drawing_json(rooted) == dumped(rooted)
    # one block of every width: +-10^k and +-(10^k - 1) for k = 0..18, and
    # +-(2^62 - 1), x and y of mixed signs and widths in each row
    values = [sign * v for k in range(19) for v in (10 ** k, 10 ** k - 1) for sign in (1, -1)]
    values += [big, -big]
    x = np.array(values)
    mixed = GridDrawing(random_ternary_tree(len(x), 2), np.stack([x, np.roll(x[::-1], 3)], 1))
    assert drawing_json(mixed) == dumped(mixed)


def test_drawing_json_never_rounds():
    # a fractional coordinate is refused before any drawing holds it
    with pytest.raises(ValueError):
        drawing_json(GridDrawing(TernaryTree(((1,), ())), ((0, 0), (0.5, 0))))


def sorted_node_ranks(P):
    """node_ranks with every rank and count from np.unique: the sort-only path."""
    (ux, rx), (uy, ry) = (np.unique(c, return_inverse=True) for c in P.T)
    yx = np.sort(ry * len(ux) + rx)
    return rx, ry, len(ux), len(uy), yx, len(np.unique(yx)) == len(P)


BIG = 2 ** 62 - 1


@pytest.mark.parametrize("axis", [
    [0, 5, 2, 2, 3, 1],  # spans exactly n values: counted
    [0, 6, 2, 2, 3, 1],  # spans n + 1 values: sorted
    [-3, -1, -3, 0, -2, 1],
    [-9, -5, -9, -4, -6, -8],
    [-BIG, BIG, 0, BIG, -BIG, 7],
    [BIG, BIG - 5, BIG - 2, BIG - 2, BIG - 1, BIG - 3],
    [-BIG, -BIG + 5, -BIG + 2, -BIG, -BIG + 4, -BIG + 1],
    [4, 4, 4, 4, 4, 4],
])
def test_node_ranks_equal_the_sorted_ranks(axis):
    other = [3, 1, 4, 1, 5, 9]
    for P in (np.array([axis, other]).T, np.array([other, axis]).T, np.array([axis, axis]).T):
        got, want = node_ranks(P), sorted_node_ranks(P)
        assert got.rx.dtype == got.ry.dtype == index_dtype(len(P)) and got.yx.dtype == np.int64
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 80), st.sampled_from([0, -BIG, BIG - 80]),
       st.randoms(use_true_random=False))
def test_node_ranks_equal_the_sorted_ranks_on_dense_and_sparse_axes(n, spread, offset, rnd):
    P = np.array([[offset + rnd.randint(0, spread) for _ in range(2)] for _ in range(n)])
    got, want = node_ranks(P), sorted_node_ranks(P)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_extents_exact_at_the_coordinate_limit():
    t = TernaryTree(((1, 2, 3), (4,), (), (), ()))
    d = GridDrawing(t, ((0, 0), (-BIG, 0), (0, -BIG), (BIG, 0), (-BIG, BIG)))
    assert extents(d) == Extents(2 * BIG + 1, 2 * BIG + 1, BIG, BIG, BIG, BIG)
    d = GridDrawing(t, ((BIG, -BIG), (BIG - 1, -BIG), (BIG, -BIG + 2), (BIG - 3, -BIG), (BIG, 1 - BIG)))
    assert extents(d) == Extents(4, 3, 3, 0, 0, 2)
    assert geometry.bbox(d) == (BIG - 3, BIG, -BIG, 2 - BIG)
    assert all(type(c) is int for c in geometry.bbox(d))


def test_extents_reject_off_grid_drawings():
    with pytest.raises(ValueError):
        extents(GridDrawing(TernaryTree(((1,), ())), ((0, 0), (0.5, 0))))


def json_read(data: bytes):
    """The reader's oracle: the drawing that json and drawing_from_json read
    from data, None where they raise."""
    try:
        return drawing_from_json(json.loads(data))
    except ValueError:  # JSONDecodeError and TreeError included
        return None


@settings(max_examples=150, deadline=None)
@given(drawings())
def test_reader_reads_every_whitespace_layout(d):
    text = drawing_json(d)
    for layout in (text, text + "\n") + layouts(d):
        keys_in_order = list(json.loads(layout)) == ["tree", "pos"]
        assert read_drawing_json(layout.encode()) == (d if keys_in_order else None)
        assert json_read(layout.encode()) == d


def test_drawing_json_is_the_join_of_its_blocks():
    # the last block full, short by one and holding one row: where the rows'
    # ",\n" ends, and whether a block ends the drawing
    for n in (3 * geometry._BLOCK + 5, geometry._BLOCK - 1, geometry._BLOCK, geometry._BLOCK + 1):
        d = draw_general(random_ternary_tree(n, 1))
        blocks = list(drawing_json_blocks(d))
        text = "".join(blocks)
        assert text == drawing_json(d) == dumped(d)
        assert max(block.count("[") for block in blocks) == min(n, geometry._BLOCK)  # one per list or row
        assert read_drawing_json(drawing_json(d).encode()) == d


@pytest.mark.parametrize("chunk", [32, 1000])
def test_read_canonical_in_small_chunks(chunk, monkeypatch):
    # the reader counts the runs of number bytes in blocks of _SCAN bytes,
    # here chunk, and every line of drawing_json is shorter than 32 bytes, so
    # runs and whitespace fall on either side of many block ends. Lines and
    # indents of any width are read; whitespace inside a number, at any
    # offset, is refused.
    monkeypatch.setattr(geometry, "_SCAN", chunk)
    big = 2 ** 62 - 1
    t = TernaryTree(((1, 2, 3), (4,), (5, 6), (), (), (), ()), root=0)
    for d in (GridDrawing(t, ((0, 0), (-big, 0), (0, -1), (big, 0), (-big, big), (-7, -1), (0, big))),
              draw_general(random_ternary_tree(500, 3)), draw_upper_1149(4)):
        text = drawing_json(d)
        assert read_drawing_json(text.encode()) == d
        long_line = text.replace("\n      [\n", "\n      [" + " " * 40 + "\n", 1)
        deeper = text.replace("\n        ", "\n         ", 1)
        shallower = re.sub(r"\n ( *-?\d\d)", r"\n\1", text, count=1)
        for layout in (long_line, deeper, shallower):
            assert layout != text and read_drawing_json(layout.encode()) == d
        numbers = [m.start() for m in re.finditer(r"-?\d\d+|-\d", text)]  # two bytes or more
        for at in numbers[::max(1, len(numbers) // 40)]:
            for space in (" ", "\n" + " " * chunk):
                split = text[:at + 1] + space + text[at + 1:]  # after a digit or a "-"
                assert read_drawing_json(split.encode()) is None and json_read(split.encode()) is None


@pytest.mark.parametrize("old,new", [
    ("      []", "      [\n      ]"),
    ("      []", "      [ ]"),
    ("    [\n      1,\n      0\n    ]", "    [1, 0]"),
], ids=["empty-list-on-two-lines", "empty-list-spaced", "row-on-one-line"])
def test_reader_reads_near_canonical_layouts(old, new):
    # changes to drawing_json's whitespace alone, which the reader reads as
    # json does
    data = canonical_bytes([[1], []], [[0, 0], [1, 0]])
    d = read_drawing_json(data)
    assert d is not None and data.count(old.encode()) == 1
    data = data.replace(old.encode(), new.encode())
    assert read_drawing_json(data) == d == json_read(data)


@pytest.mark.parametrize("old,new", [
    ('"n": 2,', '"n": 02,'),
    ('"root": 0,', '"root": 00,'),
    ("      [\n        1\n      ],\n      []", "      [],\n        1,\n      []"),
    ("      []\n    ]", "      [],\n    ]"),
    ("      0\n    ]\n  ]", "      0\n    ],\n  ]"),
    ("    [\n      0,\n      0\n    ],\n    [\n      1,", "    [\n      0\n    ],\n    [\n      0,\n      1,"),
    ("\n  ]\n}", "\n  }\n}"),
], ids=["n-leading-zero", "root-leading-zero", "id-outside-a-list",
        "comma-after-the-last-list", "comma-after-the-last-row", "rows-of-one-and-three", "tail"])
def test_read_canonical_refuses_near_canonical_layouts(old, new):
    # one change each that keeps every token's own text, so only the order
    # and count of the tokens can refuse it. json refuses each; the reader
    # returns None, or raises what json's drawing raises (rows of one and
    # three numbers: GridDrawing's message)
    data = canonical_bytes([[1], []], [[0, 0], [1, 0]])
    assert read_drawing_json(data) is not None and data.count(old.encode()) == 1
    data = data.replace(old.encode(), new.encode())
    read, expected = raised(read_drawing_json, data), raised(json_drawing, data)
    assert type(expected) is tuple and read in (None, expected)
    assert read is not None or expected[0] is not ValueError  # GridDrawing refusing: so does the reader


@pytest.mark.parametrize("children,old,new", [
    ([[1], []], "[\n        1\n      ]", "[\n        1 2\n      ]"),
    ([[1], []], "      1,\n      0", "      - 1,\n      0"),
    ([[1], []], '"pos"', '"p os"'),
    ([[1], []], '"children"', '"child\tren"'),
    ([[1], []], '"tree"', '"tree\n"'),
    ([[1], []], ": {\n", ": {\x0b\n"),
    ([[1], []], "      1,\n      0", "      1,\x0c\n      0"),
    ([[1], []], "[\n        1", "[\x00\n        1"),
    ([[1], []], "\n  ]\n}", "\n  ]\n}\x1f"),
    # as many items as [[1, 2], [], []], one id moved between two lists,
    # with the comma between them or in the comma's place
    ([[1, 2], [], []], "[\n        1,\n        2\n      ],", "[,\n        1\n      ]\n        2,"),
    ([[1, 2], [], []], "[\n        1,\n        2\n      ],", "[,\n        1\n      ]\n        2"),
], ids=["merged-digits", "minus-apart", "space-in-pos", "tab-in-children", "newline-in-tree",
        "vertical-tab", "form-feed", "nul", "unit-separator", "id-between-lists",
        "id-for-a-comma"])
def test_reader_refuses_what_json_refuses(children, old, new):
    data = canonical_bytes(children, [[i, 0] for i in range(len(children))])
    assert read_drawing_json(data) is not None and data.count(old.encode()) == 1
    data = data.replace(old.encode(), new.encode())
    assert read_drawing_json(data) is None and json_read(data) is None


def tokens_spaced(draw, text: str) -> str:
    """text's JSON tokens with random JSON whitespace before, between and
    after them."""
    tokens = re.findall(r'"\w+"|-?\d+|\S', text)
    space = st.text(alphabet=" \t\n\r", max_size=3)
    return "".join(draw(space) + token for token in tokens) + draw(space)


@settings(max_examples=150, deadline=None)
@given(d=drawings(max_n=12), data=st.data())
def test_reader_reads_random_whitespace_between_tokens(d, data):
    text = tokens_spaced(data.draw, json.dumps(drawing_to_json(d)))
    assert read_drawing_json(text.encode()) == json_read(text.encode()) == d


EDIT_BYTES = b" \n,[]-0123456789x"


def edit(data: bytes, kind: str, at: int, byte: int) -> bytes:
    """data with one byte substituted, inserted or deleted at ``at`` (cyclically)."""
    i = at % (len(data) + (kind == "insert"))
    return data[:i] + bytes([byte] * (kind != "delete")) + data[i + (kind != "insert"):]


@settings(max_examples=400, deadline=None)
@given(d=drawings(max_n=10), newline=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(["substitute", "insert", "delete"]),
                                st.integers(0, 10 ** 6), st.sampled_from(EDIT_BYTES)),
                      min_size=1, max_size=3))
def test_read_canonical_agrees_with_the_oracle_on_edited_files(d, newline, edits):
    data = drawing_json(d).encode() + b"\n" * newline
    for kind, at, byte in edits:
        data = edit(data, kind, at, byte)
    read, expected = raised(read_drawing_json, data), raised(json_drawing, data)
    assert read is None or read == expected  # the drawing, or the same type and message
    # json alone reads other keys and whitespace inside a key; the reader
    # reads every other drawing json reads
    keys = (b'"tree"', b'"n"', b'"root"', b'"children"', b'"pos"')
    if isinstance(expected, GridDrawing) and all(key in data for key in keys):
        compact = json.dumps(drawing_to_json(expected), separators=(",", ":")).encode()
        assert read == expected or data.translate(None, b" \n") != compact


@pytest.mark.parametrize("n", [10 ** 18, 2 ** 63 - 1])
def test_read_canonical_allocates_nothing_for_a_lying_header(n):
    data = canonical_bytes([[1], []], [[0, 0], [1, 0]]).replace(b'"n": 2,', b'"n": %d,' % n)
    assert b'"n": %d,' % n in data
    tracemalloc.start()
    try:
        assert read_drawing_json(data) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("c", [2 ** 62 - 1, 2 ** 62, 2 ** 63, 2 ** 63 - 1, 10 ** 19 - 1, 10 ** 19,
                               2 ** 64 + 1])
def test_read_canonical_coordinate_range(c):
    # a coordinate of 20 digits is no token of the reader's; one of 19 past
    # 2**63 - 1 wraps, and is refused as json's reading of it is
    for sign in (1, -1):
        data = canonical_bytes([[1], []], [[0, 0], [sign * c, 0]])
        read = raised(read_drawing_json, data)
        if c < 2 ** 62:
            assert read.pos.tolist() == [[0, 0], [sign * c, 0]]
        else:
            refused = (ValueError, "coordinates must be integers with |c| < 2**62")
            assert raised(json_drawing, data) == refused
            assert read == (None if c >= 10 ** 19 else refused)


@pytest.mark.parametrize("bad", [3, -1, 2 ** 63, 2 ** 63 + 1, 12345678901234567890,
                                 -2 ** 63, -(10 ** 19 - 1)])
def test_read_canonical_rejects_bad_child_ids(bad):
    # -1 is an empty slot in the table, 2**63 wraps to -2**63 in int64 digit
    # arithmetic, and a 20-digit id is no token: none is read as a drawing,
    # not even as a one-node tree's only child, where -1 would read as no
    # child. Each id of at most 19 digits raises json's TreeError.
    for children, pos in (([[1, bad], [], []], [[0, 0], [1, 0], [2, 0]]),
                          ([[bad], []], [[0, 0], [1, 0]]), ([[bad]], [[0, 0]])):
        data = canonical_bytes(children, pos)
        expected = raised(json_drawing, data)
        assert expected[0] is TreeError
        assert raised(read_drawing_json, data) == (None if abs(bad) >= 10 ** 19 else expected)
