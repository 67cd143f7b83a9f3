"""The verify path in both index dtypes. tree.index_dtype chooses int32 for
node ids, ranks, places, counts and offsets below 2**31, and int64 past it;
forcing int64 here must change no report, no drawing read and no refusal.
The reader is also given child ids and coordinates at the edges of both
dtypes, where it must read what json reads, or refuse as json's drawing
refuses."""

import importlib

import numpy as np
import pytest

from ternarydraw import geometry, tree, verify
from ternarydraw.geometry import GridDrawing, drawing_json, read_drawing_json
from ternarydraw.layout_general import draw_general
from ternarydraw.tree import TernaryTree, TreeError, index_dtype, tree_to_json
from ternarydraw.verify import build_report

from conftest import canonical_bytes, json_drawing, raised
from test_verify_differential import DRAWINGS, MUTANTS, NOT_PLANTED, PERFBENCH, PLANTINGS

EDGES = [2 ** 31 - 1, 2 ** 31, 2 ** 62 - 1]


def widened(monkeypatch):
    """index_dtype returning int64 wherever the package reads it."""
    for module in (tree, geometry, verify):
        monkeypatch.setattr(module, "index_dtype", lambda bound: np.int64)


def test_index_dtype_is_int32_below_2_to_the_31():
    assert [index_dtype(b) for b in (0, 2 ** 31 - 1, 2 ** 31, 2 ** 40)] == [np.int32, np.int32, np.int64, np.int64]


def test_ranks_follow_the_dtype(monkeypatch):
    # each axis counted, then sorted: both of _dense_ranks's ways
    for P in (np.array([[0, 5], [3, 5], [2, 6]]), np.array([[0, 5], [3, 5], [3, -2 ** 62 + 1]])):
        r = verify.node_ranks(P)
        assert r.rx.dtype == r.ry.dtype == np.int32 and r.yx.dtype == np.int64
    widened(monkeypatch)
    r = verify.node_ranks(P)
    assert r.rx.dtype == r.ry.dtype == r.yx.dtype == np.int64


def test_reports_are_equal_in_both_dtypes_on_the_corpus(corpus, monkeypatch):
    drawings = [draw_general(t) for t in corpus]
    narrow = [build_report(d) for d in drawings]
    widened(monkeypatch)
    assert [build_report(d) for d in drawings] == narrow


@pytest.mark.parametrize("case", DRAWINGS)
def test_reports_are_equal_in_both_dtypes_on_drawings_and_mutants(monkeypatch, case):
    # the differential test's drawings and its mutants, planted as it plants them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    check = importlib.import_module("check")
    d = DRAWINGS[case]()
    t = d.tree
    levels = check._tree_levels(tree_to_json(t)["children"], t.root)
    rng = np.random.default_rng(list(DRAWINGS).index(case))
    L = check._lattice_points(d.pos, levels[0])
    positions, not_planted = [d.pos], []
    for name, mutant in MUTANTS.items():
        for _ in range(PLANTINGS.get(name, 1)):
            P = d.pos.copy()
            if mutant(P, levels, rng, L) is None:
                not_planted.append(name)
                break
            positions.append(P)
    assert not_planted == NOT_PLANTED.get(case, [])
    narrow = [build_report(GridDrawing(t, P)) for P in positions]
    widened(monkeypatch)
    assert [build_report(GridDrawing(t, P)) for P in positions] == narrow


def edge_documents():
    """Documents with a child id or a coordinate at +-(2**31 - 1), +-2**31
    and +-(2**62 - 1), and the drawing_json of a few drawings."""
    for c in EDGES:
        for sign in (1, -1):
            yield canonical_bytes([[1], []], [[0, 0], [sign * c, 0]])
            yield canonical_bytes([[1], []], [[sign * c, sign * c], [0, -sign * c]])
            yield canonical_bytes([[1, sign * c], [], []], [[0, 0], [1, 0], [2, 0]])
            yield canonical_bytes([[sign * c]], [[0, 0]])
    t = TernaryTree(((1, 2, 3), (4,), (), (), ()))
    big = 2 ** 62 - 1
    yield drawing_json(GridDrawing(t, ((0, 0), (-big, 0), (0, -big), (big, 0), (-big, big)))).encode()
    yield drawing_json(GridDrawing(t, ((2 ** 31, 0), (0, 0), (2 ** 31, -2 ** 31), (2 ** 32, 0), (0, 1)))).encode()


@pytest.mark.parametrize("data", list(edge_documents()))
def test_reader_reads_edge_values_as_json_does(data):
    read, expected = raised(read_drawing_json, data), raised(json_drawing, data)
    assert read == expected
    if isinstance(expected, tuple):
        assert expected[0] in (TreeError, ValueError)
    else:
        assert read.pos.tolist() == expected.pos.tolist()


def test_reader_and_reports_are_equal_in_both_dtypes_on_edge_values(monkeypatch):
    documents = list(edge_documents())
    narrow = [raised(read_drawing_json, data) for data in documents]
    narrow_reports = [build_report(d) for d in narrow if isinstance(d, GridDrawing)]
    assert narrow_reports
    widened(monkeypatch)
    wide = [raised(read_drawing_json, data) for data in documents]
    assert wide == narrow
    assert [build_report(d) for d in wide if isinstance(d, GridDrawing)] == narrow_reports


def test_reader_refusals_are_equal_in_both_dtypes(monkeypatch):
    # drawing_json of a drawing, with one byte of it replaced at every offset
    # by each byte the reader's grammar knows, or deleted
    text = drawing_json(draw_general(tree.random_ternary_tree(12, 5))).encode()
    documents = [text[:i] + bytes(b) + text[i + 1:] for i in range(len(text))
                 for b in ([], [ord(" ")], [ord(",")], [ord("[")], [ord("]")], [ord("-")], [ord("0")],
                           [ord("7")])]
    narrow = [raised(read_drawing_json, data) for data in documents]
    assert any(r is None for r in narrow) and any(isinstance(r, tuple) for r in narrow)
    widened(monkeypatch)
    assert [raised(read_drawing_json, data) for data in documents] == narrow


def test_tree_from_an_array_copies_it():
    # the caller's array stays writeable and shares no memory with the tree's
    table = np.array([[1, 2, -1], [-1, -1, -1], [-1, -1, -1]], np.int32)
    t = TernaryTree(table)
    assert table.flags.writeable and not np.shares_memory(table, t.table)
    assert t.table.dtype == np.int64 and not t.table.flags.writeable
    table64 = table.astype(np.int64)
    t = TernaryTree(table64)
    assert table64.flags.writeable and not np.shares_memory(table64, t.table)
    table64[0, 0] = 2
    assert t.table[0, 0] == 1
