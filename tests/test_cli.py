import functools
import io
import json
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings, strategies as st

from ternarydraw import cli, geometry, pareto, tree, verify
from ternarydraw.cli import main
from ternarydraw.geometry import GridDrawing, drawing_from_json, drawing_json, extents
from ternarydraw.layout_complete import draw_c1_only, draw_golden
from ternarydraw.tree import TernaryTree

import pytest

from conftest import canonical_bytes, drawings, json_drawing, layouts, off_zero, raised


def run(*argv):
    return main(list(argv))


def outcome(*argv):
    """main(argv)'s exit code, stdout and stderr, captured in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_draw_pareto_min_h3(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = run("--cache-dir", str(tmp_path / "cache"), "draw", "complete:3",
               "--algo", "pareto-min", "--out", str(out))
    assert code == 0
    d = drawing_from_json(json.loads(out.read_text()))
    e = extents(d)
    assert (e.width, e.height, e.area) == (5, 5, 25)


def test_draw_single_point(capsys):
    assert run("draw", "complete:1", "--algo", "c1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pos"] == [[0, 0]]


@pytest.mark.parametrize("spec,algo", [("random:500:3", "general"),
                                       ("complete:5", "golden-narrow")])
def test_draw_stdout_equals_out_file(tmp_path, capsys, spec, algo):
    out = tmp_path / "d.json"
    assert run("draw", spec, "--algo", algo, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run("draw", spec, "--algo", algo) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text()
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


def test_draw_general_random(tmp_path):
    out = tmp_path / "r.json"
    assert run("draw", "random:1000:42", "--algo", "general",
               "--out", str(out)) == 0
    d = drawing_from_json(json.loads(out.read_text()))
    assert extents(d).width <= 1000


def test_draw_roundtrips_through_verify(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("--cache-dir", str(tmp_path / "cache"), "draw", "complete:6",
               "--algo", "pareto-min", "--out", str(out)) == 0
    assert run("verify", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["area"] == 1184


def test_verify_flags_crossing(tmp_path, capsys):
    bad = {"tree": {"n": 5, "root": 0, "children": [[1, 2], [], [3], [4], []]},
           "pos": [[1, 1], [1, -1], [0, 1], [0, 0], [2, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run("verify", str(path)) == 1
    assert json.loads(capsys.readouterr().out)["planar"] is False


def test_complete_only_algo_rejects_random_tree(capsys):
    assert run("draw", "random:10:1", "--algo", "c2") == 2
    assert "complete" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "lattice:3", "random:3:1:2",
    # int() reads each of these counts; the grammar's ASCII digits do not
    "complete: 3", "complete:+3", "complete:3 ", "complete:\u0663", "random:1_000:1",
    "random:3", "random:3:",  # the seed is required
])
def test_bad_tree_spec(spec):
    code, stdout, err = outcome("draw", spec)
    assert code == 2 and stdout == "" and err.startswith("error: ")


@pytest.mark.parametrize("padded,spec", [("complete:03", "complete:3"),
                                         ("random:0005:007", "random:5:7")])
def test_a_count_may_have_leading_zeros(padded, spec):
    assert outcome("draw", padded) == outcome("draw", spec)


@pytest.mark.parametrize("spec", ["random:10:1", "complete:30"])
def test_tree_spec_too_large_to_allocate_exits_2(capsys, monkeypatch, spec):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate the tree")

    # the builders raise as numpy does on a huge spec; nothing is allocated
    monkeypatch.setattr(cli, "random_ternary_tree", out_of_memory)
    monkeypatch.setattr(tree, "complete_tree", out_of_memory)
    assert run("draw", spec) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: bad tree spec {spec!r}")
    assert "Unable to allocate" in err and "internal error" not in err


def test_verify_parse_failure(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run("verify", str(path)) == 2


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, fmt):
    for out in (str(tmp_path / "no-such-dir" / "d.out"), ""):  # "" names no file, not stdout
        assert run("draw", "complete:3", "--algo", "c1", "--format", fmt, "--out", out) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: cannot write {out!r}")


@pytest.mark.parametrize("command", ["verify", "draw"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = ("verify", str(path)) if command == "verify" else ("draw", f"file:{path}")
    assert run(*argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], [1.5, 0]]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], [True, 0]]},
    [1, 2],
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], [1, 0, 0]]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], [1]]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0]]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": 5},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], 5]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], "ab"]},
    {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], {"x": 1, "y": 0}]},
], ids=["float-coordinate", "bool-coordinate", "not-an-object", "three-numbers",
        "ragged-row", "too-few-rows", "pos-missing", "pos-not-a-list", "number-row",
        "string-row", "object-row"])
def test_verify_rejects_malformed_drawing(tmp_path, capsys, doc):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path)) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError):  # GridDrawing's, for every bad pos
        drawing_from_json(doc)


@pytest.mark.parametrize("indent", [None, 2], ids=["json", "reader"])
@pytest.mark.parametrize("row", [[1, 0, 0], [1]], ids=["three-numbers", "one-number"])
def test_ragged_position_row_gets_one_message(tmp_path, row, indent):
    # GridDrawing's own message on either reader's path, never numpy's
    doc = {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], row]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc, indent=indent))
    message = "one (x, y) position per node required"
    assert outcome("verify", str(path)) == (2, "", f"error: cannot read drawing {str(path)!r}: {message}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        drawing_from_json(doc)


def test_null_n_exits_2(tmp_path):
    # "n": null is no JSON integer, not a missing "n"
    tree_doc = {"n": None, "root": 0, "children": [[1], []]}
    drawing, tree_file = tmp_path / "d.json", tmp_path / "tree.json"
    drawing.write_text(json.dumps({"tree": tree_doc, "pos": [[0, 0], [1, 0]]}))
    tree_file.write_text(json.dumps(tree_doc))
    for argv in (("verify", str(drawing)), ("draw", f"file:{tree_file}")):
        code, stdout, err = outcome(*argv)
        assert (code, stdout) == (2, "") and err.endswith(": root and n must be JSON integers\n"), argv


@pytest.mark.parametrize("c", [2 ** 62, -2 ** 62 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64,
                               -2 ** 62, -2 ** 63],
                         ids=["2^62", "-2^62-1", "2^63", "-2^63-1", "2^64", "-2^62", "-2^63"])
def test_verify_rejects_out_of_range_coordinate(tmp_path, capsys, c):
    doc = {"tree": {"n": 2, "root": 0, "children": [[1], []]}, "pos": [[0, 0], [c, 0]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and "2**62" in err
    with pytest.raises(ValueError, match=re.escape("2**62")):
        drawing_from_json(doc)


@pytest.mark.parametrize("edit", ["top-level-key", "tree-key", "spaced-n"])
def test_verify_refuses_a_key_outside_the_schema(tmp_path, edit):
    # json reads each edit of draw's document; a tree read without its
    # misspelled " n" would skip the node-count check
    path = tmp_path / "d.json"
    assert run("draw", "random:300:1", "--out", str(path)) == 0
    doc = json.loads(path.read_text())
    if edit == "top-level-key":
        doc["note"] = ""
    elif edit == "tree-key":
        doc["tree"]["note"] = ""
    else:
        doc["tree"][" n"] = doc["tree"].pop("n") + 1
    path.write_text(json.dumps(doc, indent=2))
    code, stdout, err = outcome("verify", str(path))
    assert code == 2 and stdout == "" and err.startswith("error: cannot read drawing")
    assert err.count("\n") == 1
    with pytest.raises(ValueError):
        drawing_from_json(doc)
    if edit != "top-level-key":
        with pytest.raises(tree.TreeError):
            tree.tree_from_json(doc["tree"])


def test_file_treespec_refuses_a_key_outside_the_schema(tmp_path, capsys):
    doc = {**tree.tree_to_json(tree.complete_tree(2)), "note": ""}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    assert run("draw", f"file:{path}") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad tree spec") and err.count("\n") == 1
    with pytest.raises(tree.TreeError):
        tree.tree_from_json(doc)


def test_verify_reports_exact_extents_at_coordinate_limit(tmp_path, capsys):
    c = 2 ** 62 - 1
    doc = {"tree": {"n": 3, "root": 0, "children": [[1, 2], [], []]},
           "pos": [[0, 0], [c, 0], [-c, 0]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["width"], payload["leftWidth"], payload["rightWidth"]) == (2 * c + 1, c, c)
    assert payload["area"] == 2 * c + 1 and payload["planar"]


def test_unexpected_exception_exits_3(monkeypatch, tmp_path, capsys):
    def boom(drawing):
        raise RuntimeError("boom\nsecond line")
    monkeypatch.setattr(cli, "build_report", boom)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"tree": {"children": [[]]}, "pos": [[0, 0]]}))
    assert run("verify", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_draw_gate_raising_exits_3(monkeypatch, tmp_path, capsys):
    def boom(drawing):
        raise RuntimeError("boom\nsecond line")
    monkeypatch.setattr(cli, "build_report", boom)
    out = tmp_path / "d.json"
    assert run("draw", "complete:3", "--algo", "c1", "--out", str(out)) == 3
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom second line\n")
    assert not out.exists()


def test_draw_writer_raising_exits_3_and_writes_nothing(monkeypatch, tmp_path, capsys):
    # the document is formatted whole before anything is written
    def broken(drawing):
        yield "{\n"
        raise RuntimeError("writer broke")
    monkeypatch.setattr(cli, "drawing_json_blocks", broken)
    out = tmp_path / "d.json"
    assert run("draw", "complete:3", "--algo", "c1", "--out", str(out)) == 3
    assert capsys.readouterr() == ("", "internal error: RuntimeError: writer broke\n")
    assert not out.exists()
    assert run("draw", "complete:3", "--algo", "c1") == 3  # nor on stdout
    assert capsys.readouterr() == ("", "internal error: RuntimeError: writer broke\n")


def test_no_command_forks(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    cache, drawing = str(tmp_path / "cache"), str(tmp_path / "d.json")
    assert run("draw", "complete:3", "--algo", "c1", "--format", "svg",
               "--out", str(tmp_path / "d.svg")) == 0
    assert run("draw", "complete:3", "--algo", "c1", "--out", drawing) == 0
    assert run("verify", drawing) == 0
    assert run("--cache-dir", cache, "table", "4") == 0
    assert run("fit", "--builtin") == 0


# JSON values of every kind, among them ints at and past +-2^62 and +-2^63
EDGE_INTS = [sign * 2 ** e + d for sign in (1, -1) for e in (62, 63) for d in (-1, 0, 1)]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.sampled_from(EDGE_INTS),
              st.floats(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "root", "children", "tree", "pos"]) | st.text(max_size=2),
        inner, max_size=4),
    max_leaves=10)


def value_slots(doc):
    """(container, key) of every value nested in doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        yield doc, key
        yield from value_slots(value)


SCHEMA_KEYS = ["n", "root", "children", "tree", "pos"]


@st.composite
def documents(draw, stray=False):
    """A random JSON document, or the document of a drawing or of its tree
    with up to three of its values replaced by random ones or removed, and
    maybe a key set at its top level or in its tree. stray=True draws no
    random document and always adds a key outside SCHEMA_KEYS."""
    kind = draw(st.sampled_from(["json", "drawing", "tree"][stray:]))
    if kind == "json":
        return draw(json_values)
    doc = geometry.drawing_to_json(draw(drawings(max_n=6)))
    doc = doc["tree"] if kind == "tree" else doc
    for _ in range(draw(st.integers(0, 3))):
        slots = list(value_slots(doc))
        if slots:
            container, key = draw(st.sampled_from(slots))
            if draw(st.integers(0, 3)):
                container[key] = draw(json_values)
            else:
                del container[key]
    if stray or not draw(st.integers(0, 3)):
        keys = st.text(max_size=2).filter(lambda k: k not in SCHEMA_KEYS)
        container = draw(st.sampled_from([c for c in (doc, doc.get("tree")) if isinstance(c, dict)]))
        container[draw(keys if stray else keys | st.sampled_from(SCHEMA_KEYS))] = draw(json_values)
    return doc


@pytest.fixture(scope="module")
def documents_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, deadline=None)
@given(doc=documents(), indent=st.sampled_from([None, 2]))
def test_random_documents_exit_0_1_or_2(documents_dir, doc, indent):
    """verify and draw file: on any JSON document: never exit 3, and every
    exit 2 prints exactly one error line."""
    path, out = documents_dir / "in.json", documents_dir / "out.json"
    path.write_text(json.dumps(doc, indent=indent))
    for argv in (("verify", str(path)), ("draw", f"file:{path}", "--out", str(out))):
        code, stdout, err = outcome(*argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=100, deadline=None)
@given(doc=documents(stray=True), indent=st.sampled_from([None, 2]))
def test_a_key_outside_the_schema_exits_2(documents_dir, doc, indent):
    """A key outside {"tree", "pos"} at the top level, or outside {"n",
    "root", "children"} in the tree: neither verify nor draw file: reads the
    document (a drawing's "tree" and "pos" are such keys to draw file:)."""
    path, out = documents_dir / "in.json", documents_dir / "out.json"
    path.write_text(json.dumps(doc, indent=indent))
    for argv in (("verify", str(path)), ("draw", f"file:{path}", "--out", str(out))):
        code, stdout, err = outcome(*argv)
        assert code == 2 and stdout == "" and err.startswith("error: "), (argv, err)


@pytest.mark.parametrize("fault", ["pareto-min", "tree-reader", "drawing-reader"])
def test_program_faults_exit_3(monkeypatch, tmp_path, capsys, fault):
    # none of these is bad input: pareto-min's levels are checked against their
    # recipes, and the readers raise only ValueError on what they reject
    def raising(error):
        def planted(*args):
            raise error("planted fault")
        return planted

    tree_doc, drawing_doc, out = tmp_path / "tree.json", tmp_path / "drawing.json", tmp_path / "d.json"
    tree_doc.write_text(json.dumps({"children": [[1], []]}))
    drawing_doc.write_text(json.dumps({"tree": {"children": [[1], []]}, "pos": [[0, 0], [1, 0]]}))
    if fault == "pareto-min":
        monkeypatch.setattr(pareto, "reconstruct_drawing", raising(ValueError))
        argv = ("--cache-dir", str(tmp_path / "cache"), "draw", "complete:4",
                "--algo", "pareto-min", "--out", str(out))
    elif fault == "tree-reader":
        monkeypatch.setattr(cli, "tree_from_json", raising(KeyError))
        argv = ("draw", f"file:{tree_doc}", "--out", str(out))
    else:  # a compact file: the json reader's path
        monkeypatch.setattr(cli, "drawing_from_json", raising(TypeError))
        argv = ("verify", str(drawing_doc))
    assert run(*argv) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("internal error: ") and err.count("\n") == 1 and "planted fault" in err


def test_draw_gate_requires_subtree_separation(monkeypatch, capsys):
    # c1's drawing of T_4 with the edge to leaf 39 doubled: planar, orthogonal
    # and top-visible, but the leaf, now at x = 3, puts the box of the root's
    # third subtree onto that of its second
    c1 = draw_c1_only(4)
    pos = c1.pos.copy()
    pos[39] = 2 * pos[39] - pos[c1.tree.parents[39]]
    monkeypatch.setattr(cli, "draw_c1_only", lambda h: GridDrawing(c1.tree, pos))
    assert run("draw", "complete:4", "--algo", "c1") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: construction failed verification, refusing to write\n"


@pytest.mark.parametrize("pos", [((0, 0), (5, 0), (10, 0)), ((0, 0), (0, 5), (0, 10)),
                                 ((0, 0), (0, 1), (0, 2))],
                         ids=["too-wide", "too-tall", "one-row-too-tall"])
def test_draw_gate_bounds_general_extents(monkeypatch, capsys, pos):
    # a planar path drawing of 3 nodes over 11 columns, 11 rows or 3 rows;
    # the bounds are 3 columns and floor(2*3^c - 1) = 2 rows (2*3^c - 1 is
    # about 2.76)
    path = GridDrawing(TernaryTree(((1,), (2,), ())), pos)
    monkeypatch.setattr(cli, "draw_general", lambda tree: path)
    assert run("draw", "random:3:0", "--algo", "general") == 3
    assert capsys.readouterr().out == ""


def test_draw_splits_segments_and_measures_extents_once(monkeypatch, tmp_path):
    # one ranking of the nodes, one set of runs and one bounding box
    calls = []
    for name in ("node_ranks", "rank_runs", "extents"):
        real = getattr(verify, name)
        for module in (geometry, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    assert run("draw", "random:300:1", "--out", str(tmp_path / "d.json")) == 0
    assert sorted(calls) == ["extents", "node_ranks", "rank_runs"]


@pytest.mark.parametrize("algo", ["general", "upper1149", "pareto-min"])
def test_draw_computes_complete_height_once(monkeypatch, tmp_path, algo):
    calls = []
    real = TernaryTree.complete_height.func
    counted = functools.cached_property(lambda t: calls.append(t.n) or real(t))
    counted.__set_name__(TernaryTree, "complete_height")
    monkeypatch.setattr(TernaryTree, "complete_height", counted)
    tree.complete_tree.cache_clear()  # a fresh T_6, which knows its height
    assert run("--cache-dir", str(tmp_path / "cache"), "draw", "complete:6", "--algo", algo,
               "--out", str(tmp_path / "d.json")) == 0
    assert calls == []
    # the same tree read from a file: its height is computed, once
    path = tmp_path / "t6.json"
    path.write_text(json.dumps(tree.tree_to_json(tree.complete_tree(6))))
    assert run("--cache-dir", str(tmp_path / "cache"), "draw", f"file:{path}", "--algo", algo,
               "--out", str(tmp_path / "d.json")) == 0
    assert calls == [364]


@pytest.mark.parametrize("algo", ["c1", "c2", "golden-narrow", "golden-wide", "upper1149",
                                  "pareto-min"])
def test_draw_of_a_file_complete_tree_keeps_its_ids(tmp_path, algo):
    # T_3 under permuted ids, its root not node 0: the file's tree is drawn,
    # and verify reads the drawing as it reads the drawing of complete:3
    doc = tree.tree_to_json(off_zero(tree.complete_tree(3)))
    path, out, ref = tmp_path / "t.json", tmp_path / "d.json", tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    cache = ("--cache-dir", str(tmp_path / "cache"))
    assert run(*cache, "draw", f"file:{path}", "--algo", algo, "--out", str(out)) == 0
    assert json.loads(out.read_text())["tree"] == doc
    assert run(*cache, "draw", "complete:3", "--algo", algo, "--out", str(ref)) == 0
    assert outcome("verify", str(out)) == outcome("verify", str(ref))


@pytest.mark.parametrize("spec", ["complete:40", "complete:10000000"])
def test_complete_height_past_39_exits_2_at_once(tmp_path, spec):
    # rejected before 3 ** h is computed, so a huge h costs nothing
    out = tmp_path / "d.json"
    start = time.perf_counter()
    code, stdout, err = outcome("draw", spec, "--out", str(out))
    assert time.perf_counter() - start < 1
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_draw_frees_the_heavy_paths_before_verifying(monkeypatch):
    kept = []
    report = cli.build_report
    monkeypatch.setattr(cli, "build_report",
                        lambda d: kept.append(set(vars(d.tree))) or report(d))
    for spec in ("random:300:1", "random:1:0"):
        assert run("draw", spec, "--algo", "general") == 0
    assert kept == [{"table", "parents", "root", "n", "size"}] * 2


# -1 would be an empty slot in the child table, so it is checked as an id
BAD_CHILD_IDS = [-1, 2, 2 ** 63, 2 ** 64, True, 1.0]


@pytest.mark.parametrize("bad", BAD_CHILD_IDS, ids=map(repr, BAD_CHILD_IDS))
def test_verify_rejects_bad_child_id(tmp_path, capsys, bad):
    doc = {"tree": {"n": 2, "root": 0, "children": [[1, bad], []]}, "pos": [[0, 0], [1, 0]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read drawing")


@pytest.mark.parametrize("bad", BAD_CHILD_IDS, ids=map(repr, BAD_CHILD_IDS))
def test_file_treespec_rejects_bad_child_id(tmp_path, capsys, bad):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"n": 2, "root": 0, "children": [[1, bad], []]}))
    assert run("draw", f"file:{path}") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad tree spec")


def test_table_output(tmp_path, capsys):
    assert run("--cache-dir", str(tmp_path / "cache"), "table", "4") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].split() == ["4", "40", "99"]
    assert lines[1].split() == ["1", "1", "1"]


def test_table_walks_the_levels_once(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("load_frontier", "_next_frontier"):
        fn = getattr(pareto, name)
        monkeypatch.setattr(pareto, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    cache = str(tmp_path / "cache")
    assert run("--cache-dir", cache, "table", "6") == 0
    cold = capsys.readouterr().out
    assert calls == ["load_frontier", "_next_frontier"] * 5
    calls.clear()
    assert run("--cache-dir", cache, "table", "6") == 0
    assert capsys.readouterr().out == cold
    assert calls == ["load_frontier"] * 5


def test_pareto_min_walks_the_levels_once(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("load_frontier", "_next_frontier"):
        fn = getattr(pareto, name)
        monkeypatch.setattr(pareto, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    args = ("--cache-dir", str(tmp_path / "cache"), "draw", "complete:6", "--algo", "pareto-min")
    assert run(*args) == 0
    cold = capsys.readouterr().out
    assert calls == ["load_frontier", "_next_frontier"] * 5
    calls.clear()
    assert run(*args) == 0
    assert capsys.readouterr().out == cold
    assert calls == ["load_frontier"] * 5


def test_table_rejects_out_of_range():
    assert run("table", "0") == 2
    assert run("table", "25") == 2


@pytest.mark.parametrize("h", ["1_0", " 5"])
def test_table_rejects_a_count_not_in_ascii_digits(tmp_path, capsys, h):
    with pytest.raises(SystemExit) as exited:  # argparse's exit: the count is its type
        run("--cache-dir", str(tmp_path / "cache"), "table", h)
    stdout, err = capsys.readouterr()
    assert exited.value.code == 2 and stdout == "" and "invalid count value" in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv", [("table", "3"), ("draw", "complete:3", "--algo", "pareto-min")],
                         ids=["table", "pareto-min"])
def test_empty_cache_dir_exits_2_before_any_level(tmp_path, monkeypatch, argv):
    calls = []
    for name in ("load_frontier", "_next_frontier", "save_frontier"):
        fn = getattr(pareto, name)
        monkeypatch.setattr(pareto, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    monkeypatch.chdir(tmp_path)
    assert outcome("--cache-dir", "", *argv) == (2, "", "error: --cache-dir must not be empty\n")
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_fit_builtin(capsys):
    assert run("fit", "--builtin") == 0
    assert capsys.readouterr().out == "a=3.32598 b=1.04701 c=-169990 sse=2.44822e+12\n"


def test_fit_reads_table_output(tmp_path):
    # table's header line is skipped; its rows fit as the embedded table does
    code, table, _ = outcome("--cache-dir", str(tmp_path / "cache"), "table", "20")
    path = tmp_path / "t.txt"
    path.write_text(table)
    assert code == 0 and table.startswith("  h            n       min area\n")
    assert outcome("fit", str(path)) == (0, "a=3.32598 b=1.04701 c=-169990 sse=2.44822e+12\n", "")


def test_fit_from_file(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("# n area\n" +
                     "\n".join(f"{n} {2 * n}" for n in range(1, 20)))
    assert run("fit", str(table)) == 0
    b = float(capsys.readouterr().out.split("b=")[1].split()[0])
    assert abs(b - 1.0) < 1e-3


def test_fit_without_a_table_exits_2(capsys):
    assert run("fit") == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: pass a table path or --builtin\n"


def test_fit_rejects_a_table_with_builtin(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("\n".join(f"{n} {2 * n}" for n in range(1, 20)))
    assert run("fit", str(table), "--builtin") == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: pass a table path or --builtin\n"


@pytest.mark.parametrize("rows", ["1 1\n2 5\n3 9\n4 20", "1 1\n2 1.5\n3 1.8\n4 2.0\n5 2.1"],
                         ids=["above-2", "below-0.5"])
def test_fit_with_an_exponent_at_an_end_of_its_range_exits_2(tmp_path, capsys, rows):
    table = tmp_path / "t.txt"
    table.write_text(rows + "\n")
    assert run("fit", str(table)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: no fit: ") and len(err.splitlines()) == 1
    assert "[0.5, 2]" in err


def test_fit_malformed_table(tmp_path, capsys):
    table = tmp_path / "t.txt"
    rows = "\n".join(f"{n} {2 * n}" for n in range(2, 20))
    # a row is split on whitespace only, and holds ASCII numbers without `_`:
    # float() would read the Arabic-Indic digits as 1 2 and 1_0 2_0 as 10 20
    underscored = rows.replace("10 20", "1_0 2_0")
    for text in ("one\n", "1,2\n" + rows, "\u0661 \u0662\n" + rows, underscored):
        table.write_text(text, encoding="utf-8")
        assert run("fit", str(table)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: malformed table")


@pytest.mark.parametrize("row", ["1 nan", "1 inf", "0 5", "-2 5"])
def test_fit_rejects_non_finite_or_non_positive_rows(tmp_path, capfd, row):
    table = tmp_path / "t.txt"
    table.write_text(row + "\n" + "\n".join(f"{n} {2 * n}" for n in range(2, 20)))
    assert run("fit", str(table)) == 2
    out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rows", ["1 1e300\n2 1e300\n3 1e301", "1 1\n2 2\n1e300 3"],
                         ids=["huge-areas", "huge-n"])
def test_fit_that_overflows_exits_2_without_a_warning(tmp_path, capfd, rows):
    # one error line: no sse=inf, no numpy RuntimeWarning, no LAPACK output
    table = tmp_path / "t.txt"
    table.write_text(rows + "\n")
    assert run("fit", str(table)) == 2
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("error: no finite fit") and len(err.splitlines()) == 1


def test_svg_output(tmp_path):
    out = tmp_path / "d.svg"
    assert run("draw", "complete:3", "--algo", "c1", "--format", "svg",
               "--out", str(out)) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 13
    assert svg.count("<line") == 12
    assert "crimson" in svg


def test_file_treespec(tmp_path):
    tree = {"n": 3, "root": 0, "children": [[1, 2], [], []]}
    tpath = tmp_path / "tree.json"
    tpath.write_text(json.dumps(tree))
    assert run("draw", f"file:{tpath}", "--algo", "general") == 0


@pytest.mark.parametrize("h", [1, 2, 5])
def test_golden_draws_equal_the_library_drawings(capsys, h):
    for algo, d in zip(("golden-narrow", "golden-wide"), draw_golden(h)):
        assert run("draw", f"complete:{h}", "--algo", algo) == 0
        assert capsys.readouterr().out == drawing_json(d) + "\n"


def verify_outcome(path, fast=True):
    """verify's exit code, stdout and stderr; with fast=False every file
    takes the json path, as every file did before the numpy reader."""
    reader = cli.read_drawing_json if fast else (lambda data: None)
    with mock.patch.object(cli, "read_drawing_json", reader):
        return outcome("verify", str(path))


@settings(max_examples=60, deadline=None)
@given(d=drawings())
def test_verify_gives_one_verdict_for_every_layout(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("layouts") / "d.json"
    path.write_bytes(drawing_json(d).encode() + b"\n")
    canonical = verify_outcome(path)
    assert canonical[0] in (0, 1) and canonical == verify_outcome(path, fast=False)
    for text in layouts(d):
        path.write_bytes(text.encode())
        assert verify_outcome(path) == canonical


def mutated(data: bytes, kind: str, k: int) -> bytes:
    """data with one byte replaced, inserted or deleted, or two adjacent
    bytes swapped, at the k-th site (cyclically) of the kind."""
    pattern = {"digit": rb"\d", "sign": rb"\d+", "leading-zero": rb"\d+",
               "minus-zero": rb"(?<![-\d])0(?!\d)", "bracket": rb"[][]", "space": rb" ",
               "newline": rb"\n", "comma": rb",", "insert-space": rb"(?s).",
               "insert-newline": rb"(?s).", "swap": rb"(?s)(.)(?=(?!\1).)"}[kind]
    sites = [m.start() for m in re.finditer(pattern, data)]
    i = sites[k % len(sites)]
    if kind.startswith("insert-"):
        return data[:i] + (b" " if kind == "insert-space" else b"\n") + data[i:]
    if kind == "swap":
        return data[:i] + data[i + 1:i + 2] + data[i:i + 1] + data[i + 2:]
    if kind == "digit":
        return data[:i] + bytes([ord("0") + (data[i] - ord("0") + 1 + k % 9) % 10]) + data[i + 1:]
    if kind == "sign" and data[i - 1] == ord("-"):
        return data[:i - 1] + data[i:]
    if kind in ("sign", "minus-zero", "leading-zero"):
        return data[:i] + (b"0" if kind == "leading-zero" else b"-") + data[i:]
    if kind == "bracket":
        return data[:i] + (b"]" if data[i] == ord("[") else b"[") + data[i + 1:]
    return data[:i] + data[i + 1:]


@settings(max_examples=200, deadline=None)
@given(d=drawings(max_n=8),
       kind=st.sampled_from(["digit", "sign", "leading-zero", "minus-zero", "bracket",
                             "space", "newline", "comma", "insert-space", "insert-newline",
                             "swap"]),
       k=st.integers(0, 10 ** 6))
def test_verify_verdict_on_mutated_canonical_files(tmp_path_factory, d, kind, k):
    # a digit, space or newline mutation mostly keeps the document and is
    # read by read_drawing_json; most others fall back to json. Both give
    # json's verdict.
    path = tmp_path_factory.mktemp("mutated") / "d.json"
    path.write_bytes(mutated(drawing_json(d).encode() + b"\n", kind, k))
    assert verify_outcome(path) == verify_outcome(path, fast=False)


@pytest.mark.parametrize("children,pos,accepted", [
    ([[1], []], [[0, 0], [2 ** 62 - 1, 0]], True),
    ([[1], []], [[0, 0], [-2 ** 62 + 1, 0]], True),
    ([[1], []], [[0, 0], [2 ** 62, 0]], False),
    ([[1], []], [[0, 0], [0, -2 ** 62]], False),
    ([[1], []], [[0, 0], [2 ** 63, 0]], False),
    ([[1], []], [[0, 0], [-2 ** 63, 0]], False),
    ([[12345678901234567890], []], [[0, 0], [1, 0]], False),
    ([[1, 2, 3, 4], [], [], [], []], [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], False),
], ids=["2^62-1", "-2^62+1", "2^62", "-2^62", "2^63", "-2^63", "20-digit-child", "4-children"])
def test_verify_canonical_layout_at_the_limits(tmp_path, children, pos, accepted):
    # in drawing_json's layout, but only the first two are drawings: the
    # reader raises what json's drawing raises on the others, or gives None
    # on the 20-digit id, which is none of its tokens
    path = tmp_path / "d.json"
    path.write_bytes(canonical_bytes(children, pos))
    read = raised(geometry.read_drawing_json, path.read_bytes())
    assert isinstance(read, GridDrawing) == accepted
    assert accepted or read in (None, raised(json_drawing, path.read_bytes()))
    outcome = verify_outcome(path)
    assert outcome == verify_outcome(path, fast=False)
    assert outcome[0] == (0 if accepted else 2)


@pytest.mark.parametrize("n", [10 ** 18, 2 ** 63 - 1])
def test_verify_refuses_a_lying_header(tmp_path, n):
    path = tmp_path / "d.json"
    path.write_bytes(canonical_bytes([[1], []], [[0, 0], [1, 0]]).replace(b'"n": 2,', b'"n": %d,' % n))
    code, out, err = verify_outcome(path)
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read drawing {str(path)!r}")


def test_verify_of_a_drawing_too_large_to_hold_exits_2(tmp_path, monkeypatch):
    def out_of_memory(data):
        raise MemoryError("Unable to allocate the drawing")

    # the reader raises as numpy does on a huge file; nothing is allocated
    path = tmp_path / "d.json"
    path.write_bytes(drawing_json(draw_c1_only(2)).encode())
    monkeypatch.setattr(cli, "read_drawing_json", out_of_memory)
    code, out, err = verify_outcome(path)
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read drawing {str(path)!r}")
    assert "Unable to allocate" in err and "internal error" not in err


def test_verify_calls_json_only_off_the_draw_layout(tmp_path, capsys, monkeypatch):
    calls = []
    load = json.load
    monkeypatch.setattr(cli.json, "load", lambda f: calls.append(f) or load(f))
    out = tmp_path / "d.json"
    assert run("draw", "random:300:1", "--out", str(out)) == 0
    assert run("verify", str(out)) == 0
    assert calls == []
    report = capsys.readouterr().out
    compact = tmp_path / "compact.json"  # draw's document in another layout: no json
    compact.write_text(json.dumps(json.loads(out.read_text()), separators=(",", ":")))
    assert run("verify", str(compact)) == 0
    assert calls == [] and capsys.readouterr().out == report
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(dict(reversed(json.loads(out.read_text()).items()))))
    assert run("verify", str(reordered)) == 0
    assert len(calls) == 1 and capsys.readouterr().out == report
    # draw's document, edited into no drawing: refused from the one parse,
    # as json's reading of it is
    def duplicated_id(doc):
        kids = doc["tree"]["children"]
        next(ids for ids in kids if len(ids) < 3).append(kids[doc["tree"]["root"]][0])

    def four_children(doc):
        next(ids for ids in doc["tree"]["children"] if len(ids) == 3).append(0)

    def coordinate(doc):
        doc["pos"][1][0] = 2 ** 62

    def ragged_row(doc):
        doc["pos"][1].append(0)

    edited = tmp_path / "edited.json"
    for edit in (duplicated_id, four_children, coordinate, ragged_row):
        calls.clear()
        doc = json.loads(out.read_text())
        edit(doc)
        edited.write_text(json.dumps(doc, indent=2))
        refused = verify_outcome(edited)
        assert refused[0] == 2 and calls == [], edit.__name__
        assert refused == verify_outcome(edited, fast=False) and len(calls) == 1


@pytest.mark.parametrize("row", ["9 10 1 1 2", "9 11 0 1 2", "9 11 1 1 1"],
                         ids=["pair", "recipe-arm", "recipe-construction"])
def test_pareto_min_rejects_a_pair_its_recipes_do_not_build(tmp_path, capsys, row):
    # the minimum-area row of T_4's frontier is "9 11 1 1 2"
    cache, out = tmp_path / "cache", tmp_path / "d.json"
    assert run("--cache-dir", str(cache), "table", "4") == 0
    level = cache / "frontier_h04.txt"
    lines = level.read_text().splitlines()
    assert lines[1] == "9 11 1 1 2"
    level.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
    capsys.readouterr()
    assert run("--cache-dir", str(cache), "draw", "complete:4", "--algo", "pareto-min",
               "--out", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert "h=4" in err and str(tuple(map(int, row.split()[:2]))) in err



@pytest.fixture(scope="module")
def table5_cache(tmp_path_factory):
    """The cache files `table 5` writes: name -> text."""
    cache = tmp_path_factory.mktemp("table5") / "cache"
    assert main(["--cache-dir", str(cache), "table", "5"]) == 0
    return {p.name: p.read_text() for p in sorted(cache.iterdir())}


def corrupted_caches(files):
    """(file name, row the error names, corrupted text): each field of each
    row of each level made wrong, then faults of a whole file."""
    for name, text in files.items():
        header, *rows = text.splitlines()
        h = int(header.split()[0][2:])
        k = len(files[f"frontier_h{h - 1:02d}.txt"].splitlines()) - 1 if h > 2 else 1
        for r, row in enumerate(rows, 1):
            fields = row.split()
            # width, height, arm, center, construction
            for i, value in enumerate((int(fields[0]) + 2, int(fields[1]) + 1, k, -1, 0)):
                bad = " ".join([*fields[:i], str(value), *fields[i + 1:]])
                yield name, r, "\n".join([header, *rows[:r - 1], bad, *rows[r:]]) + "\n"
    name = "frontier_h04.txt"
    header, *rows = files[name].splitlines()
    yield name, 4, "\n".join([header, *rows[:-1]]) + "\n"  # truncated
    yield name, 5, "\n".join([header, *rows, rows[-1]]) + "\n"  # a trailing row
    yield name, 0, "\n".join(["h=5" + header[3:], *rows]) + "\n"
    yield name, 0, "\n".join(["h=04" + header[3:], *rows]) + "\n"  # a leading zero in h
    yield name, 0, "\n".join([header.replace("count=", "count=0"), *rows]) + "\n"  # and in count
    yield name, 0, "\n".join([header + "\u00e9", *rows]) + "\n"  # not ASCII
    yield name, 1, "\n".join([header, "abc" + rows[0][1:], *rows[1:]]) + "\n"
    yield name, 1, "\n".join([header, "3 2 0 0 1", *rows[1:]]) + "\n"  # keeps the staircase
    yield name, 2, "\n".join([header, rows[0], "\u00e9" + rows[1], *rows[2:]]) + "\n"  # not ASCII
    yield name, 1, "\n".join([header, "0" + rows[0], *rows[1:]]) + "\n"  # not as written
    yield name, 1, "\n".join([header, "10" + rows[0][1:], *rows[1:]]) + "\n"  # an even width
    # 5,000 digits, past int()'s limit on the digits it converts
    yield name, 0, "\n".join(["h=4 count=" + "9" * 5000, *rows]) + "\n"
    yield name, 1, "\n".join([header, "1" * 5000 + rows[0][1:], *rows[1:]]) + "\n"
    # int() reads each field of these: a sign, a doubled space, a trailing space
    name = "frontier_h02.txt"
    header, row = files[name].splitlines()
    for bad in ("+" + row, row.replace(" ", "  ", 1), row + " "):
        yield name, 1, f"{header}\n{bad}\n"


def test_corrupt_cache_exits_2_and_is_left_as_it_is(tmp_path, capsys, table5_cache):
    cases = list(corrupted_caches(table5_cache))
    assert len(cases) == 5 * (1 + 2 + 4 + 8) + 16
    out = tmp_path / "d.json"
    for n, (name, row, text) in enumerate(cases):
        cache = tmp_path / f"cache{n}"
        cache.mkdir()
        for level, level_text in table5_cache.items():
            (cache / level).write_text(level_text)
        (cache / name).write_text(text)
        for args in (["table", "5"], ["draw", "complete:5", "--algo", "pareto-min", "--out", str(out)]):
            assert run("--cache-dir", str(cache), *args) == 2, (name, text)
            stdout, err = capsys.readouterr()
            assert stdout == "" and not out.exists()
            assert err.startswith("error: unusable frontier cache") and f"{name} for h=" in err
            assert f"row {row}:" in err, err
        assert sorted(os.listdir(cache)) == sorted(table5_cache)
        assert (cache / name).read_text() == text  # neither recomputed nor rewritten


@pytest.fixture(scope="module")
def table6_cache(tmp_path_factory):
    """The cache files `table 6` writes: name -> bytes."""
    cache = tmp_path_factory.mktemp("table6") / "cache"
    assert main(["--cache-dir", str(cache), "table", "6"]) == 0
    return {p.name: p.read_bytes() for p in sorted(cache.iterdir())}


# (bytes cut, bytes put in their place): a byte replaced; a CR, NUL, 0xff
# byte or a digit run up to 5,000 long inserted; a span deleted; the file
# truncated
CACHE_EDITS = st.one_of(
    st.tuples(st.just(1), st.integers(0, 255).map(lambda b: bytes([b]))),
    st.tuples(st.just(0), st.sampled_from([b"\r", b"\0", b"\xff"])
              | st.builds(bytes.__mul__, st.sampled_from([b"0", b"1", b"9"]),
                          st.sampled_from([1, 19, 20, 4300, 4301, 5000]) | st.integers(1, 5000))),
    st.tuples(st.integers(1, 40), st.just(b"")),
    st.tuples(st.just(10 ** 6), st.just(b"")))


@settings(max_examples=150, deadline=None)
@given(level=st.integers(2, 6), edit=CACHE_EDITS, at=st.integers(0, 10 ** 6))
def test_edited_cache_exits_0_or_2(tmp_path_factory, table6_cache, level, edit, at):
    # one level of a primed cache edited: read as it was, or refused with
    # one error line naming it; never an internal error
    cache = tmp_path_factory.mktemp("edited")
    for name, data in table6_cache.items():
        (cache / name).write_bytes(data)
    name, (cut, put) = f"frontier_h{level:02d}.txt", edit
    data = table6_cache[name]
    i = at % (len(data) + 1)
    data = data[:i] + put + data[i + cut:]
    (cache / name).write_bytes(data)
    code, out, err = outcome("--cache-dir", str(cache), "table", "6")
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and name in err


def test_failed_cache_write_exits_2_and_leaves_no_temporary(tmp_path, capsys, monkeypatch):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pareto.os, "replace", full_disk)
    cache = tmp_path / "cache"
    assert run("--cache-dir", str(cache), "table", "3") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unusable frontier cache") and err.count("\n") == 1
    assert os.listdir(cache) == []  # save_frontier removed its temporary file


def test_unusable_cache_dir_exits_2(tmp_path, capsys):
    a_file = tmp_path / "file"
    a_file.write_text("")
    a_level_is_a_dir = tmp_path / "cache"
    (a_level_is_a_dir / "frontier_h03.txt").mkdir(parents=True)
    caches = [a_file, a_level_is_a_dir]
    if os.geteuid() != 0:  # root writes to a read-only directory
        caches.append(tmp_path / "read-only")
        caches[-1].mkdir(mode=0o500)
    for cache in caches:
        for args in (["table", "3"], ["draw", "complete:3", "--algo", "pareto-min"]):
            assert run("--cache-dir", str(cache), *args) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: unusable frontier cache")
