"""Lazy imports: `import ternarydraw` and a warm `table` load no numpy (nor
dataclasses or pickle), and every name keeps resolving to its submodule's
object. The CLI, and only the CLI, has numpy start OpenBLAS with one
thread."""

import importlib
import os
import subprocess
import sys

import pytest

import ternarydraw

# The names the package re-exports, each bound from its submodule on first use.
REEXPORTS = {
    "geometry": ("Extents", "GridDrawing", "drawing_from_json", "drawing_json",
                 "drawing_json_blocks", "drawing_to_json", "edge_segments", "extents",
                 "read_drawing_json"),
    "layout_complete": ("draw_c1_only", "draw_c2_only", "draw_golden", "draw_upper_1149"),
    "layout_general": ("FrameStats", "draw_general", "frame_stats", "max_rows"),
    "pareto": ("REFERENCE_AREA_TABLE", "ParetoFrontier", "PowerLawFit", "fit_power_law",
               "frontier", "min_area", "reconstruct_drawing"),
    "render": ("drawing_to_svg",),
    "tree": ("TernaryTree", "TreeError", "complete_tree", "random_ternary_tree",
             "tree_from_json", "tree_to_json"),
    "verify": ("VerificationError", "VerificationReport", "build_report", "check_on_grid",
               "check_orthogonal", "check_planar", "check_subtree_separation",
               "check_top_visibility", "fib_lower_bound", "leg_arm_lengths",
               "report_to_json"),
}


def fresh(script: str) -> str:
    """stdout of ``script`` run in a new interpreter that imports nothing
    of the package beforehand."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_every_reexport_resolves_to_its_submodule_object():
    for module, names in REEXPORTS.items():
        sub = importlib.import_module(f"ternarydraw.{module}")
        for name in names:
            assert getattr(ternarydraw, name) is getattr(sub, name), name
    assert sorted(ternarydraw.__all__) == sorted(n for names in REEXPORTS.values() for n in names)


def test_import_ternarydraw_loads_no_submodule():
    out = fresh("import sys, ternarydraw\n"
                "print(sorted(m for m in sys.modules if m.startswith('ternarydraw')))\n"
                "from ternarydraw import complete_tree, draw_general, extents, min_area\n"
                "print(extents(draw_general(complete_tree(3))).area, min_area(4)[0])")
    from ternarydraw.geometry import extents
    from ternarydraw.layout_general import draw_general
    from ternarydraw.tree import complete_tree
    area = extents(draw_general(complete_tree(3))).area
    assert out.splitlines() == ["['ternarydraw']", f"{area} 99"]


def test_warm_table_loads_no_numpy(tmp_path):
    script = ("import sys\n"
              "from ternarydraw import cli\n"
              f"assert cli.main(['--cache-dir', {str(tmp_path / 'cache')!r}, 'table', '6']) == 0\n"
              "print('numpy' in sys.modules, 'dataclasses' in sys.modules, 'pickle' in sys.modules)")
    cold, warm = fresh(script), fresh(script)
    assert cold.splitlines()[-1].startswith("True ")
    assert warm.splitlines()[-1] == "False False False"
    assert cold.splitlines()[:-1] == warm.splitlines()[:-1]


def test_verify_loads_no_layout_or_render(tmp_path):
    path = tmp_path / "d.json"
    out = fresh("import sys\n"
                "from ternarydraw import cli\n"
                f"assert cli.main(['draw', 'complete:3', '--algo', 'c1', '--out', {str(path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('ternarydraw.')))")
    assert "ternarydraw.layout_complete" in out.splitlines()[-1]
    out = fresh("import sys\n"
                "from ternarydraw import cli\n"
                f"assert cli.main(['verify', {str(path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('ternarydraw.')))")
    assert out.splitlines()[-1] == str(["ternarydraw.cli", "ternarydraw.geometry",
                                        "ternarydraw.tree", "ternarydraw.verify"])


@pytest.mark.parametrize("argv, loaded, absent", [
    (["draw", "random:30:1"], "layout_general", ("layout_complete", "render")),
    (["draw", "complete:3", "--algo", "golden-wide"], "layout_complete", ("layout_general", "render")),
    (["draw", "complete:3", "--algo", "upper1149"], "layout_complete", ("layout_general", "render")),
    (["draw", "complete:3", "--algo", "c1", "--format", "svg"], "render", ("layout_general",)),
    (["draw", "random:30:1", "--format", "svg"], "render", ("layout_complete",)),
])
def test_draw_loads_only_its_layout_and_format(tmp_path, argv, loaded, absent):
    out = fresh("import sys\n"
                "from ternarydraw import cli\n"
                f"assert cli.main({argv + ['--out', str(tmp_path / 'd')]!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('ternarydraw.')))")
    modules = out.splitlines()[-1]
    assert f"ternarydraw.{loaded}" in modules
    assert not [m for m in absent if f"ternarydraw.{m}" in modules]


# Records OPENBLAS_NUM_THREADS as it is when numpy is imported, then runs
# the rest of the script; the variable starts unset unless PRESET is given.
OPENBLAS_SPY = """\
import os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
os.environ.update({PRESET})
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
"""


@pytest.mark.parametrize("preset, seen", [({}, "['1']"), ({"OPENBLAS_NUM_THREADS": "2"}, "['2']")])
def test_cli_starts_numpy_with_one_openblas_thread_unless_preset(tmp_path, preset, seen):
    out = fresh(OPENBLAS_SPY.format(PRESET=preset) +
                "from ternarydraw import cli\n"
                f"assert cli.main(['--cache-dir', {str(tmp_path)!r}, 'table', '4']) == 0\n"
                "print(seen)")
    assert out.splitlines()[-1] == seen


def test_library_import_leaves_openblas_unset():
    out = fresh(OPENBLAS_SPY.format(PRESET={}) +
                "import ternarydraw\n"
                "from ternarydraw import (cli, geometry, layout_complete, layout_general,\n"
                "                         pareto, render, tree, verify)\n"
                "pareto.frontier(4)\n"
                "print(seen, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert out.splitlines()[-1] == "[None] None"


def test_a_name_set_on_cli_before_main_is_the_one_called(tmp_path):
    # perfbench/child.py wraps cli names this way before cli binds them
    out = fresh("from ternarydraw import cli, verify, layout_general\n"
                "calls = []\n"
                "cli.build_report = lambda d: calls.append('build_report') or verify.build_report(d)\n"
                "cli.draw_general = lambda *a: calls.append('draw_general') or layout_general.draw_general(*a)\n"
                f"assert cli.main(['draw', 'random:50:1', '--out', {str(tmp_path / 'd.json')!r}]) == 0\n"
                "print(calls)")
    assert out.splitlines() == ["['draw_general', 'build_report']"]
