"""The traced benchmark run (perfbench/child.py) wraps package functions by
module attribute; a renamed or deleted one would break it only when the
benchmark runs. Fail here instead."""

import importlib
import json
from pathlib import Path

from ternarydraw import cli, layout_general, pareto

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in child.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # instrument() also replaces these
    assert callable(layout_general._decompose)
    assert callable(pareto._next_frontier)
    assert callable(cli.json.dumps) and callable(cli.json.load)


def test_cli_calls_every_name_the_traced_run_wraps_on_it(monkeypatch, tmp_path):
    # a name cli stops reading from itself would leave its span at 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    names = {attr for module, attr, _ in child.WRAPPED if module is cli}
    called = set()
    for name in names:
        monkeypatch.setattr(cli, name, lambda *a, _real=getattr(cli, name), _name=name:
                            called.add(_name) or _real(*a))
    general = tmp_path / "general.json"
    assert cli.main(["draw", "random:50:1", "--out", str(general)]) == 0
    for algo in ("c1", "c2", "golden-narrow", "upper1149"):
        assert cli.main(["draw", "complete:3", "--algo", algo, "--out", str(tmp_path / "d.json")]) == 0
    reordered = tmp_path / "reordered.json"  # not draw's key order: read through drawing_from_json
    reordered.write_text(json.dumps(dict(reversed(json.loads(general.read_text()).items()))))
    assert cli.main(["verify", str(reordered)]) == 0
    # cli no longer calls these two (ROADMAP item 1b)
    assert names - called == {"extents", "drawing_to_json"}
