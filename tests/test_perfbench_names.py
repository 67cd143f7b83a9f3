"""The traced benchmark run (perfbench/child.py) wraps package functions by
module attribute; a renamed or deleted one would break it only when the
benchmark runs. Fail here instead."""

import importlib
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
