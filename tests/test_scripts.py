"""Smoke runs of the scripts in scripts/, each in a fresh interpreter at a
tiny size, so that an API change they depend on fails here, and a check of
each ratio behind benchmark_general.py's slack column."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ternarydraw.layout_general import frame_stats
from ternarydraw.tree import complete_tree, random_ternary_tree

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def load_script(name):
    """The module of scripts/<name>.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_table_matches_every_row(tmp_path):
    run = run_script("reproduce_table.py", "--h-max", "6", cwd=tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr  # 1 on any mismatched row
    rows = [line.split() for line in run.stdout.splitlines()[1:-1]]
    assert [int(r[0]) for r in rows] == list(range(1, 7))
    assert all(r[3] == r[4] for r in rows)  # min area == reference


def slack_ratios(t):
    """The largest ratio of each attachment to its bound over the frames of
    t's general layout: a and b to m/p, s to (m - a - b)/3 on frames with a
    general P part, r + s to 2(p - 1)m/(3p) on every frame."""
    s, p = frame_stats(t), 9.956
    worst = dict.fromkeys(("a", "b", "s", "r + s"), 0.0)
    for m, a, b, r, s_ in zip(*(x.tolist() for x in s[2:])):
        if a >= 0:
            for key, ratio in (("a", a / (m / p)), ("b", b / (m / p)), ("s", s_ / ((m - a - b) / 3))):
                worst[key] = max(worst[key], ratio)
        worst["r + s"] = max(worst["r + s"], (r + s_) / (2 * (p - 1) * m / (3 * p)))
    return worst


def test_benchmark_general_verifies(tmp_path):
    run = run_script("benchmark_general.py", "--sizes", "100", "--seeds", "1", "--verify",
                     cwd=tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr
    header, row = run.stdout.splitlines()
    assert header.split()[0] == "n" and row.split()[0] == "100"
    assert header.split()[-3:] == ["frames", "levels", "slack"]
    t = random_ternary_tree(100, 0)
    s, slack = frame_stats(t), max(slack_ratios(t).values())
    assert row.split()[-3:] == [str(len(s.m)), str(s.level.max() + 1), f"{slack:.3f}"]


@pytest.mark.parametrize("tree, largest", [
    (random_ternary_tree(30, 130), "a"), (random_ternary_tree(30, 3), "b"),
    (random_ternary_tree(30, 45), "s"), (complete_tree(5), "r + s"),
], ids=["a", "b", "s", "r+s"])
def test_benchmark_general_slack_reads_each_ratio(tree, largest):
    # a tree on which one ratio is the largest, so the slack column is that ratio
    script = load_script("benchmark_general")
    worst = slack_ratios(tree)
    assert max(worst, key=worst.get) == largest
    frames, levels, slack = script.count_frames(tree)
    assert slack == pytest.approx(worst[largest], rel=1e-12)
    s = frame_stats(tree)
    assert (frames, levels) == (len(s.m), s.level.max() + 1)
