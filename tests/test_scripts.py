"""Smoke runs of the scripts in scripts/, each in a fresh interpreter at a
tiny size, so that an API change they depend on fails here."""

import os
import subprocess
import sys
from pathlib import Path

from ternarydraw.layout_general import LayoutParams, frame_stats
from ternarydraw.tree import random_ternary_tree

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_reproduce_table_matches_every_row(tmp_path):
    run = run_script("reproduce_table.py", "--h-max", "6", cwd=tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr  # 1 on any mismatched row
    rows = [line.split() for line in run.stdout.splitlines()[1:-1]]
    assert [int(r[0]) for r in rows] == list(range(1, 7))
    assert all(r[3] == r[4] for r in rows)  # min area == reference


def test_fit_area_table_beats_the_reference(tmp_path):
    run = run_script("fit_area_table.py", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "fitted sse is <= reference"


def test_benchmark_general_verifies(tmp_path):
    run = run_script("benchmark_general.py", "--sizes", "100", "--seeds", "1", "--verify",
                     cwd=tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr
    header, row = run.stdout.splitlines()
    assert header.split()[0] == "n" and row.split()[0] == "100"
    assert header.split()[-3:] == ["frames", "levels", "slack"]
    s, p = frame_stats(random_ternary_tree(100, 0)), LayoutParams().p
    slack = 0.0
    for m, a, b, r, s_ in zip(*(x.tolist() for x in s[2:])):
        if a >= 0:
            slack = max(slack, a / (m / p), b / (m / p), s_ / ((m - a - b) / 3))
        slack = max(slack, (r + s_) / (2 * (p - 1) * m / (3 * p)))
    assert row.split()[-3:] == [str(len(s.m)), str(s.level.max() + 1), f"{slack:.3f}"]
