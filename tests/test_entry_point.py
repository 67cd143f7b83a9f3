"""The console entry point as a program: ``python -m ternarydraw.cli`` runs
``cli.run()``, which flushes stdout and stderr and ends the process without
the interpreter's teardown. Its output must still arrive whole, and every
failure, a failed write to standard output included, keeps the 0/1/2/3 exit
contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ternarydraw.geometry import drawing_json
from ternarydraw.layout_complete import draw_c1_only

ROOT = Path(__file__).resolve().parents[1]


def cli(*argv, stdout=subprocess.PIPE, unbuffered=False) -> subprocess.CompletedProcess:
    """The CLI in a new interpreter, with PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "ternarydraw.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_draw_to_a_pipe_equals_the_out_file(tmp_path, unbuffered):
    out = tmp_path / "d.json"
    to_file = cli("draw", "complete:8", "--algo", "c1", "--out", str(out), unbuffered=unbuffered)
    to_pipe = cli("draw", "complete:8", "--algo", "c1", unbuffered=unbuffered)
    assert to_file.returncode == to_pipe.returncode == 0
    assert to_file.stdout == b""
    assert len(to_pipe.stdout) > 1 << 16 and to_pipe.stdout == out.read_bytes()
    assert to_pipe.stderr == to_file.stderr
    assert to_pipe.stderr.decode().startswith("nodes=3280 ")


def test_verify_of_a_crossing_drawing_exits_1(tmp_path):
    bad = {"tree": {"n": 5, "root": 0, "children": [[1, 2], [], [3], [4], []]},
           "pos": [[1, 1], [1, -1], [0, 1], [0, 0], [2, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    run = cli("verify", str(path))
    assert run.returncode == 1
    assert json.loads(run.stdout)["planar"] is False


def test_bad_tree_spec_exits_2():
    run = cli("draw", "lattice:3")
    assert run.returncode == 2 and run.stdout == b""
    assert run.stderr.decode().startswith("error: unknown tree spec kind")


def test_help_exits_0_and_an_unknown_command_exits_2():
    run = cli("--help")
    assert run.returncode == 0 and b"usage: ternarydraw" in run.stdout
    run = cli("frobnicate")
    assert run.returncode == 2 and b"invalid choice" in run.stderr


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"ternarydraw": "ternarydraw.cli:run"}


@pytest.fixture
def drawing_file(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(drawing_json(draw_c1_only(3)))
    return path


def assert_cannot_write_stdout(run):
    assert run.returncode == 2
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write standard output: "), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["verify", "table", "fit", "draw", "draw-large"])
def test_a_full_stdout_exits_2(tmp_path, drawing_file, command, unbuffered):
    argv = {"verify": ["verify", str(drawing_file)],
            "table": ["--cache-dir", str(tmp_path / "cache"), "table", "5"],
            "fit": ["fit", "--builtin"],
            "draw": ["draw", "complete:3", "--algo", "c1"],
            "draw-large": ["draw", "complete:8", "--algo", "c1"]}[command]  # past any buffer
    with open("/dev/full", "wb") as full:
        assert_cannot_write_stdout(cli(*argv, stdout=full, unbuffered=unbuffered))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_verify_into_a_closed_pipe_exits_2(drawing_file, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        assert_cannot_write_stdout(cli("verify", str(drawing_file), stdout=write,
                                       unbuffered=unbuffered))
    finally:
        os.close(write)
