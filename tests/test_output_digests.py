"""The bytes of a fixed set of CLI outputs, pinned by sha256: a change meant
to keep outputs byte-identical fails here if it does not. Each command runs
in-process; the frontier cache of table lives in tmp_path."""

import hashlib

from ternarydraw.cli import main

DRAW = {  # --algo: sha256 of the draw complete:6 file
    "general": "613182c3936444d38d13a2273fde5e7192f1e790bec3b123e1d6981d6ee32c11",
    "c1": "b0544eac59683db29900abc0cd5383939e1e787bb23f25f8597bb60caa0bd6a9",
    "c2": "2c77ec17d8ad59a78c11696da2c2c8ed5d750891e0eb1d7fa4eaf00e2ecd3500",
    "golden-narrow": "f000a1805e9768021c0566b7dc104e1e6d17429b1386013fb3f7ebce5dcedb12",
    "golden-wide": "87f665334eca7987a5fcb26b08fced5c939d1299ec4ceade21718f6ecbfcf7ae",
    "upper1149": "39f23b6187bee60bc396fa99bcde53d81a9f80cb44c276651126eeb9dbe3cbff",
    "pareto-min": "00d5a1668102d56fdefec50a94cad255c9ca87c9f523f67803a7e066690c41b4",
}
RANDOM = "7a552e60e75c9d3c2d63216b2725202e0e432bf12783b42769adef18500eedc1"  # draw random:3000:1
SVG = "79889c120186ada74ec6ba6ded9e4d1beeaa00ccfde4ea113c7cf4286b8688d0"  # draw complete:4 --algo c1 --format svg
TABLE = "64ef6ce9a0a1b58b861c8ed110b12b320b7be69b7061f0307b699cee7bb6a3e1"  # table 10
VERIFY = {  # the drawing verified: sha256 of verify's stdout
    "general": "9585c7ba3ea53a7933975433d260b66334e06810d8e5ea257d9e4a30d686c648",
    "c1": "bef6acc791f90cdaea77ebeb95792d3b366fcb139e9c5f39a39fc1140d9265bd",
    "c2": "dcbc314bda71233c01e3d7736fabaf0c1dab99f409713e9c454d16e86c189e62",
    "golden-narrow": "9585c7ba3ea53a7933975433d260b66334e06810d8e5ea257d9e4a30d686c648",
    "golden-wide": "3a028a86c4971b324b7941321efaca6f7734758cae74c795fbd4f2234d82eab1",
    "upper1149": "a4eb96a2b0d8a7a3a8d25309b381d441e58a5c669194caa17ebf4b5d3bd358f0",
    "pareto-min": "4efe6d5a61f19c830968a848564d8c91d87f38d405960e805fe1ffbe50bed5e7",
    "random:3000:1": "f1d80e01f767b042cc0699a98d036a8ea7016764606d786d68929393ba12808a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_their_recorded_digests(tmp_path, capsysbinary):
    def run(*argv):
        assert main(["--cache-dir", str(tmp_path / "cache"), *argv]) == 0
        return capsysbinary.readouterr().out

    def draw(name, spec, *opts):
        out = tmp_path / f"{name}.out"
        run("draw", spec, *opts, "--out", str(out))
        return out

    drawn = {algo: draw(algo, "complete:6", "--algo", algo) for algo in DRAW}
    drawn["random:3000:1"] = draw("random", "random:3000:1")
    got = {
        "draw": {algo: sha256(drawn[algo].read_bytes()) for algo in DRAW},
        "random": sha256(drawn["random:3000:1"].read_bytes()),
        "svg": sha256(draw("svg", "complete:4", "--algo", "c1", "--format", "svg").read_bytes()),
        "table": sha256(run("table", "10")),
        "verify": {name: sha256(run("verify", str(path))) for name, path in drawn.items()},
    }
    assert got == {"draw": DRAW, "random": RANDOM, "svg": SVG, "table": TABLE, "verify": VERIFY}
