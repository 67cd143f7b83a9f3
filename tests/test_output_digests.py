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

VERIFY_LARGE = {  # sha256 of verify's stdout on draw complete:9 --algo ..., and on draw random:20000:1
    "general": "3ee05df558cf116a536db31859728c2d422508b2f0f918182b486e06722670f2",
    "c1": "9b942f3984c8e3c00348f482eac963b672fcbd541c7037c8473d7785b0874b18",
    "c2": "fd2dc5fbb7184d92ca427e977b07f350421017c65b4ead8a3363a1fffbdffedc",
    "golden-narrow": "3ee05df558cf116a536db31859728c2d422508b2f0f918182b486e06722670f2",
    "golden-wide": "68b8aee9153f25444d5a8d3e9ebfeda8c90e7f3ce55b91faf8b04f208b49ae0c",
    "upper1149": "28c1904299aeb35e15faaafc48c9573748ddb356bc0705c34d3eb5e536d87265",
    "pareto-min": "13b3a733581f55dd177dc5281389dbd1fe0b585b4e6656e1aea5040bb6eeacf8",
    "random:20000:1": "e89b770da4f8e2c84a3622c9941cf6ef2f9d124f61fb0fb05b5a8c3e1c73ea58",
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


def test_verify_reports_on_larger_drawings_match_their_recorded_digests(tmp_path, capsysbinary):
    """Drawings large enough for the crossing search to run many levels."""
    def verify(*draw_argv):
        out = tmp_path / "d.json"
        assert main(["draw", *draw_argv, "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(["verify", str(out)]) == 0
        return sha256(capsysbinary.readouterr().out)

    got = {algo: verify("complete:9", "--algo", algo) for algo in DRAW}
    got["random:20000:1"] = verify("random:20000:1")
    assert got == VERIFY_LARGE
