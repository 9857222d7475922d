"""Golden outputs: every byte the command line writes over a fixed corpus.

The corpus is two synthetic speakers plus one dirty take: a sentinel
burst in two tongue pellets, a run of MNM sentinels, a stretch of
collinear T2-T4 and a tongue-body circle that cuts into the palate, at
100 Hz so that resampling interpolates.  Each output file, and the
stdout of `compare`, is pinned by its SHA-256 digest.  A change that
moves a byte must say why and retake the table:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tractvar.cli import main

from helpers import (
    TB_DIR_DEG,
    TB_RADIUS_MM,
    on_arc,
    wobbled_pellets,
    write_pellet_csv,
    write_speaker_fixture,
)

SENTINEL = (1e6, 1e6)

GOLDEN = {
    "anatomy/a.anatomy.json":
        "011e6278251e80ac2891bae6df70948317de3ddcc89152c42fac4baadfb6f05b",
    "anatomy/a.anatomy.svg":
        "3fd080a392f34a79f3d87fc7403990d144022fe3f20096cb7632fe5ccf88d97d",
    "anatomy/b.anatomy.json":
        "1b98b1e90808de10d3bef2c57312a1dda70e05761af211ac4e26a1fac08eaf3a",
    "anatomy/b.anatomy.svg":
        "b736fa19020670d918d54a2b524eb144cf1894172103925ffa7f3c21db9ee2ad",
    "compare.json":
        "0f64488be7622b82a52ffc29aa96b1a1d8d4078fccc8095bda7fc252d05c1eac",
    "compare.stdout":
        "a1ef7d8cc1d0d6f748d8608c55728a5138e21e5263637500ea64d7861aeb6ba3",
    "deg/a.anatomy.json":
        "011e6278251e80ac2891bae6df70948317de3ddcc89152c42fac4baadfb6f05b",
    "deg/a_utt00.tv.csv":
        "3d639beeb3aadff4caad08bd223ec81b7d9138d8de7cf613c44097577dadd7d1",
    "deg/a_utt01.tv.csv":
        "ed05f85a88d8896482bd9709d9c64642098ba8b16a03a1a9973090a68249a3b8",
    "deg/b.anatomy.json":
        "1b98b1e90808de10d3bef2c57312a1dda70e05761af211ac4e26a1fac08eaf3a",
    "deg/b_utt00.tv.csv":
        "db41125b5cd9358456682905e16f522a82c3dd48e5fbc30bc72343d1f3c7670b",
    "deg/dirty.tv.csv":
        "000e18666265959d7d85771e74eaa973d973cacf74cbae57553577dc5e0af5a9",
    "p1/a.anatomy.json":
        "011e6278251e80ac2891bae6df70948317de3ddcc89152c42fac4baadfb6f05b",
    "p1/a.anatomy.svg":
        "3fd080a392f34a79f3d87fc7403990d144022fe3f20096cb7632fe5ccf88d97d",
    "p1/a_utt00.tv.csv":
        "1a641d50e24829dee5b11fa975554aefbebfc6b401ad6e58666d7e843d4349e8",
    "p1/a_utt00.tvs.svg":
        "211824c866ee1af97faf6e910402500fecd99cdc9e744b3461afd92728a61d8d",
    "p1/a_utt01.tv.csv":
        "7b7d03670a952f0c601f9320beaace3a26092d1f3c38a448d4e02f41af48c535",
    "p1/a_utt01.tvs.svg":
        "e84cf059803da3374025e040e3beaba17a7c820634669d184f2f8e1f505d2604",
    "p1/b.anatomy.json":
        "1b98b1e90808de10d3bef2c57312a1dda70e05761af211ac4e26a1fac08eaf3a",
    "p1/b.anatomy.svg":
        "b736fa19020670d918d54a2b524eb144cf1894172103925ffa7f3c21db9ee2ad",
    "p1/b_utt00.tv.csv":
        "8c4ed7dd52c77c37aceb0ab09791db94c435c5d84c947fcf313cded49d7e1b74",
    "p1/b_utt00.tvs.svg":
        "f4643c1130c70198c94b61cf62f06fef68d0e59905935a476b4b455163cca677",
    "p1/dirty.tv.csv":
        "e4e0d5c54a961046aa24fa15d56443697a5fd068d0fcc36e5186076386836132",
    "p1/dirty.tvs.svg":
        "537f4c9109b7cecc6231fb4ea2cf1fb1c2f8e1cc1079fd45ae0a290af9496808",
    "p2/a.anatomy.json":
        "011e6278251e80ac2891bae6df70948317de3ddcc89152c42fac4baadfb6f05b",
    "p2/a.anatomy.svg":
        "3fd080a392f34a79f3d87fc7403990d144022fe3f20096cb7632fe5ccf88d97d",
    "p2/a_utt00.tv.csv":
        "1a641d50e24829dee5b11fa975554aefbebfc6b401ad6e58666d7e843d4349e8",
    "p2/a_utt00.tvs.svg":
        "211824c866ee1af97faf6e910402500fecd99cdc9e744b3461afd92728a61d8d",
    "p2/a_utt01.tv.csv":
        "7b7d03670a952f0c601f9320beaace3a26092d1f3c38a448d4e02f41af48c535",
    "p2/a_utt01.tvs.svg":
        "e84cf059803da3374025e040e3beaba17a7c820634669d184f2f8e1f505d2604",
    "p2/b.anatomy.json":
        "1b98b1e90808de10d3bef2c57312a1dda70e05761af211ac4e26a1fac08eaf3a",
    "p2/b.anatomy.svg":
        "b736fa19020670d918d54a2b524eb144cf1894172103925ffa7f3c21db9ee2ad",
    "p2/b_utt00.tv.csv":
        "8c4ed7dd52c77c37aceb0ab09791db94c435c5d84c947fcf313cded49d7e1b74",
    "p2/b_utt00.tvs.svg":
        "f4643c1130c70198c94b61cf62f06fef68d0e59905935a476b4b455163cca677",
    "p2/dirty.tv.csv":
        "e4e0d5c54a961046aa24fa15d56443697a5fd068d0fcc36e5186076386836132",
    "p2/dirty.tvs.svg":
        "537f4c9109b7cecc6231fb4ea2cf1fb1c2f8e1cc1079fd45ae0a290af9496808",
}


def dirty_rows(n: int = 60, rate: float = 100.0):
    """Rows of the dirty take, one wobble over `n` frames."""
    rows = []
    for k in range(n):
        coords = dict(wobbled_pellets(2.0 * math.pi * k / n))
        if 10 <= k < 14:
            coords["T2"] = coords["T3"] = SENTINEL
        if 20 <= k < 35:
            coords["MNM"] = SENTINEL
        if 30 <= k < 38:
            (x2, y2), (x4, y4) = coords["T2"], coords["T4"]
            coords["T3"] = ((x2 + x4) / 2.0, (y2 + y4) / 2.0)
        if 44 <= k < 52:
            # Centered 22 mm out on a 35 mm arc: TBCD is -2 mm.
            cx, cy = on_arc(TB_DIR_DEG, radius=22.0)
            coords["T2"] = (cx + TB_RADIUS_MM, cy)
            coords["T3"] = (cx, cy - TB_RADIUS_MM)
            coords["T4"] = (cx - TB_RADIUS_MM, cy)
        rows.append((k / rate, coords))
    return rows


def write_corpus(root: Path) -> Path:
    """Speakers a (two takes and the dirty one) and b (one take, renamed
    so that its outputs do not clash with a's); returns the manifest."""
    entries = []
    for speaker, n_frames, n_utterances in (("a", 40, 2), ("b", 25, 1)):
        manifest = write_speaker_fixture(
            root / speaker,
            n_frames=n_frames,
            n_utterances=n_utterances,
            constant=False,
            speaker_id=speaker,
        )
        entry = json.loads(manifest.read_text())
        utterances = []
        for name in entry["utterances"]:
            (root / speaker / name).rename(root / speaker / f"{speaker}_{name}")
            utterances.append(f"{speaker}_{name}")
        entry["utterances"] = utterances
        entries.append(entry)
    write_pellet_csv(root / "a" / "dirty.csv", dirty_rows())
    entries[0]["utterances"].append("dirty.csv")
    for entry in entries:
        speaker = entry["speaker_id"]
        for key in ("palate", "posterior_wall"):
            entry[key] = f"{speaker}/{entry[key]}"
        entry["utterances"] = [f"{speaker}/{u}" for u in entry["utterances"]]
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2))
    return manifest


def run_commands(root: Path) -> dict[str, str]:
    """Run every command over the corpus; the SHA-256 of each output,
    keyed by its path under `root / "out"`."""
    manifest = write_corpus(root / "data")
    out = root / "out"
    commands = [
        ["anatomy", "--manifest", manifest, "--out", out / "anatomy"],
        ["run", "--manifest", manifest, "--out", out / "p1", "--plots"],
        ["run", "--manifest", manifest, "--out", out / "p2", "--plots",
         "--parallelism", "2"],
        ["run", "--manifest", manifest, "--out", out / "deg", "--degrees",
         "--clamp-tbcd"],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        argv = ["compare", out / "p1" / "dirty.tv.csv", out / "deg" / "dirty.tv.csv",
                "--json", out / "compare.json"]
        assert main([str(a) for a in argv]) == 0
    (out / "compare.stdout").write_text(stdout.getvalue())
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_outputs_match_the_golden_digests(tmp_path):
    actual = run_commands(tmp_path)
    problems = [
        f"changed: {name}" for name in sorted(GOLDEN.keys() & actual.keys())
        if GOLDEN[name] != actual[name]
    ]
    problems += [f"missing: {name}" for name in sorted(GOLDEN.keys() - actual.keys())]
    problems += [f"new: {name}" for name in sorted(actual.keys() - GOLDEN.keys())]
    assert not problems, "\n".join([f"numpy {np.__version__}", *problems])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in run_commands(Path(scratch)).items():
            print(f'    "{name}":\n        "{digest}",')
