"""Self-test of the benchmark on the tiny corpus.

    python3 -m pytest perfbench -q

Checks that the oracle accepts the program's outputs and rejects a
perturbed one, that corpora depend only on the seed, that both modes of
run.py print exactly the metrics BENCHMARK.json names, and that run.py
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), TRACTVAR_LOG="warn")


def _tractvar(*args) -> None:
    subprocess.run(
        [sys.executable, "-m", "tractvar.cli", *map(str, args)],
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )


def _tiny_outputs(tmp_path: Path):
    corp = corpus.generate("tiny", 5, tmp_path / "corpus")
    run_dir, anatomy_dir, cmp_dir = tmp_path / "run", tmp_path / "anatomy", tmp_path / "cmp"
    _tractvar("anatomy", "--manifest", corp.manifest, "--out", anatomy_dir)
    _tractvar("run", "--manifest", corp.manifest, "--out", run_dir, *corp.spec.run_flags)
    cmp_dir.mkdir()
    for k, (a, b) in enumerate(corp.pairs):
        _tractvar("compare", run_dir / f"{a}.tv.csv", run_dir / f"{b}.tv.csv",
                  "--json", cmp_dir / f"pair{k:02d}.json")
    return corp, anatomy_dir, run_dir, cmp_dir


def test_oracle_accepts_outputs_and_catches_a_perturbation(tmp_path):
    corp, anatomy_dir, run_dir, cmp_dir = _tiny_outputs(tmp_path)
    check = oracle.check_outputs(corp, anatomy_dir, run_dir, cmp_dir)
    assert check.errors == []
    assert check.quality["Ok"] and check.quality["DegenerateTongue"]
    assert check.quality["MissingPellet"] and check.mistracked

    stem = corp.speakers[0].stems[0]
    path = run_dir / f"{stem}.tv.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    errors = oracle.check_outputs(corp, anatomy_dir, run_dir, cmp_dir).errors
    assert any(f"{stem}.tv.csv: LA off" in e for e in errors)


def test_corpus_depends_only_on_the_seed(tmp_path):
    def files(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    a = corpus.generate("tiny", 9, tmp_path / "a")
    b = corpus.generate("tiny", 9, tmp_path / "b")
    c = corpus.generate("tiny", 10, tmp_path / "c")
    assert files(a.root) == files(b.root)
    assert files(a.root) != files(c.root)
    assert files(a.root).keys() == files(c.root).keys()
    stems = [s for spk in a.speakers for s in spk.stems]
    assert len(stems) == len(set(stems)) == len(a.utterances)


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _bench("--workload", "tiny", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
