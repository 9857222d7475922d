"""Benchmark for the tractvar command line on seeded synthetic corpora.

    python3 perfbench/run.py --workload long_takes --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory.  The run generates the workload's corpus from the seed, then
repeats whole rounds until the time is up (at least MIN_ROUNDS):

* two fresh `tractvar anatomy` processes (setup_s),
* one fresh `tractvar run --parallelism 1` process (run_p1_s,
  peak_rss_mb) and one with `--parallelism 2` (run_p2_s),
* one process that calls `tractvar compare` through the CLI entry point
  on every pair of the workload and times only those calls (compare_s).

Every round's outputs must be byte-identical to the first round's, and
the parallel run's to the serial one's.  After the last round the
independent oracle (`oracle.py`) checks the anatomy, every frame of
every TV file and every compare score.  With `--trace 1` the rounds
instead pair an untraced and a traced in-process run (`worker.py`) and
report per-layer metrics from the traced run's spans.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import corpus
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 3
SETUPS_PER_ROUND = 2
PROCESS_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "run_p1_s": "s",
    "run_p2_s": "s",
    "peak_rss_mb": "MB",
    "compare_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "ingest.load_manifest_s": "s",
    "ingest.parse_trace_file_s": "s",
    "anatomy.build_speaker_anatomy_s": "s",
    "tvcsv.write_anatomy_json_s": "s",
    "plots.anatomy_svg_s": "s",
    "ingest.parse_pellet_file_s": "s",
    "ingest.parse_pellet_file_us_per_row": "us",
    "ingest.resample_s": "s",
    "ingest.resample_us_per_frame": "us",
    "tract_variables.compute_trajectory_s": "s",
    "tract_variables.compute_trajectory_us_per_frame": "us",
    "tvcsv.write_tv_csv_s": "s",
    "tvcsv.write_tv_csv_us_per_frame": "us",
    "tvcsv.bytes_written": "bytes",
    "geometry.segment_tests": "count",
    "geometry.ns_per_segment_test": "ns",
    "pipeline.run_pipeline_s": "s",
    "pipeline.self_s": "s",
    "pipeline.p2_speedup": "ratio",
    "tvcsv.read_tv_csv_s": "s",
    "compare.compare_tvs_s": "s",
    "ingest.rows_read": "count",
    "ingest.frames_mistracked": "count",
    "ingest.pellets_interpolated": "count",
    "tract_variables.frames_out": "count",
    "tract_variables.frames_ok": "count",
    "tract_variables.frames_degenerate_tongue": "count",
    "tract_variables.frames_missing_pellet": "count",
    "pipeline.speakers": "count",
    "pipeline.utterances": "count",
    "trace.overhead_s": "s",
}


class Bench:
    """One generated corpus plus the processes that run on it."""

    def __init__(self, corp: corpus.Corpus, seed: int, work: Path) -> None:
        self.corpus = corp
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, TRACTVAR_LOG="warn")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._digests: dict[str, dict[str, str]] = {}

    # -- processes -------------------------------------------------------

    def _timed(self, argv: list[str]) -> tuple[float, int]:
        """Wall seconds and exit code of one child process."""
        with open(self.work / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        return elapsed, proc.returncode

    def cli(self, *args: str) -> tuple[float, float, int]:
        """Run `tractvar <args>`: wall seconds, peak RSS (MB), exit code."""
        peak = self.work / "peak_kb"
        peak.unlink(missing_ok=True)
        seconds, code = self._timed([str(HERE / "cli_peak.py"), str(peak), *args])
        if not peak.is_file():
            self.errors.append(f"tractvar {args[0]} recorded no peak memory (exit {code})")
            return seconds, 0.0, code
        return seconds, int(peak.read_text()) / 1024.0, code

    def _missing_anatomy(self, out: Path) -> int:
        return sum(
            not (out / f"{s.speaker_id}.anatomy.json").is_file() for s in self.corpus.speakers
        )

    def _missing_tvs(self, out: Path) -> int:
        return sum(not (out / f"{stem}.tv.csv").is_file() for stem in self.corpus.utterances)

    def anatomy(self, out: Path) -> float:
        shutil.rmtree(out, ignore_errors=True)
        seconds, _, code = self.cli("anatomy", "--manifest", str(self.corpus.manifest),
                                    "--out", str(out))
        self._account("anatomy", code, len(self.corpus.speakers), self._missing_anatomy(out))
        return seconds

    def run(self, out: Path, parallelism: int) -> tuple[float, float]:
        shutil.rmtree(out, ignore_errors=True)
        seconds, rss, code = self.cli(
            "run", "--manifest", str(self.corpus.manifest), "--out", str(out),
            "--parallelism", str(parallelism), *self.corpus.spec.run_flags,
        )
        self._account(f"run p{parallelism}", code, len(self.corpus.utterances),
                      self._missing_tvs(out))
        return seconds, rss

    def worker(self, tag: str, steps: list[str], run_dir: Path, trace: bool = False):
        """Run worker.py; return (wall seconds, its result, spans or None)."""
        dirs = {k: self.out / f"{tag}_{k}" for k in ("anatomy", "run", "cmp")}
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
        if "run" in steps:
            run_dir = dirs["run"]
        pairs = [
            [str(run_dir / f"{a}.tv.csv"), str(run_dir / f"{b}.tv.csv"),
             str(dirs["cmp"] / f"pair{k:02d}.json")]
            for k, (a, b) in enumerate(self.corpus.pairs)
        ]
        plan = {
            "steps": steps,
            "manifest": str(self.corpus.manifest),
            "anatomy_out": str(dirs["anatomy"]),
            "run_out": str(dirs["run"]),
            "run_flags": list(self.corpus.spec.run_flags),
            "compare_out": str(dirs["cmp"]),
            "pairs": pairs,
            "trace": str(self.work / f"{tag}.spans.jsonl") if trace else None,
            "result": str(self.work / f"{tag}.result.json"),
        }
        plan_path = self.work / f"{tag}.plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result_path = Path(plan["result"])
        result_path.unlink(missing_ok=True)
        seconds, code = self._timed([str(HERE / "worker.py"), str(plan_path)])
        if code != 0 or not result_path.is_file():
            self.errors.append(f"worker {tag} exited with {code}")
            return seconds, None, None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        codes = result["codes"]
        if "anatomy" in steps:
            self._account(f"{tag} anatomy", codes["anatomy"], len(self.corpus.speakers),
                          self._missing_anatomy(dirs["anatomy"]))
        if "run" in steps:
            self._account(f"{tag} run", codes["run"], len(self.corpus.utterances),
                          self._missing_tvs(dirs["run"]))
        if "compare" in steps:
            self._account(f"{tag} compare", max(codes["compare"], default=0), len(pairs),
                          sum(not Path(p[2]).is_file() for p in pairs))
        spans = None
        if trace:
            lines = Path(plan["trace"]).read_text(encoding="utf-8").splitlines()
            spans = [json.loads(line) for line in lines]
        return seconds, result, spans

    def _account(self, what: str, code: int, attempted: int, missing: int) -> None:
        self.attempted += attempted
        self.failed += missing
        if (code != 0) != (missing > 0):
            self.errors.append(f"{what}: exit code {code} with {missing} missing outputs")

    # -- output checks ---------------------------------------------------

    def same_bytes(self, key: str, directory: Path, suffixes: tuple[str, ...]) -> None:
        """Digest the outputs in `directory`; they must equal the first
        digest recorded under `key`."""
        files = sorted(directory.iterdir()) if directory.is_dir() else []
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.name.endswith(suffixes)
        }
        first = self._digests.setdefault(key, digests)
        if digests != first:
            differ = sorted(n for n in first.keys() | digests.keys()
                            if first.get(n) != digests.get(n))
            self.errors.append(f"{directory.name}: outputs differ from {key}: {differ[:5]}")

    def oracle(self, anatomy_dir: Path, run_dir: Path, cmp_dir: Path) -> oracle.CorpusCheck | None:
        try:
            check = oracle.check_outputs(self.corpus, anatomy_dir, run_dir, cmp_dir)
        except FileNotFoundError as exc:
            self.errors.append(f"oracle: {exc}")
            return None
        self.errors += check.errors
        return check


def _rounds(seconds: float, minimum: int):
    """Yield round numbers while another round is expected to fit."""
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k < minimum or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        yield k
        longest = max(longest, time.perf_counter() - t0)
        k += 1


def measure(bench: Bench, seconds: float) -> dict:
    samples = defaultdict(list)
    bench.cli("anatomy", "--manifest", str(bench.corpus.manifest),
              "--out", str(bench.out / "warmup"))
    for _ in _rounds(seconds, MIN_ROUNDS):
        for _ in range(SETUPS_PER_ROUND):
            samples["setup_s"].append(bench.anatomy(bench.out / "anatomy"))
            bench.same_bytes("anatomy", bench.out / "anatomy", (".json", ".svg"))
        p1, rss = bench.run(bench.out / "p1", 1)
        samples["run_p1_s"].append(p1)
        samples["peak_rss_mb"].append(rss)
        samples["run_p2_s"].append(bench.run(bench.out / "p2", 2)[0])
        bench.same_bytes("run", bench.out / "p1", (".csv", ".json"))
        bench.same_bytes("run", bench.out / "p2", (".csv", ".json"))
        _, result, _ = bench.worker("cmp", ["compare"], bench.out / "p1")
        if result:
            samples["compare_s"].append(result["compare_s"])
            bench.same_bytes("compare", bench.out / "cmp_cmp", (".json",))
    bench.oracle(bench.out / "anatomy", bench.out / "p1", bench.out / "cmp_cmp")
    print("samples: " + json.dumps(samples), file=sys.stderr)
    return {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END.items() if samples[name]
    }


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans: list[dict], check: oracle.CorpusCheck) -> dict[str, float]:
    """Per-layer figures from one traced run's spans."""
    by_id = {s["id"]: s for s in spans}

    def root(span: dict) -> str:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"]

    groups = defaultdict(list)
    for s in spans:
        groups[root(s)].append(s)

    def total(group: str, name: str, field: str | None = None) -> float:
        return sum(
            (s[field] if field else s["end"] - s["start"])
            for s in groups[group] if s["name"] == name
        )

    setup, run, cmp = "pipeline.run_anatomy_only", "pipeline.run_pipeline", "compare.compare_tvs"
    (pipe,) = [s for s in spans if s["name"] == run]
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == pipe["id"]]
    rows = total(run, "ingest.parse_pellet_file", "rows")
    frames = total(run, "tract_variables.compute_trajectory", "frames")
    compute_s = total(run, "tract_variables.compute_trajectory")
    m = {
        "cli.import_s": total("cli.import", "cli.import"),
        "ingest.load_manifest_s": total(setup, "ingest.load_manifest"),
        "ingest.parse_trace_file_s": total(setup, "ingest.parse_trace_file"),
        "anatomy.build_speaker_anatomy_s": total(setup, "anatomy.build_speaker_anatomy"),
        "tvcsv.write_anatomy_json_s": total(setup, "tvcsv.write_anatomy_json"),
        "plots.anatomy_svg_s": total(setup, "plots.anatomy_svg"),
        "ingest.parse_pellet_file_s": total(run, "ingest.parse_pellet_file"),
        "ingest.resample_s": total(run, "ingest.resample"),
        "tract_variables.compute_trajectory_s": compute_s,
        "tvcsv.write_tv_csv_s": total(run, "tvcsv.write_tv_csv"),
        "tvcsv.bytes_written": total(run, "tvcsv.write_tv_csv", "bytes"),
        "geometry.segment_tests": check.segment_tests,
        "geometry.ns_per_segment_test": compute_s * 1e9 / check.segment_tests,
        "pipeline.run_pipeline_s": pipe["end"] - pipe["start"],
        "pipeline.self_s": pipe["end"] - pipe["start"] - _union(children),
        "tvcsv.read_tv_csv_s": total(cmp, "tvcsv.read_tv_csv"),
        "compare.compare_tvs_s": total(cmp, "compare.compare_tvs"),
        "ingest.rows_read": rows,
        "ingest.frames_mistracked": total(run, "ingest.parse_pellet_file", "mistracked"),
        "ingest.pellets_interpolated": total(run, "ingest.resample", "interpolated"),
        "tract_variables.frames_out": frames,
        "tract_variables.frames_ok": total(run, "tract_variables.compute_trajectory", "Ok"),
        "tract_variables.frames_degenerate_tongue":
            total(run, "tract_variables.compute_trajectory", "DegenerateTongue"),
        "tract_variables.frames_missing_pellet":
            total(run, "tract_variables.compute_trajectory", "MissingPellet"),
        "pipeline.speakers": sum(s["name"] == "anatomy.build_speaker_anatomy" for s in groups[run]),
        "pipeline.utterances": sum(s["name"] == "ingest.parse_pellet_file" for s in groups[run]),
    }
    m["ingest.parse_pellet_file_us_per_row"] = m["ingest.parse_pellet_file_s"] * 1e6 / rows
    for stage in ("ingest.resample", "tract_variables.compute_trajectory", "tvcsv.write_tv_csv"):
        m[f"{stage}_us_per_frame"] = m[f"{stage}_s"] * 1e6 / frames
    return m


def _check_counts(bench: Bench, m: dict[str, float], check: oracle.CorpusCheck) -> None:
    """The program's own counts must agree with the oracle's."""
    spec = bench.corpus.spec
    want = {
        "ingest.rows_read": check.rows,
        "ingest.frames_mistracked": check.mistracked,
        "ingest.pellets_interpolated": check.interpolated,
        "tract_variables.frames_out": len(bench.corpus.utterances) * spec.frames,
        "tract_variables.frames_ok": check.quality["Ok"],
        "tract_variables.frames_degenerate_tongue": check.quality["DegenerateTongue"],
        "tract_variables.frames_missing_pellet": check.quality["MissingPellet"],
        "pipeline.speakers": len(bench.corpus.speakers),
        "pipeline.utterances": len(bench.corpus.utterances),
    }
    for name, value in want.items():
        if m[name] != value:
            bench.errors.append(f"trace: {name} = {m[name]}, oracle expects {value}")


def measure_traced(bench: Bench, seconds: float) -> dict:
    samples = defaultdict(list)
    steps = ["anatomy", "run", "compare"]
    bench.cli("anatomy", "--manifest", str(bench.corpus.manifest),
              "--out", str(bench.out / "warmup"))
    check = None
    for k in _rounds(seconds, MIN_TRACE_ROUNDS):
        # Alternate which of the pair goes first, so neither always runs
        # on a cooler cache.
        if k % 2 == 0:
            plain_s, _, _ = bench.worker("plain", steps, bench.out)
        traced_s, _, spans = bench.worker("traced", steps, bench.out, trace=True)
        if k % 2 == 1:
            plain_s, _, _ = bench.worker("plain", steps, bench.out)
        p1, _ = bench.run(bench.out / "p1", 1)
        p2, _ = bench.run(bench.out / "p2", 2)
        for tag in ("plain", "traced"):
            bench.same_bytes("anatomy", bench.out / f"{tag}_anatomy", (".json", ".svg"))
            bench.same_bytes("run", bench.out / f"{tag}_run", (".csv", ".json"))
            bench.same_bytes("compare", bench.out / f"{tag}_cmp", (".json",))
        bench.same_bytes("run", bench.out / "p1", (".csv", ".json"))
        bench.same_bytes("run", bench.out / "p2", (".csv", ".json"))
        if check is None:
            check = bench.oracle(bench.out / "traced_anatomy", bench.out / "traced_run",
                                 bench.out / "traced_cmp")
        if spans is None or check is None:
            continue
        for name, value in layer_metrics(spans, check).items():
            samples[name].append(value)
        samples["pipeline.p2_speedup"].append(p1 / p2)
        samples["trace.overhead_s"].append(traced_s - plain_s)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(
            bench.work / "traced.spans.jsonl",
            trace_dir / f"{bench.corpus.spec.name}-seed{bench.seed}.spans.jsonl",
        )
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in PER_LAYER.items() if samples[name]
    }
    if check is not None and metrics:
        _check_counts(bench, {k: v["value"] for k, v in metrics.items()}, check)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tractvar" / "cli.py").is_file():
        print(f"no tractvar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corp = corpus.generate(args.workload, args.seed, work / "corpus")
        bench = Bench(corp, args.seed, work)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
            wanted = PER_LAYER
        else:
            metrics = measure(bench, args.seconds)
            wanted = END_TO_END
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            bench.errors.append(f"no value for {missing}")
        log = (work / "stderr.log").read_text(encoding="utf-8", errors="replace") \
            if (work / "stderr.log").is_file() else ""
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in bench.errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    if bench.errors and log:
        print(log[-2000:], file=sys.stderr)
    correct = not bench.errors
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
