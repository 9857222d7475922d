"""Run tractvar steps inside one process, optionally with span tracing.

    python3 perfbench/worker.py PLAN.json

The plan names the steps (`anatomy`, `run`, `compare`), the manifest,
the output directories, the extra `run` flags, the compare pairs and
where to write results.  Every step goes through `tractvar.cli.main`, so
the work matches the command line.  `tractvar` must be importable (the
caller puts the checkout's `src` on PYTHONPATH).

With tracing on, the public functions the pipeline calls are wrapped
from outside: each call becomes an in-memory span (name, start, end,
parent, utterance or speaker, counts), and the spans are written as JSON
lines when the worker ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory spans around wrapped module functions."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, span_id: int, name: str, start: float, end: float,
               parent: int | None, **fields) -> None:
        with self._lock:
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent, **fields})

    def wrap(self, module, attr: str, name: str, describe=None, root: bool = False) -> None:
        """Replace `module.attr` with a wrapper that records one span per call.

        `describe(args, kwargs, result)` returns extra span fields.  A root
        span becomes the parent of spans opened on threads with no open
        span of their own (the pipeline's worker threads).
        """
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = tracer.new_id()
            stack.append(span_id)
            if root:
                tracer._root = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    tracer._root = None
            extra = describe(args, kwargs, result) if describe else {}
            tracer.record(span_id, name, start, end, parent, **extra)
            return result

        setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _stem(path) -> str:
    return Path(path).name.split(".")[0]


def install(tracer: Tracer) -> None:
    """Wrap the public calls of README's "Library use" sequence and the
    stage calls around it, where the pipeline and CLI look them up."""
    from tractvar import cli, compare, pipeline

    def pellet(args, kwargs, result):
        _, report = result
        return {"utterance": _stem(args[0]), "rows": report.frames_read,
                "mistracked": report.frames_mistracked}

    def resampled(args, kwargs, result):
        report = args[2] if len(args) > 2 else kwargs.get("report")
        return {"utterance": result.utterance_id, "frames": len(result.frames),
                "interpolated": report.pellets_interpolated if report else 0}

    def computed(args, kwargs, result):
        counts = {"Ok": 0, "DegenerateTongue": 0, "MissingPellet": 0}
        for frame in result.frames:
            counts[frame.quality.value] += 1
        return {"utterance": args[0].utterance_id, "frames": len(result.frames), **counts}

    def written(args, kwargs, result):
        return {"utterance": _stem(args[1]), "bytes": os.path.getsize(args[1])}

    stages = [
        (pipeline, "load_manifest", "ingest.load_manifest", None),
        (pipeline, "parse_trace_file", "ingest.parse_trace_file",
         lambda a, k, r: {"speaker": _stem(a[0])}),
        (pipeline, "build_speaker_anatomy", "anatomy.build_speaker_anatomy",
         lambda a, k, r: {"speaker": a[0]}),
        (pipeline, "write_anatomy_json", "tvcsv.write_anatomy_json",
         lambda a, k, r: {"speaker": a[0].speaker_id}),
        (pipeline, "anatomy_svg", "plots.anatomy_svg",
         lambda a, k, r: {"speaker": a[0].speaker_id}),
        (pipeline, "parse_pellet_file", "ingest.parse_pellet_file", pellet),
        (pipeline, "resample", "ingest.resample", resampled),
        (pipeline, "compute_trajectory", "tract_variables.compute_trajectory", computed),
        (pipeline, "write_tv_csv", "tvcsv.write_tv_csv", written),
        (compare, "read_tv_csv", "tvcsv.read_tv_csv",
         lambda a, k, r: {"utterance": _stem(a[0])}),
        (cli, "compare_tvs", "compare.compare_tvs", None),
    ]
    for module, attr, name, describe in stages:
        tracer.wrap(module, attr, name, describe)
    tracer.wrap(cli, "run_anatomy_only", "pipeline.run_anatomy_only", root=True)
    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline", root=True)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = Tracer() if plan.get("trace") else None

    start = time.perf_counter()
    from tractvar import cli
    import_end = time.perf_counter()
    if tracer:
        tracer.record(tracer.new_id(), "cli.import", start, import_end, None)
        install(tracer)

    codes = {}
    compare_s = None
    if "anatomy" in plan["steps"]:
        codes["anatomy"] = cli.main(
            ["anatomy", "--manifest", plan["manifest"], "--out", plan["anatomy_out"]]
        )
    if "run" in plan["steps"]:
        codes["run"] = cli.main(
            ["run", "--manifest", plan["manifest"], "--out", plan["run_out"],
             "--parallelism", "1", *plan["run_flags"]]
        )
    if "compare" in plan["steps"]:
        Path(plan["compare_out"]).mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        codes["compare"] = [
            cli.main(["compare", a, b, "--json", report]) for a, b, report in plan["pairs"]
        ]
        compare_s = time.perf_counter() - t0

    if tracer:
        tracer.write(Path(plan["trace"]))
    result = {"import_s": import_end - start, "compare_s": compare_s, "codes": codes}
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
