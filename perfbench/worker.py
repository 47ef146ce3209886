"""Child process that drives ``controlpower.cli.main`` in a closed loop.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the jobs (argv lists, cycled in order), the run length, a
warm-up argv, whether to trace, and where to save outputs and results.
One client, one process, no extra threads: the next invocation starts
only after the previous one returned. Outputs of the first run of each
job are saved for the parent to check; every run's output is hashed so
the parent can check that repeats are byte-identical.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics, profile_times_ms  # noqa: E402


class _MarkedBuffer(io.StringIO):
    """stdout capture that timestamps each completed line in the tracer."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def write(self, text: str) -> int:
        for _ in range(text.count("\n")):
            self._tracer.mark_line()
        return super().write(text)


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def peak_rss_kb() -> int:
    """This process's own peak resident memory in KiB.

    ``VmHWM`` belongs to the process's address space, which exec replaces,
    so it does not count the parent's memory. ``ru_maxrss`` would: Linux
    carries the exec'ing process's high-water mark into it. It is the
    fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _output_digest(job: dict, stdout: str) -> str:
    if job["out"] is None:
        return hashlib.sha256(stdout.encode()).hexdigest()
    report = os.path.join(job["out"], "report.json")
    if not os.path.exists(report):
        return ""
    with open(report, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _save(job: dict, stdout: str, dest: str) -> None:
    if job["out"] is None:
        with open(dest + ".txt", "w", encoding="utf-8") as handle:
            handle.write(stdout)
    else:
        shutil.copytree(job["out"], dest)


def run(spec: dict) -> dict:
    import controlpower.cli as cli

    tracer = Tracer() if spec["traced"] else None
    traced_names = tracer.install() if tracer else []
    probe = SpeedProbe(tracer.add_probe_span if tracer else None)
    probe.start()
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(spec["warmup"]) != 0:
            raise RuntimeError(f"warm-up invocation failed: {spec['warmup']}")
    if tracer:
        tracer.reset()

    jobs, records, saved = spec["jobs"], [], set()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < spec["seconds"]:
        job = jobs[i % len(jobs)]
        if job["out"] is not None:
            shutil.rmtree(job["out"], ignore_errors=True)
        buffer = _MarkedBuffer(tracer) if tracer else io.StringIO()
        if tracer:
            tracer.invocation = i
        gc.collect()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = cli.main(job["argv"])
        except Exception as exc:  # a crash is a failed invocation, not a benchmark error
            rc, error = None, repr(exc)
        elapsed = time.perf_counter() - t0
        stdout = buffer.getvalue()
        record = {"job": job["id"], "rc": rc, "s": elapsed, "error": error,
                  "digest": _output_digest(job, stdout)}
        if job["out"] is not None and os.path.isdir(job["out"]):
            record["bytes"] = _dir_bytes(job["out"])
        if rc == 0 and job["id"] not in saved:
            _save(job, stdout, os.path.join(spec["save_dir"], str(job["id"])))
            saved.add(job["id"])
        record["window"] = (t0, t0 + elapsed)
        records.append(record)
        i += 1
    probe.stop()
    for record in records:
        busy, record["factor"] = probe.normalise(*record.pop("window"))
        record["norm_s"] = busy * record["factor"]

    result = {
        "records": records,
        "peak_rss_kb": peak_rss_kb(),
        "traced_names": traced_names,
    }
    if tracer:
        factors = [r["factor"] for r in records]
        result["layers"] = layer_metrics(tracer.spans, tracer.probes, tracer.counts, factors)
        result["profile_ms"] = profile_times_ms(tracer.spans, tracer.probes, tracer.marks, factors)
        tracer.dump(spec["trace_path"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
