"""controlpower benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``.
Inputs come from ``--seed`` through the benchmark's own generators
(``inputs.py``); each workload runs in its own child process
(``worker.py``) that calls ``controlpower.cli.main`` in a closed loop
for ``--seconds``. Outputs are checked against an exact oracle and
self-consistency checks (``oracle.py``). ``--trace 1`` adds a second,
traced child (``tracer.py``) and reports per-layer metrics instead of
end-to-end ones. The last stdout line is the result as one JSON object;
the lines before it (prefixed ``#``) give the environment and every
metric with its unit. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 15
RUN_BUDGET_S = 170.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import controlpower.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "report_s": "s", "report_wall_s": "s", "report_s_p90": "s", "firm_years_per_s": "1/s",
    "reports_per_s": "1/s", "profiles_per_s": "1/s", "peak_rss_mb": "MB",
    "right_ratio": "ratio", "wrong_ratio": "ratio", "error_ratio": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, sizes: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
    }


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(normalised, wall) seconds for a fresh interpreter to import
    controlpower.cli and build its parser. Each run sits between two runs of
    the import probe (speed.py), whose mean gives its speed factor."""

    def spawn(code: str) -> float:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    spawn(SETUP_CODE)  # compiles bytecode on a fresh checkout
    times = []
    before = spawn(speed.IMPORT_PROBE)
    for _ in range(SETUP_REPEATS):
        wall = spawn(SETUP_CODE)
        after = spawn(speed.IMPORT_PROBE)
        times.append((wall * speed.REFERENCE_IMPORT_S * 2 / (before + after), wall))
        before = after
    return times


# workloads ---------------------------------------------------------------------


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


class Registry:
    """registry-10k: 4 groups x 26 years x 100 firms through the full pipeline."""

    def __init__(self, seed: int, run_dir: str, tiny: bool):
        firms = 6 if tiny else 100
        self.rows = inputs.registry_rows(seed, firms)
        csv_path = _write(os.path.join(run_dir, "registry.csv"), inputs.registry_csv(self.rows))
        macro = _write(os.path.join(run_dir, "macro.csv"), inputs.macro_csv(seed))
        warm_csv = _write(os.path.join(run_dir, "warm.csv"), inputs.registry_csv(inputs.registry_rows(seed + 1, 2)))
        extra = ["--min-sample", "4"] if tiny else []
        out = os.path.join(run_dir, "out")
        self.jobs = [{"id": 0, "out": out, "argv": [
            "pipeline", "--input", csv_path, "--macro", f"index={macro}",
            "--format", "json,csv-tables,plot-data", "--output", out] + extra}]
        self.warmup = ["pipeline", "--input", warm_csv, "--min-sample", "1",
                       "--format", "json,csv-tables,plot-data", "--output", os.path.join(run_dir, "warm")]
        self.cells = oracle.expect_registry(self.rows)
        self.sizes = {"firm_years": len(self.rows), "cells": len(self.cells),
                      "games": sum(c.games for c in self.cells.values())}

    def firm_years(self, job_id: int, saved: str) -> int:
        return len(self.rows)

    def check(self, job_id: int, saved: str) -> oracle.Tally:
        report, plots = _load_report(saved)
        tally = oracle.check_cells(self.cells, report)
        tally.merge(oracle.check_fits(report, plots))
        return tally

    def game_counts(self, job_id: int) -> tuple[int, int, int, int]:
        """(games, full-power games, tie games, cells) behind one invocation."""
        cells = self.cells.values()
        return (sum(c.games for c in cells), sum(c.full_games for c in cells),
                sum(c.tie_games for c in cells), len(self.cells))


class Outcomes:
    """outcomes-fits: synthetic-outcome reports, one program seed per job."""

    def __init__(self, seed: int, run_dir: str, tiny: bool):
        seeds = inputs.outcome_seeds(seed, 2 if tiny else 32)
        self.jobs = []
        for k, s in enumerate(seeds):
            out = os.path.join(run_dir, f"out{k}")
            self.jobs.append({"id": k, "out": out, "argv": [
                "pipeline", "--synth", "outcomes", "--seed", str(s),
                "--format", "json,plot-data", "--output", out]})
        self.warmup = ["pipeline", "--synth", "outcomes", "--seed", str(seed),
                       "--format", "json,plot-data", "--output", os.path.join(run_dir, "warm")]
        self.sizes = {"reports": len(seeds), "program_seeds": seeds}
        self._firm_years = {}

    def firm_years(self, job_id: int, saved: str) -> int:
        if job_id not in self._firm_years:
            report, _ = _load_report(saved)
            self._firm_years[job_id] = sum(ys["n_sample"] for g in report["groups"].values() for ys in g["years"])
        return self._firm_years[job_id]

    def check(self, job_id: int, saved: str) -> oracle.Tally:
        report, plots = _load_report(saved)
        tally = oracle.check_outcome_years(report)
        tally.merge(oracle.check_fits(report, plots))
        return tally

    def game_counts(self, job_id: int) -> tuple[int, int, int, int]:
        return 0, 0, 0, len(inputs.YEARS)


class Profiles:
    """spi-profiles: `spi --input` over chunks of seeded share lists."""

    def __init__(self, seed: int, run_dir: str, tiny: bool):
        chunks = inputs.spi_chunks(seed, 2 if tiny else 40, per_stratum=1 if tiny else 2)
        self.jobs, self.expected = [], []
        for k, chunk in enumerate(chunks):
            path = _write(os.path.join(run_dir, f"lists{k}.txt"), "\n".join(",".join(c) for c in chunk) + "\n")
            self.jobs.append({"id": k, "out": None, "argv": ["spi", "--input", path]})
            self.expected.append([oracle.expect_profile(c) for c in chunk])
        self.warmup = ["spi", "--shares", "0.4,0.3,0.3"]
        self.sizes = {"chunks": len(chunks), "lists_per_chunk": len(chunks[0])}

    def firm_years(self, job_id: int, saved: str) -> int:
        return len(self.expected[job_id])

    def check(self, job_id: int, saved: str) -> oracle.Tally:
        with open(saved + ".txt", encoding="utf-8") as handle:
            return oracle.check_profiles(self.expected[job_id], handle.read())

    def game_counts(self, job_id: int) -> tuple[int, int, int, int]:
        exp = self.expected[job_id]
        return len(exp), sum(e.full for e in exp), sum(e.tie for e in exp), 0


def _load_report(saved: str) -> tuple[dict, dict[str, str]]:
    with open(os.path.join(saved, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    plots = {}
    for name in os.listdir(saved):
        if name.startswith("plot_"):
            with open(os.path.join(saved, name), encoding="utf-8") as handle:
                plots[name] = handle.read()
    return report, plots


BUILDERS = {"registry-10k": Registry, "outcomes-fits": Outcomes, "spi-profiles": Profiles}
WORKLOADS = tuple(BUILDERS)


# running and checking --------------------------------------------------------------


def run_worker(workload, run_dir: str, seconds: float, traced: bool, env: dict, deadline: float) -> dict:
    tag = "traced" if traced else "plain"
    save_dir = os.path.join(run_dir, f"saved-{tag}")
    os.makedirs(save_dir)
    spec = {
        "jobs": workload.jobs, "warmup": workload.warmup, "seconds": seconds, "traced": traced,
        "save_dir": save_dir, "result_path": os.path.join(run_dir, f"result-{tag}.json"),
        "trace_path": os.path.join(WORK, "last-trace.json"),
    }
    spec_path = _write(os.path.join(run_dir, f"spec-{tag}.json"), json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path], cwd=ROOT, env=env,
                   timeout=max(10.0, deadline - time.monotonic()), check=True)
    with open(spec["result_path"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["save_dir"] = save_dir
    return result


def check_results(workload, results: list[dict]) -> tuple[oracle.Tally, oracle.Tally]:
    """Content checks of every saved output, and one repeat-identity check per job."""
    content, identity = oracle.Tally(), oracle.Tally()
    digests: dict[int, set[str]] = {}
    for result in results:
        for rec in result["records"]:
            if rec["rc"] == 0:
                digests.setdefault(rec["job"], set()).add(rec["digest"])
        for job in sorted({r["job"] for r in result["records"] if r["rc"] == 0}):
            content.merge(workload.check(job, os.path.join(result["save_dir"], str(job))))
    for job, seen in sorted(digests.items()):
        identity.record(len(seen) == 1, note=f"job {job}: {len(seen)} different outputs across repeats")
    return content, identity


def tail_quantile(values: list[float]) -> float:
    """The 90th percentile, or with fewer than 100 samples the highest
    percentile that still has 10 samples beyond it (the median below 20)."""
    q = max(0.5, min(0.9, 1.0 - 10.0 / len(values)))
    return float(numpy.quantile(values, q))


def end_to_end(workload, result: dict, setup: list[tuple[float, float]],
               content: oracle.Tally, identity: oracle.Tally) -> dict:
    """Timings are speed-normalised (speed.py); the *_wall_s entries are raw."""
    ok = [r for r in result["records"] if r["rc"] == 0]
    times = [r["norm_s"] for r in ok]
    rates = [workload.firm_years(r["job"], os.path.join(result["save_dir"], str(r["job"]))) / r["norm_s"] for r in ok]
    wrong = content.wrong + identity.wrong
    metrics = {
        "setup_s": statistics.median(n for n, _ in setup),
        "setup_wall_s": statistics.median(w for _, w in setup),
        "report_wall_s": statistics.median(r["s"] for r in ok),
        "report_s": statistics.median(times),
        "report_s_p90": tail_quantile(times),
        "firm_years_per_s": statistics.median(rates),
        "reports_per_s": 1.0 / statistics.median(times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "right_ratio": 1.0 - content.wrong / content.checked,
        "wrong_ratio": wrong / (content.checked + identity.checked),
        "error_ratio": 1.0 - len(ok) / len(result["records"]),
    }
    if isinstance(workload, Profiles):
        metrics["profiles_per_s"] = metrics["firm_years_per_s"]
    return metrics


def per_layer(workload, plain: dict, traced: dict) -> dict:
    records = traced["records"]
    metrics = dict(traced["layers"])
    games = full = ties = cells = 0
    for rec in records:
        g, f, t, c = workload.game_counts(rec["job"])
        games, full, ties, cells = games + g, full + f, ties + t, cells + c
    n = len(records)
    metrics["power_index.games"] = games / n
    metrics["power_index.us_per_game"] = metrics["power_index.self_s"] * n / games * 1e6 if games else 0.0
    metrics["power_index.full_power_share"] = full / games if games else 0.0
    metrics["power_index.tie_games"] = ties / n
    metrics["pipeline.cells"] = cells / n
    metrics["pipeline.bytes_written"] = sum(r.get("bytes", 0) for r in records) / n
    profile_ms = traced["profile_ms"]
    if len(profile_ms) >= 2:
        q = statistics.quantiles(profile_ms, n=100, method="inclusive")
        metrics["power_index.profile_ms_p50"], metrics["power_index.profile_ms_p99"] = q[49], q[98]
    else:
        metrics["power_index.profile_ms_p50"] = metrics["power_index.profile_ms_p99"] = 0.0
    plain_s = statistics.median(r["norm_s"] for r in plain["records"] if r["rc"] == 0)
    traced_s = statistics.median(r["norm_s"] for r in records if r["rc"] == 0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics


def _declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "controlpower", "cli.py")):
        print("run.py: no program source at src/controlpower; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        env = _child_env()
        setup = measure_setup(env)
        workload = BUILDERS[args.workload](args.seed, run_dir, args.tiny)
        results = [run_worker(workload, run_dir, args.seconds, False, env, deadline)]
        if args.trace:
            results.append(run_worker(workload, run_dir, args.seconds, True, env, deadline))
        content, identity = check_results(workload, results)
        attempted = sum(len(r["records"]) for r in results)
        failed = sum(1 for r in results for rec in r["records"] if rec["rc"] != 0)
        if failed == attempted:
            print(f"run.py: every invocation failed, e.g. {results[0]['records'][0]}", file=sys.stderr)
            return 1
        e2e = end_to_end(workload, results[0], setup, content, identity)
        layers = per_layer(workload, results[0], results[1]) if args.trace else {}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: child process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env_record = environment(args, workload.sizes)
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in _declared_units(args.trace).items()}
    correct = failed == 0 and content.unexplained == 0 and identity.wrong == 0
    for note in content.notes + identity.notes:
        print(f"# mismatch: {note}")
    detail = {"env": env_record, "end_to_end": e2e, "per_layer": layers,
              "checked": content.checked, "wrong": content.wrong, "tie_explained": content.explained,
              "identity_wrong": identity.wrong, "setup_samples": setup,
              "report_samples": [r["norm_s"] for r in results[0]["records"]],
              "report_wall_samples": [r["s"] for r in results[0]["records"]],
              "speed_factors": [r["factor"] for r in results[0]["records"]],
              "traced_functions": results[-1]["traced_names"] if args.trace else []}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    _write(os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"), json.dumps(detail, indent=1))
    print(f"# env {json.dumps(env_record)}")
    for name, value in sorted(e2e.items()):
        print(f"# {args.workload} {name} {value:.6g} {UNITS[name]}")
    for name, value in sorted(layers.items()):
        print(f"# {args.workload} {name} {value:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
