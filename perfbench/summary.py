"""Print every benchmark metric, per workload, with its unit.

    python3 perfbench/summary.py --seed 1 --seconds 10

Runs ``run.py --trace 1`` once per workload (each in its own process),
then prints the end-to-end metrics (including the ones that are not in
BENCHMARK.json), the per-layer metrics, and the workload-split checks:
power_index self time over report_s on registry-10k, fitting self time
over report_s on outcomes-fits, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import UNITS, WORK, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        layer_units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    details = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(f"{workload}: run.py failed\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(os.path.join(WORK, "results", f"{workload}-s{args.seed}-t1.json"), encoding="utf-8") as handle:
            details[workload] = detail = json.load(handle)
        detail["correct"] = result["correct"]

    print(f"environment: {json.dumps(details[WORKLOADS[0]]['env'])}")
    print(f"\n{'end-to-end':34s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name, unit in UNITS.items():
        row = [details[w]["end_to_end"].get(name) for w in WORKLOADS]
        print(f"{name:34s}" + "".join(f"{v:16.6g}" if v is not None else f"{'-':>16s}" for v in row) + f"  {unit}")
    print(f"{'correct':34s}" + "".join(f"{str(details[w]['correct']):>16s}" for w in WORKLOADS))
    print(f"\n{'per layer (per invocation)':34s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name, unit in layer_units.items():
        print(f"{name:34s}" + "".join(f"{details[w]['per_layer'][name]:16.6g}" for w in WORKLOADS) + f"  {unit}")

    reg, out = details["registry-10k"], details["outcomes-fits"]
    print("\nworkload split")
    print(f"  registry-10k  power_index.self_s / report_s = "
          f"{reg['per_layer']['power_index.self_s'] / reg['end_to_end']['report_s']:.3f}")
    print(f"  outcomes-fits fitting.self_s / report_s     = "
          f"{out['per_layer']['fitting.self_s'] / out['end_to_end']['report_s']:.3f}"
          f"  (power_index.calls {out['per_layer']['power_index.calls']:g})")
    for w in WORKLOADS:
        print(f"  {w:13s} trace.overhead_s = {details[w]['per_layer']['trace.overhead_s']:.6g} s "
              f"on report_s {details[w]['end_to_end']['report_s']:.6g} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
