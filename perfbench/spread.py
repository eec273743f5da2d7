"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

For every workload in BENCHMARK.json and every metric: the median over the
seeds with its unit, the quartiles as `statistics.quantiles(values, n=4)`
gives them, and their distance as a share of the median, next to the
metric's bound.  Runs one benchmark process at a time and stops at the first
run whose outputs are not all correct.  `--out` writes the values and the
summary as JSON.  `--seeds 1` is the one command that runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: outputs not correct")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: attempted {result['attempted']}, all correct", flush=True)
        summary = {}
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"unit": units[name], "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            bound = bounds[name]
            print(f"  {workload:<15} {name:<14} median {q2:<11.6g} {units[name]:<5} spread {spread:.4f}"
                  f"  bound {bound}  spread/bound {spread / bound:.2f}")
        report[workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
