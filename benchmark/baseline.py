"""Run every workload on several seeds and write a BENCH_<n>.json summary.

    python3 benchmark/baseline.py --seeds 1-10 --out benchmark/BENCH_1.json

For each workload: one end-to-end run per seed (median, quartiles and spread
= (q3 - q1) / median of each metric) and one traced run on the first seed
(per-layer metrics). Compare two commits by running this on both with the
same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(line.split(" ", 1)[1] for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), env


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            res, env = run(workload, seed, spec["run_seconds"], 0)
            summary.setdefault("environment", json.loads(env))
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            end_to_end[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(v), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(v), "bound": m["bound"], "values": v}
        traced, _ = run(workload, args.seeds[0], spec["run_seconds"], 1)
        summary["workloads"][workload] = {
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: m for k, m in traced["metrics"].items()},
        }
    summary["environment"].pop("seed", None)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
