"""ssckit benchmark: one seeded workload, end-to-end or traced per layer.

    python3 benchmark/run.py --workload bound_enum --seed 0 --seconds 40 --trace 0

Run from any directory; the checkout is the parent of this file's directory
and ssckit is imported from its ``src``. The workload runs in a child process
(``worker.py``) whose peak RSS is read with ``wait4``. Set-up time is measured
here, in fresh interpreters. Human-readable lines come first; the last line
of stdout is the JSON result. Generated networks, stdout hashes and span
files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_RUNS = 5          # fresh-interpreter imports before and again after the workload
IMPORTTIME_RUNS = 5     # -X importtime runs in a traced run
CHILD_GRACE_S = 120     # the worker may overrun --seconds by its last job, not more
IMPORT = "import ssckit.cli"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def check_import() -> None:
    """Fail unless a fresh interpreter imports ssckit.cli from this checkout."""
    probe = subprocess.run(
        [sys.executable, "-c", f"{IMPORT}; print(ssckit.cli.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import ssckit.cli from {ROOT / 'src'}: {probe.stderr.strip()}")
    if not Path(probe.stdout.strip()).resolve().is_relative_to((ROOT / "src").resolve()):
        raise RuntimeError(f"ssckit.cli resolves to {probe.stdout.strip()}, not to the checkout")


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters importing ssckit.cli, bytecode cache warm."""
    env = child_env()
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def measure_importtime() -> dict[str, float]:
    """Median cumulative import seconds of ssckit (all its modules) and of numpy."""
    samples: dict[str, list[float]] = {"import.ssckit_s": [], "import.numpy_s": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, check=True,
                              timeout=60)
        ssckit_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].rstrip()
            top_level = len(name) - len(name.lstrip()) == 1
            name = name.strip()
            if top_level and (name == "ssckit" or name.startswith("ssckit.")):
                ssckit_us += cumulative
            if name == "numpy" and not numpy_us:
                numpy_us = cumulative
        samples["import.ssckit_s"].append(ssckit_us / 1e6)
        samples["import.numpy_s"].append(numpy_us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, float]:
    """Run the workload in a child; returns (its result, its peak RSS in MB)."""
    logs = ROOT / ".bench_work" / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / f"{workload}.out", logs / f"{workload}.err"
    with out_path.open("w") as out, err_path.open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
             repr(seconds), "1" if trace else "0"],
            cwd=ROOT, stdout=out, stderr=err)
    deadline = time.monotonic() + seconds + CHILD_GRACE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker exceeded {seconds + CHILD_GRACE_S:.0f} s and was killed")
        time.sleep(0.05)
    lines = out_path.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {err_path.read_text()[-2000:]}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def environment(seed: int) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30).stdout.strip()
            env["dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ssckit" / "cli.py").is_file():
        print(f"run.py: no ssckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    try:
        check_import()  # also warms the bytecode cache
        if args.trace:
            setup, imports = [], measure_importtime()
            res, rss_mb = run_worker(args.workload, args.seed, args.seconds, True)
        else:
            setup, imports = measure_setup(), {}
            res, rss_mb = run_worker(args.workload, args.seed, args.seconds, False)
            setup += measure_setup()
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    fail_rate = res["failed"] / res["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"jobs {res['jobs']} over {res['wall_s']:.2f} s wall; "
          f"{res['distinct_jobs']} of {res['deck_size']} deck jobs ran")
    print(f"fail_rate {fail_rate:.4f}  ({res['failed']} of {res['attempted']} executions failed)")
    for key, found in res["problems"].items():
        print(f"  FAIL {key}: {'; '.join(found)}")

    if args.trace:
        metrics = {**{k: (v, "s") for k, v in imports.items()}, **res["layer_metrics"]}
        print(f"untraced mean job {res['untraced_job_s']:.4f} s, traced mean job "
              f"{metrics['trace.job_s'][0]:.4f} s: tracing overhead "
              f"{100 * metrics['trace.overhead_share'][0]:.1f}%")
        print(f"spans of the first pass written to {res['spans_file']}")
        for name in res["absent"]:
            print(f"  {name:36s} absent (function not found)")
    else:
        metrics = {
            "job_p50_s": (res["job_p50_s"], "s"),
            "job_tail_s": (res["job_tail_s"], "s"),
            "jobs_per_s": (res["jobs_per_s"], "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"job_tail_s is p{res['tail_percentile']:.1f}: "
              f"{res['tail_beyond']} of {res['jobs']} jobs are slower; "
              f"setup_s is the median of {len(setup)} fresh interpreters")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")

    record = {"environment": env, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "setup_runs_s": setup, "worker": res,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    runs = ROOT / ".bench_work" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
