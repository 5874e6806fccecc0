"""One workload in one process: the closed loop that ``run.py`` starts.

Usage: python3 benchmark/worker.py ROOT WORKLOAD SEED SECONDS TRACE

A single client runs one job at a time through ``ssckit.cli.main`` in this
process, cycling through the workload's deck until SECONDS have passed. Every
job's stdout is hashed; the first output of each job is checked afterwards by
``checks.py``, outside the timed loop. The result is one JSON line on stdout.

With TRACE=1 each job runs twice in a row, untraced and then traced, so the
tracing overhead is measured on the same jobs; the per-layer metrics come
from the traced runs only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least TAIL_BEYOND jobs beyond it.

    Returns (seconds, percentile, jobs beyond). With too few jobs, the
    slowest job, 100 and 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_cli(main, argv):
    """Call ``main(argv)`` with stdout/stderr captured; returns (rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a crashed benchmark
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_key(job: workloads.Job) -> str:
    """Job key plus a digest of its input, so stored hashes follow the input."""
    return f"{job.key}@{workloads.doc_digest(job.network.doc)}"


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace = (
        Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    src = root / "src"
    sys.path.insert(0, str(src))
    import ssckit.cli

    if not Path(ssckit.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ssckit resolves to {ssckit.cli.__file__}, not to {src}", file=sys.stderr)
        return 2
    cli_main = ssckit.cli.main

    work = root / ".bench_work"
    deck = workloads.build_deck(workload, seed)
    paths = workloads.write_networks(deck, work / "networks" / f"{workload}-seed{seed}")
    argvs = [job.argv(paths[job.network.name]) for job in deck]

    tracer = tracing.Tracer() if trace else None
    wrapped: set[str] = set()
    times: list[float] = []           # untraced job seconds
    order: list[int] = []             # deck index of each untraced job
    traced_times: list[float] = []
    executions: list[tuple[int, int, str]] = []  # (deck index, rc, stdout hash)
    first: dict[int, tuple[int, str, str]] = {}   # deck index -> (rc, stdout, stderr)

    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        idx = i % len(deck)
        t0 = perf_counter()
        rc, out, err = run_cli(cli_main, argvs[idx])
        times.append(perf_counter() - t0)
        order.append(idx)
        executions.append((idx, rc, sha(out)))
        first.setdefault(idx, (rc, out, err))
        if tracer is not None:
            wrapped = set(tracer.install())
            try:
                (rc, out, _), dt = tracer.run_job(
                    i, idx == i, lambda: run_cli(cli_main, argvs[idx]))
            finally:
                tracer.uninstall()
            traced_times.append(dt)
            executions.append((idx, rc, sha(out)))
        i += 1
        if perf_counter() >= deadline:
            break
    wall = perf_counter() - start

    # --- correctness: checks on first outputs, then byte-identity ----------
    reference = (load_json(Path(__file__).with_name("reference.json")).get(workload, {})
                 if seed == workloads.DEFAULT_SEED else {})
    store_path = work / "hashes" / f"{workload}-seed{seed}.json"
    stored = load_json(store_path)
    problems: dict[str, list[str]] = {}
    expected_hash: dict[int, str] = {}
    for idx, (rc, out, err) in sorted(first.items()):
        job = deck[idx]
        ref = reference.get(job.network.name)
        if rc != 0:
            found = [f"exit code {rc}: {err.strip()[-300:]}"]
        else:
            try:
                payload = json.loads(out)
            except json.JSONDecodeError as exc:
                found = [f"stdout is not JSON: {exc}"]
            else:
                found = checks.check(job.command, job.network.doc, payload,
                                     job.network.planted, ref)
        if ref is not None and ref["input"] != workloads.doc_digest(job.network.doc):
            found.append("reference.json was made for another input; rerun make_reference.py")
        expected = stored.get(output_key(job))
        if expected is not None and expected != sha(out):
            found.append("stdout differs from an earlier run of this job")
        expected_hash[idx] = expected or sha(out)
        if found:
            problems[job.key] = found
    failed = 0
    for idx, rc, digest in executions:
        key = deck[idx].key
        if digest != expected_hash[idx]:
            problems.setdefault(key, []).append("stdout differs between repetitions")
        if rc != 0 or digest != expected_hash[idx] or key in problems:
            failed += 1
    for idx in first:
        if deck[idx].key not in problems:
            stored[output_key(deck[idx])] = expected_hash[idx]
    store_path.parent.mkdir(parents=True, exist_ok=True)
    store_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    # A job's time is the median over its repetitions in this run: the
    # program is deterministic, so spread between repetitions is interference
    # from other processes on the machine, which the median damps.
    reps: dict[int, list[float]] = {}
    for idx, dt in zip(order, times):
        reps.setdefault(idx, []).append(dt)
    per_job = {idx: statistics.median(v) for idx, v in reps.items()}
    job_times = [per_job[idx] for idx in order]
    tail_s, tail_pct, beyond = tail(job_times)
    result = {
        "attempted": len(executions),
        "failed": failed,
        "problems": {k: v[:3] for k, v in sorted(problems.items())[:10]},
        "jobs": len(times),
        "distinct_jobs": len(first),
        "deck_size": len(deck),
        "wall_s": wall,
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "jobs_per_s": len(times) / wall,
        "job_median_s": {deck[idx].key: t for idx, t in sorted(per_job.items())},
    }
    if tracer is not None:
        totals = tracer.totals()
        metrics, absent = tracing.layer_metrics(totals, tracer.counters, len(traced_times), wrapped)
        job_total = totals[tracing.ROOT]["incl_s"]
        self_total = sum(t["self_s"] for t in totals.values())
        metrics["trace.job_s"] = (job_total / len(traced_times), "s/job")
        metrics["trace.overhead_share"] = (sum(traced_times) / sum(times) - 1.0, "ratio")
        metrics["trace.accounted_share"] = (self_total / job_total, "ratio")
        metrics["trace.spans"] = (sum(t["calls"] for t in totals.values()) / len(traced_times),
                                  "count/job")
        result["layer_metrics"] = metrics
        result["absent"] = absent
        result["untraced_job_s"] = sum(times) / len(times)
        spans_path = work / "traces" / f"{workload}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as fh:
            for job_index, span, parent, name, t0, t1 in tracer.spans:
                fh.write(json.dumps({"job": deck[job_index % len(deck)].key, "span": span,
                                     "parent": parent, "name": name, "start": t0,
                                     "end": t1}) + "\n")
        result["spans_file"] = str(spans_path.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
