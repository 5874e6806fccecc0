"""Self-tests of the benchmark: python3 -m pytest benchmark -q

Each workload runs for one second on two seeds; the result must name every
metric of BENCHMARK.json with its unit and report no failed job.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(res: dict, spec: list[dict]):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny_run(workload, seed):
    res = result(run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", "0"))
    assert_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = result(run("--workload", "concrete", "--seconds", "1", "--trace", "1"))
    assert_metrics(res, SPEC["per_layer"])
    accounted = res["metrics"]["trace.accounted_share"]["value"]
    assert accounted == pytest.approx(1.0, abs=1e-6)


def test_seeds_give_different_networks():
    for workload in workloads.WORKLOADS:
        a = [job.network.doc for job in workloads.build_deck(workload, 0)]
        b = [job.network.doc for job in workloads.build_deck(workload, 1)]
        assert a == [job.network.doc for job in workloads.build_deck(workload, 0)]
        # a small pattern can come out the same under two relabelings
        assert sum(x == y for x, y in zip(a, b)) <= len(a) // 4


def test_missing_function_is_reported_absent():
    totals = {tracer.ROOT: {"calls": 1, "incl_s": 1.0, "self_s": 1.0}}
    wrapped = {"linalg.rank", "krylov.controllable_subspace", "ssc.ep_constraint_system"}
    metrics, absent = tracer.layer_metrics(totals, {}, 1, wrapped)
    assert "linalg.solve_affine_s" in absent and "linalg.solve_affine_s" not in metrics
    assert "linalg.rank_s" in metrics and "krylov.rounds" in metrics


def test_tracer_restores_the_original_functions():
    import ssckit.cli
    import ssckit.krylov
    import ssckit.ssc

    original = ssckit.krylov.controllable_subspace
    t = tracer.Tracer()
    wrapped = t.install()
    try:
        assert "krylov.controllable_subspace" in wrapped
        assert ssckit.ssc.controllable_subspace is not original
        assert ssckit.cli.controllable_subspace is ssckit.ssc.controllable_subspace
    finally:
        t.uninstall()
    assert ssckit.ssc.controllable_subspace is original
    assert ssckit.cli.controllable_subspace is original


def _cli_payload(tmp_path: Path, job: workloads.Job) -> dict:
    from ssckit.cli import main

    path = workloads.write_networks([job], tmp_path)[job.network.name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(job.argv(path)) == 0
    return json.loads(out.getvalue())


def test_checks_reject_tampered_output(tmp_path):
    bound = workloads.build_deck("bound_enum", 0)[0]
    payload = _cli_payload(tmp_path, bound)
    assert checks.check("bound", bound.network.doc, payload, None, None) == []
    payload["witness"]["weights"][0]["weight"] = [[12345]]
    assert checks.check("bound", bound.network.doc, payload, None, None)

    deck = workloads.build_deck("concrete", 0)
    planted = next(j for j in deck if j.network.planted and j.command == "ep")
    payload = _cli_payload(tmp_path, planted)
    assert checks.check("ep", planted.network.doc, payload, planted.network.planted, None) == []
    payload["coarsest_ep"] = [list(range(1, planted.network.doc["n"] + 1))]
    assert checks.check("ep", planted.network.doc, payload, planted.network.planted, None)

    dual = deck[2]
    payload = _cli_payload(tmp_path, dual)
    assert checks.check("dual", dual.network.doc, payload, None, None) == []
    payload["observability_rank"] -= 1
    assert checks.check("dual", dual.network.doc, payload, None, None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "bound_enum", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
