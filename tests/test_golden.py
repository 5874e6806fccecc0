"""Stdout digests pinned across commits.

``tests/golden/digests.json`` holds the sha256 of stdout (and the exit code)
of ``bound --samples 8 --seed 3 --format json`` on every pattern fixture and
of ``ep``, ``quotient`` and ``dual`` (exact and float backends) on every
concrete fixture. It also pins every job of the seed-0 decks of the three
benchmark workloads, under both backends: ``benchmark/workloads.py`` builds
the decks (it imports nothing from ssckit) and their networks are written to a
temporary directory. A change that alters any byte of these outputs fails
here. Regenerate deliberately with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import benchmark_workloads
from ssckit.cli import main
from ssckit.graphs import MatrixWeightedGraph
from ssckit.netio import parse_network

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "ssckit" / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
DECK_SEED = 0
BACKENDS = ("exact", "float")


WORKLOADS = benchmark_workloads()
DECKS = {w: WORKLOADS.build_deck(w, DECK_SEED) for w in WORKLOADS.WORKLOADS}


def _concrete_fixtures() -> list[str]:
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "edges" in doc and isinstance(parse_network(path.read_text()), MatrixWeightedGraph):
            out.append(path.stem)
    return out


def deck_cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments of every seed-0 deck job, inputs relative to ``write_decks``."""
    out = {}
    for workload, jobs in DECKS.items():
        for job in jobs:
            path = Path(workload) / f"{job.network.name}.json"
            for backend in BACKENDS:
                out[f"deck/{workload}/{backend}/{job.key}"] = [
                    *job.argv(path), "--backend", backend,
                ]
    return out


def write_decks(directory: Path) -> Path:
    """Write every deck's networks under ``directory/<workload>/``; returns ``directory``."""
    for workload, jobs in DECKS.items():
        WORKLOADS.write_networks(jobs, directory / workload)
    return directory


def cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, with fixture paths relative to the fixture directory."""
    out = {}
    for path in sorted(FIXTURES.glob("*_pattern.json")):
        out[f"bound/{path.stem}"] = [
            "bound", "--input", path.name, "--samples", "8", "--seed", "3", "--format", "json",
        ]
    for stem in _concrete_fixtures():
        for command in ("ep", "quotient", "dual"):
            for backend in BACKENDS:
                out[f"{command}/{backend}/{stem}"] = [
                    command, "--input", f"{stem}.json", "--backend", backend, "--format", "json",
                ]
    return out


def run_case(args: list[str], base: Path = FIXTURES) -> dict:
    """Exit code and stdout digest of one in-process CLI run, the input read under ``base``."""
    i = args.index("--input") + 1
    argv = args[:i] + [str(base / args[i])] + args[i + 1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def deck_dir(tmp_path_factory):
    return write_decks(tmp_path_factory.mktemp("decks"))


def test_golden_cases_cover_every_fixture():
    stored = json.loads(DIGESTS.read_text())
    assert set(stored) == set(cases()) | set(deck_cases())


def test_deck_cases_cover_every_job_and_backend():
    assert len(deck_cases()) == len(BACKENDS) * sum(len(jobs) for jobs in DECKS.values())


@pytest.mark.parametrize("name", sorted(cases()))
def test_stdout_matches_golden_digest(name):
    stored = json.loads(DIGESTS.read_text())[name]
    assert run_case(cases()[name]) == {"exit": stored["exit"], "sha256": stored["sha256"]}


@pytest.mark.parametrize("name", sorted(deck_cases()))
def test_deck_stdout_matches_golden_digest(name, deck_dir):
    stored = json.loads(DIGESTS.read_text())[name]
    got = run_case(deck_cases()[name], deck_dir)
    assert got == {"exit": stored["exit"], "sha256": stored["sha256"]}


if __name__ == "__main__":
    digests = {name: {"args": args, **run_case(args)} for name, args in sorted(cases().items())}
    with tempfile.TemporaryDirectory() as tmp:
        base = write_decks(Path(tmp))
        digests.update({name: {"args": args, **run_case(args, base)}
                        for name, args in sorted(deck_cases().items())})
    digests = dict(sorted(digests.items()))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
