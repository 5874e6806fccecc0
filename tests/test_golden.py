"""Stdout digests pinned across commits.

``tests/golden/digests.json`` holds the sha256 of stdout (and the exit code)
of ``bound --samples 8 --seed 3 --format json`` on every pattern fixture and
of ``ep``, ``quotient`` and ``dual`` (exact and float backends) on every
concrete fixture. A change that alters any byte of these outputs fails here.
Regenerate deliberately with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ssckit.cli import main
from ssckit.graphs import MatrixWeightedGraph
from ssckit.netio import parse_network

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ssckit" / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"


def _concrete_fixtures() -> list[str]:
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "edges" in doc and isinstance(parse_network(path.read_text()), MatrixWeightedGraph):
            out.append(path.stem)
    return out


def cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, with fixture paths relative to the fixture directory."""
    out = {}
    for path in sorted(FIXTURES.glob("*_pattern.json")):
        out[f"bound/{path.stem}"] = [
            "bound", "--input", path.name, "--samples", "8", "--seed", "3", "--format", "json",
        ]
    for stem in _concrete_fixtures():
        for command in ("ep", "quotient", "dual"):
            for backend in ("exact", "float"):
                out[f"{command}/{backend}/{stem}"] = [
                    command, "--input", f"{stem}.json", "--backend", backend, "--format", "json",
                ]
    return out


def run_case(args: list[str]) -> dict:
    """Exit code and stdout digest of one in-process CLI run."""
    i = args.index("--input") + 1
    argv = args[:i] + [str(FIXTURES / args[i])] + args[i + 1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_cases_cover_every_fixture():
    stored = json.loads(DIGESTS.read_text())
    assert set(stored) == set(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_stdout_matches_golden_digest(name):
    stored = json.loads(DIGESTS.read_text())[name]
    assert run_case(cases()[name]) == {"exit": stored["exit"], "sha256": stored["sha256"]}


if __name__ == "__main__":
    digests = {name: {"args": args, **run_case(args)} for name, args in sorted(cases().items())}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
