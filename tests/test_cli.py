import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from helpers import inline_weight_documents, random_graph, sympy_rank
from ssckit.cli import COMMANDS, main
from ssckit.graphs import MatrixWeightedGraph, build_input_matrix, build_laplacian
from ssckit.krylov import observability_matrix
from ssckit.netio import MAX_STATE_DIM, parse_network, serialize_network

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ssckit" / "fixtures"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_laplacian_text(capsys):
    code, out, _ = run(capsys, "laplacian", "--input", str(FIXTURES / "diamond.json"))
    assert code == 0
    assert "Laplacian L (4x4)" in out and "-1" in out


def test_laplacian_json(capsys):
    code, out, _ = run(capsys, "laplacian", "--input", str(FIXTURES / "diamond.json"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["laplacian"][0] == [2, -1, -1, 0]
    assert [row[0] for row in doc["input_matrix"]] == [1, 0, 0, 0]


def test_laplacian_missing_file(capsys):
    code, _, err = run(capsys, "laplacian", "--input", "/nonexistent/net.json")
    assert code == 2 and "parse error" in err


def test_laplacian_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "laplacian", "--input", str(bad))
    assert code == 2


@pytest.mark.parametrize("directed,second", [
    (False, {"i": 1, "j": 2, "weight": [[5]]}),   # same edge twice
    (False, {"i": 2, "j": 1, "weight": [[5]]}),   # mirror with another weight
    (True, {"i": 1, "j": 2, "weight": [[5]]}),
])
def test_duplicate_concrete_edge_exit2(tmp_path, capsys, directed, second):
    doc = {
        "n": 3, "d": 1, "directed": directed, "leaders": [1],
        "edges": [{"i": 1, "j": 2, "weight": [[1]]}, {"i": 2, "j": 3, "weight": [[1]]},
                  second],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "laplacian", "--input", str(path))
    assert code == 2 and out == "" and "parse error" in err


def test_non_integer_endpoint_exit2(tmp_path, capsys):
    doc = {"n": 3, "d": 1, "leaders": [1],
           "edges": [{"i": 1, "j": 2, "weight": [[1]]}, {"i": 1.9, "j": "3", "weight": [[1]]}]}
    path = tmp_path / "float_edge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "laplacian", "--input", str(path))
    assert code == 2 and out == "" and "edges[1]" in err


def test_non_string_variable_name_exit2(tmp_path, capsys):
    doc = {"n": 3, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
           "variables": [{"edge": [1, 2], "name": "a"}, {"edge": [2, 3], "name": 5}]}
    path = tmp_path / "numeric_name.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--input", str(path), "--samples", "1")
    assert code == 2 and out == "" and "variables[1]" in err


def test_conflicting_sign_constraints_exit2(tmp_path, capsys):
    # a second, different sign on one variable is refused, never dropped
    signs = [("a", "+"), ("a", "-"), ("b", "+")]
    doc = {"n": 3, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
           "variables": [{"edge": [1, 2], "name": "a"}, {"edge": [2, 3], "name": "b"}],
           "constraints": [{"kind": "sign", "args": list(s)} for s in signs]}
    path = tmp_path / "conflicting_signs.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bound", "--input", str(path), "--mode", "strict",
                             "--format", fmt)
        assert code == 2 and out == ""
        assert err == ("ssckit: parse error: document: "
                       "conflicting sign constraints on a: '+' and '-'\n")
    # an identical repeat is one constraint
    doc["constraints"][1]["args"] = ["a", "+"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "bound", "--input", str(path), "--mode", "strict",
                       "--format", "json")
    assert code == 0 and json.loads(out)["mode"] == "strict"


@pytest.mark.parametrize("command,text", [
    ("bound", '{"n": 2, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}], "variables": 5}'),
    ("bound", '{"n": 2, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}], "constraints": 5}'),
    ("laplacian", '{"n": 2, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2, "weight": 1e400}]}'),
], ids=["variables", "constraints", "inf_weight"])
def test_malformed_field_exit2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == "" and "parse error" in err


def test_laplacian_rejects_pattern(capsys):
    code, _, err = run(capsys, "laplacian", "--input",
                       str(FIXTURES / "diamond_pattern.json"))
    assert code == 3 and "concrete graph" in err


def test_ep_verify_partition(capsys):
    code, out, _ = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "[[1],[2,3],[4]]", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True and doc["violations"] == []


def test_ep_coarsest_default(capsys):
    code, out, _ = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["coarsest_ep"] == [[1], [2, 3], [4]]


def test_ep_bad_partition_exit3(capsys):
    code, _, err = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "[[1,2],[2,3,4]]")
    assert code == 3
    code, _, err = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "[[1],[2,3]]")
    assert code == 3
    code, _, err = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "not json")
    assert code == 3
    code, _, err = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "[[1.5],[2,3],[4]]")
    assert code == 3
    code, _, err = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"),
                       "--partition", "[[1,1],[2,3],[4]]")
    assert code == 3 and "node 1" in err


def test_ep_reports_violations(tmp_path, capsys):
    doc = {
        "n": 4, "d": 1, "leaders": [1],
        "edges": [
            {"i": 1, "j": 2, "weight": [[1]]},
            {"i": 1, "j": 3, "weight": [[2]]},
            {"i": 2, "j": 4, "weight": [[1]]},
            {"i": 3, "j": 4, "weight": [[1]]},
        ],
    }
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ep", "--input", str(path),
                       "--partition", "[[1],[2,3],[4]]", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["verdict"] is False and parsed["violations"]


def test_quotient_command(capsys):
    code, out, _ = run(capsys, "quotient", "--input", str(FIXTURES / "diamond.json"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient_laplacian"] == [[2, -2, 0], [-1, 2, -1], [0, -2, 2]]
    weights = {(e["i"], e["j"]): e["weight"][0][0] for e in doc["edges"]}
    assert weights == {(1, 2): 2, (2, 1): 1, (2, 3): 1, (3, 2): 2}


def test_quotient_non_equitable_exit3(tmp_path, capsys):
    doc = {
        "n": 4, "d": 1, "leaders": [1],
        "edges": [
            {"i": 1, "j": 2, "weight": [[1]]},
            {"i": 1, "j": 3, "weight": [[2]]},
            {"i": 2, "j": 4, "weight": [[1]]},
            {"i": 3, "j": 4, "weight": [[1]]},
        ],
    }
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "quotient", "--input", str(path),
                       "--partition", "[[1],[2,3],[4]]")
    assert code == 3 and "not equitable" in err
    # the first violation in verify_equitable's report order names the pair
    assert "nodes 2 and 3 of cell 2 have unequal sums into cell 1" in err


def test_bound_command_json(capsys):
    code, out, _ = run(capsys, "bound", "--input",
                       str(FIXTURES / "diamond_pattern.json"),
                       "--samples", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_min"] == 3 and doc["bound"] == 3
    assert doc["verdicts"]["strongly_structurally_controllable"] is False
    assert doc["verdicts"]["max_controllable_dimension"] == 3
    assert doc["seed"] == 0 and doc["backend"] == "exact"


@pytest.mark.parametrize("kind", ["directed", "entrywise", "transpose"])
def test_bound_inline_weight_matches_fixed_constraint(tmp_path, capsys, kind):
    inline, explicit, _ = inline_weight_documents(kind, True, False, 2)
    outputs = []
    for form, text in (("inline", inline), ("explicit", explicit)):
        path = tmp_path / f"{form}.json"
        path.write_text(text)
        code, out, _ = run(capsys, "bound", "--input", str(path), "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_bound_requires_pattern(capsys):
    code, _, err = run(capsys, "bound", "--input", str(FIXTURES / "diamond.json"))
    assert code == 3 and "weight pattern" in err


def test_bound_cap_exit4(tmp_path, capsys):
    n = 20
    doc = {
        "n": n, "d": 1, "leaders": [1],
        "edges": [{"i": i, "j": i + 1} for i in range(1, n)],
        "variables": [],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bound", "--input", str(path))
    assert code == 4 and "--cap" in err


def test_bound_sampling_failure_exit5(tmp_path, capsys):
    # sign constraints force a24 + a25 = 0 with both positive: unsamplable
    doc = {
        "n": 5, "d": 1, "directed": True, "leaders": [1],
        "edges": [{"i": 2, "j": 1}, {"i": 3, "j": 1}, {"i": 2, "j": 4}, {"i": 2, "j": 5}],
        "constraints": [
            {"kind": "sign", "args": ["w2_1", "+"]},
            {"kind": "sign", "args": ["w3_1", "+"]},
            {"kind": "sign", "args": ["w2_4", "+"]},
            {"kind": "sign", "args": ["w2_5", "+"]},
        ],
    }
    path = tmp_path / "conflicted.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bound", "--input", str(path), "--samples", "2")
    assert code == 5 and "internal error" in err


@pytest.mark.parametrize("d, constraints, message", [
    # the fixed value breaks the sign of its own variable
    (1, [{"kind": "fixed", "args": ["a", [[-1]]]}, {"kind": "sign", "args": ["a", "+"]}],
     "entry (0,0) of a is pinned to -1 against its sign '+'"),
    # the same pin reaches b through equal a b
    (1, [{"kind": "fixed", "args": ["a", [[-1]]]}, {"kind": "equal", "args": ["a", "b"]},
         {"kind": "sign", "args": ["b", "+"]}],
     "entry (0,0) of b is pinned to -1 against its sign '+'"),
    # one entry of a d = 2 block, pinned through equal as well
    (2, [{"kind": "fixed", "args": ["a", [[0, 0], ["1/2", 0]]]},
         {"kind": "equal", "args": ["b", "a"]}, {"kind": "sign", "args": ["b", "-"]}],
     "entry (1,0) of b is pinned to 1/2 against its sign '-'"),
])
def test_bound_pinned_sign_conflict_exit3(tmp_path, capsys, d, constraints, message):
    doc = {
        "n": 3, "d": d, "leaders": [1],
        "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
        "variables": [{"edge": [1, 2], "name": "a"}, {"edge": [2, 3], "name": "b"}],
        "constraints": constraints,
    }
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bound", "--input", str(path), "--format", fmt)
        assert code == 3 and out == ""
        assert err == f"ssckit: pattern constraints admit no weight assignment: {message}\n"


def test_bound_nine_follower_cycle(tmp_path, capsys):
    # 21147 candidate partitions of the followers; only the mirror pairing
    # around the leader, {2,10} {3,9} {4,8} {5,7} {6}, leaves every edge free
    n = 10
    doc = {
        "n": n, "d": 1, "leaders": [1],
        "edges": [{"i": i, "j": i % n + 1} for i in range(1, n + 1)],
    }
    path = tmp_path / "cycle10.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "bound", "--input", str(path),
                       "--samples", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_min"] == 6 and doc["bound"] == 6
    assert doc["witness"]["partition"] == [[1], [2, 10], [3, 9], [4, 8], [5, 7], [6]]


def test_bound_twelve_follower_cycle(tmp_path, capsys):
    # the default --cap 12 admits 12 followers; the cell-by-cell search prunes
    # all but a few of their 4213597 set partitions
    n = 13
    doc = {
        "n": n, "d": 1, "leaders": [1],
        "edges": [{"i": i, "j": i % n + 1} for i in range(1, n + 1)],
    }
    path = tmp_path / "cycle13.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, "bound", "--input", str(path),
                       "--samples", "1", "--format", "json")
    assert time.perf_counter() - start < 10
    assert code == 0
    doc = json.loads(out)
    assert doc["k_min"] == 7 and doc["bound"] == 7
    assert doc["witness"]["partition"] == [[1], [2, 13], [3, 12], [4, 11], [5, 10],
                                           [6, 9], [7, 8]]


@pytest.mark.parametrize("command,key", [("ep", "coarsest_ep"), ("quotient", "partition")])
def test_long_path_refines_in_seconds(tmp_path, capsys, command, key):
    # every node of a path led from one end is at its own distance from the leader
    n = 400
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "d": 1, "leaders": [1], "edges": [
        {"i": i, "j": i + 1, "weight": [[1]]} for i in range(1, n)]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, command, "--input", str(path), "--format", "json")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(out)[key] == [[v] for v in range(1, n + 1)]


def _scalar_edges(pairs):
    return [{"i": i, "j": j, "weight": [[1]]} for i, j in pairs]


LARGEST_DUALS = {
    # name: (document at n*d = 1000, observability rank, self-dual)
    "path": ({"edges": _scalar_edges((i, i + 1) for i in range(1, 1000))}, 1000, True),
    "star": ({"edges": _scalar_edges((1, j) for j in range(2, 1001))}, 2, True),
    "k2_998": ({"edges": _scalar_edges((i, j) for i in (1, 2) for j in range(3, 1001))}, 3, True),
    "directed_path": ({"directed": True,
                       "edges": _scalar_edges((i, i + 1) for i in range(1, 1000))}, 1000, False),
}


@pytest.mark.parametrize("name", sorted(LARGEST_DUALS))
def test_dual_at_the_largest_admitted_size_in_seconds(tmp_path, capsys, name):
    # n = 1000, d = 1, led from node 1 (an end, the hub, or a node of the pair side)
    doc, rank, self_dual = LARGEST_DUALS[name]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 1000, "d": 1, "leaders": [1], **doc}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "dual", "--input", str(path), "--format", "json")
    assert time.perf_counter() - start < 10
    assert code == 0
    result = json.loads(out)
    assert result["observability_rank"] == result["dual_controllable_dim"] == rank
    assert result["state_dim"] == 1000
    assert result["self_dual"] is self_dual and result["reversal"]["holds"] is self_dual


@pytest.mark.parametrize("command", ["laplacian", "bound", "dual"])
def test_state_dimension_limit_exit3(tmp_path, capsys, command):
    # refused on n*d alone, before any n-sized object is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**9, "d": 1, "leaders": [1], "edges": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "state-dimension limit" in err


def test_state_dimension_limit_is_on_n_times_d():
    edges = [{"i": 1, "j": 2, "weight": [[1] * 2] * 2}]
    at_limit = {"n": MAX_STATE_DIM // 2, "d": 2, "leaders": [1], "edges": edges}
    assert parse_network(json.dumps(at_limit)).n == MAX_STATE_DIM // 2
    with pytest.raises(ValueError, match="state-dimension limit"):
        parse_network(json.dumps(dict(at_limit, n=MAX_STATE_DIM // 2 + 1)))


def test_bound_json_byte_identical(capsys):
    args = ["bound", "--input", str(FIXTURES / "star4_pattern.json"),
            "--samples", "6", "--seed", "9", "--format", "json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    # options may also come before the command
    code3 = main(["--format", "json", "--seed", "9", "bound",
                  "--input", str(FIXTURES / "star4_pattern.json"), "--samples", "6"])
    out3 = capsys.readouterr().out
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


def test_bound_mode_recorded(tmp_path, capsys):
    doc = {
        "n": 3, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
        "constraints": [
            {"kind": "sign", "args": ["w1_2", "+"]},
            {"kind": "sign", "args": ["w2_3", "+"]},
        ],
    }
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "bound", "--input", str(path), "--mode", "strict",
                       "--samples", "2", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["mode"] == "strict" and parsed["mode_requested"] == "strict"
    # without sign constraints the same request degrades to cancellative
    code, out, _ = run(capsys, "bound", "--input",
                       str(FIXTURES / "path3_pattern.json"), "--mode", "strict",
                       "--samples", "2", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["mode"] == "cancellative" and parsed["mode_requested"] == "strict"


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--input",
                       str(FIXTURES / "directed_path3.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["self_dual"] is False
    assert doc["reversal"]["holds"] is False
    rows = {(m["block_row"], m["block_col"]) for m in doc["reversal"]["mismatches"]}
    assert rows == {(1, 1), (3, 3)}


def test_dual_undirected_self_dual(capsys):
    code, out, _ = run(capsys, "dual", "--input", str(FIXTURES / "diamond.json"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["self_dual"] is True and doc["reversal"]["holds"] is True
    assert doc["observability_rank"] == doc["dual_controllable_dim"] == 3


def _dual_json(capsys, tmp_path, g, *flags):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(g))
    code, out, _ = run(capsys, "dual", "--input", str(path), "--format", "json", *flags)
    assert code == 0
    return json.loads(out)


def _dual_cases():
    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        if "edges" not in json.loads(text):
            continue  # a partition fixture, not a network
        g = parse_network(text)
        if isinstance(g, MatrixWeightedGraph):  # patterns have no concrete Laplacian
            cases.append(pytest.param(g, id=path.stem))
    rng = random.Random(2024)
    for directed in (False, True):
        for d in (1, 2):
            for k in range(4):
                n = rng.randint(2, 16 // d)
                g = random_graph(rng, n, d=d, directed=directed, density=rng.uniform(0.2, 0.6))
                cases.append(pytest.param(g, id=f"{'di' if directed else 'un'}-d{d}-{k}"))
    return cases


@pytest.mark.parametrize("g", _dual_cases())
def test_dual_observability_rank_matches_definition(capsys, tmp_path, g):
    # oracle: sympy rank of the materialized observability matrix, not the dual span
    L = build_laplacian(g)
    M = build_input_matrix(g.leaders, g.n, g.d)
    doc = _dual_json(capsys, tmp_path, g)
    assert doc["observability_rank"] == sympy_rank(observability_matrix(L, M))
    assert doc["self_dual"] == (L.transpose().entries == L.entries)
    assert doc["dual_controllable_dim"] == doc["observability_rank"]
    assert doc["state_dim"] == g.n * g.d


def test_dual_float_fields_agree(capsys, tmp_path):
    # one computation feeds both fields, so they agree even where float ranks are unreliable
    g = random_graph(random.Random(12), 12, directed=True)
    doc = _dual_json(capsys, tmp_path, g, "--backend", "float")
    assert doc["observability_rank"] == doc["dual_controllable_dim"]


@pytest.mark.parametrize("n,d", [(20, 2), (30, 2), (60, 1), (80, 1)])
def test_dual_float_backend_matches_exact_on_larger_graphs(capsys, tmp_path, n, d):
    # an SVD rank with a relative cutoff reported far below the exact rank here
    g = random_graph(random.Random(1), n, d, density=0.3, leaders=[1])
    exact = _dual_json(capsys, tmp_path, g)
    assert _dual_json(capsys, tmp_path, g, "--backend", "float") == exact


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--samples", "6")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_corpus_json(capsys):
    code, out, _ = run(capsys, "corpus", "--samples", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc["results"]) >= 10


def test_bad_flag_values_exit3(capsys):
    for argv in (["bound", "--input", "x.json", "--mode", "sloppy"], [], ["nope"],
                 ["corpus", "--backend", "svd"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
    code, _, _ = run(capsys, "bound", "--input",
                     str(FIXTURES / "star4_pattern.json"), "--samples", "0")
    assert code == 3
    code, _, _ = run(capsys, "bound", "--input",
                     str(FIXTURES / "star4_pattern.json"), "--cap", "0")
    assert code == 3


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert list(COMMANDS) == ["laplacian", "ep", "quotient", "bound", "dual", "corpus"]
    for name, fn in COMMANDS.items():
        assert f"  {name:<10} {fn.__doc__}" in lines
    assert "  ep         Verify a partition, or find the coarsest leader-protected EP." in lines


def test_missing_input_exit3(capsys):
    code, _, err = run(capsys, "laplacian")
    assert code == 3 and "--input" in err


def test_input_file_is_closed(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "ep", "--input", str(FIXTURES / "diamond.json"))
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_import_does_not_load_numpy():
    # no backend needs numpy
    probe = "import sys, ssckit.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"
