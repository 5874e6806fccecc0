import json
import random
from fractions import Fraction

import pytest

from helpers import inline_weight_documents, random_graph
from ssckit.graphs import FixedConstraint, MatrixWeightedGraph, WeightPattern
from ssckit.netio import ParseError, parse_network, serialize_network


DIAMOND_DOC = json.dumps({
    "n": 4, "d": 1, "directed": False, "leaders": [1],
    "edges": [
        {"i": 1, "j": 2, "weight": [[1]]},
        {"i": 1, "j": 3, "weight": [[1]]},
        {"i": 2, "j": 4, "weight": [[1]]},
        {"i": 3, "j": 4, "weight": [[1]]},
    ],
})


def test_parse_diamond_document():
    g = parse_network(DIAMOND_DOC)
    assert isinstance(g, MatrixWeightedGraph)
    assert g.n == 4 and g.d == 1 and not g.directed
    assert set(g.adjacency) == {
        (1, 2), (2, 1), (1, 3), (3, 1), (2, 4), (4, 2), (3, 4), (4, 3)
    }


def test_parse_single_node():
    g = parse_network('{"n": 1, "d": 1, "directed": false, "leaders": [1], "edges": []}')
    assert isinstance(g, MatrixWeightedGraph)
    assert g.n == 1 and g.adjacency == {}


def test_parse_index_out_of_range():
    doc = json.dumps({
        "n": 4, "d": 1, "leaders": [1],
        "edges": [{"i": 2, "j": 5, "weight": [[1]]}],
    })
    with pytest.raises(ParseError) as err:
        parse_network(doc)
    assert "edges[0]" in str(err.value)


def test_parse_error_catalogue():
    with pytest.raises(ParseError):
        parse_network("{not json")
    with pytest.raises(ParseError):
        parse_network("[1, 2]")
    with pytest.raises(ParseError):
        parse_network('{"n": 2, "d": 1, "leaders": [1]}')  # missing edges
    with pytest.raises(ParseError):
        parse_network('{"n": 0, "d": 1, "leaders": [1], "edges": []}')
    with pytest.raises(ParseError):  # self-loop
        parse_network('{"n": 2, "d": 1, "leaders": [1], '
                      '"edges": [{"i": 1, "j": 1, "weight": [[1]]}]}')
    with pytest.raises(ParseError):  # zero weight on a declared edge
        parse_network('{"n": 2, "d": 1, "leaders": [1], '
                      '"edges": [{"i": 1, "j": 2, "weight": [[0]]}]}')
    with pytest.raises(ParseError):  # leader out of range
        parse_network('{"n": 2, "d": 1, "leaders": [3], "edges": []}')
    with pytest.raises(ParseError):  # wrong block dimension
        parse_network('{"n": 2, "d": 2, "leaders": [1], '
                      '"edges": [{"i": 1, "j": 2, "weight": [[1]]}]}')
    # node indices must be JSON integers: no float, string or bool coercion
    for i, j in ((1.9, "2"), (1, 2.0), (1, "2"), (True, 3), (1, None)):
        edge = {"i": i, "j": j, "weight": [[1]]}
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            parse_network(json.dumps({"n": 3, "d": 1, "leaders": [1], "edges": [edge]}))
    for pair in ([2.7, "3"], [2, 3.0], ["2", 3], [True, 2], "23", [2, 3, 1], [2]):
        doc = {"n": 3, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
               "variables": [{"edge": [1, 2], "name": "a"}, {"edge": pair, "name": "b"}]}
        with pytest.raises(ParseError, match=r"variables\[1\]"):
            parse_network(json.dumps(doc))
    # a second name for an already named edge, in either orientation
    for directed, pair in ((False, [1, 2]), (False, [2, 1]), (True, [1, 2])):
        doc = {"n": 3, "d": 1, "directed": directed, "leaders": [1],
               "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
               "variables": [{"edge": [1, 2], "name": "a"}, {"edge": pair, "name": "b"}]}
        with pytest.raises(ParseError, match=r"variables\[1\].*already named 'a'"):
            parse_network(json.dumps(doc))
    # variable names and constraint arguments must be JSON strings: no str() coercion
    for name in (5, True, None, ["a"]):
        doc = {"n": 3, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}],
               "variables": [{"edge": [1, 2], "name": name}]}
        with pytest.raises(ParseError, match=r"variables\[0\]"):
            parse_network(json.dumps(doc))
    base = {"n": 3, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}, {"i": 1, "j": 3}],
            "variables": [{"edge": [1, 2], "name": "5"}, {"edge": [1, 3], "name": "True"}]}
    for kind, args in (("equal", [5, True]), ("equal", ["5", True]), ("fixed", [5, [[1]]]),
                       ("sign", [True, "+"]), ("sign", [None, "-"])):
        doc = dict(base, constraints=[{"kind": kind, "args": args}])
        with pytest.raises(ParseError, match=r"constraints\[0\]"):
            parse_network(json.dumps(doc))
    # "variables" and "constraints" must be lists when present
    pattern = {"n": 2, "d": 1, "leaders": [1], "edges": [{"i": 1, "j": 2}]}
    for key, value in (("variables", 5), ("variables", None), ("constraints", 5)):
        with pytest.raises(ParseError, match=key):
            parse_network(json.dumps(dict(pattern, **{key: value})))
    # a block is a bare scalar or a list of rows: strings and objects are not
    # split into characters or keys, on a graph, a pattern edge or a fixed value
    for d, weight in ((2, ["12", "34"]), (1, {"7": 0}), (1, ["7"]), (2, [[1, 2], "34"])):
        graph = {"n": 2, "d": d, "leaders": [1], "edges": [{"i": 1, "j": 2, "weight": weight}]}
        pattern = dict(graph, variables=[{"edge": [1, 2], "name": "a"}])
        for doc in (graph, pattern):
            with pytest.raises(ParseError, match=r"edges\[0\]\.weight"):
                parse_network(json.dumps(doc))
        fixed = {"n": 2, "d": d, "leaders": [1], "edges": [{"i": 1, "j": 2}],
                 "variables": [{"edge": [1, 2], "name": "a"}],
                 "constraints": [{"kind": "fixed", "args": ["a", weight]}]}
        with pytest.raises(ParseError, match=r"constraints\[0\]"):
            parse_network(json.dumps(fixed))
    # 1e400 reads as inf, which has no rational value (nor has NaN)
    for weight in ("1e400", "-1e400", "NaN"):
        with pytest.raises(ParseError, match=r"edges\[0\]\.weight"):
            parse_network('{"n": 2, "d": 1, "leaders": [1], '
                          '"edges": [{"i": 1, "j": 2, "weight": [[%s]]}]}' % weight)


def test_parse_rational_and_scalar_forms():
    doc = json.dumps({
        "n": 2, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2, "weight": "3/4"}],
    })
    g = parse_network(doc)
    assert g.adjacency[(1, 2)] == ((Fraction(3, 4),),)
    doc_float = json.dumps({
        "n": 2, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2, "weight": [[0.25]]}],
    })
    assert parse_network(doc_float).adjacency[(1, 2)] == ((Fraction(1, 4),),)


def test_parse_mirrored_weights_checked():
    base = {
        "n": 2, "d": 1, "leaders": [1],
        "edges": [
            {"i": 1, "j": 2, "weight": [[2]]},
            {"i": 2, "j": 1, "weight": [[3]]},
        ],
    }
    with pytest.raises(ParseError):
        parse_network(json.dumps(base))
    base["edges"][1]["weight"] = [[2]]
    g = parse_network(json.dumps(base))
    assert g.adjacency[(2, 1)] == ((Fraction(2),),)


def test_parse_pattern_with_constraints():
    doc = json.dumps({
        "n": 3, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
        "variables": [{"edge": [1, 2], "name": "a"}, {"edge": [2, 3], "name": "b"}],
        "constraints": [
            {"kind": "equal", "args": ["a", "b"]},
            {"kind": "sign", "args": ["a", "+"]},
        ],
    })
    p = parse_network(doc)
    assert isinstance(p, WeightPattern)
    assert p.variable_names == ("a", "b")
    assert p.sign_of("a") == "+"


def test_parse_pattern_auto_names_and_inline_fixed():
    doc = json.dumps({
        "n": 3, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3, "weight": [[5]]}],
        "variables": [],
    })
    p = parse_network(doc)
    assert isinstance(p, WeightPattern)
    assert p.variable_names == ("w1_2", "w2_3")
    fixed = [c for c in p.constraints if isinstance(c, FixedConstraint)]
    assert len(fixed) == 1 and fixed[0].var == "w2_3"
    assert fixed[0].value == ((Fraction(5),),)


INLINE_CASES = [
    pytest.param(kind, reversed_edge, named, d, id="-".join(
        (kind, "ji" if reversed_edge else "ij", "named" if named else "auto", f"d{d}")))
    for kind in ("directed", "entrywise", "transpose")
    for reversed_edge in (False, True)
    for named in (False, True)
    for d in (1, 2)
]


@pytest.mark.parametrize("kind,reversed_edge,named,d", INLINE_CASES)
def test_inline_weight_is_a_fixed_constraint(kind, reversed_edge, named, d):
    inline, explicit, weighted = inline_weight_documents(kind, reversed_edge, named, d)
    p = parse_network(inline)
    assert isinstance(p, WeightPattern)
    assert p == parse_network(explicit)
    # the pinned block, materialised, is the weight the document gave the edge
    (fixed,) = [c for c in p.constraints if isinstance(c, FixedConstraint)]
    g = parse_network(weighted)
    assert isinstance(g, MatrixWeightedGraph)
    assert p.materialize({fixed.var: fixed.value, "w2_3": g.adjacency[(2, 3)]}) == g


def test_inline_weights_construct_the_pattern_once(monkeypatch):
    calls = []
    original = WeightPattern.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(WeightPattern, "__post_init__", counted)
    inline, _, _ = inline_weight_documents("transpose", True, True, 2)
    parse_network(inline)
    assert len(calls) == 1


def test_parse_pattern_bad_constraint():
    doc = json.dumps({
        "n": 2, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2}],
        "constraints": [{"kind": "warp", "args": []}],
    })
    with pytest.raises(ParseError):
        parse_network(doc)
    doc = json.dumps({
        "n": 2, "d": 1, "leaders": [1],
        "edges": [{"i": 1, "j": 2}],
        "constraints": [{"kind": "equal", "args": ["nope", "w1_2"]}],
    })
    with pytest.raises(ParseError):
        parse_network(doc)


def test_round_trip_graphs_random():
    rng = random.Random(42)
    for _ in range(25):
        g = random_graph(
            rng, rng.randint(1, 6), d=rng.choice([1, 2]), directed=rng.random() < 0.5
        )
        text = serialize_network(g)
        again = parse_network(text)
        assert again == g
        assert serialize_network(again) == text


def test_round_trip_transpose_convention():
    g = MatrixWeightedGraph.create(
        3, 2, {(1, 2): [[1, 2], [3, 4]], (2, 3): [[0, 1], [1, 0]]}, [1],
        symmetry="transpose",
    )
    text = serialize_network(g)
    again = parse_network(text)
    assert again == g and again.symmetry == "transpose"


def test_round_trip_pattern(diamond_pattern):
    text = serialize_network(diamond_pattern)
    again = parse_network(text)
    assert again == diamond_pattern
    assert serialize_network(again) == text


def test_round_trip_pattern_with_all_constraint_kinds():
    doc = json.dumps({
        "n": 3, "d": 2, "leaders": [1],
        "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
        "variables": [{"edge": [1, 2], "name": "a"}, {"edge": [2, 3], "name": "b"}],
        "constraints": [
            {"kind": "fixed", "args": ["a", [[1, 0], ["1/2", 1]]]},
            {"kind": "equal", "args": ["b", "a"]},
            {"kind": "sign", "args": ["b", "-"]},
        ],
    })
    p = parse_network(doc)
    text = serialize_network(p)
    assert parse_network(text) == p
