import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    first_nonzero_independent_exact,
    first_nonzero_independent_mod_p,
    hstack,
    rref,
    solve_affine,
    sympy_rank,
)
from ssckit import linalg
from ssckit.render import block_to_json, format_block


fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def rand_matrix(rng, nr, nc, lo=-6, hi=6, den=4):
    return [
        [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(nc)]
        for _ in range(nr)
    ]


def test_as_fraction_forms():
    assert linalg.as_fraction(3) == Fraction(3)
    assert linalg.as_fraction("3/4") == Fraction(3, 4)
    assert linalg.as_fraction("-7") == Fraction(-7)
    assert linalg.as_fraction(0.1) == Fraction(1, 10)
    assert linalg.as_fraction(Fraction(5, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        linalg.as_fraction("1/0")
    with pytest.raises(ValueError):
        linalg.as_fraction(True)
    with pytest.raises(ValueError):
        linalg.as_fraction("abc")


def test_format_fraction():
    # A scalar renders as "p/q" text and as a JSON int or "p/q" string, and both read back
    assert format_block(((Fraction(3),),)) == "3"
    assert format_block(((Fraction(-3, 4),),)) == "-3/4"
    assert block_to_json(((Fraction(2), Fraction(1, 2)),)) == [[2, "1/2"]]
    for x in (Fraction(3), Fraction(-3, 4), Fraction(0), Fraction(7, 6)):
        assert linalg.as_fraction(format_block(((x,),))) == x
        assert linalg.as_fraction(block_to_json(((x,),))[0][0]) == x


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(12)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
    shapes += [(12, 4), (4, 12), (10, 3), (3, 10)] * 5
    for nr, nc in shapes:
        m = rand_matrix(rng, nr, nc)
        # throw in rank-deficient cases by duplicating a row
        if nr >= 2 and rng.random() < 0.4:
            m[-1] = [Fraction(2, 3) * x for x in m[0]]
        if rng.random() < 0.3:
            m[rng.randrange(nr)] = [Fraction(0)] * nc
        if rng.random() < 0.3:
            c = rng.randrange(nc)
            for row in m:
                row[c] = Fraction(0)
        assert linalg.rank(m) == sympy_rank(m)


def test_rank_edge_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.rank([[Fraction(0)] * 4 for _ in range(3)]) == 0
    assert linalg.rank([[Fraction(int(i == j)) for j in range(4)] for i in range(4)]) == 4


def test_integer_vector_clears_denominators():
    vec = linalg.integer_vector([Fraction(1, 2), Fraction(0), Fraction(-2, 3), Fraction(5)])
    assert vec == [3, 0, -4, 30]
    assert linalg.integer_vector([Fraction(0), Fraction(0)]) == [0, 0]
    assert linalg.integer_vector([2, -3]) == [2, -3]


def test_independent_columns():
    m = [
        [Fraction(1), Fraction(2), Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
    ]
    # cols are (1,0), (2,0), (3,1), (0,0)
    assert linalg.independent_columns(m) == [0, 2]


def test_independent_vectors_carry_pivots_across_calls():
    # splitting the columns over two calls with one pivot map keeps the same
    # columns as independent_columns in one call
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(2, 9)
        m = rand_matrix(rng, nr, nc)
        if rng.random() < 0.5:
            for row in m:
                row[-1] = row[0] - Fraction(1, 2) * row[1]
        split = rng.randint(1, nc - 1)
        pivots = {}
        cols = [linalg.integer_vector(col) for col in zip(*m)]
        first = linalg.independent_vectors(cols[:split], pivots, nr)
        second = linalg.independent_vectors(cols[split:], pivots, nr)
        assert first + [split + j for j in second] == linalg.independent_columns(m)
        assert len(pivots) == linalg.rank(m) == len(first) + len(second)


def test_solve_affine_reads_the_dense_solution_off_integer_rref():
    rng = random.Random(17)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        a = rand_matrix(rng, nr, nc)
        if nr >= 2 and rng.random() < 0.4:
            a[-1] = [Fraction(-3, 2) * x for x in a[0]]
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nr)]
        dense = solve_affine(a, b)
        rows = [{c: y for c, y in enumerate(linalg.integer_vector(row + [x])) if y}
                for row, x in zip(a, b)]
        piv = linalg.integer_rref(rows, nc)
        if dense is None:
            assert piv is None
        else:
            assert linalg.solve_affine(piv, nc) == dense


def test_rref_pivots_match_rank():
    rng = random.Random(99)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nr, nc)
        red, pivots = rref(m)
        assert len(pivots) == linalg.rank(m)
        for r, pc in enumerate(pivots):
            assert [row[pc] for row in red] == [Fraction(int(i == r)) for i in range(nr)]


def test_solve_affine_consistent_and_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_affine(a, [Fraction(1), Fraction(3)]) is None
    sol = solve_affine(a, [Fraction(1), Fraction(2)])
    assert sol is not None
    particular, basis = sol
    assert particular[0] + particular[1] == 1
    assert len(basis) == 1
    # every point of the affine space solves the system
    x = [p + 3 * b for p, b in zip(particular, basis[0])]
    assert x[0] + x[1] == 1


def test_solve_affine_empty_system():
    particular, basis = solve_affine([], [], ncols=3)
    assert particular == [0, 0, 0]
    assert len(basis) == 3
    with pytest.raises(ValueError):
        solve_affine([], [])


def test_hstack_and_transpose():
    a = [[Fraction(1), Fraction(2)]]
    b = [[Fraction(3)]]
    assert hstack(a, b) == [[Fraction(1), Fraction(2), Fraction(3)]]
    assert linalg.transpose(a) == [[Fraction(1)], [Fraction(2)]]
    with pytest.raises(ValueError):
        hstack(a, [[Fraction(1)], [Fraction(2)]])


@given(st.lists(st.lists(fractions_st, min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    assert linalg.rank(m) == linalg.rank(linalg.transpose(m))


@given(
    st.lists(st.lists(fractions_st, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(fractions_st, min_size=2, max_size=2), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_rank_product_bound(a_rows, b_rows):
    a = [[Fraction(x) for x in r] for r in a_rows]
    b = [[Fraction(x) for x in r] for r in b_rows]
    assert linalg.rank(linalg.mat_mul(a, b)) <= min(linalg.rank(a), linalg.rank(b))


@st.composite
def integer_vectors(draw):
    # dense integer vectors, read exactly or mod p, either random or banded like
    # Krylov columns that fill in from the inputs outward; repeats and
    # combinations make them dependent
    p = linalg.MODULUS
    modulus = draw(st.sampled_from([None, p]))
    nd = draw(st.integers(min_value=1, max_value=64))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    small = draw(st.booleans())  # few distinct values, so cancellation is common

    def value():
        if small:
            return rng.randint(-2, 2) if modulus is None else rng.randint(-2, 2) % p
        return rng.randint(-9, 9) if modulus is None else rng.randrange(p)

    vectors = []
    for j in range(draw(st.integers(min_value=1, max_value=nd + 8))):
        kind = rng.random()
        if kind < 0.3 and vectors:
            a, b = rng.choice(vectors), rng.choice(vectors)
            f = rng.randint(-3, 3) if modulus is None else rng.randrange(p)
            vec = [x + f * y for x, y in zip(a, b)]
            vectors.append(vec if modulus is None else [x % p for x in vec])
        elif draw(st.booleans()):
            start = rng.randrange(nd)
            width = rng.randint(1, nd - start)
            vectors.append([value() if start <= c < start + width else 0 for c in range(nd)])
        else:
            vectors.append([value() if rng.random() < 0.5 else 0 for _ in range(nd)])
    return modulus, nd, vectors


@given(integer_vectors(), st.data())
@settings(max_examples=150, deadline=None)
def test_independent_mod_p_keeps_what_the_first_nonzero_rule_keeps(case, data):
    # last-nonzero pivots keep the same vectors as the first-nonzero references
    # (the exact one on sparse rows, the modular one), also with the pivot map
    # carried across two calls and a limit
    modulus, nd, vectors = case
    limit = data.draw(st.integers(min_value=1, max_value=nd))
    split = data.draw(st.integers(min_value=0, max_value=len(vectors)))
    kept, ref = [], []
    piv, ref_piv = {}, {}
    for lo, hi in ((0, split), (split, len(vectors))):
        kept += [lo + j for j in linalg.independent_vectors(vectors[lo:hi], piv, limit, modulus)]
        if modulus is None:
            ref_kept = first_nonzero_independent_exact(vectors[lo:hi], ref_piv, limit)
        else:
            ref_kept = first_nonzero_independent_mod_p(vectors[lo:hi], ref_piv, limit, modulus)
        ref += [lo + j for j in ref_kept]
    assert kept == ref
    assert len(piv) == len(ref_piv) == len(kept) <= limit
    for lead, row in piv.items():
        assert len(row) == lead + 1 and row[lead]
        if modulus is None:
            assert math.gcd(*row) == 1
        else:
            assert row[lead] == 1
