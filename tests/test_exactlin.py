"""Rank and dependency goldens for the integer engine, cross-checked against
the naive reference eliminator in ``conftest`` over Q and GF(p)."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldbetti.exactlin import SparseIntEchelon, bareiss_rank
from foldbetti.forms import FormCollection, canonical_coeffs, images_modulo, normalize

from conftest import gauss_rank
from reference import CrossMultipliedEchelon, circuit_dependency

G_2_5 = [
    (1, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 2),
    (0, 0, 0, 1, -1, 1, 5),
]


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]


def nullity(cols, p=None):
    """Dimension of the dependencies among ``cols``: the rows of an echelon
    of [v_i | e_i] whose leading column lies in the e-part."""
    k = len(cols[0])
    ech = SparseIntEchelon(p)
    for i, col in enumerate(cols):
        ech.add({**dict(enumerate(col)), k + i: 1})
    return sum(1 for c in ech.pivot_rows if c >= k)


def random_matrix(rng, bound):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def shaped_matrices(rng):
    """Tall, wide, zero-row and zero-width matrices up to 40 columns, dense,
    sparse and of low rank, with negative entries."""
    yield []
    yield [[] for _ in range(3)]
    entries = [0] * 6 + [-3, -1, 1, 2]
    for rows, cols in ((40, 3), (3, 40), (1, 40), (40, 1), (25, 40), (40, 25)):
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        yield [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        inner = rng.randint(1, 4)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        yield [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def test_rank_example_matrix():
    assert bareiss_rank(G_2_5) == 3
    assert gauss_rank(G_2_5) == 3


def test_rank_empty_matrix():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([], 7) == 0


def test_rank_proportional_rows():
    assert bareiss_rank([(1, 2), (2, 4)]) == 1


def test_rank_rational_entries():
    # rational rows reach the engines scaled to integers by the canonicalizer
    m = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 7))]
    assert bareiss_rank([canonical_coeffs(r) for r in m]) == 2 == gauss_rank(m)
    singular = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 1))]
    assert bareiss_rank([canonical_coeffs(r) for r in singular]) == 1 == gauss_rank(singular)


def test_kernel_circuit_columns():
    # columns (l1, l4, l5) of the example matrix carry a single dependency
    cols = [(1, 0, 0), (0, 0, 1), (1, 0, -1)]
    v = circuit_dependency(cols)
    assert v == (1, -1, -1)
    for coord in range(3):
        assert sum(v[i] * cols[i][coord] for i in range(3)) == 0
    assert all(x != 0 for x in v)
    assert circuit_dependency(cols, 7) == (1, 6, 6)


def test_kernel_identity_is_empty():
    assert nullity([(1, 0), (0, 1)]) == 0


def test_kernel_single_equation():
    # the 1 x 2 matrix (1 1): its two columns are parallel
    assert circuit_dependency([(1,), (1,)]) == (1, -1)
    assert nullity([(1,), (1,)]) == 1


def test_stack_rank_basic():
    assert bareiss_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert bareiss_rank([]) == 0


def test_stack_rank_length_mismatch():
    # vector lengths are validated where forms enter: at construction
    with pytest.raises(ValueError, match="ambient is 2"):
        normalize([((1, 0), 1), ((1,), 1)], 2)


def test_rank_transpose_randomized():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, 5)
        assert bareiss_rank(m) == bareiss_rank(transpose(m))
        assert bareiss_rank(m, 3) == bareiss_rank(transpose(m), 3)


def test_rank_plus_nullity_is_cols():
    rng = random.Random(8)
    for _ in range(40):
        m = random_matrix(rng, 4)
        cols = len(m[0])
        assert bareiss_rank(m) + nullity(transpose(m)) == cols
        assert bareiss_rank(m, 5) + nullity(transpose(m), 5) == cols


def test_bareiss_matches_naive_elimination():
    rng = random.Random(9)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
        assert bareiss_rank(rows) == gauss_rank(rows)


def test_exact_rational_arithmetic_is_bitwise():
    rng = random.Random(10)
    for _ in range(50):
        a, b = rng.randint(-30, 30), rng.randint(1, 30)
        c, d = rng.randint(-30, 30), rng.randint(1, 30)
        direct = Fraction(a, b) + Fraction(c, d)
        common = Fraction(a * d + c * b, b * d)
        assert direct == common
        assert (direct.numerator, direct.denominator) == (common.numerator, common.denominator)


def test_entries_grid_validated():
    with pytest.raises(ValueError, match="ambient is 3"):
        FormCollection(3, (((1, 0), 1),))


def test_prime_field_rank_and_kernel():
    p = 7
    m = [(1, 3), (2, 6)]
    assert bareiss_rank(m, p) == 1 == gauss_rank(m, p)
    v = circuit_dependency(transpose(m), p)
    assert v[0] == 1
    assert (v[0] * 1 + v[1] * 3) % p == 0
    assert (v[0] * 2 + v[1] * 6) % p == 0


def test_prime_field_arithmetic():
    # 3 * 2 = 1 in GF(5), so (3, 4) scales to (1, 8 mod 5)
    assert canonical_coeffs((3, 4), 5) == (1, 3)
    # 1/2 = 3 in GF(5)
    assert canonical_coeffs((Fraction(1, 2), 1), 5) == (1, 2)
    assert canonical_coeffs((5, -10), 5) is None
    with pytest.raises(ValueError):
        canonical_coeffs((Fraction(1, 5), 1), 5)


def test_sparse_echelon_matches_dense():
    rng = random.Random(11)
    for p in (None, 7):
        for _ in range(30):
            vectors = []
            width = rng.randint(3, 10)
            for _ in range(rng.randint(1, 12)):
                vec = {}
                for _ in range(rng.randint(1, 4)):
                    vec[rng.randrange(width)] = rng.randint(-5, 5)
                vectors.append(vec)
            dense = [[v.get(c, 0) for c in range(width)] for v in vectors]
            ech = SparseIntEchelon(p)
            for v in vectors:
                ech.add(v)
            assert ech.rank == gauss_rank(dense, p)


@pytest.mark.parametrize("p", [None, 101, 3])
def test_engines_agree_with_reference(p):
    rng = random.Random(12)
    for rows in [random_matrix(rng, 6) for _ in range(40)] + list(shaped_matrices(rng)):
        expected = gauss_rank(rows, p)
        assert bareiss_rank(rows, p) == expected
        sparse = SparseIntEchelon(p)
        grew = [sparse.add(dict(enumerate(row))) for row in rows]
        assert sparse.rank == expected == sum(grew)


@pytest.mark.parametrize("p", [None, 101, 3])
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    basis=st.lists(st.tuples(*[st.integers(-2, 2)] * 4), max_size=3),
    u=st.tuples(*[st.integers(-2, 2)] * 4),
    w=st.tuples(*[st.integers(-2, 2)] * 4),
)
def test_residues_match_rank_modulo_the_span(p, basis, u, w):
    # reduce modulo each basis vector's running image in turn, as the flat
    # enumerator does cover by cover; None marks a vanished image
    r = gauss_rank(basis, p)
    vectors = [canonical_coeffs(v, p) for v in [u, w] + basis]
    steps = 0
    for i in range(2, len(vectors)):
        ell = vectors[i]
        if ell is None:
            continue
        steps += 1
        live = [j for j, v in enumerate(vectors) if v is not None]
        for j, image in zip(live, images_modulo(ell, [vectors[j] for j in live])):
            vectors[j] = canonical_coeffs(image, p)
    assert steps == r
    ru, rw = vectors[:2]
    assert (ru is not None) == (gauss_rank(basis + [u], p) > r)
    if ru is not None and rw is not None:
        assert (ru == rw) == (gauss_rank(basis + [u, w], p) == r + 1)


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rows=st.lists(st.dictionaries(st.integers(0, 7), st.integers(-6, 6), max_size=5), max_size=10))
def test_sparse_echelon_invariants(p, rows):
    # zero entries in the input exercise the filter; rows are updated in place,
    # so the caller's dicts must come back untouched
    snapshot = [dict(r) for r in rows]
    expected = gauss_rank([[r.get(c, 0) for c in range(8)] for r in rows], p)
    descending = sorted(rows, key=lambda r: max(r, default=-1), reverse=True)
    for order in (rows, rows[::-1], descending):
        ech, grew = SparseIntEchelon(p), []
        for r in order:
            # the undo the circuit oracle's walk relies on: a row that raises
            # the rank is stored last, under a new pivot, and popitem takes it
            # back; a row that does not leaves the stored rows alone
            before = list(ech.pivot_rows.items())
            grew.append(ech.add(r))
            after = list(ech.pivot_rows.items())
            if grew[-1]:
                assert after[:-1] == before and after[-1][0] not in dict(before)
                ech.pivot_rows.popitem()
                assert list(ech.pivot_rows.items()) == before
                assert ech.add(r) and list(ech.pivot_rows.items()) == after
            else:
                assert after == before
        assert ech.rank == sum(grew) == expected
        for c, row in ech.pivot_rows.items():
            assert min(row) == c
            assert all(v != 0 if p is None else 0 < v < p for v in row.values())
            if p is None:
                assert gcd(*row.values()) == 1
    assert rows == snapshot


@pytest.mark.parametrize("p", [None, 3, 101])
def test_gcd_reduced_update_stores_the_cross_multiplied_rows(p):
    # entries rich in common factors give pivots and entries whose gcd is
    # above 1, which the gcd-reduced update divides out first
    rng = random.Random(13)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -6, 9, 12, -18]
    shared = 0
    for _ in range(60):
        width = rng.randint(2, 8)
        rows = [{j: rng.choice(entries) for j in range(width)} for _ in range(rng.randint(1, 10))]
        ech, ref = SparseIntEchelon(p), CrossMultipliedEchelon(p)
        for row in rows:
            for c, piv in ech.pivot_rows.items():
                shared += row.get(c, 0) != 0 and gcd(row[c], piv[c]) > 1
            assert ech.add(row) == ref.add(row)
        assert ech.pivot_rows == ref.pivot_rows
    assert shared > 50
