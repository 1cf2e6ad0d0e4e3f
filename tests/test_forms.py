"""Normalization, deletion, contraction, essentialization."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldbetti import (
    contract,
    delete,
    essentialize,
    normalize,
    subset_rank,
)
from foldbetti import forms, matroid
from foldbetti.forms import FormCollection, canonical_coeffs, full_rank

from conftest import clear_memos, count_adds, gauss_rank, make_random_collection, raw_collections


def test_normalize_merges_proportional():
    sigma = normalize([((2, 0, 0), 1), ((1, 0, 0), 1), ((0, 3, 0), 1)], 3)
    assert sigma.groups == (((1, 0, 0), 2), ((0, 1, 0), 1))


def test_normalize_example_collection(example_2_5):
    assert example_2_5.t == 6
    assert example_2_5.multiplicities == (2, 1, 1, 1, 1, 1)
    assert example_2_5.n == 7


def test_normalize_drops_zero_forms():
    raw = [
        ((0, 0, 0), 1),
        ((0, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
        ((0, 0, 1), 1),
        ((0, 1, 1), 1),
        ((0, 2, 5), 1),
    ]
    sigma = normalize(raw, 3)
    assert sigma.t == 4
    assert sigma.n == 5


def test_normalize_rejects_all_zero():
    with pytest.raises(ValueError, match="empty collection"):
        normalize([((0, 0), 2)], 2)


def test_normalize_idempotent(rng):
    for _ in range(25):
        sigma = make_random_collection(rng)
        again = normalize(sigma.groups, sigma.k)
        assert again == sigma


def test_linear_form_must_be_canonical():
    # over Q: a primitive integer vector whose first nonzero entry is positive;
    # the constructor brings a form to that scale, as normalize does
    for raw, canon in [((2, 0), (1, 0)), ((0, -1), (0, 1))]:
        sigma = FormCollection(2, ((raw, 1),))
        assert sigma == normalize([(raw, 1)], 2)
        assert sigma.groups == ((canon, 1),)
    with pytest.raises(ValueError, match="empty collection"):
        FormCollection(2, (((0, 0), 1),))
    assert canonical_coeffs((4, 2)) == (2, 1)
    assert canonical_coeffs((0, -4, 6)) == (0, 2, -3)
    assert canonical_coeffs((Fraction(-1, 2), Fraction(1, 3))) == (3, -2)
    # over GF(p): residues in [0, p) with first nonzero entry 1
    assert canonical_coeffs((2, 3), 7) == (1, 5)
    assert canonical_coeffs((0, -1), 7) == (0, 1)
    sigma = FormCollection(2, (((1, 9), 1),), 7)
    assert sigma == normalize([((1, 9), 1)], 2, 7)
    assert sigma.groups == (((1, 2), 1),)


def test_normalize_prime_field_merges_mod_p():
    sigma = normalize([((1, 4), 1), ((1, 1), 1), ((2, -1), 1), ((0, 1), 1)], 2, 3)
    assert sigma.p == 3
    assert sigma.groups == (((1, 1), 3), ((0, 1), 1))
    assert normalize([((1, 4), 1), ((1, 1), 1)], 2).t == 2


def test_delete_example(example_2_5):
    # group 0 is x1 (multiplicity 2)
    sigma = delete(example_2_5, 0)
    assert sigma.n == 6
    assert ((1, 0, 0), 1) in sigma.groups


def test_delete_to_empty():
    sigma = normalize([((1, 0), 1)], 2)
    assert delete(sigma, 0) is None


def test_delete_chain_example(example_2_5):
    sigma_p = delete(example_2_5, 0)
    x3 = next(i for i, (c, _) in enumerate(sigma_p.groups) if c == (0, 0, 1))
    sigma_pp = delete(sigma_p, x3)
    assert sigma_pp.n == 5
    assert sigma_pp.t == 5


def test_contract_example_at_x1(example_2_5):
    # both copies of x1 vanish; the other five forms survive
    assert example_2_5.groups[0][1] == 2
    result = contract(example_2_5, 0)
    assert result.n == 5
    expected = normalize([((1, 0), 1), ((0, 1), 2), ((1, 1), 1), ((2, 5), 1)], 2)
    assert result == expected


def test_contract_example_at_x3(example_2_5):
    sigma_p = delete(example_2_5, 0)
    x3 = next(i for i, (c, _) in enumerate(sigma_p.groups) if c == (0, 0, 1))
    result = contract(sigma_p, x3)
    assert result.n == sigma_p.n - 1
    expected = normalize([((1, 0), 2), ((0, 1), 2), ((1, 2), 1)], 2)
    assert result == expected


def test_contract_two_forms():
    sigma = normalize([((1, 0), 1), ((0, 1), 1)], 2)
    result = contract(sigma, 0)
    assert result.k == 1
    assert result.n == 1


def test_contract_counts(rng):
    for _ in range(25):
        sigma = make_random_collection(rng)
        for gi in range(sigma.t):
            result = contract(sigma, gi)
            survived = result.n if result is not None else 0
            assert survived == sigma.n - sigma.groups[gi][1]
        deleted = delete(sigma, 0)
        assert (deleted.n if deleted else 0) == sigma.n - 1


def test_contract_order_independent():
    # the same multiset listed in different orders contracts identically
    a = normalize([((1, 1), 1), ((1, 1), 1), ((0, 1), 1)], 2)
    b = normalize([((0, 1), 1), ((2, 2), 1), ((1, 1), 1)], 2)
    assert a == b
    assert contract(a, 0) == contract(b, 0)


def test_essentialize_rank1():
    sigma = normalize([((1, 1, 0), 1), ((2, 2, 0), 1)], 3)
    ess = essentialize(sigma)
    assert ess.k == 1
    assert ess.groups == (((1,), 2),)


@pytest.mark.parametrize("p", [None, 3, 101])
def test_essentialize_keeps_the_pivot_columns(p):
    # the kept coordinates are the columns where the rank of the leading
    # coefficient columns grows, whatever engine finds them
    rng = random.Random(19)
    cases = 0
    for k in range(3, 7):
        for r in range(1, k):
            for _ in range(10):
                basis = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
                raw = []
                for _ in range(rng.randint(1, 6)):
                    lam = [rng.randint(-2, 2) for _ in range(r)]
                    form = [sum(x * b[c] for x, b in zip(lam, basis)) for c in range(k)]
                    raw.append((form, rng.randint(1, 3)))
                if gauss_rank([f for f, _ in raw], p) == 0:
                    continue
                sigma = FormCollection(k, raw, p)
                forms = [f for f, _ in sigma.groups]
                ranks = [gauss_rank([f[:c] for f in forms], p) for c in range(k + 1)]
                pivots = [c for c in range(k) if ranks[c + 1] > ranks[c]]
                kept = [(tuple(f[c] for c in pivots), m) for f, m in sigma.groups]
                assert essentialize(sigma) == FormCollection(len(pivots), kept, p), sigma
                cases += 1
    assert cases > 100


def test_essentialize_full_rank_is_identity(example_2_5):
    assert essentialize(example_2_5) is example_2_5


def test_essentialize_reads_the_pivots_of_full_rank(monkeypatch):
    # one echelon of the group rows serves both: full_rank memoizes its
    # pivot columns and essentialize keeps them, adding no row of its own
    added = count_adds(monkeypatch, forms)
    sigma = normalize([((0, 1, 0), 1), ((0, 0, 1), 1), ((0, 1, 1), 2)], 3)
    clear_memos()
    assert full_rank(sigma) == 2 and len(added) == sigma.t
    added.clear()
    assert essentialize(sigma) == normalize([((1, 0), 1), ((0, 1), 1), ((1, 1), 2)], 2)
    assert added == []


def test_essentialize_500_coordinate_forms_is_quick():
    # 500 coordinate forms in 600 variables: the two ranks of the 500 x 600
    # coefficient matrix took about 3.5 s by dense elimination, 0.1 s sparse
    sigma = normalize([(tuple(int(j == i) for j in range(600)), 1) for i in range(500)], 600)
    clear_memos()
    start = time.perf_counter()
    assert full_rank(sigma) == 500
    assert essentialize(sigma).k == 500
    assert time.perf_counter() - start < 2.0


def test_essentialize_rank2():
    sigma = normalize([((0, 1, 0), 1), ((0, 0, 1), 1), ((0, 1, 1), 1)], 3)
    ess = essentialize(sigma)
    assert ess.k == 2
    assert gauss_rank(ess.expanded_columns()) == 2


def test_essentialize_preserves_matroid(rng):
    from itertools import combinations

    for _ in range(10):
        # low-rank embedding: forms supported on two coordinates of k=4
        k = 4
        raw = []
        for _ in range(rng.randint(2, 4)):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            raw.append(((a, b, a + b, 0), rng.randint(1, 2)))
        try:
            sigma = normalize(raw, k)
        except ValueError:
            continue
        ess = essentialize(sigma)
        assert ess.n == sigma.n
        assert ess.t == sigma.t
        assert ess.multiplicities == sigma.multiplicities
        for size in range(1, sigma.n + 1):
            for subset in combinations(range(sigma.n), size):
                assert subset_rank(sigma, subset) == subset_rank(ess, subset)


def test_coefficient_matrix_example(example_2_5):
    # the coefficient matrix is the expanded columns, one per form copy
    cols = example_2_5.expanded_columns()
    assert len(cols) == 7 and all(len(c) == 3 for c in cols)
    assert gauss_rank(cols) == 3
    # multiplicity 2 group expands to two identical leading columns
    assert cols[0] == cols[1]


def test_coefficient_matrix_single_form():
    assert normalize([((1, 0, 0), 1)], 3).expanded_columns() == [(1, 0, 0)]


def test_collection_validates_order():
    # groups come out sorted by multiplicity descending, then coefficients
    sigma = FormCollection(2, (((0, 1), 1), ((1, 0), 2)))
    assert sigma == normalize([((0, 1), 1), ((1, 0), 2)], 2)
    assert sigma.groups == (((1, 0), 2), ((0, 1), 1))


# scales invertible mod 3 and mod 101, so they keep every form nonzero over GF(p)
_scales = st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 2]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(collection=raw_collections, p=st.sampled_from([None, 3, 101]), data=st.data())
def test_constructor_builds_the_canonical_collection(collection, p, data):
    k, raw = collection
    scales = data.draw(st.lists(_scales, min_size=len(raw), max_size=len(raw)))
    scaled = [(tuple(c * s for c in coeffs), m) for (coeffs, m), s in zip(raw, scales)]
    scaled.append(((0,) * k, data.draw(st.integers(1, 3))))
    scaled = data.draw(st.permutations(scaled))
    sigma = FormCollection(k, scaled, p)
    assert sigma == normalize(raw, k, p)
    assert FormCollection(k, sigma.groups, p) == sigma
    for again in (pickle.loads(pickle.dumps(sigma)), copy.deepcopy(sigma)):
        assert again == sigma
        assert hash(again) == hash(sigma)


def test_constructor_canonicalizes_each_form_once(monkeypatch):
    calls = []

    def counting(coeffs, p=None):
        calls.append(coeffs)
        return canonical_coeffs(coeffs, p)

    monkeypatch.setattr("foldbetti.forms.canonical_coeffs", counting)
    raw = [((1, 0, 0), 1), ((0, 2, 0), 2), ((1, 1, 1), 1), ((-1, 2, 3), 3)]
    assert normalize(raw, 3).t == len(raw)
    assert len(calls) == len(raw)


def test_the_store_empties_every_table_together(example_2_5, monkeypatch):
    # two full ranks fill a store of limit 2; the next miss, in other
    # tables, reads one of them and empties every table before it stores
    monkeypatch.setattr(forms, "MEMO_LIMIT", 2)
    clear_memos()
    full_rank(normalize([((1, 0), 1), ((0, 1), 1)], 2))
    assert full_rank(example_2_5) == 3
    assert forms.memo_entries() == 2
    weights = matroid.hamming_weights(example_2_5)
    assert forms._full_rank_cache == {} and matroid._hamming_cache == {example_2_5: weights}
    clear_memos()
    assert forms.memo_entries() == 0
