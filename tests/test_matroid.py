"""Subset ranks, circuits, flats, Hamming weights, heights, Tutte polynomial."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from foldbetti import (
    essentialize,
    hamming_weights,
    height_of_fold_ideal,
    normalize,
    subset_rank,
    tutte_polynomial,
    tutte_shifted_coeffs,
)
from foldbetti.forms import FormCollection, canonical_coeffs
from foldbetti.matroid import _flats, _tutte_cache

from conftest import clear_memos, gauss_rank, make_random_collection, raw_collections, small_collections
from reference import circuits_up_to, hamming_weights_crapo, rank2_flats, tutte_polynomial_subset_sum

# the shifted polynomial y^4+x^3+x^2y+xy^2+3y^3+6x^2+6xy+6y^2+13x+9y+8
SHIFTED_2_5 = {
    (0, 4): 1,
    (3, 0): 1,
    (2, 1): 1,
    (1, 2): 1,
    (0, 3): 3,
    (2, 0): 6,
    (1, 1): 6,
    (0, 2): 6,
    (1, 0): 13,
    (0, 1): 9,
    (0, 0): 8,
}


def brute_force_circuits(sigma, max_len):
    """Independent oracle: scan all subsets, keep minimal dependent ones."""
    cols = sigma.expanded_columns()

    def dependent(subset):
        return gauss_rank([cols[i] for i in subset]) < len(subset)

    found = []
    for size in range(1, max_len + 1):
        for cand in combinations(range(sigma.n), size):
            if dependent(cand) and not any(
                dependent(sub) for r in range(1, size) for sub in combinations(cand, r)
            ):
                found.append(cand)
    return found


def test_subset_rank_examples(example_2_5):
    # the two copies of x1 sit at columns 0 and 1 in canonical order
    assert subset_rank(example_2_5, {0, 1}) == 1
    assert subset_rank(example_2_5, set()) == 0
    cols = example_2_5.expanded_columns()
    four = [i for i, c in enumerate(cols) if c in ((1, 0, 0), (0, 0, 1), (1, 0, -1))]
    assert len(four) == 4
    assert subset_rank(example_2_5, four) == 2


def test_subset_rank_bounds(example_2_5):
    with pytest.raises(ValueError):
        subset_rank(example_2_5, {99})


def test_circuits_small_example(example_4_3):
    assert circuits_up_to(example_4_3, 2) == [(0, 1), (0, 2), (1, 2), (3, 4)]
    assert circuits_up_to(example_4_3, 5) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_circuits_example_2_5(example_2_5):
    got = circuits_up_to(example_2_5, 3)
    assert got == brute_force_circuits(example_2_5, 3)
    cols = example_2_5.expanded_columns()
    as_vectors = sorted(tuple(sorted(cols[i] for i in c)) for c in got)
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    expected = sorted(
        [
            (x1, x1),
            tuple(sorted([x1, x3, (1, 0, -1)])),
            tuple(sorted([x1, x3, (1, 0, -1)])),
            tuple(sorted([x2, x3, (0, 1, 1)])),
        ]
    )
    assert as_vectors == expected


def test_circuits_generic_has_no_short_ones():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert circuits_up_to(generic, 2) == []


def test_circuits_are_minimal_dependent(rng):
    for _ in range(15):
        sigma = make_random_collection(rng, max_n=6)
        for circuit in circuits_up_to(sigma, sigma.n):
            size = len(circuit)
            assert subset_rank(sigma, circuit) == size - 1
            for j in circuit:
                rest = [i for i in circuit if i != j]
                assert subset_rank(sigma, rest) == size - 1


def test_circuits_match_brute_force(rng):
    for _ in range(10):
        sigma = make_random_collection(rng, max_n=6)
        assert set(circuits_up_to(sigma, sigma.n)) == set(brute_force_circuits(sigma, sigma.n))


def test_rank2_flats_generic_lines():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    flats = rank2_flats(generic)
    assert len(flats) == 6
    assert all(size == 2 for _, size in flats)


def test_rank2_flats_ambient_rank2():
    sigma = normalize([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], 2)
    flats = rank2_flats(sigma)
    assert flats == [((0, 1, 2), 3)]


def test_rank2_flats_example_3_6(example_3_6):
    flats = rank2_flats(example_3_6)
    sizes = sorted((size for _, size in flats), reverse=True)
    assert sizes[:2] == [4, 4]
    assert sizes[2] != 4
    # both 4-fold points lie on a common line of the arrangement
    big = [set(flat) for flat, size in flats if size == 4]
    assert set.intersection(*big)


def test_rank2_flats_needs_rank2():
    with pytest.raises(ValueError):
        rank2_flats(normalize([((1, 0), 3)], 2))


def group_subset_ranks(sigma, p):
    """Rank over ``p`` of every union of whole groups, keyed by group bit mask."""
    cols = [coeffs for coeffs, _ in sigma.groups]
    return {
        mask: gauss_rank([c for g, c in enumerate(cols) if mask >> g & 1], p)
        for mask in range(1 << sigma.t)
    }


def brute_force_max_cols(sigma, q, ranks=None):
    """Most expanded columns spanning at most q dimensions, by exhaustion.

    Copies of a group are parallel, so adding the rest of a group never
    raises the rank and some optimum is a union of whole groups; every
    union is scanned.
    """
    ranks = group_subset_ranks(sigma, sigma.p) if ranks is None else ranks
    mults = sigma.multiplicities
    return max(
        sum(m for g, m in enumerate(mults) if mask >> g & 1)
        for mask, r in ranks.items()
        if r <= q
    )


def brute_force_flats(sigma, ranks):
    """Closed unions of groups, rank by rank, as sets of coefficient tuples.

    A union is closed when adding any other group raises its rank.
    """
    t = sigma.t
    levels = [set() for _ in range(ranks[(1 << t) - 1] + 1)]
    for mask, r in ranks.items():
        if all(ranks[mask | 1 << g] > r for g in range(t) if not mask >> g & 1):
            levels[r].add(frozenset(sigma.groups[g][0] for g in range(t) if mask >> g & 1))
    return levels


def enumerated_flats(sigma):
    """The enumerator's levels as sets of coefficient tuples."""
    forms, levels = _flats(sigma)
    return [
        {frozenset(c for i, c in enumerate(forms) if flat >> i & 1) for flat in level}
        for level in levels
    ]


def check_against_brute_force(sigma):
    """Every level of flats, rank2_flats and hamming_weights by exhaustion."""
    ranks = group_subset_ranks(sigma, sigma.p)
    levels = brute_force_flats(sigma, ranks)
    assert enumerated_flats(sigma) == levels
    rank = len(levels) - 1
    if rank >= 2:
        index = {coeffs: g for g, (coeffs, _) in enumerate(sigma.groups)}
        mults = sigma.multiplicities
        expected = sorted(
            (
                (tuple(sorted(index[c] for c in flat)), sum(mults[index[c]] for c in flat))
                for flat in levels[2]
            ),
            key=lambda fs: (-fs[1], fs[0]),
        )
        assert rank2_flats(sigma) == expected
    d = hamming_weights(essentialize(sigma)).d
    assert d == tuple(
        sigma.n - brute_force_max_cols(sigma, rank - r, ranks) for r in range(1, rank + 1)
    )
    return levels, d


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(raw_collections)
def test_flats_and_hamming_match_brute_force_over_q(collection):
    k, raw = collection
    check_against_brute_force(normalize(raw, k))


@pytest.mark.parametrize("p", [3, 101, 10007])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(collection=raw_collections)
def test_flats_and_hamming_match_brute_force_over_gf_p(p, collection):
    k, raw = collection
    rational = normalize(raw, k)
    modular = normalize(raw, k, p)
    levels, d = check_against_brute_force(modular)
    # where every subset rank agrees the two matroids are one
    if group_subset_ranks(rational, None) == group_subset_ranks(rational, p):
        rational_levels, rational_d = check_against_brute_force(rational)
        assert d == rational_d
        assert levels == [
            {frozenset(canonical_coeffs(c, p) for c in flat) for flat in level}
            for level in rational_levels
        ]


REGRESSION_K4 = [
    (-3, -3, 2, 0),
    (-2, -2, 1, 1),
    (2, 2, -3, -3),
    (-2, 0, 0, -3),
    (-1, 1, -1, 3),
    (0, -3, 0, -3),
    (-3, 1, -3, -2),
]


@pytest.mark.parametrize("p", [None, 101, 10007])
def test_k4_regression_case(p):
    # seven forms in general position: every triple is its own rank-3 flat
    sigma = normalize([(c, 1) for c in REGRESSION_K4], 4, p)
    levels, d = check_against_brute_force(sigma)
    assert d == (4, 5, 6, 7)
    assert len(levels[3]) == 35


def test_hamming_weights_example(example_2_5):
    d = hamming_weights(example_2_5).d
    assert d == (3, 5, 7)
    # exhaustive confirmation of d_2 = n - (largest multiplicity)
    assert brute_force_max_cols(example_2_5, 1) == 2
    assert brute_force_max_cols(example_2_5, 2) == 4


def test_hamming_weights_basic():
    sigma = normalize([((1, 0), 1), ((0, 1), 1)], 2)
    assert hamming_weights(sigma).d == (1, 2)


def test_hamming_weights_strictly_increasing(rng):
    for _ in range(20):
        sigma = essentialize(make_random_collection(rng))
        d = hamming_weights(sigma).d
        assert all(x < y for x, y in zip(d, d[1:]))
        assert d[-1] == sigma.n


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=small_collections())
def test_hamming_weights_match_crapo_reading_of_tutte(p, case):
    # T(x+1, y+1) counts column sets by corank and nullity, which fixes each
    # d_r without the flat enumerator or its multiplicity layers
    k, raw = case
    clear_memos()
    ess = essentialize(normalize(raw, k, p))
    assert hamming_weights(ess).d == hamming_weights_crapo(ess), ess


def test_hamming_weights_requires_full_rank():
    sigma = normalize([((1, 1, 0), 1), ((1, 0, 1), 1)], 3)
    with pytest.raises(ValueError):
        hamming_weights(sigma)


def test_heights_example(example_2_5):
    assert height_of_fold_ideal(example_2_5, 4) == 2
    assert height_of_fold_ideal(example_2_5, 6) == 1
    assert height_of_fold_ideal(example_2_5, 1) == 3


def test_heights_windows(rng):
    for _ in range(15):
        sigma = essentialize(make_random_collection(rng))
        d = hamming_weights(sigma).d
        k = sigma.k
        for a in range(1, sigma.n + 1):
            h = height_of_fold_ideal(sigma, a)
            if a <= d[0]:
                assert h == k
            if k >= 2 and a > d[k - 2]:
                assert h == 1


def test_height_range_check(example_2_5):
    with pytest.raises(ValueError):
        height_of_fold_ideal(example_2_5, 0)
    with pytest.raises(ValueError):
        height_of_fold_ideal(example_2_5, 8)


def test_tutte_example_shifted(example_2_5):
    shifted = tutte_shifted_coeffs(tutte_polynomial(example_2_5))
    assert shifted == SHIFTED_2_5


def test_tutte_single_form():
    sigma = normalize([((1,), 1)], 1)
    assert tutte_polynomial(sigma).coeffs == {(1, 0): 1}


def test_tutte_parallel_pair():
    sigma = normalize([((1,), 2)], 1)
    tp = tutte_polynomial(sigma)
    assert tp.coeffs == {(1, 0): 1, (0, 1): 1}
    assert tp.evaluate(1, 1) == 2  # two bases: either copy
    assert tp.evaluate(2, 2) == 4  # 2^n subsets
    assert tp == tutte_polynomial_subset_sum(sigma)


def test_tutte_matches_subset_sum(rng, example_2_5):
    assert tutte_polynomial(example_2_5) == tutte_polynomial_subset_sum(example_2_5)
    for _ in range(20):
        sigma = make_random_collection(rng)
        assert tutte_polynomial(sigma) == tutte_polynomial_subset_sum(sigma)
    # over GF(p) too, and at rank r below k, where the echelon of the later
    # groups that finds the coloops runs on a rank-deficient suffix
    for p in (None, 3, 101):
        for r in (1, 2, 3):
            for _ in range(6):
                k = rng.randint(r, 4)
                basis = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
                raw = []
                for _ in range(rng.randint(2, 6)):
                    c = [rng.randint(-2, 2) for _ in range(r)]
                    raw.append(([sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(k)], rng.randint(1, 2)))
                try:
                    sigma = FormCollection(k, raw, p)
                except ValueError:  # every form vanished
                    continue
                assert tutte_polynomial(sigma) == tutte_polynomial_subset_sum(sigma), sigma


def test_tutte_memoizes_no_deletion(rng, example_2_5):
    # only contractions recurse, and each drops a variable: every other
    # collection in the memo has a smaller ambient k than the one asked about
    sigmas = [example_2_5] + [make_random_collection(rng, max_k=4, max_n=10) for _ in range(10)]
    for sigma in sigmas:
        clear_memos()
        tutte_polynomial(sigma)
        assert sigma in _tutte_cache
        assert all(key.k < sigma.k for key in _tutte_cache if key != sigma), sigma


def test_tutte_counts_bases(rng):
    from foldbetti.matroid import full_rank

    for _ in range(15):
        sigma = make_random_collection(rng, max_n=7)
        cols = sigma.expanded_columns()
        r = full_rank(sigma)
        bases = sum(
            1
            for cand in combinations(range(sigma.n), r)
            if gauss_rank([cols[i] for i in cand]) == r
        )
        assert tutte_polynomial(sigma).evaluate(1, 1) == bases


def test_shifted_coeffs_of_x():
    from foldbetti.matroid import TuttePoly

    shifted = tutte_shifted_coeffs(TuttePoly({(1, 0): 1}))
    assert shifted == {(1, 0): 1, (0, 0): 1}


def test_shifted_coeff_values(example_2_5):
    shifted = tutte_shifted_coeffs(tutte_polynomial(example_2_5))
    assert shifted[(1, 1)] == 6
    assert shifted[(0, 0)] == 8
    assert shifted[(1, 0)] == 13
    assert shifted[(2, 1)] == 1


def test_tutte_serialization(example_2_5):
    doc = tutte_polynomial(example_2_5).to_json_dict()
    assert list(doc) == ["terms"]
    keys = [(t["x"], t["y"]) for t in doc["terms"]]
    assert keys == sorted(keys)
    assert all(isinstance(t["c"], str) for t in doc["terms"])
