"""Closed forms, the recursion, block elimination, and method dispatch."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldbetti import (
    BettiTable,
    b1_via_circuits,
    betti_cm_generic,
    betti_from_b1_height_km1,
    betti_from_hilbert,
    betti_height1_reduce,
    betti_maximal_power,
    betti_nminus1,
    betti_rank2,
    betti_recursion,
    betti_tutte,
    compute_betti,
    delete,
    essentialize,
    hamming_weights,
    height_of_fold_ideal,
    herzog_kuhl_residuals,
    hilbert_function,
    normalize,
)

from foldbetti import forms as forms_mod
from foldbetti.betti import is_generic

from conftest import clear_memos, gauss_rank, make_random_collection, raw_collections, small_collections
from reference import (
    b1_k3_veronese,
    b1_singular_line_arrangement,
    b1_veronese,
    betti_k3_block,
    betti_nminus2_arrangement,
    rank2_flats,
)


def count_capped_monomials(caps, a):
    """Oracle for the coordinate-collection generator counts."""
    k = len(caps)

    def rec(i, left):
        if i == k:
            return 1 if left == 0 else 0
        return sum(rec(i + 1, left - e) for e in range(min(caps[i], left) + 1))

    return rec(0, a)


def test_table_invariants():
    with pytest.raises(ValueError):
        BettiTable(1, 3, (1, 0, 2))
    with pytest.raises(ValueError):
        BettiTable(1, 2, (3, -1))
    with pytest.raises(ValueError):
        BettiTable(1, 2, (3,))
    assert BettiTable(1, 3, (0, 0, 0)).pdim == 0


def test_b1_tutte_column(example_2_5):
    assert [betti_tutte(example_2_5, a).b[0] for a in range(1, 8)] == [3, 6, 10, 14, 14, 6, 1]


def test_b1_tutte_extremes(example_2_5):
    assert betti_tutte(example_2_5, 7).b[0] == 1
    sigma = normalize([((1, 0), 1), ((0, 1), 1)], 2)
    assert betti_tutte(sigma, 1).b[0] == 2
    with pytest.raises(ValueError):
        betti_tutte(example_2_5, 8).b[0]


def test_maximal_power_tables():
    assert betti_maximal_power(3, 3).b == (10, 15, 6)
    assert betti_maximal_power(3, 2).b == (6, 8, 3)
    assert betti_maximal_power(1, 5).b == (1,)


def test_maximal_power_against_oracle():
    # 2-generic 7 lines: d_1 = 5, so folds up to 5 give maximal-ideal powers
    sigma = normalize([((1, t, t * t), 1) for t in range(7)], 3)
    assert betti_from_hilbert(sigma, 3) == betti_maximal_power(3, 3)


def test_height_km1_solve():
    assert betti_from_b1_height_km1(3, 4, 14).b == (14, 22, 9)
    assert betti_from_b1_height_km1(3, 5, 14).b == (14, 21, 8)
    assert betti_from_b1_height_km1(2, 3, 4).b == (4, 3)


def test_recursion_reads_no_tutte_polynomial(example_2_5, monkeypatch):
    # the recursion is an independent route: it must reach every table,
    # height-(k-1) folds 4 and 5 included, without T
    import foldbetti.betti as betti_mod
    import foldbetti.matroid as matroid_mod

    def refuse(sigma):
        raise AssertionError("the recursion asked for a Tutte polynomial")

    clear_memos()
    monkeypatch.setattr(betti_mod, "tutte_polynomial", refuse)
    monkeypatch.setattr(matroid_mod, "tutte_polynomial", refuse)
    tables = [betti_recursion(example_2_5, a).b for a in range(1, 8)]
    assert tables == [(3, 3, 1), (6, 8, 3), (10, 15, 6), (14, 22, 9), (14, 21, 8), (6, 5, 0), (1, 0, 0)]


def test_rank2_tables(example_4_3):
    assert betti_rank2(example_4_3, 3).b == (3, 2)
    assert betti_rank2(example_4_3, 5).b == (1, 0)  # a = n: every copy is forced
    for a in (0, 6):
        with pytest.raises(ValueError):
            betti_rank2(example_4_3, a)
    mixed = normalize([((1, 0), 2), ((0, 1), 2), ((1, 2), 1)], 2)
    assert betti_rank2(mixed, 4).b == (3, 2)
    low = normalize([((1, 0), 1), ((0, 1), 1), ((1, 1), 2)], 2)
    d1 = low.n - max(low.multiplicities)
    for a in range(1, d1 + 1):
        assert betti_rank2(low, a).b == (a + 1, a)


def test_rank2_rank1_principal():
    sigma = normalize([((1, 1), 4)], 2)
    assert betti_rank2(sigma, 2).b == (1,)


def test_height1_reduce_example(example_2_5):
    reduced, e = betti_height1_reduce(example_2_5, 6)
    assert e == 5
    assert reduced.n == 6
    assert reduced.multiplicities == (1, 1, 1, 1, 1, 1)


def test_height1_reduce_small(example_4_3):
    reduced, e = betti_height1_reduce(example_4_3, 3)
    assert e == 2
    assert reduced.multiplicities == (2, 2)
    reduced, e = betti_height1_reduce(example_4_3, 4)
    assert e == 1
    assert reduced.groups == (((0, 1), 1), ((1, 0), 1))
    outer = betti_recursion(example_4_3, 4)
    inner = betti_recursion(reduced, 1)
    assert (outer.k, outer.b) == (inner.k, inner.b)
    assert outer == betti_from_hilbert(example_4_3, 4)


def test_height1_reduce_tiny():
    sigma = normalize([((1, 0), 2), ((0, 1), 1)], 2)
    reduced, e = betti_height1_reduce(sigma, 2)
    assert e == 1
    assert reduced.multiplicities == (1, 1)


def test_height1_reduce_preconditions(example_2_5):
    with pytest.raises(ValueError):
        betti_height1_reduce(example_2_5, 7)  # a = n is the principal case
    with pytest.raises(ValueError):
        betti_height1_reduce(example_2_5, 4)  # height 2 window


def test_height1_reduce_refuses_rank1():
    # every fold of a rank-1 collection has height 1 = k: no fold of height 2
    # is left to reduce to, and the fold a - sum e_i would be 0
    sigma = normalize([((1, 0), 3)], 2)
    for a in (1, 2):
        with pytest.raises(ValueError, match="rank 1"):
            betti_height1_reduce(sigma, a)


@st.composite
def rank2_collections(draw):
    """(k, raw forms) of rank <= 2: forms in x1, x2, or in the plane x3 = x1 + 2 x2
    when k = 3, with multiplicities up to 10^6 beside small ones."""
    k = draw(st.sampled_from([2, 3]))
    pairs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
                          min_size=1, max_size=6))
    mult = st.one_of(st.integers(1, 4), st.integers(1, 10**6))
    return k, [((u, v) if k == 2 else (u, v, u + 2 * v), draw(mult)) for u, v in pairs]


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=rank2_collections())
def test_recursion_matches_rank2_closed_form(p, case):
    # the recursion has no rank <= 2 case: the maximal power takes a <= d_1 and
    # rank 1, the height-1 reduction d_1 < a < n, the Cohen-Macaulay table a = n
    k, raw = case
    sigma = normalize(raw, k, p)
    n = sigma.n
    d1 = hamming_weights(essentialize(sigma)).d[0]
    for a in sorted({1, 2, d1, d1 + 1, n - 1, n} & set(range(1, n + 1))):
        table = betti_recursion(sigma, a)
        assert table == betti_rank2(sigma, a), (sigma, a)
        if n <= 200:  # T has about a term per copy
            assert table == betti_tutte(sigma, a), (sigma, a)


@st.composite
def heavy_collections(draw):
    """(k, raw forms): k 2..4, k to k + 3 distinct forms with leading coefficient 1
    and the rest in +-2, multiplicities up to 40, or all 1 in about half the draws."""
    k = draw(st.integers(2, 4))
    form = st.integers(0, k - 1).flatmap(
        lambda i: st.tuples(*[st.just(0)] * i, st.just(1), *[st.integers(-2, 2)] * (k - 1 - i))
    )
    mult = st.just(1) if draw(st.booleans()) else st.one_of(st.integers(1, 3), st.integers(1, 40))
    return k, draw(st.lists(st.tuples(form, mult), min_size=k, max_size=k + 3, unique_by=lambda g: g[0]))


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=heavy_collections())
def test_recursion_matches_nminus1_and_principal_folds(p, case):
    # fold n - 1: a heavy form gives height 1, which peels; a simple collection
    # is 2-generic, the Cohen-Macaulay (n, n - 1).  Fold n: I_n is principal
    k, raw = case
    sigma = normalize(raw, k, p)
    ess = essentialize(sigma)
    assume(ess.k >= 2)
    assert betti_recursion(sigma, ess.n - 1) == betti_nminus1(sigma), sigma
    assert betti_recursion(sigma, ess.n).b == (1,) + (0,) * (ess.k - 1), sigma


def test_recursion_calls_no_rank2_or_nminus1_closed_form(example_2_5, monkeypatch):
    # the retired base cases stay references only: every fold of a rank-1, a
    # heavy rank-2 and Example 2.5's collection comes from the height rules
    import foldbetti.betti as betti_mod

    rank1 = normalize([((1, 2), 7)], 2)
    heavy = normalize([((1, 0), 1000), ((0, 1), 3), ((1, 1), 1), ((1, -1), 2)], 2)
    cases = [(sigma, [betti_tutte(sigma, a).b for a in range(1, sigma.n + 1)]) for sigma in (rank1, heavy)]
    cases.append((example_2_5, [(3, 3, 1), (6, 8, 3), (10, 15, 6), (14, 22, 9), (14, 21, 8), (6, 5, 0), (1, 0, 0)]))

    def refuse(*args):
        raise AssertionError("the recursion called a retired closed form")

    clear_memos()
    monkeypatch.setattr(betti_mod, "betti_rank2", refuse)
    monkeypatch.setattr(betti_mod, "betti_nminus1", refuse)
    for sigma, expected in cases:
        assert [betti_recursion(sigma, a).b for a in range(1, sigma.n + 1)] == expected, sigma


def test_nminus1_tables(example_2_5):
    two_generic = normalize(
        [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 0, -1), 1), ((0, 1, 1), 1), ((1, 2, 5), 1)], 3
    )
    assert betti_nminus1(two_generic).b == (5, 4, 0)
    principal = normalize([((1, 0), 4)], 2)
    assert betti_nminus1(principal).b == (1,)
    pair = normalize([((1, 0), 1), ((0, 1), 1)], 2)
    assert betti_nminus1(pair).b == (2, 1)


def test_cm_generic_tables():
    two_generic = normalize(
        [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 0, -1), 1), ((0, 1, 1), 1), ((1, 2, 5), 1)], 3
    )
    table = betti_cm_generic(two_generic, 3)
    assert table.b == (10, 15, 6)
    # star-configuration reindexing of the same binomials
    n, c = 5, 3
    a = n - c + 1
    star = betti_cm_generic(two_generic, a)
    assert star.b[:c] == tuple(
        comb(n, c - i) * comb(n - c + i - 1, i - 1) for i in range(1, c + 1)
    )
    assert betti_cm_generic(two_generic, 5).b == (1, 0, 0)


def test_cm_generic_rejects_nongeneric(example_2_5):
    with pytest.raises(ValueError, match="generic"):
        betti_cm_generic(example_2_5, 5)


def brute_force_generic(sigma, h):
    """Every h expanded columns independent, by scanning the h-subsets.

    The scan stops at the first dependent subset.  That is the first one
    whenever group 0 has two copies or h exceeds the rank, so only simple
    collections (at most nine columns) are scanned far.
    """
    cols = sigma.expanded_columns()
    return h <= sigma.n and all(
        gauss_rank([cols[i] for i in subset], sigma.p) == h
        for subset in combinations(range(sigma.n), h)
    )


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(collection=raw_collections)
def test_is_generic_matches_subset_scan(p, collection):
    k, raw = collection
    # genericity above h = 1 needs multiplicity 1, so the simple version
    # of the collection is checked too
    for sigma in (normalize(raw, k, p), normalize([(c, 1) for c, _ in raw], k, p)):
        for h in range(1, sigma.n + 2):
            assert is_generic(sigma, h) == brute_force_generic(sigma, h), (sigma, h)


@pytest.mark.parametrize("h", [0, -1])
def test_is_generic_refuses_h_below_one(example_2_5, h):
    with pytest.raises(ValueError, match="h = %d" % h):
        is_generic(example_2_5, h)


def test_nminus2_arrangement_generic():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert betti_nminus2_arrangement(generic).b == (6, 8, 3)
    assert betti_nminus2_arrangement(generic) == betti_cm_generic(generic, 2)


def test_nminus2_arrangement_example(example_3_6):
    table = betti_nminus2_arrangement(example_3_6)
    beta = sum(comb(size - 1, 2) for _, size in rank2_flats(example_3_6))
    assert table.b[0] == comb(8, 2) - beta
    assert table == betti_from_hilbert(example_3_6, 6)


def test_nminus2_arrangement_triangle():
    triangle = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)], 3)
    assert betti_nminus2_arrangement(triangle).b == (3, 3, 1)
    assert betti_nminus2_arrangement(triangle) == betti_maximal_power(3, 1)


def test_nminus2_arrangement_preconditions(example_2_5):
    with pytest.raises(ValueError):
        betti_nminus2_arrangement(example_2_5)  # multiplicity 2 present


def test_b1_veronese_values():
    assert b1_veronese((3, 2), 2, 3) == 3
    assert b1_veronese((1,) * 4, 4, 4) == 1
    assert b1_veronese((2, 2, 2), 3, 2) == 6
    assert b1_veronese((3, 2), 2, 3) == count_capped_monomials((3, 2), 3)


def test_b1_veronese_fold_guard():
    with pytest.raises(ValueError):
        b1_veronese((3, 2), 2, 2)
    assert b1_veronese((3, 2), 2, 2, allow_any_fold=True) == count_capped_monomials((3, 2), 2)


def test_b1_k3_veronese_values():
    assert b1_k3_veronese(5, 2, 1, 2) == 5
    assert b1_k3_veronese(5, 2, 1, 2) == count_capped_monomials((5, 2, 1), 2)
    assert b1_k3_veronese(5, 2, 1, 3) == 6
    assert b1_k3_veronese(5, 2, 1, 3) == count_capped_monomials((5, 2, 1), 3)


def test_b1_k3_veronese_branch_seam():
    # m2 = m3 + 1 makes a = m2 = m3 + 1 sit on the branch boundary
    for m1, m3 in ((6, 2), (7, 3)):
        m2 = m3 + 1
        a = m2
        assert b1_k3_veronese(m1, m2, m3, a) == count_capped_monomials((m1, m2, m3), a)


def test_b1_k3_veronese_preconditions():
    with pytest.raises(ValueError):
        b1_k3_veronese(3, 2, 2, 3)  # m1 < m3 + 2
    with pytest.raises(ValueError):
        b1_k3_veronese(5, 2, 1, 5)  # a > m2 + m3


def test_singular_line_arrangement(example_3_6):
    assert b1_singular_line_arrangement(example_3_6) == 19
    assert betti_tutte(example_3_6, 5).b[0] == 19


def test_singular_line_arrangement_replacement(example_3_6):
    # swap the last line for one through neither 4-fold point
    raw = [(c, m) for c, m in example_3_6.groups if c != (1, 1, -2)]
    raw.append(((0, 1, -1), 1))
    replaced = normalize(raw, 3)
    assert b1_singular_line_arrangement(replaced) == 19
    assert betti_tutte(replaced, 5).b[0] == 19


def test_singular_line_arrangement_near_pencil():
    pencil = normalize(
        [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, -1, 0), 1), ((1, 1, 0), 1), ((0, 0, 1), 1)], 3
    )
    assert b1_singular_line_arrangement(pencil) == 5
    assert betti_tutte(pencil, 2).b[0] == 5


def test_singular_line_arrangement_rejects_generic():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    with pytest.raises(ValueError, match="collinear"):
        b1_singular_line_arrangement(generic)


def test_herzog_kuhl_values():
    assert herzog_kuhl_residuals(BettiTable(4, 3, (14, 22, 9)), 4, 2) == (0, 0)
    assert herzog_kuhl_residuals(BettiTable(7, 3, (1, 0, 0)), 7, 1) == (0,)
    assert herzog_kuhl_residuals(betti_maximal_power(3, 2), 2, 3) == (0, 0, 0)


def test_recursion_golden(example_2_5):
    assert betti_recursion(example_2_5, 4).b == (14, 22, 9)
    assert betti_recursion(example_2_5, 5).b == (14, 21, 8)
    assert betti_recursion(example_2_5, 6).b == (6, 5, 0)


def test_recursion_bounds(example_2_5):
    assert betti_recursion(example_2_5, 8).b == (0, 0, 0)
    with pytest.raises(ValueError):
        betti_recursion(example_2_5, 0)


def test_block_elimination(example_2_5):
    assert betti_k3_block(example_2_5, 4) == betti_recursion(example_2_5, 4)
    caps = normalize([((1, 0, 0), 5), ((0, 1, 0), 2), ((0, 0, 1), 1)], 3)
    assert betti_k3_block(caps, 2).b[0] == 5
    assert betti_k3_block(caps, 9).b == (0, 0, 0)


def test_block_matches_recursion(rng):
    checked = 0
    while checked < 25:
        sigma = make_random_collection(rng, max_k=3)
        if essentialize(sigma).k != 3:
            continue
        for a in range(1, sigma.n + 1):
            assert betti_k3_block(sigma, a) == betti_recursion(sigma, a), (sigma, a)
        checked += 1


def test_compute_betti_methods(example_2_5):
    expected = BettiTable(4, 3, (14, 22, 9))
    for method in ("auto", "recursion", "tutte_hk", "oracle"):
        assert compute_betti(example_2_5, 4, method) == expected
    assert compute_betti(example_2_5, 7, "auto").b == (1, 0, 0)
    assert compute_betti(example_2_5, 8, "auto").b == (0, 0, 0)
    with pytest.raises(ValueError):
        compute_betti(example_2_5, 8, "recursion")
    with pytest.raises(ValueError):
        compute_betti(example_2_5, 4, "newton")


def test_tutte_hk_full_k3_coverage(example_2_5):
    for a in range(1, 8):
        assert compute_betti(example_2_5, a, "tutte_hk") == betti_recursion(example_2_5, a)


def test_tutte_hk_covers_every_fold():
    # folds 3..6 lie below height k - 1 = 3, where b_1 and the Herzog-Kuhl
    # equations alone do not close the table
    sigma = normalize(
        [((1, 0, 0, 0), 3), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)], 4
    )
    assert [height_of_fold_ideal(sigma, a) for a in range(3, 7)] == [2, 1, 1, 1]
    for a in range(1, 7):
        assert compute_betti(sigma, a, "tutte_hk") == betti_recursion(sigma, a), a


def test_scaling_leaves_tables_unchanged(example_2_5):
    scaled = normalize(
        [(tuple(Fraction(-7, 3) * x for x in c), m) for c, m in example_2_5.groups], 3
    )
    assert scaled == example_2_5
    for a in (2, 4, 6):
        assert betti_recursion(scaled, a) == betti_recursion(example_2_5, a)


@pytest.mark.parametrize("p", [None, 3, 5, 101])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=small_collections())
def test_tutte_formula_matches_recursion_and_oracle(p, case):
    # every fold's table off T(x+1, y) against deletion-contraction, and
    # over Q on small instances against the Hilbert-function oracle and,
    # below a = n, b_1 against the circuit-relation rank
    k, raw = case
    sigma = normalize(raw, k, p)
    small = p is None and k <= 3 and sigma.n <= 6
    for a in range(1, sigma.n + 1):
        table = compute_betti(sigma, a, "tutte_hk")
        assert table == betti_recursion(sigma, a), (sigma, a)
        if small:
            assert table == betti_from_hilbert(sigma, a), (sigma, a)
            if a < sigma.n:
                assert b1_via_circuits(sigma, a) == table.b[0], (sigma, a)


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=small_collections())
def test_cap_and_peel_leave_every_route_unchanged(p, case):
    # a fold product uses each form at most a times, so capping every m_i at a
    # keeps I_a; a form with e_i = m_i + a - n > 0 divides every product e_i
    # times, so peeling those copies keeps the table at fold a - sum e_i
    k, raw = case
    sigma = normalize(raw, k, p)
    n = sigma.n
    routes = {"tutte_hk": lambda s, a: compute_betti(s, a, "tutte_hk"), "recursion": betti_recursion}
    if p is None and k <= 3 and n <= 6:
        routes["oracle"] = betti_from_hilbert
    for a in range(1, n + 1):
        capped = normalize([(c, min(m, a)) for c, m in sigma.groups], k, p)
        for name, route in routes.items():
            table = route(sigma, a)
            assert route(capped, a) == table, (name, sigma, a)
            if a < n and table.k >= 2:  # below a = n every form keeps a copy
                peel = [max(m + a - n, 0) for m in sigma.multiplicities]
                peeled = normalize([(c, m - e) for (c, m), e in zip(sigma.groups, peel)], k, p)
                inner = route(peeled, a - sum(peel))
                assert (inner.k, inner.b) == (table.k, table.b), (name, sigma, a)


@st.composite
def collections_with_unimodular(draw):
    """(k, raw forms, A): a small collection and A in GL_k(Z) as a product
    of elementary row operations."""
    k, raw = draw(small_collections())
    matrix = [[int(i == j) for j in range(k)] for i in range(k)]
    index = st.integers(0, k - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=3 * k)):
        if i != j:
            matrix[j] = [x + c * y for x, y in zip(matrix[j], matrix[i])]
    if draw(st.booleans()):
        matrix[0] = [-x for x in matrix[0]]
    return k, raw, matrix


@pytest.mark.parametrize("method", ["auto", "recursion"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=collections_with_unimodular())
def test_coordinate_changes_leave_tables_and_weights_unchanged(method, case):
    # x -> A x moves every form c to c A; an inert variable adds a zero column
    k, raw, matrix = case
    sigma = normalize(raw, k)
    moved = normalize(
        [(tuple(sum(c[i] * matrix[i][j] for i in range(k)) for j in range(k)), m) for c, m in raw], k
    )
    inert = normalize([(c + (0,), m) for c, m in raw], k + 1)
    weights = hamming_weights(essentialize(sigma)).d
    for other in (moved, inert):
        assert hamming_weights(essentialize(other)).d == weights, other
        for a in range(1, sigma.n + 1):
            assert compute_betti(other, a, method) == compute_betti(sigma, a, method), (other, a)


@st.composite
def collections_with_presentation(draw):
    """(k, raw forms, other): a small collection and the same forms listed
    in another order, each scaled by a nonzero rational."""
    k, raw = draw(small_collections())
    order = draw(st.permutations(range(len(raw))))
    scale = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5))
    scales = draw(st.lists(scale, min_size=len(raw), max_size=len(raw)))
    other = [(tuple(s * x for x in raw[i][0]), raw[i][1]) for i, s in zip(order, scales)]
    return k, raw, other


def essential_minors(sigma):
    """The collection and each of its one-copy deletions, essentialized.

    Deleting one copy of a form of multiplicity above 1 leaves the same set
    of forms with other multiplicities.
    """
    minors = [sigma] + [m for m in (delete(sigma, i) for i in range(sigma.t)) if m is not None]
    return [essentialize(m) for m in minors]


@pytest.mark.parametrize("method", ["auto", "recursion"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=collections_with_presentation())
def test_reordering_and_rescaling_leave_tables_and_weights_unchanged(method, case):
    # Cold memos on both sides, and every question asked in the opposite
    # order: first the collection's weights, its deletions' and the folds
    # upwards; then the deletions' weights, the folds downwards and the
    # collection's weights.  A memo keyed on less than the whole collection
    # (the forms without their multiplicities, say) answers one of the two
    # runs with another collection's value.
    k, raw, other = case
    clear_memos()
    sigma = normalize(raw, k)
    weights = [hamming_weights(m).d for m in essential_minors(sigma)]
    tables = [compute_betti(sigma, a, method) for a in range(1, sigma.n + 1)]
    clear_memos()
    moved = normalize(other, k)
    minors = essential_minors(moved)
    moved_weights = [hamming_weights(m).d for m in reversed(minors[1:])]
    moved_tables = [compute_betti(moved, a, method) for a in range(moved.n, 0, -1)]
    moved_weights.append(hamming_weights(minors[0]).d)
    assert moved_weights[::-1] == weights, moved
    assert moved_tables[::-1] == tables, moved


def test_method_agreement_small(rng):
    for _ in range(20):
        sigma = make_random_collection(rng, max_n=6)
        for a in range(1, sigma.n + 1):
            rec = betti_recursion(sigma, a)
            assert rec == betti_from_hilbert(sigma, a)
            assert rec.b[0] == betti_tutte(sigma, a).b[0]


def test_pdim_and_tail_laws(rng):
    for _ in range(20):
        sigma = make_random_collection(rng)
        ess = essentialize(sigma)
        for a in range(1, sigma.n + 1):
            table = betti_recursion(sigma, a)
            assert table.pdim == min(ess.k, sigma.n - a + 1)
            height = height_of_fold_ideal(sigma, a)
            assert all(r == 0 for r in herzog_kuhl_residuals(table, a, height))


def test_b1_equals_hilbert_function(rng):
    for _ in range(10):
        sigma = make_random_collection(rng, max_n=6)
        for a in range(1, sigma.n + 1):
            assert betti_recursion(sigma, a).b[0] == hilbert_function(sigma, a, a)


def test_concurrent_recursion_is_consistent(example_2_5, monkeypatch):
    # the second run's limit of 8 makes the store empty every table many
    # times while the threads read and fill them
    from concurrent.futures import ThreadPoolExecutor

    clear_memos()
    expected = {a: betti_recursion(example_2_5, a).b for a in range(1, 8)}
    assert forms_mod.memo_entries() > 8
    for limit in (forms_mod.MEMO_LIMIT, 8):
        clear_memos()
        monkeypatch.setattr(forms_mod, "MEMO_LIMIT", limit)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(betti_recursion, example_2_5, a) for a in range(1, 8) for _ in range(3)
                ]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for table in results:
            assert table.b == expected[table.a]
        assert forms_mod.memo_entries() <= limit


def test_library_caller_keeps_a_bounded_memo(monkeypatch):
    # a long-lived caller sends many collections through compute_betti: the
    # store never holds more than its limit, and emptying it mid-computation
    # changes no table
    rng = random.Random(5)
    cases = [make_random_collection(rng, max_k=5, max_n=9) for _ in range(300)]
    expected = []
    for sigma in cases:
        clear_memos()
        expected.append([compute_betti(sigma, a, method) for method in ("auto", "recursion")
                         for a in range(1, sigma.n + 1)])
    monkeypatch.setattr(forms_mod, "MEMO_LIMIT", 64)
    clear_memos()
    for sigma, want in zip(cases, expected):
        got = []
        for method in ("auto", "recursion"):
            for a in range(1, sigma.n + 1):
                got.append(compute_betti(sigma, a, method))
                assert forms_mod.memo_entries() <= 64
        assert got == want, sigma
