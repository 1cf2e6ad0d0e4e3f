"""Hilbert-function and circuit-relation oracles, guardrails included."""

import json
import random
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldbetti import (
    b1_via_circuits,
    betti_from_hilbert,
    betti_maximal_power,
    betti_tutte,
    compute_betti,
    fold_generators,
    hilbert_function,
    normalize,
    relation_space,
)
from foldbetti import forms, oracle
from foldbetti.cli import parse_instance, run
from foldbetti.forms import basis_coordinates, canonical_coeffs, clear_memos, full_rank
from foldbetti.oracle import OracleLimitError, hf_report

from conftest import (
    count_adds,
    distinct_products_reference,
    fold_products_reference,
    gauss_rank,
    hilbert_function_reference,
    make_random_arrangement,
    make_random_collection,
    raw_collections,
    small_collections,
)
from reference import (
    basis_coordinates_by_circuits,
    monomial_basis,
    rank2_flats,
    relation_space_by_circuits,
)


def distinct_polys(polys):
    return {tuple(sorted(p.items())) for p in polys}


def test_fold_generators_small(example_4_3):
    # one product per exponent vector (3, 0), (2, 1), (1, 2), not C(5, 3) = 10
    gens = fold_generators(example_4_3, 3)
    assert gens == [{(3, 0): 1}, {(2, 1): 1}, {(1, 2): 1}]


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(collection=small_collections())
def test_fold_generators_are_the_distinct_products_in_first_occurrence_order(p, collection):
    k, raw = collection
    sigma = normalize(raw, k, p)
    for a in range(1, sigma.n + 1):
        products = distinct_products_reference(sigma, a)
        assert fold_generators(sigma, a) == products
        assert oracle._product_count(sigma, a) == len(products)  # what the cell guard counts


def test_fold_generators_extremes(example_4_3):
    assert len(distinct_polys(fold_generators(example_4_3, 5))) == 1
    pair = normalize([((1, 0), 1), ((0, 1), 1)], 2)
    gens = fold_generators(pair, 1)
    assert distinct_polys(gens) == {(((0, 1), 1),), (((1, 0), 1),)}


def test_hilbert_values(example_4_3):
    assert hilbert_function(example_4_3, 3, 4) == 4
    assert hilbert_function(example_4_3, 3, 5) == 5
    assert hilbert_function(example_4_3, 4, 4) == 2
    assert hilbert_function(example_4_3, 4, 5) == 3


def test_hilbert_degree_guard(example_4_3):
    with pytest.raises(ValueError):
        hilbert_function(example_4_3, 3, 2)


def test_hilbert_nondecreasing(rng):
    for _ in range(10):
        sigma = make_random_collection(rng, max_n=6)
        for a in range(1, sigma.n + 1):
            values = [hilbert_function(sigma, a, d) for d in range(a, a + 3)]
            assert all(x <= y for x, y in zip(values, values[1:]))
            assert all(v >= 0 for v in values)


def test_hilbert_maximal_power_regime():
    # 2-generic: d_1 = n - 2, so small folds give powers of the maximal ideal
    sigma = normalize([((1, t, t * t), 1) for t in range(6)], 3)
    for a in (1, 2, 3):
        for d in range(a, a + 3):
            assert hilbert_function(sigma, a, d) == comb(3 + d - 1, d)


def test_betti_from_hilbert_tables(example_4_3, example_2_5):
    assert betti_from_hilbert(example_4_3, 3).b == (3, 2)
    assert betti_from_hilbert(example_2_5, 4).b == (14, 22, 9)
    square = normalize([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], 2)
    assert betti_from_hilbert(square, 2) == betti_maximal_power(2, 2)


def test_betti_from_hilbert_tail(rng):
    for _ in range(10):
        sigma = make_random_collection(rng, max_n=6)
        from foldbetti import essentialize

        k_eff = essentialize(sigma).k
        for a in range(1, sigma.n + 1):
            table = betti_from_hilbert(sigma, a)
            limit = min(k_eff, sigma.n - a + 1)
            assert all(v == 0 for v in table.b[limit:])


def test_relation_space_example(example_4_3):
    space = relation_space(example_4_3, 3)
    reference = relation_space_by_circuits(example_4_3, 3)
    # three distinct products x^3, x^2y, xy^2 and no relation among them: the
    # supports c = (0, 2), (1, 1), (2, 0) leave room in x alone or in x and y,
    # which are independent; the reference relates the C(5, 2) = 10 products
    # of copies
    assert (space.ambient_dim, len(space.generators), space.rank) == (3, 0, 0)
    assert (reference.ambient_dim, len(reference.generators), reference.rank) == (10, 12, 7)
    assert space.ambient_dim - space.rank == reference.ambient_dim - reference.rank == 3


def test_relation_space_simple_high_fold():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert relation_space(generic, 3).rank == 0


def test_relation_space_nminus2(example_3_6):
    space = relation_space(example_3_6, 6)
    beta = sum(comb(size - 1, 2) for _, size in rank2_flats(example_3_6))
    assert space.rank == beta


def exponent_vectors(sigma, d):
    """The exponent vectors e <= m over the groups with sum d, ascending
    lexicographically."""
    return [e for e in product(*(range(m + 1) for m in sigma.multiplicities)) if sum(e) == d]


def test_relation_generator_counts(rng):
    # one generator per distinct support (complement vector c) and per group
    # with room in c outside the greedy basis of those groups
    for _ in range(8):
        sigma = make_random_collection(rng, max_n=6)
        n, vs = sigma.n, [coeffs for coeffs, _ in sigma.groups]
        if n < 2:
            continue
        for a in range(1, n):
            space = relation_space(sigma, a)
            expected = 0
            for c in exponent_vectors(sigma, a - 1):
                room = [v for v, cg, m in zip(vs, c, sigma.multiplicities) if cg < m]
                expected += len(room) - gauss_rank(room, sigma.p)
            assert len(space.generators) == expected


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(collection=small_collections())
def test_relation_space_is_order_free_and_ranks_its_generators(p, collection):
    k, raw = collection
    sigma = normalize(raw, k, p)
    folds = range(1, sigma.n)
    clear_memos()
    ascending = [relation_space(sigma, a) for a in folds]
    clear_memos()
    descending = [relation_space(sigma, a) for a in reversed(folds)][::-1]
    fresh = []
    for a in folds:
        clear_memos()
        fresh.append(relation_space(sigma, a))
    assert ascending == descending == fresh
    for space in ascending:
        dense = [[vec.get(c, 0) for c in range(space.ambient_dim)] for vec in space.generators]
        assert space.rank == gauss_rank(dense, p)


def test_circuit_relations_live_in_the_memo_store(example_4_3):
    # the relations are built anew for each fold: the oracle keeps no table
    clear_memos()
    relation_space(example_4_3, 3)
    assert forms.memo_entries() == 0


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(collection=small_collections())
def test_fundamental_circuits_span_the_circuit_relations(p, collection):
    k, raw = collection
    sigma = normalize(raw, k, p)
    n, vs = sigma.n, [coeffs for coeffs, _ in sigma.groups]
    for a in range(1, n):
        space = relation_space(sigma, a)
        reference = relation_space_by_circuits(sigma, a)
        assert space.ambient_dim - space.rank == reference.ambient_dim - reference.rank
        # key i is the i-th exponent vector in ascending lexicographic order,
        # the product of the first e_g copies of each group g: fold_generators
        # lists the distinct products in the reverse order
        vectors = exponent_vectors(sigma, a)
        starts = [sum(sigma.multiplicities[:g]) for g in range(sigma.t)]
        of_subset = dict(zip(combinations(range(n), a), fold_products_reference(sigma, a)))
        products = fold_generators(sigma, a)[::-1]
        assert space.ambient_dim == len(vectors) == len(products)
        assert products == [of_subset[tuple(s + j for s, eg in zip(starts, e) for j in range(eg))]
                            for e in vectors]
        for vec in space.generators:
            total = {}
            for i, c in vec.items():
                for e, w in products[i].items():
                    total[e] = total.get(e, 0) + c * w
            assert all(w == 0 if p is None else w % p == 0 for w in total.values())
            # its keys are c + e_g for one complement vector c and distinct groups g
            keys = [vectors[i] for i in vec]
            assert len(keys) >= 2
            c = tuple(map(min, *keys))
            assert sum(c) == a - 1
            circuit = [g for g in range(sigma.t) if any(e[g] > c[g] for e in keys)]
            assert len(circuit) == len(vec)
            rank = gauss_rank([vs[g] for g in circuit], p)
            assert rank == len(circuit) - 1  # dependent, and minimally so:
            for g in circuit:
                assert gauss_rank([vs[h] for h in circuit if h != g], p) == rank


@pytest.mark.parametrize("p", [None, 2, 3, 101])
def test_distinct_product_b1_matches_the_copy_level_reference_and_the_recursion(p):
    rng = random.Random(31 + (p or 0))
    folds = 0
    for _ in range(100):
        k = rng.randint(1, 4)
        raw = [(tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(1, 4))
               for _ in range(rng.randint(1, 4))]
        try:
            sigma = normalize(raw, k, p)
        except ValueError:  # every form vanishes (mod p)
            continue
        if sigma.n > 9:
            continue
        for a in range(1, sigma.n):
            b1 = b1_via_circuits(sigma, a)
            reference = relation_space_by_circuits(sigma, a)
            assert b1 == reference.ambient_dim - reference.rank, (sigma, a)
            assert b1 == compute_betti(sigma, a, "recursion").b[0], (sigma, a)
            folds += 1
    assert folds >= 250


# k3_n24_g5 of the betti_multiplicity bench suite
K3_N24_G5 = {"k": 3, "forms": [
    {"coeffs": ["8", "1", "-2"], "mult": 6}, {"coeffs": ["-1", "-6", "5"], "mult": 4},
    {"coeffs": ["9", "2", "-3"], "mult": 6}, {"coeffs": ["-7", "-5", "5"], "mult": 3},
    {"coeffs": ["2", "1", "1"], "mult": 5}]}


def test_a_small_fold_of_heavy_forms_verifies_quickly():
    # fold 3 relates 35 distinct products over 15 distinct supports (the
    # complement vectors of sum 2); the C(24, 2) = 276 supports of copies,
    # every circuit with every choice of divided-out copies, were 469,599 vectors
    clear_memos()
    start = time.perf_counter()
    report = run("verify", parse_instance(json.dumps(K3_N24_G5)), [3])
    assert time.perf_counter() - start < 3.0
    (fold,) = report.data["results"]
    assert report.ok and fold["verdict"] == "agree" and fold["methods"]["circuit_b1"] == 10


def test_b1_via_circuits_values(example_4_3, example_2_5):
    assert b1_via_circuits(example_4_3, 3) == 3 - 0 == 3  # three distinct products, no relation
    assert b1_via_circuits(example_2_5, 4) == 14 == betti_tutte(example_2_5, 4).b[0]
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert b1_via_circuits(generic, 3) == 4


def test_relation_space_fold_range(example_4_3):
    with pytest.raises(ValueError):
        relation_space(example_4_3, 5)  # a = n has no relation space


def test_relation_ambient_guardrail():
    # 25 single lines have C(25, 12) distinct products at fold 12
    wide = normalize([((1, i), 1) for i in range(25)], 2)
    with pytest.raises(OracleLimitError, match="ambient"):
        relation_space(wide, 12)
    # copies collapse: fold 12 of k3_n24_g5 relates 600 products, not C(24, 12)
    instance = parse_instance(json.dumps(K3_N24_G5))
    heavy = normalize(instance.forms, instance.k, instance.p)
    space = relation_space(heavy, 12)
    assert space.ambient_dim == 600
    assert space.ambient_dim - space.rank == compute_betti(heavy, 12, "recursion").b[0] == 91
    # one support, 1,200 groups deep: the walk neither recurses per group nor
    # steps through every group for each key
    conic = normalize([((1, t, t * t), 1) for t in range(1200)], 3)
    assert conic.t == 1200
    start = time.perf_counter()
    assert b1_via_circuits(conic, 1) == 3
    assert time.perf_counter() - start < 2.0


def test_hilbert_cell_guardrail(example_2_5, monkeypatch):
    monkeypatch.setattr(oracle, "CELL_LIMIT", 10)
    with pytest.raises(OracleLimitError, match="cells"):
        hilbert_function(example_2_5, 3, 4)
    monkeypatch.setattr(oracle, "CELL_LIMIT", 5_000_000)
    assert hilbert_function(example_2_5, 3, 3) == 10


def test_hf_report_serialization(example_4_3):
    report = hf_report(example_4_3, 3, range(3, 6))
    assert report.to_json_dict() == {"a": 3, "hf": {"3": 3, "4": 4, "5": 5}}


def test_monomial_basis_order():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomial_basis(3, 4)) == comb(6, 2)


def _monomial_basis_reference(k, d):
    """Descending lexicographic exponents: the first exponent d down to 0, each
    followed by the basis of the rest in k - 1 variables."""
    if k == 1:
        return ((d,),)
    return tuple((e0,) + rest for e0 in range(d, -1, -1) for rest in _monomial_basis_reference(k - 1, d - e0))


def test_monomial_basis_matches_the_recursive_reference_and_needs_no_depth():
    for k in range(1, 5):
        for d in range(6):
            assert monomial_basis(k, d) == _monomial_basis_reference(k, d), (k, d)
    # one variable per level would pass the interpreter's recursion limit
    basis = monomial_basis(1200, 1)
    assert len(basis) == 1200 and basis[0] == (1,) + (0,) * 1199 and basis[-1] == (0,) * 1199 + (1,)


def test_arrangement_relation_rank_matches_flats(rng):
    for _ in range(4):
        arrangement = make_random_arrangement(rng, 6)
        beta = sum(comb(size - 1, 2) for _, size in rank2_flats(arrangement))
        assert relation_space(arrangement, 4).rank == beta


def _small(collection, inert):
    """At most five forms, in at most three variables, the last one inert
    when ``inert``: the plain reference matrix stays small."""
    k, raw = collection
    k = min(k, 3 - inert)
    out, n = [], 0
    for coeffs, mult in raw:
        mult = min(mult, 5 - n)
        if mult < 1:
            break
        out.append((coeffs[:k] + (0,) * inert, mult))
        n += mult
    return out, k + inert


@pytest.mark.parametrize("p", [None, 3, 101])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(collection=raw_collections, inert=st.booleans())
def test_hilbert_function_matches_plain_matrix(p, collection, inert):
    # hf_report passes the collection as given, so an inert variable stays
    raw, k = _small(collection, inert)
    assume(any(any(c) for c, _ in raw))
    sigma = normalize(raw, k, p)
    for a in range(1, sigma.n + 1):
        assert fold_generators(sigma, a) == distinct_products_reference(sigma, a)
        values = {}  # every degree of one climb to the top
        hilbert_function(sigma, a, a + k + 1, values)
        assert sorted(values) == list(range(a, a + k + 2))
        for d in range(a, a + k + 2):
            expected = hilbert_function_reference(sigma, a, d)
            assert hilbert_function(sigma, a, d) == expected == values[d]


def refusal(rows, cols, limit):
    return "Hilbert matrix would have %d x %d cells; limit is %d" % (rows, cols, limit)


def test_guard_names_the_first_degree_over_the_limit(example_2_5, monkeypatch):
    # a = 4: 25 distinct products, not C(7, 4) = 35, as the doubled form
    # enters each at most twice; degree 4 has 25 x 15 cells, degree 5 75 x 21
    products = len(fold_generators(example_2_5, 4))
    assert products == 25
    monkeypatch.setattr(oracle, "CELL_LIMIT", 1000)
    assert hilbert_function(example_2_5, 4, 4) == 14
    with pytest.raises(OracleLimitError) as exc:
        betti_from_hilbert(example_2_5, 4)
    assert str(exc.value) == refusal(products * 3, 21, 1000)
    with pytest.raises(OracleLimitError) as exc:
        hf_report(example_2_5, 4, range(6, 8))
    assert str(exc.value) == refusal(products * 6, 28, 1000)


def test_guard_still_applies_after_a_full_degree(example_2_5, monkeypatch):
    # a = 1 <= d_1: degree 1 is full, yet degree 2 (6 products x 3 monomials
    # by 6 columns) is refused
    monkeypatch.setattr(oracle, "CELL_LIMIT", 50)
    assert hilbert_function(example_2_5, 1, 1) == 3
    with pytest.raises(OracleLimitError) as exc:
        betti_from_hilbert(example_2_5, 1)
    assert str(exc.value) == refusal(len(fold_generators(example_2_5, 1)) * 3, 6, 50) == refusal(18, 6, 50)


def count_echelons(monkeypatch):
    """The echelons the oracle builds from now on, one per degree."""
    built = []

    class Counted(oracle.SparseIntEchelon):
        def __init__(self, p=None):
            built.append(self)
            super().__init__(p)

    monkeypatch.setattr(oracle, "SparseIntEchelon", Counted)
    return built


def test_full_degree_stops_the_hilbert_calls(example_2_5, monkeypatch):
    # d_1 = 3 for Example 2.5, so I_3 is the maximal-ideal power m^3: the
    # climb stops at degree 3 (dim S_3 = 10); at a = 4 no degree up to 6 is full
    built = count_echelons(monkeypatch)
    assert betti_from_hilbert(example_2_5, 3) == betti_maximal_power(3, 3)
    assert [ech.rank for ech in built] == [10]
    built.clear()
    assert betti_from_hilbert(example_2_5, 4).b == (14, 22, 9)
    assert [ech.rank for ech in built] == [14, 20, 27]


def test_each_degree_is_echelonized_once(example_2_5, monkeypatch):
    # one climb to the top degree serves the lower ones; a call per degree
    # would rebuild degree 4 three times and degree 5 twice (6 echelons)
    built = count_echelons(monkeypatch)
    betti_from_hilbert(example_2_5, 4)
    assert len(built) == 3
    built.clear()
    assert hf_report(example_2_5, 4, range(4, 7)).values == {4: 14, 5: 20, 6: 27}
    assert len(built) == 3


def test_hf_report_reads_the_degrees_once(example_2_5):
    # a range is read by index, so an empty one climbs nowhere
    assert hf_report(example_2_5, 4, range(4, 4)).values == {}


def test_hf_report_sizes_an_ascending_range_by_bisection(monkeypatch):
    # the limits grow with d, so the bisection's checks cover every degree
    # of the range; checking each degree again would count products 10^4 times
    sigma = normalize([((1,), 2)], 1)
    counted = []
    product_count = oracle._product_count

    def count(*args):
        counted.append(args)
        return product_count(*args)

    monkeypatch.setattr(oracle, "_product_count", count)
    assert hf_report(sigma, 1, range(1, 10**4)).values == dict.fromkeys(range(1, 10**4), 1)
    assert len(counted) <= 40


def test_one_variable_counts_the_climb_against_the_cell_limit(monkeypatch):
    # every degree of k = 1 has one column, so no degree passes the cell
    # limit: the climb's values are counted against it, and a long range is
    # refused at the same degree as a range that holds that degree alone
    sigma = normalize([((1,), 2)], 1)
    monkeypatch.setattr(oracle, "CELL_LIMIT", 10)
    assert hf_report(sigma, 1, range(1, 11)).values == dict.fromkeys(range(1, 11), 1)
    for degrees in (range(1, 10**8), range(11, 12)):
        with pytest.raises(OracleLimitError) as exc:
            hf_report(sigma, 1, degrees)
        assert str(exc.value) == "Hilbert climb from degree 1 to 11 would hold 11 values; limit is 10"
    with pytest.raises(OracleLimitError):
        hilbert_function(sigma, 2, 10**8)


def test_a_heavy_form_climbs_without_a_monomial_table():
    # fold 1500 of (x1^1500, x1 + x2): the keys are arithmetic, so no degree
    # below the fold leaves a basis or a shift table behind
    clear_memos()
    heavy = normalize([((1, 0), 1500), ((1, 1), 1)], 2)
    assert hf_report(heavy, 1500, range(1500, 1502)).values == {1500: 2, 1501: 3}
    assert forms.memo_entries() == 0


@pytest.mark.parametrize("p", [None, 101])
def test_six_variables_match_the_references(p):
    # keys of k = 6 span five base-(top + 1) digits; small_collections stops at k = 4
    raw = [((1, 0, 0, 0, 0, 0), 2), ((0, 1, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 0, -1), 1),
           ((0, 0, 0, 1, 2, 0), 1), ((1, 1, 1, 1, 1, 1), 1), ((2, -1, 0, 1, 0, 1), 1)]
    sigma = normalize(raw, 6, p)
    for a in range(1, sigma.n + 1):
        assert fold_generators(sigma, a) == distinct_products_reference(sigma, a)
    for a, d in [(1, 3), (2, 4), (5, 6), (6, 8), (7, 8)]:
        values = {}
        assert hilbert_function(sigma, a, d, values) == hilbert_function_reference(sigma, a, d)
        assert values == {e: hilbert_function_reference(sigma, a, e) for e in range(a, d + 1)}


def seeded_collections(seed, p, count, deficient=False):
    """``count`` random collections over Q or GF(p): k <= 4, n <= 7,
    multiplicities <= 3, mostly 1.  Each form is an integer combination, with
    coefficients in +-3, of r vectors: the unit vectors (r = k), or when
    ``deficient`` r < k random ones, so that the rank stays below k."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        k = rng.randint(2 if deficient else 1, 4)
        if deficient:
            span = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, k - 1))]
        else:
            span = [[int(i == j) for j in range(k)] for i in range(k)]
        raw, left = [], rng.randint(2, 7)
        while left:
            m = min(left, rng.choice((1, 1, 1, 2, 3)))
            c = [rng.randint(-3, 3) for _ in span]
            raw.append((tuple(sum(cj * v[i] for cj, v in zip(c, span)) for i in range(k)), m))
            left -= m
        if any(any(x % p if p else x for x in coeffs) for coeffs, _ in raw):
            out.append(normalize(raw, k, p))
    return out


FIELDS = [None, 3, 101]


@pytest.mark.parametrize("p", FIELDS)
def test_basis_coordinates_send_a_basis_to_unit_vectors(p):
    # the basis is the groups that raise the rank in canonical order, found
    # here by gauss_rank; every other group must come back as its coordinates
    for deficient in (False, True):
        for sigma in seeded_collections(1, p, 40, deficient):
            basis = []
            for coeffs, _ in sigma.groups:
                if gauss_rank(basis + [coeffs], p) > len(basis):
                    basis.append(coeffs)
            k, r = sigma.k, len(basis)
            moved = basis_coordinates(sigma)
            assert moved.k == k and moved.p == p
            assert r == full_rank(sigma) and (r < k or not deficient)
            new = dict(moved.groups)
            mult = dict(sigma.groups)
            for i, b in enumerate(basis):
                assert new[tuple(int(j == i) for j in range(k))] == mult[b]
            images = []
            for coords, m in moved.groups:
                assert not any(coords[r:])  # no form reaches the completion
                form = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(k)]
                images.append((canonical_coeffs(form, p), m))
            assert sorted(images) == sorted(sigma.groups)


@st.composite
def spanned_collections(draw):
    """(k, raw forms): k <= 5, each form a combination of 1..k drawn vectors,
    so the rank is often below k, and some forms drawn again, up to a
    scale, so that groups merge."""
    k = draw(st.integers(1, 5))
    span = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=k))
    combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(span)), min_size=1, max_size=8))
    raw = [(tuple(sum(c * v[i] for c, v in zip(combo, span)) for i in range(k)), draw(st.integers(1, 3)))
           for combo in combos]
    for i, scale in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.sampled_from((1, -1, 2))),
                                  max_size=3)):
        raw.append((tuple(scale * x for x in raw[i][0]), 1))
    return k, raw


@pytest.mark.parametrize("p", FIELDS)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(collection=spanned_collections())
def test_basis_coordinates_match_one_dependency_per_group(p, collection):
    # each dependent group's coordinates are the kernel row that leads at its
    # own reversed unit column; the reference echelonizes each dependency anew
    k, raw = collection
    assume(any(any(x % p if p else x for x in coeffs) for coeffs, _ in raw))
    sigma = normalize(raw, k, p)
    assert basis_coordinates(sigma) == basis_coordinates_by_circuits(sigma)


def test_basis_coordinates_add_each_group_once(monkeypatch):
    added = count_adds(monkeypatch, forms)
    for p in FIELDS:
        for deficient in (False, True):
            for sigma in seeded_collections(4, p, 20, deficient):
                added.clear()
                basis_coordinates(sigma)
                assert len(added) == sigma.t, sigma


@pytest.mark.parametrize("p", FIELDS)
def test_basis_coordinates_keep_every_betti_table(p):
    # betti_from_hilbert essentializes first, so it climbs full-rank collections only
    for sigma in seeded_collections(2, p, 20):
        folds = range(1, sigma.n + 1)
        moved = [betti_from_hilbert(sigma, a) for a in folds]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "basis_coordinates", lambda sigma: sigma)
            assert moved == [betti_from_hilbert(sigma, a) for a in folds], sigma


@pytest.mark.parametrize("p", FIELDS)
def test_basis_coordinates_keep_the_hilbert_function_below_full_rank(p):
    # hf_report climbs in all k variables, so the unit vectors that complete
    # a basis of rank r < k must keep the k - r inert variables
    for sigma in seeded_collections(3, p, 20, deficient=True):
        assert full_rank(sigma) < sigma.k
        for a in range(1, sigma.n + 1):
            degrees = range(a, a + sigma.k + 1)
            moved = hf_report(sigma, a, degrees)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "basis_coordinates", lambda sigma: sigma)
                assert moved == hf_report(sigma, a, degrees), (sigma, a)
            assert moved.values[a + 1] == hilbert_function_reference(sigma, a, a + 1), (sigma, a)


def test_random_k4_n9_collection_agrees_with_the_recursion_on_every_fold():
    # random.Random(9), coefficients in +-9, k = 4, n = 9, the first form
    # doubled: over Q its climb in its own coordinates took seconds, with
    # pivot rows of hundreds of bits
    raw = [((5, 2, -1, -5), 2), ((-4, -9, 1, 7), 1), ((5, -7, 1, 8), 1),
           ((-8, 3, -4, 5), 1), ((4, -4, -4, -2), 1), ((-8, -6, -5, 7), 1),
           ((9, -7, 3, -6), 1), ((0, -3, -2, 4), 1)]
    sigma = normalize(raw, 4)
    for a in range(1, 10):
        assert betti_from_hilbert(sigma, a) == compute_betti(sigma, a, "recursion"), a
