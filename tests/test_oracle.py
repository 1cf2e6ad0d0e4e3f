"""Hilbert-function and circuit-relation oracles, guardrails included."""

from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldbetti import (
    b1_via_circuits,
    betti_from_hilbert,
    betti_maximal_power,
    betti_tutte,
    fold_generators,
    hilbert_function,
    normalize,
    relation_space,
)
from foldbetti import oracle
from foldbetti.oracle import OracleLimitError, hf_report, monomial_basis

from conftest import (
    fold_products_reference,
    gauss_rank,
    hilbert_function_reference,
    make_random_arrangement,
    make_random_collection,
    raw_collections,
)
from reference import rank2_flats


def distinct_polys(polys):
    return {tuple(sorted(p.items())) for p in polys}


def test_fold_generators_small(example_4_3):
    gens = fold_generators(example_4_3, 3)
    assert len(gens) == comb(5, 3)
    assert distinct_polys(gens) == {(((3, 0), 1),), (((2, 1), 1),), (((1, 2), 1),)}


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
    assert space.ambient_dim == 10
    assert len(space.generators) == 12
    assert space.rank == 7
    dense = [[vec.get(c, 0) for c in range(space.ambient_dim)] for vec in space.generators]
    assert gauss_rank(dense) == 7


def test_relation_space_simple_high_fold():
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert relation_space(generic, 3).rank == 0


def test_relation_space_nminus2(example_3_6):
    space = relation_space(example_3_6, 6)
    beta = sum(comb(size - 1, 2) for _, size in rank2_flats(example_3_6))
    assert space.rank == beta


def test_relation_generator_counts(rng):
    from foldbetti import circuits_up_to

    for _ in range(8):
        sigma = make_random_collection(rng, max_n=6)
        n = sigma.n
        if n < 2:
            continue
        for a in range(1, n):
            space = relation_space(sigma, a)
            expected = sum(
                comb(n - len(c), n - len(c) - a + 1)
                for c in circuits_up_to(sigma, n - a + 1)
            )
            assert len(space.generators) == expected


def test_b1_via_circuits_values(example_4_3, example_2_5):
    assert b1_via_circuits(example_4_3, 3) == comb(5, 2) - 7 == 3
    assert b1_via_circuits(example_2_5, 4) == 14 == betti_tutte(example_2_5, 4).b[0]
    generic = normalize([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)], 3)
    assert b1_via_circuits(generic, 3) == 4


def test_relation_space_fold_range(example_4_3):
    with pytest.raises(ValueError):
        relation_space(example_4_3, 5)  # a = n has no relation space


def test_relation_ambient_guardrail():
    wide = normalize([((1, i), 1) for i in range(25)], 2)
    with pytest.raises(OracleLimitError, match="ambient"):
        relation_space(wide, 12)


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
        assert fold_generators(sigma, a) == fold_products_reference(sigma, a)
        values = {}  # every degree of one climb to the top
        hilbert_function(sigma, a, a + k + 1, values)
        assert sorted(values) == list(range(a, a + k + 2))
        for d in range(a, a + k + 2):
            expected = hilbert_function_reference(sigma, a, d)
            assert hilbert_function(sigma, a, d) == expected == values[d]


def test_guard_names_the_first_degree_over_the_limit(example_2_5, monkeypatch):
    # a = 4: degree 4 has 35 x 15 plain cells, degree 5 has 105 x 21
    monkeypatch.setattr(oracle, "CELL_LIMIT", 1000)
    assert hilbert_function(example_2_5, 4, 4) == 14
    with pytest.raises(OracleLimitError) as exc:
        betti_from_hilbert(example_2_5, 4)
    assert str(exc.value) == "Hilbert matrix would have 105 x 21 cells; limit is 1000"
    with pytest.raises(OracleLimitError) as exc:
        hf_report(example_2_5, 4, range(6, 8))
    assert str(exc.value) == "Hilbert matrix would have 210 x 28 cells; limit is 1000"


def test_guard_still_applies_after_a_full_degree(example_2_5, monkeypatch):
    # a = 1 <= d_1: degree 1 is full, yet degree 2 (21 x 6 plain cells) is refused
    monkeypatch.setattr(oracle, "CELL_LIMIT", 50)
    assert hilbert_function(example_2_5, 1, 1) == 3
    with pytest.raises(OracleLimitError) as exc:
        betti_from_hilbert(example_2_5, 1)
    assert str(exc.value) == "Hilbert matrix would have 21 x 6 cells; limit is 50"


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
    # a generator is exhausted by the cell checks if it is read twice
    report = hf_report(example_2_5, 4, (d for d in range(4, 7)))
    assert report.values == {4: 14, 5: 20, 6: 27}
    report = hf_report(example_2_5, 4, [6, 4])
    assert report.values == {6: 27, 4: 14}
    assert report.to_json_dict() == {"a": 4, "hf": {"4": 14, "6": 27}}
    assert hf_report(example_2_5, 4, []).values == {}
