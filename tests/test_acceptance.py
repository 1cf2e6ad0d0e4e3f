"""Acceptance criteria, one test per criterion.

Every check is exact integer equality.  The conftest terminal-summary hook
prints one PASS/FAIL line per criterion; run as

    pytest tests/test_acceptance.py -v
"""

import random
import time
from fractions import Fraction
from math import comb

from foldbetti import (
    b1_via_circuits,
    betti_cm_generic,
    betti_from_hilbert,
    betti_recursion,
    betti_tutte,
    essentialize,
    height_of_fold_ideal,
    herzog_kuhl_residuals,
    hilbert_function,
    normalize,
    relation_space,
    tutte_polynomial,
    tutte_shifted_coeffs,
)
from foldbetti.betti import is_generic

from conftest import make_random_arrangement, make_random_collection
from reference import (
    b1_k3_veronese,
    b1_singular_line_arrangement,
    b1_veronese,
    betti_nminus2_arrangement,
    relation_space_by_circuits,
)

SEED = 0xF01DBE77


def example_2_5():
    raw = [((1, 0, 0), 2), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 0, -1), 1), ((0, 1, 1), 1), ((1, 2, 5), 1)]
    return normalize(raw, 3)


def example_3_6():
    raw = [
        ((1, 0, 0), 1),
        ((1, 0, -1), 1),
        ((1, 0, -2), 1),
        ((1, 0, -3), 1),
        ((0, 1, 0), 1),
        ((1, -1, 0), 1),
        ((1, -2, 0), 1),
        ((1, 1, -2), 1),
    ]
    return normalize(raw, 3)


def test_criterion_01_example_2_5_b1_all_methods():
    sigma = example_2_5()
    expected = [3, 6, 10, 14, 14, 6, 1]
    assert [betti_tutte(sigma, a).b[0] for a in range(1, 8)] == expected
    assert [betti_recursion(sigma, a).b[0] for a in range(1, 8)] == expected
    assert [hilbert_function(sigma, a, a) for a in range(1, 8)] == expected
    assert [b1_via_circuits(sigma, a) for a in range(1, 7)] == expected[:6]


def test_criterion_02_tutte_polynomial_golden():
    shifted = tutte_shifted_coeffs(tutte_polynomial(example_2_5()))
    assert shifted == {
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


def test_criterion_03_example_2_5_full_tables():
    sigma = example_2_5()
    for a, expected in ((4, (14, 22, 9)), (5, (14, 21, 8)), (6, (6, 5, 0))):
        assert betti_recursion(sigma, a).b == expected
        assert betti_from_hilbert(sigma, a).b == expected


def test_criterion_04_example_4_3_golden():
    sigma = normalize([((1, 0), 3), ((0, 1), 2)], 2)
    space = relation_space(sigma, 3)
    # the distinct products x^3, x^2y, xy^2 admit no relation; the reference
    # relates the C(5, 2) = 10 products of copies, every circuit with every
    # divisor: 12 vectors of rank 7
    assert (space.ambient_dim, len(space.generators), space.rank) == (3, 0, 0)
    reference = relation_space_by_circuits(sigma, 3)
    assert (reference.ambient_dim, len(reference.generators), reference.rank) == (10, 12, 7)
    assert betti_recursion(sigma, 3).b == (3, 2)
    assert betti_from_hilbert(sigma, 3).b == (3, 2)
    assert hilbert_function(sigma, 3, 4) == 4
    assert hilbert_function(sigma, 3, 5) == 5
    assert hilbert_function(sigma, 4, 4) == 2
    assert hilbert_function(sigma, 4, 5) == 3


def test_criterion_05_example_3_6_and_replacement():
    sigma = example_3_6()
    assert b1_singular_line_arrangement(sigma) == 19
    assert betti_tutte(sigma, 5).b[0] == 19
    assert hilbert_function(sigma, 5, 5) == 19
    # a line through neither 4-fold point ([0:0:1] and [0:1:0])
    raw = [(c, m) for c, m in sigma.groups if c != (1, 1, -2)]
    raw.append(((0, 1, -1), 1))
    replaced = normalize(raw, 3)
    assert b1_singular_line_arrangement(replaced) == 19
    assert betti_tutte(replaced, 5).b[0] == 19
    assert hilbert_function(replaced, 5, 5) == 19


def _suite_instances(count):
    rng = random.Random(SEED)
    return [make_random_collection(rng) for _ in range(count)]


def test_criterion_06_method_agreement_200_instances():
    started = time.time()
    for sigma in _suite_instances(200):
        for a in range(1, sigma.n + 1):
            rec = betti_recursion(sigma, a)
            assert rec == betti_from_hilbert(sigma, a), (sigma, a)
            b1 = betti_tutte(sigma, a).b[0]
            assert b1 == rec.b[0], (sigma, a)
            assert b1 == hilbert_function(sigma, a, a), (sigma, a)
            if a < sigma.n:
                assert b1 == b1_via_circuits(sigma, a), (sigma, a)
    assert time.time() - started <= 90


def test_criterion_07_structural_laws():
    rng = random.Random(SEED + 1)
    for sigma in _suite_instances(200):
        k_eff = essentialize(sigma).k
        for a in range(1, sigma.n + 1):
            table = betti_recursion(sigma, a)
            height = height_of_fold_ideal(sigma, a)
            assert all(r == 0 for r in herzog_kuhl_residuals(table, a, height)), (sigma, a)
            assert table.pdim == min(k_eff, sigma.n - a + 1), (sigma, a)
            seen_zero = False
            for v in table.b:
                assert not (seen_zero and v != 0), (sigma, a)
                seen_zero = seen_zero or v == 0
    # scaling any form changes no output
    for sigma in _suite_instances(30):
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        gi = rng.randrange(sigma.t)
        raw = [
            (tuple(scale * x for x in c) if i == gi else c, m)
            for i, (c, m) in enumerate(sigma.groups)
        ]
        scaled = normalize(raw, sigma.k)
        assert scaled == sigma
        for a in range(1, sigma.n + 1):
            assert betti_recursion(scaled, a) == betti_recursion(sigma, a)


def test_criterion_08_closed_form_consistency():
    rng = random.Random(SEED + 2)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    checked = 0
    while checked < 50:
        m3 = rng.randint(1, 3)
        m2 = rng.randint(m3, m3 + 3)
        m1 = rng.randint(max(m2, m3 + 2), m3 + 6)
        lo, hi = m3 + 1, min(m2 + m3, m1 - 1)
        if lo > hi:
            continue
        a = rng.randint(lo, hi)
        sigma = normalize([(e1, m1), (e2, m2), (e3, m3)], 3)
        assert b1_k3_veronese(m1, m2, m3, a) == hilbert_function(sigma, a, a), (m1, m2, m3, a)
        checked += 1

    checked = 0
    while checked < 50:
        k = rng.randint(2, 3)
        caps = sorted((rng.randint(1, 4) for _ in range(k)), reverse=True)
        a = rng.randint(caps[0], sum(caps))
        basis = (e1, e2, e3)[:k]
        raw = [(tuple(v[:k]), m) for v, m in zip(basis, caps)]
        sigma = normalize(raw, k)
        assert b1_veronese(tuple(caps), k, a) == hilbert_function(sigma, a, a), (caps, a)
        checked += 1


def test_criterion_09_star_configurations():
    rng = random.Random(SEED + 3)
    arrangements = []
    for n in range(3, 8):
        arrangements.append(normalize([((1, t, t * t), 1) for t in range(n)], 3))
    tries = 0
    while len(arrangements) < 10 and tries < 200:
        tries += 1
        candidate = make_random_arrangement(rng, rng.randint(4, 7))
        if is_generic(candidate, 3):
            arrangements.append(candidate)
    assert len(arrangements) >= 10
    for sigma in arrangements:
        n = sigma.n
        for a in range(n - 2, n + 1):
            table = betti_cm_generic(sigma, a)
            assert table == betti_recursion(sigma, a), (sigma, a)
            assert table == betti_from_hilbert(sigma, a), (sigma, a)
            p = n - a + 1
            for i in range(1, p + 1):
                assert table.b[i - 1] == comb(n, i + a - 1) * comb(i + a - 2, a - 1)
            assert all(v == 0 for v in table.b[p:])


def test_criterion_10_nminus2_arrangements():
    rng = random.Random(SEED + 4)
    for _ in range(20):
        n = rng.randint(4, 8)
        sigma = make_random_arrangement(rng, n)
        expected = betti_from_hilbert(sigma, n - 2)
        assert betti_nminus2_arrangement(sigma) == expected, sigma
