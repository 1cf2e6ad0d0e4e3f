"""Shared fixtures: the worked examples as collections, random generators
(Hypothesis strategies among them), the naive reference eliminator, the
plain-matrix Hilbert function, the reset that empties the memo tables, a
counter of echelon rows, and a terminal-summary hook that prints one line
per acceptance criterion."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from foldbetti import normalize
from foldbetti.forms import clear_memos  # the store's one reset, for the tests
from reference import monomial_basis


def gauss_rank(rows, p=None):
    """Rank by naive division-based elimination: the independent reference.

    Over Q (``p=None``) entries become ``Fraction``s; over GF(p) they are
    residues and division multiplies by the modular inverse.
    """
    if p is None:
        rows = [[Fraction(x) for x in r] for r in rows]
    else:
        rows = [[x % p for x in r] for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        for i in range(r + 1, nr):
            if rows[i][c] == 0:
                continue
            f = rows[i][c] * inv
            rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
            if p is not None:
                rows[i] = [x % p for x in rows[i]]
        r += 1
        if r == nr:
            break
    return r


def count_adds(monkeypatch, module):
    """The rows that ``module``'s echelons add from now on, in order."""
    added = []

    class Counted(module.SparseIntEchelon):
        def add(self, row):
            added.append(row)
            return super().add(row)

    monkeypatch.setattr(module, "SparseIntEchelon", Counted)
    return added


def fold_products_reference(sigma, a):
    """The C(n, a) fold products in ``combinations`` order, each multiplied
    out anew as a dict exponent -> coefficient (mod p over GF(p))."""
    cols = sigma.expanded_columns()
    out = []
    for subset in combinations(range(sigma.n), a):
        poly = {(0,) * sigma.k: 1}
        for j in subset:
            nxt = {}
            for exp, c in poly.items():
                for i, f in enumerate(cols[j]):
                    e2 = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                    nxt[e2] = nxt.get(e2, 0) + c * f
            poly = {e: c if sigma.p is None else c % sigma.p for e, c in nxt.items()}
            poly = {e: c for e, c in poly.items() if c}
        out.append(poly)
    return out


def distinct_products_reference(sigma, a):
    """:func:`fold_products_reference` without repeats, each polynomial
    where it first occurs."""
    seen, out = set(), []
    for poly in fold_products_reference(sigma, a):
        key = tuple(sorted(poly.items()))
        if key not in seen:
            seen.add(key)
            out.append(poly)
    return out


def hilbert_function_reference(sigma, a, d):
    """HF(I_a, d) as the rank of the plain matrix: every fold product times
    every monomial of degree d - a, all C(n, a) * dim S_{d-a} rows, in the
    degree-d basis, ranked by :func:`gauss_rank`."""
    basis = monomial_basis(sigma.k, d)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for g in fold_products_reference(sigma, a):
        for mu in monomial_basis(sigma.k, d - a):
            row = [0] * len(basis)
            for e, c in g.items():
                row[index[tuple(x + y for x, y in zip(e, mu))]] = c
            rows.append(row)
    return gauss_rank(rows, sigma.p)


@pytest.fixture
def example_2_5():
    """Seven forms in k=3: (x1, x1, x2, x3, x1-x3, x2+x3, x1+2x2+5x3)."""
    raw = [
        ((1, 0, 0), 1),
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
        ((1, 0, -1), 1),
        ((0, 1, 1), 1),
        ((1, 2, 5), 1),
    ]
    return normalize(raw, 3)


@pytest.fixture
def example_4_3():
    """(x1, x1, x1, x2, x2) in k=2."""
    return normalize([((1, 0), 3), ((0, 1), 2)], 2)


@pytest.fixture
def example_3_6():
    """The eight-line arrangement with two 4-fold points on the line x1."""
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


def make_random_collection(rng, max_k=3, max_n=8, coeff_bound=3, max_mult=3):
    """Random collection: k <= max_k, total multiplicity <= max_n."""
    k = rng.randint(1, max_k)
    while True:
        raw = []
        total = 0
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(k))
            mult = rng.randint(1, max_mult)
            mult = min(mult, max_n - total)
            if mult < 1:
                break
            raw.append((coeffs, mult))
            total += mult
        try:
            return normalize(raw, k)
        except ValueError:
            continue


def make_random_arrangement(rng, n, k=3, coeff_bound=3, require_rank=3):
    """Random simple arrangement: n pairwise non-proportional forms."""
    while True:
        raw = []
        for _ in range(4 * n):
            coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(k))
            raw.append((coeffs, 1))
        try:
            sigma = normalize(raw, k)
        except ValueError:
            continue
        if sigma.t < n:
            continue
        picked = [(coeffs, 1) for coeffs, _ in rng.sample(list(sigma.groups), n)]
        candidate = normalize(picked, k)
        from foldbetti.matroid import full_rank

        if candidate.t == n and full_rank(candidate) == require_rank:
            return candidate


# k <= 5, 2-9 groups, multiplicities <= 3, coefficients in +-2 so that
# dependencies are common
raw_collections = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.tuples(st.tuples(*[st.integers(-2, 2)] * k), st.integers(1, 3)),
            min_size=2,
            max_size=9,
        ).filter(lambda raw: any(any(c) for c, _ in raw)),
    )
)


@st.composite
def small_collections(draw):
    """(k, raw forms): k <= 4, n <= 8, multiplicities <= 3, coefficients in +-2."""
    k = draw(st.integers(1, 4))
    left = draw(st.integers(1, 8))
    raw = []
    while left:
        m = draw(st.integers(1, min(left, 3)))
        raw.append((draw(st.tuples(*[st.integers(-2, 2)] * k)), m))
        left -= m
    assume(any(any(c) for c, _ in raw))
    return k, raw


@pytest.fixture
def random_collection():
    return make_random_collection


@pytest.fixture
def random_arrangement():
    return make_random_arrangement


@pytest.fixture
def rng():
    return random.Random(20250810)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status, mark in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::test_criterion_")[-1]
                number = name.split("_")[0]
                label = name[len(number) + 1 :]
                lines[int(number)] = "criterion %2d %-38s %s" % (int(number), label, mark)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
