"""The paper's special closed forms and brute-force cross-checks.

None of these runs in the package: the CLI and the recursion dispatcher
never call them.  Tests compare them against the recursion and the oracles,
so they stay here as independent references:

- :func:`betti_nminus2_arrangement`, the fold n-2 table of a simple rank
  >= 3 arrangement read off its rank-2 flats;
- :func:`b1_veronese` and :func:`b1_k3_veronese`, generator counts of
  coordinate collections with multiplicity;
- :func:`b1_singular_line_arrangement`, b_1 of a line arrangement whose
  points of maximal multiplicity are collinear;
- :func:`betti_k3_block`, rank-3 block elimination, a second
  deletion-contraction engine beside ``betti_recursion``;
- :func:`rank2_flats`, the rank-2 level of the flat enumerator with group
  indices and sizes;
- :func:`tutte_polynomial_subset_sum`, the subset-sum definition of the
  Tutte polynomial;
- :func:`hamming_weights_crapo`, the generalized Hamming weights read off
  the Tutte polynomial;
- :class:`CrossMultipliedEchelon`, the sparse echelon whose update scales
  the row by the whole pivot, beside ``SparseIntEchelon``'s gcd-reduced one;
- :func:`monomial_basis`, the exponent tuples of one degree in descending
  lexicographic order, which index the plain Hilbert matrix of
  ``conftest.hilbert_function_reference`` beside the oracle's integer keys;
- :func:`circuits_up_to`, every circuit of at most a given size, by ranks
  of candidate column sets;
- :func:`circuit_dependency`, the one dependency of columns of nullity 1
  from an echelon of its own;
- :func:`relation_space_by_circuits`, the circuit relation space from every
  circuit with every choice of divided-out columns, beside the oracle's
  fundamental circuits of each support;
- :func:`basis_coordinates_by_circuits`, the change of coordinates that
  makes a basis of the forms the first variables, with one
  :func:`circuit_dependency` per dependent group, beside
  ``forms.basis_coordinates``, which reads them all off one echelon.
"""

from itertools import combinations
from math import comb, gcd

from foldbetti.betti import BettiTable, _entry, _zero_table, betti_rank2
from foldbetti.exactlin import SparseIntEchelon, bareiss_rank
from foldbetti.forms import FormCollection, canonical_coeffs, contract, essentialize
from foldbetti.matroid import (
    TuttePoly,
    _flats,
    _multiplicity_layers,
    _sizes,
    full_rank,
    tutte_polynomial,
)
from foldbetti.oracle import RelationSpace


def _comb0(n, r):
    if n < 0 or r < 0:
        return 0
    return comb(n, r)


def betti_nminus2_arrangement(sigma: FormCollection) -> BettiTable:
    """Fold n-2 of a simple rank >= 3 arrangement, via rank-2 flats."""
    ess = essentialize(sigma)
    if any(m != 1 for m in ess.multiplicities):
        raise ValueError("arrangement must be simple (all multiplicities 1)")
    if ess.k < 3:
        raise ValueError("effective rank %d is below 3" % ess.k)
    n, k = ess.n, ess.k
    alpha = comb(n, 2)
    beta = sum(comb(size - 1, 2) for _, size in rank2_flats(ess))
    b = [alpha - beta, 2 * alpha - n - 2 * beta, alpha - n - beta + 1]
    b += [0] * (k - 3)
    return BettiTable(n - 2, k, tuple(b))


def b1_veronese(m, k: int, a: int, allow_any_fold: bool = False) -> int:
    """Generator count for coordinate collections (x_1 x m_1, ..., x_k x m_k).

    Inclusion-exclusion count of the degree-a monomials with per-variable
    caps m_i.  The closed form is usually quoted for a >= max(m); pass
    ``allow_any_fold`` to use it as a cross-check outside that range.
    """
    m = tuple(m)
    if len(m) != k or any(v < 1 for v in m):
        raise ValueError("need k positive caps")
    if not 1 <= a <= sum(m):
        raise ValueError("fold %d out of range 1..%d" % (a, sum(m)))
    if a < max(m) and not allow_any_fold:
        raise ValueError("fold %d below the largest cap %d" % (a, max(m)))
    total = 0
    for r in range(k + 1):
        for subset in combinations(range(k), r):
            shift = sum(m[i] + 1 for i in subset)
            total += (-1) ** r * _comb0(a + k - 1 - shift, k - 1)
    return total


def b1_k3_veronese(m1: int, m2: int, m3: int, a: int) -> int:
    """First Betti number of (x1 x m1, x2 x m2, x3 x m3) in the middle window."""
    if not (m1 >= m2 >= m3 >= 1):
        raise ValueError("caps must satisfy m1 >= m2 >= m3 >= 1")
    if m1 < m3 + 2:
        raise ValueError("need m1 >= m3 + 2")
    if not (m3 + 1 <= a <= m2 + m3 and a <= m1 - 1):
        raise ValueError("fold %d outside the window" % a)
    n = m1 + m2 + m3
    if a <= m2:
        return (m3 + 1) * (a + 1) - comb(m3 + 1, 2)
    return (
        (a + 1) * (n - m1 - a + 1)
        + (a - m2) * (m2 + 1)
        + comb(a - m2, 2)
        - comb(m3 + 1, 2)
    )


def b1_singular_line_arrangement(sigma: FormCollection) -> int:
    """b_1 at fold n-m+1 for a line arrangement whose m-fold points are collinear.

    m is the maximal number of concurrent lines and t counts the points
    achieving it; the hypothesis is that those points all lie on one line of
    the arrangement, checked via the rank-2 flats.
    """
    ess = essentialize(sigma)
    if any(m != 1 for m in ess.multiplicities):
        raise ValueError("arrangement must be simple (all multiplicities 1)")
    if ess.k != 3:
        raise ValueError("line arrangements live in effective rank 3")
    flats = rank2_flats(ess)
    m = flats[0][1]
    max_flats = [set(flat) for flat, size in flats if size == m]
    common = set.intersection(*max_flats)
    if not common:
        raise ValueError("modular points not collinear")
    t = len(max_flats)
    n = ess.n
    return comb(n - m + 3, 2) - t


def betti_k3_block(sigma: FormCollection, a: int) -> BettiTable:
    """Rank-3 block elimination: peel the pivot group with all its copies.

    Every contraction lands in rank 2 where the closed form applies, so one
    recursion on the pivot-free collection plus a sum of rank-2 tables gives
    the whole answer.  Folds that reach 0 contribute the unit ideal's (1,).
    """
    ess = essentialize(sigma)
    k, n = ess.k, ess.n
    if k > 3:
        raise ValueError("block elimination expects effective rank <= 3")
    if a > n:
        return _zero_table(a, k)
    if k <= 2:
        return betti_rank2(ess, a)
    m1 = ess.groups[0][1]
    contracted = contract(ess, 0)
    acc = [0, 0, 0]
    for j in range(min(m1, a)):
        fold = a - j
        if contracted is not None and fold <= contracted.n:
            tb = betti_rank2(contracted, fold)
            for i in range(1, 4):
                acc[i - 1] += _entry(tb, i) + _entry(tb, i - 1)
    if m1 >= a:
        acc[0] += 1
    else:
        rest = FormCollection(ess.k, ess.groups[1:], ess.p)
        tail = betti_k3_block(rest, a - m1)
        for i in range(1, 4):
            acc[i - 1] += _entry(tail, i)
    return BettiTable(a, 3, tuple(acc))


def rank2_flats(sigma: FormCollection):
    """Closed rank-2 sets of groups, with their size counted by multiplicity.

    Each flat is the full set of groups lying in the 2-dimensional span of
    some pair; returned as (sorted group-index tuple, size) ordered by
    decreasing size then index.
    """
    if full_rank(sigma) < 2:
        raise ValueError("effective rank must be at least 2")
    forms, levels = _flats(sigma)
    group_of = {coeffs: g for g, (coeffs, _) in enumerate(sigma.groups)}
    sizes = _sizes(levels[2], _multiplicity_layers(sigma, forms))
    sized = [
        (tuple(sorted(group_of[c] for i, c in enumerate(forms) if flat >> i & 1)), size)
        for flat, size in zip(levels[2], sizes)
    ]
    sized.sort(key=lambda fs: (-fs[1], fs[0]))
    return sized


def tutte_polynomial_subset_sum(sigma: FormCollection) -> TuttePoly:
    """The subset-sum definition, as an independent cross-check (n <= 16).

    Every subset, the whole set too, is ranked by ``conftest.gauss_rank``,
    not by the package's echelon, which ``tutte_polynomial`` uses to find
    its coloops.
    """
    from conftest import gauss_rank  # conftest imports this module

    n = sigma.n
    if n > 16:
        raise ValueError("subset-sum Tutte is limited to n <= 16")
    cols = sigma.expanded_columns()
    full = gauss_rank(cols, sigma.p)
    counts = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            r = gauss_rank([cols[i] for i in subset], sigma.p)
            key = (full - r, size - r)
            counts[key] = counts.get(key, 0) + 1
    out = {}
    for (ex, ey), mult in counts.items():
        # expand (x-1)^ex * (y-1)^ey
        for i in range(ex + 1):
            ci = comb(ex, i) * (-1) ** (ex - i)
            for j in range(ey + 1):
                ij = (i, j)
                v = out.get(ij, 0) + mult * ci * comb(ey, j) * (-1) ** (ey - j)
                if v:
                    out[ij] = v
                elif ij in out:
                    del out[ij]
    return TuttePoly(out)


def hamming_weights_crapo(sigma: FormCollection) -> tuple:
    """Generalized Hamming weights of the essentialized collection, from T.

    By Crapo's expansion T(x+1, y+1) = sum over column sets A of
    x^(k-r(A)) y^(|A|-r(A)), a sum without cancellation, so coefficient
    (i, j) is nonzero exactly when some set of corank i has j + k - i
    columns.  d_r is n minus the most columns of rank at most k - r.  No
    flat enumeration is involved.
    """
    ess = essentialize(sigma)
    k, n = ess.k, ess.n
    shifted = {}
    for (i, j), c in tutte_polynomial(ess).coeffs.items():
        for i2 in range(i + 1):
            for j2 in range(j + 1):
                shifted[(i2, j2)] = shifted.get((i2, j2), 0) + comb(i, i2) * comb(j, j2) * c
    support = [(i, j) for (i, j), c in shifted.items() if c]
    return tuple(n - max(j + k - i for i, j in support if i >= r) for r in range(1, k + 1))


class CrossMultipliedEchelon(SparseIntEchelon):
    """:class:`SparseIntEchelon` with the update ``pivot * row - entry * pivot_row``
    taken on the whole pivot and entry, not on them divided by their gcd."""

    def add(self, row) -> bool:
        p, pivot_rows = self.p, self.pivot_rows
        if p is None:
            row = {j: v for j, v in row.items() if v}
        else:
            row = {j: v % p for j, v in row.items() if v % p}
        while row:
            c = min(row)
            piv = pivot_rows.get(c)
            if piv is None:
                if p is None:
                    g = gcd(*row.values())
                    if g > 1:
                        for j in row:
                            row[j] //= g
                pivot_rows[c] = row
                return True
            v, pv = row[c], piv[c]
            if pv != 1:
                for j, w in row.items():
                    row[j] = w * pv if p is None else w * pv % p
            for j, w in piv.items():  # column c cancels with the rest
                x = row.get(j, 0) - v * w
                if p is not None:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
        return False


def monomial_basis(k: int, d: int):
    """Exponent tuples of total degree d, descending lexicographic.

    Each successor moves one unit from the last nonzero exponent before x_k
    one place right and gathers x_k's exponent there, in O(k) steps, from
    (d, 0, ..., 0) down to (0, ..., 0, d).
    """
    exp, out = [d] + [0] * (k - 1), []
    while True:
        out.append(tuple(exp))
        i = next((i for i in range(k - 2, -1, -1) if exp[i]), -1)
        if i < 0:
            return tuple(out)
        exp[i], exp[-1], exp[i + 1] = exp[i] - 1, 0, exp[-1] + 1


def circuits_up_to(sigma: FormCollection, max_len: int):
    """All circuits (minimal dependent column sets) of size <= max_len.

    No circuit has more than rank + 1 elements, so no larger set is tried.
    Candidates containing a smaller circuit are skipped, so a surviving
    dependent set is automatically minimal.
    """
    n = sigma.n
    if not 1 <= max_len <= n:
        raise ValueError("max_len %d out of range 1..%d" % (max_len, n))
    cols = sigma.expanded_columns()
    circuits = []
    for size in range(1, min(max_len, full_rank(sigma) + 1) + 1):
        smaller = tuple(circuits)  # no circuit lies inside another of its size
        for cand in combinations(range(n), size):
            cset = set(cand)
            if any(c <= cset for c in smaller):
                continue
            if bareiss_rank([cols[i] for i in cand], sigma.p) < size:
                circuits.append(frozenset(cand))
    return [tuple(sorted(c)) for c in circuits]


def relation_space_by_circuits(sigma: FormCollection, a: int) -> RelationSpace:
    """The relation space of fold a from every circuit of at most n-a+1
    columns, each with every choice of n-s+1-a leftover columns to divide out.

    Each circuit of length s carries one dependency, in the canonical scale
    of forms; dividing out a choice of leftover columns gives one sparse
    vector on the (n-a)-subsets.  The vectors of one support (circuit and
    divisor) are an injective image of their dependencies, so only those
    with a new dependency in their support are ranked.
    """
    n, p = sigma.n, sigma.p
    if not 1 <= a <= n - 1:
        raise ValueError("fold %d out of range 1..%d" % (a, n - 1))
    ambient = comb(n, n - a)
    position = {c: i for i, c in enumerate(combinations(range(n), n - a))}
    cols = sigma.expanded_columns()
    generators, local, independent = [], {}, []
    for circuit in circuits_up_to(sigma, n - a + 1):
        dep = circuit_dependency([cols[j] for j in circuit], p)
        others = [u for u in range(n) if u not in circuit]
        cset, relation = frozenset(circuit), dict(zip(circuit, dep))
        for divisor in combinations(others, n - len(circuit) + 1 - a):
            support = cset.union(divisor)
            vec = {position[tuple(sorted(support - {j}))]: c for j, c in relation.items()}
            generators.append(vec)
            if support not in local:  # one echelon of dependencies per support
                local[support] = SparseIntEchelon(p)
            if local[support].add(relation):
                independent.append(vec)
    ech = SparseIntEchelon(p)
    for vec in sorted(independent, key=max, reverse=True):
        ech.add(vec)
    return RelationSpace(a, ambient, generators, ech.rank)


def circuit_dependency(cols, p=None):
    """The one linear dependency of columns of nullity 1, such as a circuit's.

    It comes in the canonical scale of forms: over Q primitive with a
    positive first entry, over GF(p) with first entry 1.  Echelonizes the
    rows [v_i | e_i]: the v-parts span rank s - 1, so exactly one stored row
    has its leading column at or past k, and its e-part holds the
    coefficients c with sum c_i v_i = 0.
    """
    k, s = len(cols[0]), len(cols)
    ech = SparseIntEchelon(p)
    for i, col in enumerate(cols):
        ech.add({**dict(enumerate(col)), k + i: 1})
    deps = [[row.get(j, 0) for j in range(k, k + s)] for c, row in ech.pivot_rows.items() if c >= k]
    if len(deps) != 1:
        raise AssertionError("columns %r have nullity %d, not 1" % (cols, len(deps)))
    return canonical_coeffs(deps[0], p)


def basis_coordinates_by_circuits(sigma: FormCollection) -> FormCollection:
    """``forms.basis_coordinates`` with a fresh echelon per dependent group.

    The groups that raise the rank, in canonical order, become x_1, x_2, ...;
    each other group becomes its coordinates in the basis groups before it,
    read off the one dependency of (those groups, the form) by
    :func:`circuit_dependency`, and padded with zeros to k.
    """
    k, p = sigma.k, sigma.p
    ech, basis, raw = SparseIntEchelon(p), [], []
    for coeffs, mult in sigma.groups:
        if ech.add(dict(enumerate(coeffs))):
            coords = (0,) * len(basis) + (1,)
            basis.append(coeffs)
        else:
            coords = circuit_dependency(basis + [coeffs], p)[:-1]
        raw.append((coords + (0,) * (k - len(coords)), mult))
    return FormCollection(k, raw, p)
