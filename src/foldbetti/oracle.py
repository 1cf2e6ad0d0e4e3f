"""Ground-truth engines, independent of every closed-form formula.

Two oracles: exact Hilbert functions of the fold ideal by monomial linear
algebra (which determine the whole Betti table degree by degree), and the
first Betti number via the rank of the circuit-relation space.  Both reduce
to integer matrix ranks, so they share the elimination engines but none of
the combinatorial shortcuts they are meant to verify.

The Hilbert function climbs the chain I_{d+1} = S_1 * I_d, as in the
Macaulay-matrix step of Lazard (1983) and Faugere's F4 (1999): each degree
echelonizes x_1..x_k times the echelon basis of the degree below.  Once a
degree is full, every later one is, and its value is dim S_d.  A fold's
Betti table or HF report climbs once, to its largest degree.

These are verifiers, not production paths: desk-scale guardrails refuse
instances whose matrices would not fit a quick exact computation.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .betti import BettiTable
from .exactlin import SparseIntEchelon
from .forms import FormCollection, Record, canonical_coeffs, essentialize, memo_put, memo_table
from .matroid import circuits_up_to

CELL_LIMIT = 5_000_000
RELATION_AMBIENT_LIMIT = 200_000


class OracleLimitError(Exception):
    """The instance exceeds the oracle's desk-scale guardrails."""


_basis_cache = memo_table()


def monomial_basis(k: int, d: int):
    """Exponent tuples of total degree d, descending lexicographic.

    Each multiset of d variables, taken in ``combinations_with_replacement``
    order, counts into one exponent tuple; that order is descending
    lexicographic on the exponents.
    """
    basis = _basis_cache.get((k, d))
    if basis is None:
        out = []
        for variables in combinations_with_replacement(range(k), d):
            exp = [0] * k
            for i in variables:
                exp[i] += 1
            out.append(tuple(exp))
        basis = memo_put(_basis_cache, (k, d), tuple(out))
    return basis


def _poly_mul_linear(poly, form, p):
    out = {}
    for exp, c in poly.items():
        for i, fi in enumerate(form):
            if fi == 0:
                continue
            e2 = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
            v = out.get(e2, 0) + c * fi
            if p is not None:
                v %= p
            if v != 0:
                out[e2] = v
            elif e2 in out:
                del out[e2]
    return out


def fold_generators(sigma: FormCollection, a: int):
    """All C(n, a) fold products, expanded in the degree-a monomial basis.

    They come in ``combinations`` order, built depth first so that each
    prefix product is computed once.  Coefficients are ints (residues mod p
    over GF(p)).  Repeated forms give repeated polynomials; callers that
    only need ranks deduplicate afterwards.
    """
    if not 1 <= a <= sigma.n:
        raise ValueError("fold %d out of range 1..%d" % (a, sigma.n))
    cols, n, out = sigma.expanded_columns(), sigma.n, []

    def extend(poly, start, left):
        if left == 0:
            out.append(poly)
            return
        for j in range(start, n - left + 1):
            extend(_poly_mul_linear(poly, cols[j], sigma.p), j + 1, left - 1)

    extend({(0,) * sigma.k: 1}, 0, a)
    return out


def _check_cells(sigma: FormCollection, a: int, d: int):
    """Refuse degree d below the fold a, or when the plain
    generator-times-monomial matrix, sized by binomials, would exceed the
    cell limit (a conservative size for the incremental chain)."""
    if d < a:
        raise ValueError("degree %d below generation degree %d" % (d, a))
    k = sigma.k
    rows = comb(sigma.n, a) * comb(k - 1 + d - a, k - 1)
    cols = comb(k - 1 + d, k - 1)
    if rows * cols > CELL_LIMIT:
        raise OracleLimitError("Hilbert matrix would have %d x %d cells; limit is %d" % (rows, cols, CELL_LIMIT))


def hilbert_function(sigma: FormCollection, a: int, d: int, values=None) -> int:
    """dim of the degree-d piece of the fold ideal, by exact row ranks.

    Degree a echelonizes the deduplicated fold products.  Degree e + 1
    echelonizes x_1..x_k times every stored pivot row of degree e, each
    shifted by the index map from exponent m to m + e_i (I_{e+1} = S_1 * I_e).
    Once a degree is full, dim S_d is returned without building more rows.
    A dict ``values`` receives HF(e) for every e in a..d on the way, dim S_e
    from the first full degree on, so one climb serves a whole table.
    """
    if not 1 <= a <= sigma.n:
        raise ValueError("fold %d out of range 1..%d" % (a, sigma.n))
    _check_cells(sigma, a, d)
    k, values = sigma.k, {} if values is None else values
    index = {m: i for i, m in enumerate(monomial_basis(k, a))}
    unique = {tuple(sorted(g.items())): g for g in fold_generators(sigma, a)}
    rows = [{index[m]: c for m, c in g.items()} for g in unique.values()]
    for e in range(a, d + 1):
        ech = SparseIntEchelon(sigma.p)
        for row in rows:
            if ech.add(row) and ech.rank == len(index):
                values.update((f, comb(k - 1 + f, k - 1)) for f in range(e, d + 1))
                return comb(k - 1 + d, k - 1)
        values[e] = ech.rank
        if e < d:  # I_{e+1} = S_1 * I_e
            index = {m: i for i, m in enumerate(monomial_basis(k, e + 1))}
            shifts = [
                [index[m[:i] + (m[i] + 1,) + m[i + 1 :]] for m in monomial_basis(k, e)]
                for i in range(k)
            ]
            # the pivot rows are bound here, before the next degree rebinds ech
            rows = ({shift[j]: c for j, c in piv.items()}
                    for piv in ech.pivot_rows.values() for shift in shifts)
    return ech.rank


def betti_from_hilbert(sigma: FormCollection, a: int) -> BettiTable:
    """Betti table recovered degree by degree from exact Hilbert values.

    b_1 is HF at the generation degree; each later b_i is an alternating
    binomial combination of earlier ones plus the next HF value.  Every
    degree passes the cell limit, in order, before any is computed; then one
    climb to degree a + k - 1 yields every value, and it stops at the first
    full degree.  A negative intermediate would contradict the linearity of
    the resolution, so it is reported as an error rather than clamped.
    """
    if not 1 <= a <= sigma.n:
        raise ValueError("fold %d out of range 1..%d" % (a, sigma.n))
    ess = essentialize(sigma)
    k = ess.k
    for d in range(a, a + k):
        _check_cells(ess, a, d)
    hf, b = {}, []
    hilbert_function(ess, a, a + k - 1, hf)
    for i in range(1, k + 1):
        v = (-1) ** (i - 1) * hf[a + i - 1]
        for j in range(1, i):
            v += (-1) ** (j - 1) * comb(k + j - 1, j) * b[i - j - 1]
        if v < 0:
            raise ValueError("linear-resolution assumption violated: b_%d = %d" % (i, v))
        b.append(v)
    return BettiTable(a, k, tuple(b))


class HFReport(Record):
    """Exact Hilbert-function values of the fold ideal, degree -> dimension."""

    __slots__ = ("a", "values")

    def to_json_dict(self):
        return {"a": self.a, "hf": {str(d): v for d, v in sorted(self.values.items())}}


def hf_report(sigma: FormCollection, a: int, degrees) -> HFReport:
    """HF at each degree, in any order, from one climb to the largest.

    ``degrees`` is read once, so a generator serves as well as a range; each
    degree passes the cell limit as it is read, in the order given, so a
    huge range is refused before it is held in memory.
    """
    read, values = [], {}
    for d in degrees:
        _check_cells(sigma, a, d)
        read.append(d)
    if read:
        hilbert_function(sigma, a, max(read), values)
    return HFReport(a, {d: values[d] for d in read})


class RelationSpace(Record):
    """Constant-coefficient relations among fold generators, from circuits.

    Generators are sparse vectors indexed by the (n-a)-subsets in
    lexicographic order; their span has dimension C(n, n-a) - b_1.
    """

    __slots__ = ("a", "ambient_dim", "generators", "rank")


def circuit_dependency(cols, p=None):
    """The one linear dependency of a circuit's columns.

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


def relation_space(sigma: FormCollection, a: int) -> RelationSpace:
    """Enumerate circuit-derived relation vectors and compute their rank.

    Each circuit of length s carries one dependency, in the canonical scale
    of forms (see :func:`circuit_dependency`); every choice of n-s+1-a
    leftover columns to divide out produces one sparse vector.
    """
    n = sigma.n
    if not 1 <= a <= n - 1:
        raise ValueError("fold %d out of range 1..%d" % (a, n - 1))
    ambient = comb(n, n - a)
    if ambient > RELATION_AMBIENT_LIMIT:
        raise OracleLimitError(
            "relation space has ambient dimension %d; limit is %d"
            % (ambient, RELATION_AMBIENT_LIMIT)
        )
    cols = sigma.expanded_columns()
    position = {c: i for i, c in enumerate(combinations(range(n), n - a))}
    generators = []
    for circuit in circuits_up_to(sigma, n - a + 1):
        s = len(circuit)
        dep = circuit_dependency([cols[j] for j in circuit], sigma.p)
        others = [u for u in range(n) if u not in circuit]
        cset = set(circuit)
        for divisor in combinations(others, n - s + 1 - a):
            support = cset.union(divisor)
            generators.append({position[tuple(sorted(support - {j}))]: c for j, c in zip(circuit, dep)})
    ech = SparseIntEchelon(sigma.p)
    for vec in sorted(generators, key=max, reverse=True):  # rank is order-free
        ech.add(vec)
    return RelationSpace(a, ambient, generators, ech.rank)


def b1_via_circuits(sigma: FormCollection, a: int) -> int:
    """First Betti number as C(n, n-a) minus the relation-space rank."""
    space = relation_space(sigma, a)
    return space.ambient_dim - space.rank
