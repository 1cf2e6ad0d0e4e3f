"""The matroid of a form collection's coefficient matrix.

Column indices are 0-based and multiplicity-expanded (copy i of a group is
its own ground-set element).  Provides subset ranks, circuits, generalized
Hamming weights, fold-ideal heights, and the Tutte polynomial computed by
deletion-contraction, with the deletions taken in a loop and only the
contractions recursing and memoized.

Hamming weights read one enumerator of the flats of the simple matroid
(one element per group), built rank by rank from the empty flat.  Its rule
is covers by contraction: the forms outside a flat F are reduced modulo the
span of F, giving the contraction M/F with ``contract``'s cross-multiplied
formula, and forms whose residues are proportional span one flat of the
next rank with F.  The flats depend only on the set of forms, so they are
memoized by it.  The weights count each flat with the collection's
multiplicities, so they are memoized by the collection itself: the
dispatcher reads them at every recursion node and fold, and each
collection is weighted once.  The memo tables belong to the store in
``forms``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import comb

from .exactlin import SparseIntEchelon, bareiss_rank
from .forms import (
    FormCollection,
    FrozenRecord,
    canonical_coeffs,
    essentialize,
    full_rank,
    images_modulo,
    memo_put,
    memo_table,
)

_flats_cache = memo_table()
_hamming_cache = memo_table()
_tutte_cache = memo_table()


def subset_rank(sigma: FormCollection, subset) -> int:
    """Rank of the selected expanded columns."""
    cols = sigma.expanded_columns()
    subset = sorted(set(subset))
    if subset and not (0 <= subset[0] and subset[-1] < len(cols)):
        raise ValueError("column index out of range 0..%d" % (len(cols) - 1))
    return bareiss_rank([cols[i] for i in subset], sigma.p)


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


def _flats(sigma):
    """The flats of sigma's simple matroid, rank by rank.

    Returns (forms, levels): ``forms`` is the sorted tuple of coefficient
    tuples, and ``levels[r]`` holds every flat of rank r as a bit mask over
    ``forms``.  Each flat F below the top two levels keeps the canonical
    residues of the forms outside it, which represent the contraction M/F;
    forms with equal residues span one flat of rank r + 1 with F, so the
    classes of equal residues are the covers of F.  A cover's residues are
    those of F taken modulo the class's residue, by ``contract``'s formula
    (:func:`images_modulo`).  The top level is every form.
    """
    forms = tuple(sorted(coeffs for coeffs, _ in sigma.groups))
    key = (forms, sigma.p)
    cached = _flats_cache.get(key)
    if cached is not None:
        return cached
    p = sigma.p
    rank = full_rank(sigma)
    levels = [(0,)]
    frontier = {0: dict(enumerate(forms))}
    for r in range(1, rank):
        covers = {}
        for flat, residues in frontier.items():
            classes = {}
            for i, residue in residues.items():
                classes[residue] = classes.get(residue, flat) | 1 << i
            for residue, cover in classes.items():
                if cover in covers:
                    continue
                if r == rank - 1:
                    covers[cover] = None
                    continue
                outside = [i for i in residues if not cover >> i & 1]
                images = images_modulo(residue, [residues[i] for i in outside])
                covers[cover] = {i: canonical_coeffs(im, p) for i, im in zip(outside, images)}
        levels.append(tuple(covers))
        frontier = covers
    levels.append(((1 << len(forms)) - 1,))
    return memo_put(_flats_cache, key, (forms, tuple(levels)))


def _multiplicity_layers(sigma, forms):
    """(weight, mask) pairs, one per distinct multiplicity v of the forms.

    The mask holds the forms of multiplicity at least v over ``forms``, and
    the weight is v minus the next smaller multiplicity (or 0), so a form of
    multiplicity m lies in layers whose weights sum to m.
    """
    mult_of = dict(sigma.groups)
    below = 0
    layers = []
    for v in sorted(set(mult_of.values())):
        layers.append((v - below, sum(1 << i for i, coeffs in enumerate(forms) if mult_of[coeffs] >= v)))
        below = v
    return layers


def _sizes(flats, layers):
    """Each flat's size counted with multiplicity: weight times popcount per layer."""
    sizes = [0] * len(flats)
    for weight, mask in layers:
        sizes = [size + weight * (mask & flat).bit_count() for size, flat in zip(sizes, flats)]
    return sizes


class HammingWeights(FrozenRecord):
    """d[r-1] is the r-th generalized Hamming weight, r = 1..k."""

    __slots__ = ("d",)


def hamming_weights(sigma: FormCollection) -> HammingWeights:
    """Generalized Hamming weights d_1 < ... < d_k = n (full-rank input).

    d_r is n minus the most columns spanning at most k - r dimensions.  The
    optimum is a flat, and for a full-rank collection the largest flat of
    rank at most q has rank exactly q, so each d_r reads one level of
    :func:`_flats`.  The weights are memoized per collection, which holds
    the multiplicities that weight the flats.
    """
    weights = _hamming_cache.get(sigma)
    if weights is None:
        k = sigma.k
        if full_rank(sigma) != k:
            raise ValueError("collection must have full effective rank")
        forms, levels = _flats(sigma)
        layers = _multiplicity_layers(sigma, forms)
        n = sigma.n
        weights = HammingWeights(tuple(n - max(_sizes(levels[k - r], layers)) for r in range(1, k + 1)))
        memo_put(_hamming_cache, sigma, weights)
    return weights


def height_of_fold_ideal(sigma: FormCollection, a: int) -> int:
    """Height of the fold ideal: k - r on the window d_r < a <= d_{r+1}."""
    if not 1 <= a <= sigma.n:
        raise ValueError("fold %d out of range 1..%d" % (a, sigma.n))
    ess = essentialize(sigma)
    return ess.k - bisect_left(hamming_weights(ess).d, a)  # d_1 < ... < d_k = n


class TuttePoly:
    """Bivariate polynomial with integer coefficients, sparse on (i, j)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {ij: c for ij, c in coeffs.items() if c != 0}

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, TuttePoly) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = ["%d*x^%d*y^%d" % (c, i, j) for (i, j), c in sorted(self.coeffs.items())]
        return "TuttePoly(%s)" % " + ".join(terms)

    def to_json_dict(self):
        return {
            "terms": [
                {"x": i, "y": j, "c": str(c)}
                for (i, j), c in sorted(self.coeffs.items())
            ]
        }


def tutte_polynomial(sigma: FormCollection) -> TuttePoly:
    """Tutte polynomial by deletion-contraction, memoized per collection.

    With M_i the groups i, i+1, ... in canonical order, M_i minus group i is
    M_(i+1), and T(M_t) = 1.  The deletions are a loop from the last group
    back, with one echelon of the later groups to find the coloops; only the
    contractions M_i / g_i (the later groups modulo g_i) recurse, so the
    recursion is at most rank deep.  A group's m copies go as one block:
    T(M_i) is T(M_(i+1)) times x + y + ... + y^(m-1) for a coloop, else
    T(M_(i+1)) plus T(M_i / g_i) times 1 + y + ... + y^(m-1).  All factor
    coefficients are 1 and T's are nonnegative, so no sum in the dict cancels.
    """
    cached = _tutte_cache.get(sigma)
    if cached is not None:
        return cached
    k, p, groups = sigma.k, sigma.p, sigma.groups
    result, after = {(0, 0): 1}, SparseIntEchelon(p)
    for i in reversed(range(len(groups))):
        ell, m = groups[i]
        # a coloop of M_i; none is left once the later groups span all k variables
        if after.rank < k and after.add(dict(enumerate(ell))):
            base, result, shifts = result, {}, [(1, 0)] + [(0, j) for j in range(1, m)]
        else:
            forms, mults = zip(*groups[i + 1 :])
            contracted = FormCollection(k - 1, zip(images_modulo(ell, forms), mults), p)
            base, shifts = tutte_polynomial(contracted).coeffs, [(0, j) for j in range(m)]
        for di, dj in shifts:
            for (x, y), c in base.items():
                xy = (x + di, y + dj)
                result[xy] = result.get(xy, 0) + c
    return memo_put(_tutte_cache, sigma, TuttePoly(result))


def tutte_shifted_coeffs(tp: TuttePoly):
    """Coefficients of T(x+1, y), re-expanded binomially in x."""
    out = {}
    for (i, j), c in tp.coeffs.items():
        for i2 in range(i + 1):
            out[i2, j] = out.get((i2, j), 0) + comb(i, i2) * c
    return out
