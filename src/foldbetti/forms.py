"""Collections of linear forms with multiplicities.

A form is a tuple of Python ints, and the field is carried once, on the
collection: ``FormCollection.p`` is None for the rationals or a prime p
for GF(p).  Each form is stored in a canonical scale.  Over the rationals
it is a primitive integer vector whose first nonzero entry is positive;
over GF(p) it holds residues in [0, p) and its first nonzero entry is 1.
The :class:`FormCollection` constructor is the one place where input (ints
or ``Fraction``s) is brought to that scale; everything downstream is
integer arithmetic.

A collection's ``groups`` are ``(coeffs, mult)`` pairs: pairwise
non-proportional forms, each with a positive multiplicity, sorted by
multiplicity descending then coefficients.  The collection builds the
canonical scale of every form on construction, so inputs that spell the
same multiset of forms up to scale always build the identical object,
which is what the memoized recursions key on.

Deletion removes one copy of a form, for the recursion in ``betti``; the
Tutte polynomial in ``matroid`` takes its deletions in a loop and builds
none.  Contraction reduces every other form modulo a chosen form and drops
one ambient variable (:func:`images_modulo`, which the flat enumerator and
the Tutte polynomial in ``matroid`` share); the chosen form's own copies
vanish, and no other form does.

The effective rank is memoized per collection, and :func:`essentialize`
answers every full-rank collection from that memo.  :func:`basis_coordinates`
changes coordinates so that a basis of the forms is the first variables,
reading each other form's coordinates off :func:`circuit_dependency`; the
Hilbert oracle climbs there.

This module owns every memo table of the package: the full-rank table
here, the flats, Hamming weights and Tutte polynomials in ``matroid`` and
the recursion tables in ``betti``.
Each is a plain dict made by :func:`memo_table`; a hit is a ``dict.get``,
and only a miss goes through :func:`memo_put`.  Together the
tables hold at most ``MEMO_LIMIT`` entries: the miss that finds them full
empties every table before it stores, and :func:`clear_memos` empties them
all at once.  Keys and values are immutable, and a computation keeps what
it has read when a table is emptied under it, so concurrent callers may
duplicate work but never observe a torn entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from threading import Lock

from .exactlin import SparseIntEchelon, bareiss_rank

# Every fold of a random all-single k = 9, n = 24 collection under auto
# fills 170,560 entries in 16-20 s (k = 8, n = 22: 38,775); 2^19 leaves
# room for three times that before a clear.
MEMO_LIMIT = 1 << 19

_memo_tables = []
_memo_lock = Lock()
_memo_stores = 0  # stores since the last clear: at least the entries held


def memo_table() -> dict:
    """A new, empty memo table, bounded and cleared with all the others."""
    table = {}
    _memo_tables.append(table)
    return table


def memo_put(table: dict, key, value):
    """Store ``value`` under ``key`` in a memo table and return it.

    When the tables together may already hold ``MEMO_LIMIT`` entries, every
    one is emptied first, so the total never exceeds the limit.
    """
    global _memo_stores
    with _memo_lock:
        if _memo_stores >= MEMO_LIMIT:
            _clear()
        _memo_stores += 1
        table[key] = value
    return value


def memo_entries() -> int:
    """The number of entries the memo tables hold together."""
    return sum(map(len, _memo_tables))


def clear_memos():
    """Empty every memo table, so that the next call computes afresh."""
    with _memo_lock:
        _clear()


def _clear():
    global _memo_stores
    for table in _memo_tables:
        table.clear()
    _memo_stores = 0


_full_rank_cache = memo_table()


def canonical_coeffs(coeffs, p=None):
    """The canonical scale of one form over Q or GF(p); None for zero.

    Entries may be ints or ``Fraction``s.  Over Q denominators are cleared
    and the gcd divided out; over GF(p) every entry becomes a residue.
    """
    if p is None:
        try:
            g = gcd(*coeffs)
        except TypeError:  # Fraction entries: clear the denominators first
            den = lcm(*(Fraction(x).denominator for x in coeffs))
            coeffs = [int(x * den) for x in coeffs]
            g = gcd(*coeffs)
        if g == 0:
            return None
        for x in coeffs:
            if x:
                if x < 0:
                    g = -g
                break
        return tuple(coeffs) if g == 1 else tuple(x // g for x in coeffs)
    ints = [
        x % p if isinstance(x, int) else x.numerator * pow(x.denominator, -1, p) % p
        for x in coeffs
    ]
    lead = next((x for x in ints if x), 0)
    if lead == 0:
        return None
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in ints)


class Record:
    """A value record: its fields are its ``__slots__``, in constructor order.

    Records are equal when they have the same type and equal fields.  A plain
    record is mutable and unhashable.  A slot named with a leading underscore
    is not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = [name for name in cls.__slots__ if not name.startswith("_")]
        if fields:
            cls._values = attrgetter(*fields)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A record that refuses assignment and hashes by its fields, so it can key a memo.

    The hash is computed on first use and kept in the slot ``_hash``, so a
    memo lookup does not rehash every group of a collection.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class FormCollection(FrozenRecord):
    """The multiset of linear forms: groups of (coeffs, multiplicity).

    ``p`` is the field: None for the rationals, otherwise a prime.  The
    constructor takes raw (coeffs, mult) pairs and builds the canonical
    collection, exactly as :func:`normalize` describes; it refuses a wrong
    coefficient count, a multiplicity below 1 and no nonzero form.
    """

    __slots__ = ("k", "groups", "p")

    def __init__(self, k: int, groups, p: int | None = None):
        merged = {}
        for coeffs, mult in groups:
            if len(coeffs) != k:
                raise ValueError("form %r has %d coefficients, ambient is %d" % (coeffs, len(coeffs), k))
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            canon = canonical_coeffs(coeffs, p)
            if canon is not None:
                merged[canon] = merged.get(canon, 0) + mult
        if not merged:
            raise ValueError("empty collection")
        super().__init__(k, tuple(sorted(merged.items(), key=lambda g: (-g[1], g[0]))), p)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.groups)

    @property
    def t(self) -> int:
        return len(self.groups)

    @property
    def multiplicities(self):
        return tuple(m for _, m in self.groups)

    def expanded_columns(self):
        """Coefficient tuples, one per copy, in group order."""
        cols = []
        for coeffs, mult in self.groups:
            cols.extend([coeffs] * mult)
        return cols


def normalize(raw_forms, k: int, p=None) -> FormCollection:
    """Canonicalize raw (coeff-vector, multiplicity) pairs over Q or GF(p).

    Coefficients may be ints or ``Fraction``s.  Zero vectors are dropped,
    proportional forms are merged by summing multiplicities, and the result
    is sorted.  Raises if nothing survives.
    ``FormCollection(k, raw_forms, p)`` builds the same collection.
    """
    return FormCollection(k, raw_forms, p)


def delete(sigma: FormCollection, group_index: int):
    """Remove one copy of the chosen group; None once nothing is left."""
    raw = [(coeffs, mult - (i == group_index)) for i, (coeffs, mult) in enumerate(sigma.groups)]
    raw = [(coeffs, mult) for coeffs, mult in raw if mult]
    return FormCollection(sigma.k, raw, sigma.p) if raw else None


def images_modulo(ell, forms):
    """The images of ``forms`` modulo the form ``ell``, in one fewer variable.

    With j the first nonzero coordinate of ``ell``, each image is the
    cross-multiplied ``ell[j] * f - f[j] * ell`` with coordinate j dropped.
    This linear map has kernel the line of ``ell``, so two forms have
    proportional images exactly when they are proportional modulo ``ell``.
    Images are integer lists, not yet reduced mod p or brought to scale.
    """
    j = next(i for i, x in enumerate(ell) if x)
    lj, rest = ell[j], [(i, x) for i, x in enumerate(ell) if i != j]
    return [[lj * f[i] - fj * x for i, x in rest] for f in forms for fj in (f[j],)]


def contract(sigma: FormCollection, group_index: int):
    """Reduce the other forms modulo the chosen form, in one fewer variable.

    The images come from :func:`images_modulo`; the constructor reduces
    them mod p over GF(p).  Returns them, or None when no other group is left.
    Every image is nonzero, because no other group is proportional to the
    chosen one, so the result holds n minus the chosen multiplicity forms.
    """
    others = sigma.groups[:group_index] + sigma.groups[group_index + 1 :]
    if not others:
        return None
    images = images_modulo(sigma.groups[group_index][0], [f for f, _ in others])
    return FormCollection(sigma.k - 1, zip(images, [m for _, m in others]), sigma.p)


def full_rank(sigma: FormCollection) -> int:
    """Rank of the whole coefficient matrix (the effective rank), memoized."""
    r = _full_rank_cache.get(sigma)
    if r is None:
        # one form per group: copies never raise the rank
        r = memo_put(_full_rank_cache, sigma, bareiss_rank([coeffs for coeffs, _ in sigma.groups], sigma.p))
    return r


def essentialize(sigma: FormCollection) -> FormCollection:
    """Rewrite the collection in coordinates for the span of its forms.

    The ambient count drops to the rank r of the coefficient matrix.  The
    change of coordinates is invertible on the span, so every subset rank
    (hence every Betti number) is unchanged.  The kept coordinates are the
    leading columns of an echelon basis of the forms, which are the pivot
    columns of any echelon form of the coefficient matrix's transpose.

    A full-rank collection, which is what the recursion asks about at every
    node and fold, is its own essential form: the memoized :func:`full_rank`
    answers it, and it comes back as the same object.
    """
    if full_rank(sigma) == sigma.k:
        return sigma
    ech = SparseIntEchelon(sigma.p)
    for coeffs, _ in sigma.groups:
        ech.add(dict(enumerate(coeffs)))
    pivots = sorted(ech.pivot_rows)
    raw = [(tuple(coeffs[c] for c in pivots), mult) for coeffs, mult in sigma.groups]
    return FormCollection(len(pivots), raw, sigma.p)


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


def basis_coordinates(sigma: FormCollection) -> FormCollection:
    """The collection after the change of coordinates y = Bx that makes a
    basis of its forms the first variables.

    The rows of the invertible k x k matrix B are the groups that raise the
    rank, in canonical order (heaviest multiplicity first), completed by
    unit vectors when the rank r is below k.  Basis group i becomes x_i.
    Each other group becomes its coordinates in the basis groups before it,
    read off the one dependency of (those groups, the form) by
    :func:`circuit_dependency`; no form has a coordinate on the k - r unit
    vectors, so every form ends in k - r zeros.  The forms stay pairwise
    non-proportional with their multiplicities, and a graded automorphism
    of the polynomial ring maps each fold ideal onto the new collection's
    degree by degree, so every Hilbert value is kept.
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
