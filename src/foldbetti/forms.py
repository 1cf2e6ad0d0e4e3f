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

Deletion removes one copy of a form.  Contraction reduces every other form
modulo a chosen form and drops one ambient variable (:func:`images_modulo`,
which the flat enumerator in ``matroid`` shares); the chosen form's own
copies vanish, and no other form does.

The effective rank is memoized per collection, and :func:`essentialize`
answers every full-rank collection from that memo.  Like the other memo
tables, it behaves as a single logical map: concurrent callers may
duplicate work, but never observe a torn entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .exactlin import SparseIntEchelon, bareiss_rank

_full_rank_cache = {}


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
    record is mutable and unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

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
    """A record that refuses assignment and hashes by its fields, so it can key a memo."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

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
    raw = []
    for i, (coeffs, mult) in enumerate(sigma.groups):
        if i == group_index:
            mult -= 1
        if mult > 0:
            raw.append((coeffs, mult))
    if not raw:
        return None
    return FormCollection(sigma.k, raw, sigma.p)


def drop_group(sigma: FormCollection, group_index: int):
    """Remove a whole group (every copy); None once nothing is left."""
    groups = [g for i, g in enumerate(sigma.groups) if i != group_index]
    if not groups:
        return None
    return FormCollection(sigma.k, groups, sigma.p)


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
        r = bareiss_rank([coeffs for coeffs, _ in sigma.groups], sigma.p)
        _full_rank_cache[sigma] = r
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
