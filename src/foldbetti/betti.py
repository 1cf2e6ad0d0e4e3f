"""Betti numbers of fold-product ideals.

All ideals here have linear graded free resolutions, so the full homological
story is the vector (b_1, ..., b_k).  This module computes it two ways.

:func:`betti_tutte` reads every fold's table off one Tutte polynomial.  With
z marking the fold and w the homological index, the recursion's rule
b(Sigma, a) = b(Sigma - e, a-1) + b(Sigma/e, a) + b(Sigma/e, a) shifted one
step in i is a Tutte-Grothendieck deletion-contraction: deletion weighs z,
contraction 1+w, a coloop x0 = z+1+w (Sigma - e and Sigma/e are then one
matroid) and a loop y0 = 1 (a zero form changes no product ideal).  I_0 = S
fixes the a = 0 term, so for Sigma essential of rank k with n forms and
F = 1 + sum_{a>=1} sum_i b_i(a) z^a w^(i-1) the recipe theorem (Brylawski,
Trans. AMS 1972; Brylawski and Oxley, "The Tutte polynomial and its
applications", 1992) gives

    (z+w) F = w + z^(n-k+1) (1+w)^k T((z+1+w)/(1+w), 1/z).

With s[u, j] the coefficient of x^u y^j in T(x+1, y), expanding 1/(z+w) at
z = infinity gives b_i(a) = sum_{m<i} (-1)^m sum_u s[u, n-k+u-a-m] C(k-u, i-1-m).

:func:`betti_recursion` is the independent route, and it never reads T:
deletion-contraction down to closed forms (maximal power, rank 2, height-1
reduction, a = n, a = n-1, Cohen-Macaulay generic), chosen by the height of
the fold ideal and by genericity, both read off the generalized Hamming
weights.  Weights, effective rank and T are memoized per collection
(``matroid``, ``forms``).  Tables are reported for the effective rank, so
collections are essentialized first; the recursion memo is keyed by
(canonical collection, fold), which is all a table depends on.  Every memo
table belongs to the store in ``forms``.
"""

from __future__ import annotations

from math import comb, perm

from .forms import (
    FormCollection,
    FrozenRecord,
    contract,
    delete,
    essentialize,
    memo_put,
    memo_table,
    normalize,
)
from .matroid import hamming_weights, height_of_fold_ideal, tutte_polynomial

METHODS = ("auto", "recursion", "tutte_hk", "oracle")

_recursion_cache = memo_table()


class BettiTable(FrozenRecord):
    """Fold a plus the vector (b_1, ..., b_k); the zero ideal is all zeros."""

    __slots__ = ("a", "k", "b")

    def __init__(self, a: int, k: int, b: tuple):
        super().__init__(a, k, b)
        if len(self.b) != self.k:
            raise ValueError("expected %d Betti numbers, got %d" % (self.k, len(self.b)))
        seen_zero = False
        for v in self.b:
            if v < 0:
                raise ValueError("negative Betti number in %r" % (self.b,))
            if seen_zero and v != 0:
                raise ValueError("zero followed by nonzero in %r" % (self.b,))
            seen_zero = seen_zero or v == 0

    @property
    def pdim(self) -> int:
        """Index of the last nonzero entry (0 for the zero ideal)."""
        return max((i for i, v in enumerate(self.b, start=1) if v), default=0)

    def to_json_dict(self):
        return {"a": self.a, "k": self.k, "b": list(self.b)}


def _entry(table, i):
    return table.b[i - 1] if 1 <= i <= table.k else 0


def _zero_table(a, k):
    return BettiTable(a, k, (0,) * k)


def betti_tutte(sigma: FormCollection, a: int) -> BettiTable:
    """The whole table at fold ``a`` from T(x+1, y) (module docstring).

    A fold reads only s[u, n-k+u-a-m] for u <= k and m < k, so those are
    expanded from T's coefficients, not all of T(x+1, y) at every fold.
    """
    ess = essentialize(sigma)
    k, n = ess.k, ess.n
    if not 1 <= a <= n:
        raise ValueError("fold %d out of range 1..%d" % (a, n))
    t = tutte_polynomial(ess).coeffs
    s = [[sum(comb(v, u) * t.get((v, n - k + u - a - m), 0) for v in range(u, k + 1))
          for m in range(k)] for u in range(k + 1)]
    b = tuple(
        sum((-1) ** m * s[u][m] * comb(k - u, i - 1 - m) for m in range(i) for u in range(k + 1))
        for i in range(1, k + 1)
    )
    return BettiTable(a, k, b)


def betti_maximal_power(k: int, a: int) -> BettiTable:
    """Betti numbers of the a-th power of the maximal ideal in k variables."""
    if k < 1 or a < 1:
        raise ValueError("need k >= 1 and a >= 1")
    b = tuple(comb(k + a - 1, a + i - 1) * comb(a + i - 2, a - 1) for i in range(1, k + 1))
    return BettiTable(a, k, b)


# No route calls this; it stays because bench/tracer.py wraps it as
# betti.hk_window and the bench smoke test fails on a missing wrapper.
def betti_from_b1_height_km1(k: int, a: int, b1: int) -> BettiTable:
    """Fill b_2..b_k from b_1 in the height-(k-1) window (Herzog-Kuhl solve)."""
    b = [b1]
    for i in range(2, k + 1):
        b.append(sum(comb(j, i - 2) * (b1 - comb(a + j, j)) for j in range(k - 1)))
    return BettiTable(a, k, tuple(b))


def betti_rank2(sigma: FormCollection, a: int) -> BettiTable:
    """Rank <= 2: (e+1, e), e = max(a - sum max(m_i + a - n, 0), 0); rank 1 gives (1,)."""
    ess = essentialize(sigma)
    if ess.k > 2:
        raise ValueError("effective rank %d exceeds 2" % ess.k)
    if not 1 <= a <= ess.n:
        raise ValueError("fold %d out of range 1..%d" % (a, ess.n))
    if ess.k == 1:
        return BettiTable(a, 1, (1,))
    n = ess.n
    e = max(a - sum(max(m + a - n, 0) for m in ess.multiplicities), 0)
    return BettiTable(a, 2, (e + 1, e))


def betti_height1_reduce(sigma: FormCollection, a: int):
    """Strip the forced linear factors in the height-1 regime.

    Form i divides every fold product e_i = max(m_i + a - n, 0) times, so each
    m_i is capped at n - a.  Returns that collection and the fold a - sum e_i,
    where the height is 2, so the caller recurses on it.
    """
    ess = essentialize(sigma)
    n = ess.n
    if a >= n:
        raise ValueError("a = n is the principal case, not a height-1 reduction")
    if height_of_fold_ideal(ess, a) != 1:
        raise ValueError("fold %d does not sit in the height-1 window" % a)
    raw = [(coeffs, min(mult, n - a)) for coeffs, mult in ess.groups]
    return normalize(raw, ess.k, ess.p), a - n + sum(m for _, m in raw)


def betti_nminus1(sigma: FormCollection) -> BettiTable:
    """At fold n-1 the table is (t, t-1, 0, ...) with t the group count."""
    ess = essentialize(sigma)
    n, k, t = ess.n, ess.k, ess.t
    if n < 2:
        raise ValueError("fold n-1 needs n >= 2")
    b = tuple((t, t - 1) + (0,) * k)[:k]
    return BettiTable(n - 1, k, b)


def is_generic(sigma: FormCollection, h: int) -> bool:
    """True when every h >= 1 expanded columns are linearly independent.

    A dependent h-set spans a flat of rank at most h - 1 with at least h
    elements (counted with multiplicity), and any h - 1 columns lie in
    such a flat, so on the effective rank k genericity is
    d_{k-h+1} = n - h + 1.  No k + 1 columns are independent.
    """
    if h < 1:
        raise ValueError("genericity needs h >= 1, got h = %d" % h)
    ess = essentialize(sigma)
    k, n = ess.k, ess.n
    return h <= k and hamming_weights(ess).d[k - h] == n - h + 1


def betti_cm_generic(sigma: FormCollection, a: int) -> BettiTable:
    """The Cohen-Macaulay binomial table for (n-a)-generic collections."""
    ess = essentialize(sigma)
    n, k = ess.n, ess.k
    if not n - k + 1 <= a <= n:
        raise ValueError("fold %d outside the Cohen-Macaulay window %d..%d" % (a, n - k + 1, n))
    h = min(n - a + 1, k)
    if not is_generic(ess, h):
        raise ValueError("not (n-a)-generic")
    p = n - a + 1
    b = tuple(
        comb(n, i + a - 1) * comb(i + a - 2, a - 1) if i <= p else 0
        for i in range(1, k + 1)
    )
    return BettiTable(a, k, b)


def herzog_kuhl_residuals(table: BettiTable, a: int, height: int):
    """The height-many Herzog-Kuhl left-hand sides; all zero for a true table."""
    k = table.k
    residuals = [sum((-1) ** i * table.b[i - 1] for i in range(1, k + 1)) + 1]
    for j in range(1, height):
        # prod_{u=1..j} (a + i - u) = perm(a + i - 1, j)
        residuals.append(sum((-1) ** i * perm(a + i - 1, j) * table.b[i - 1] for i in range(1, k + 1)))
    return tuple(residuals)


def betti_recursion(sigma: FormCollection, a: int) -> BettiTable:
    """Full Betti table by deletion-contraction with closed-form base cases.

    Dispatch order: trivial fold, essentialize, rank <= 2, maximal power
    (height k), height-1 reduction, a = n, a = n-1, Cohen-Macaulay generic,
    and only then one deletion-contraction step at the group of largest
    multiplicity.
    """
    if a < 1:
        raise ValueError("fold must be at least 1")
    ess = essentialize(sigma)
    key = (ess, a)
    hit = _recursion_cache.get(key)
    if hit is not None:
        return hit
    return memo_put(_recursion_cache, key, _recursion_dispatch(ess, a))


def _recursion_dispatch(ess, a):
    k, n = ess.k, ess.n
    if a > n:
        return _zero_table(a, k)
    if k <= 2:
        return betti_rank2(ess, a)
    h = height_of_fold_ideal(ess, a)
    if h == k:
        return betti_maximal_power(k, a)
    if h == 1 and a < n:
        reduced, e = betti_height1_reduce(ess, a)
        inner = betti_recursion(reduced, e)
        return BettiTable(a, inner.k, inner.b)
    if a == n:
        return BettiTable(a, k, (1,) + (0,) * (k - 1))
    if a == n - 1:
        return betti_nminus1(ess)
    if a >= n - k + 1 and is_generic(ess, min(n - a + 1, k)):
        return betti_cm_generic(ess, a)
    # rank k >= 3 means three or more groups, so both minors exist; the height-1
    # branch took every a > d_(k-1) = n - m_0, which is the contraction's n
    t_del = betti_recursion(delete(ess, 0), a - 1)
    t_con = betti_recursion(contract(ess, 0), a)
    b = tuple(
        _entry(t_del, i) + _entry(t_con, i) + _entry(t_con, i - 1)
        for i in range(1, k + 1)
    )
    return BettiTable(a, k, b)


def compute_betti(sigma: FormCollection, a: int, method: str = "auto") -> BettiTable:
    """Betti table by the requested method.

    ``auto`` sends a > n (zero table) and effective rank <= 2 to the
    recursion's closed forms and reads every other fold off T, as
    ``tutte_hk`` does for every 1 <= a <= n; ``recursion`` enforces
    1 <= a <= n; ``oracle`` delegates to the Hilbert-function engine.
    """
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if a < 1:
        raise ValueError("fold must be at least 1")
    if method == "auto":
        ess = essentialize(sigma)
        if a > ess.n or ess.k <= 2:
            return betti_recursion(ess, a)
        return betti_tutte(ess, a)
    if a > sigma.n:
        raise ValueError("fold %d exceeds n = %d" % (a, sigma.n))
    if method == "recursion":
        return betti_recursion(sigma, a)
    if method == "oracle":
        from .oracle import betti_from_hilbert

        return betti_from_hilbert(sigma, a)
    return betti_tutte(sigma, a)
