"""Exact integer elimination over the rationals and prime fields.

Every matrix here holds Python ints.  With ``p=None`` the ints stand for
rationals and elimination is fraction-free: pivot and entry are divided by
their gcd, which keeps the integers small, then the row is updated by
``pivot * row - entry * pivot_row``; echelon rows are kept primitive by one
``math.gcd(*row)``.  With a prime ``p`` the ints are residues and the same
update is reduced mod p, where scaling by a nonzero pivot is invertible.
Callers bring rational input to integers once, when forms are normalized.

One engine, :class:`SparseIntEchelon`, does every elimination, pivoting on
the first nonzero column, so every trace is deterministic.  The oracles,
the pivot columns and basis coordinates in ``forms`` and the Tutte
polynomial's coloop test add rows one at a time.  :func:`bareiss_rank` is
a one-shot rank over it that now serves only ``matroid.subset_rank``, which
no route calls (the tests use it); it is kept by name because the
benchmark's tracer wraps it.

Everything here is a pure function of its inputs or owned by the caller, so
values can be shared freely between concurrent callers.
"""

from __future__ import annotations

from math import gcd


def bareiss_rank(rows, p=None) -> int:
    """Rank of an integer matrix (mod ``p`` when given); empty has rank 0.

    The rows are added to one :class:`SparseIntEchelon`.  The name outlives
    the Bareiss loop it once ran because the benchmark's tracer wraps this
    function by name, and its smoke test requires every wrapped name to exist.
    """
    ech = SparseIntEchelon(p)
    for row in rows:
        ech.add(dict(enumerate(row)))
    return ech.rank


class SparseIntEchelon:
    """Incremental echelon over sparse rows (dict col -> int), or mod ``p``."""

    def __init__(self, p=None):
        self.p = p
        self.pivot_rows = {}  # leading column -> dict row

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add(self, row) -> bool:
        """Reduce ``row`` against the basis; returns True if rank grew."""
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
            if p is None:
                g = gcd(v, pv)
                v, pv = v // g, pv // g
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


class IntEchelon(SparseIntEchelon):
    """:class:`SparseIntEchelon` under a name the benchmark's tracer wraps.

    Nothing builds one: the tracer wraps ``IntEchelon.add`` by name and its
    smoke test needs every wrapped name.  A subclass, unlike an alias, keeps
    ``SparseIntEchelon.add`` from being wrapped twice.
    """
