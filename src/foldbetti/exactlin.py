"""Exact integer elimination over the rationals and prime fields.

Every matrix here holds Python ints.  With ``p=None`` the ints stand for
rationals and elimination is fraction-free: a row is updated by
cross-multiplication, ``pivot * row - entry * pivot_row``, so no fraction
is ever formed; echelon rows are kept primitive by one ``math.gcd(*row)``.
With a prime ``p`` the ints are residues and the same update is reduced
mod p, where multiplying a row by a nonzero pivot is invertible.  Callers
bring rational input to integers once, when forms are normalized (see
``forms``).

Three engines, all pivoting on the first nonzero entry in column order so
that every trace is deterministic:

- :func:`bareiss_rank` for the many small one-shot ranks of the matroid
  layer;
- :class:`IntEchelon` for dense rows added one at a time, each update one
  comprehension over the columns from the pivot on.  The Hilbert oracle
  keeps one per degree: it reads the stored ``pivot_rows`` of degree d,
  shifts each by x_1..x_k into a fresh one for degree d + 1, and stops at
  full column rank; circuit dependencies read the pivot rows too;
- :class:`SparseIntEchelon` for sparse rows (the circuit-relation space),
  each a private dict updated in place that never holds a zero entry.

Everything here is a pure function of its inputs or owned by the caller, so
values can be shared freely between concurrent callers.
"""

from __future__ import annotations

from math import gcd


def bareiss_rank(rows, p=None) -> int:
    """Rank of an integer matrix (mod ``p`` when given); empty has rank 0.

    Over the integers this is Bareiss elimination: the uniform update keeps
    every entry an exact minor, so the division by the previous pivot never
    truncates.  Over GF(p) the update is reduced mod p instead.
    """
    rows = [list(r) if p is None else [x % p for x in r] for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        pc = rows[r][c]
        rowr = rows[r]
        for i in range(r + 1, nr):
            rowi = rows[i]
            ric = rowi[c]
            if p is None:
                for j in range(c + 1, nc):
                    rowi[j] = (pc * rowi[j] - ric * rowr[j]) // prev
            else:
                for j in range(c + 1, nc):
                    rowi[j] = (pc * rowi[j] - ric * rowr[j]) % p
            rowi[c] = 0
        prev = pc
        r += 1
        if r == nr:
            break
    return r


class IntEchelon:
    """Incremental dense row echelon, over the integers or mod ``p``.

    ``pivot_rows`` maps each leading column to its stored row.  Rows are
    reduced against the stored pivots by cross-multiplication; over the
    integers they are kept primitive so entries stay small.
    """

    def __init__(self, width, p=None):
        self.width = width
        self.p = p
        self.pivot_rows = {}  # leading column -> row

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add(self, row) -> bool:
        """Reduce ``row`` against the basis; returns True if rank grew.

        Pivots are cleared only up to the row's first nonzero column without
        one, which becomes the row's own pivot.
        """
        width, p = self.width, self.p
        row = list(row) if p is None else [x % p for x in row]
        pivot_rows = self.pivot_rows
        for c in range(width):
            v = row[c]
            if v == 0:
                continue
            if p is None:  # primitive at each column met: as if divided after each update
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    v = row[c]
            piv = pivot_rows.get(c)
            if piv is None:
                pivot_rows[c] = row
                return True
            pv = piv[c]
            if p is None:
                row[c:] = [pv * x - v * y for x, y in zip(row[c:], piv[c:])]
            else:
                row[c:] = [(pv * x - v * y) % p for x, y in zip(row[c:], piv[c:])]
        return False

    def is_full(self):
        return len(self.pivot_rows) == self.width


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
