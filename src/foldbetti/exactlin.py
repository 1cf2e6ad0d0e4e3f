"""Exact integer elimination over the rationals and prime fields.

Every matrix here holds Python ints.  With ``p=None`` the ints stand for
rationals and elimination is fraction-free: a row is updated by
cross-multiplication, ``pivot * row - entry * pivot_row``, so no fraction
is ever formed.  With a prime ``p`` the ints are residues and the same
update is reduced mod p, where multiplying a row by a nonzero pivot is
invertible.  Callers bring rational input to integers once, when forms are
normalized (see ``forms``).

Three engines, all pivoting on the first nonzero entry in column order so
that every trace is deterministic:

- :func:`bareiss_rank` for the many small one-shot ranks of the matroid
  layer;
- :class:`IntEchelon` for dense rows added one at a time.  The Hilbert
  oracle keeps one per degree: it reads the stored ``pivot_rows`` of degree d,
  shifts each by x_1..x_k into a fresh one for degree d + 1, and stops at
  full column rank; circuit dependencies read the pivot rows too;
- :class:`SparseIntEchelon` for sparse rows (the circuit-relation space).

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


def _primitive(values):
    """Divisor that makes integer ``values`` coprime (1 if already so)."""
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            break
    return g


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
            piv = pivot_rows.get(c)
            if piv is None:
                if p is None:
                    g = _primitive(row)
                    if g > 1:
                        row = [x // g for x in row]
                pivot_rows[c] = row
                return True
            pv = piv[c]
            if p is None:
                for j in range(c, width):
                    row[j] = pv * row[j] - v * piv[j]
                g = _primitive(row)
                if g > 1:
                    row = [x // g for x in row]
            else:
                for j in range(c, width):
                    row[j] = (pv * row[j] - v * piv[j]) % p
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

    def _nonzero(self, entries):
        if self.p is None:
            return {j: v for j, v in entries if v}
        p = self.p
        return {j: v % p for j, v in entries if v % p}

    def add(self, row) -> bool:
        """Reduce ``row`` against the basis; returns True if rank grew."""
        row = self._nonzero(row.items())
        while row:
            c = min(row)
            piv = self.pivot_rows.get(c)
            if piv is None:
                if self.p is None:
                    g = _primitive(row.values())
                    if g > 1:
                        row = {j: v // g for j, v in row.items()}
                self.pivot_rows[c] = row
                return True
            v = row.pop(c)
            pv = piv[c]
            new = {j: pv * w for j, w in row.items()}
            for j, w in piv.items():
                if j != c:
                    new[j] = new.get(j, 0) - v * w
            row = self._nonzero(new.items())
        return False
