"""Exact sparse integer linear algebra.

Everything here runs on Python ints, so coefficients never overflow silently.
Matrices are stored row-sparse (dict of row -> dict of col -> nonzero value);
only the constructor drops zero entries and empty rows, from raw sums.
The Smith normal form routine has one pivot rule: pivots come from a heap of
the entries of least |value|, least fill score first, built when it runs
empty; a popped entry whose score has grown past the next one's goes back
with its fresh score.  While that value is 1, a popped entry that stopped
being +-1 is skipped, so it takes unit pivots while a +-1 entry survives and
gcd pivots only on the residue.  A gcd-phase pick is taken as it stands:
after earlier gcd steps it need not be an entry of least |value| any more,
which costs gcd rounds but not exactness.  Row steps clear the pivot column first; each
column step then changes only the pivot row's entry, and with transforms
one column of V and one row of V^-1.  Fill still
grows: on the 1024x4096 top boundary of the B Z/4 nerve at level 6
(18,511 nonzeros) the working matrix reaches about 50,000 nonzeros and row
operations dominate the time.  ``homalg`` therefore removes free unit pairs
from a chain complex before it calls this routine, and leaves out the rows of
d_k that the unit pivots of d_{k-1} clear (``SmithForm.unit_pivots``): there
the top residual shrinks from 243x3459 (3,885 nonzeros) to 183x3459 (2,926).

The elimination only diagonalizes: no pivot is made to divide the next.
``invariant_factors`` merges the pivots into the divisibility chain by gcd
and lcm, and ``homalg`` canonicalizes every direct sum of cyclic groups with
it, so it is the one place a chain is formed.

The Smith normal form is the only rank kernel.  Over Q and F_p the rank of
an integer matrix is read off its invariant factors: their number over Q, and
over F_p the number that p does not divide (the unimodular transforms stay
invertible mod p).

A transform form carries only the sparse column transform V and its
inverse: A V = U^-1 D for a unimodular U that is never built.  Columns of V
beyond the rank are a saturated kernel basis, and the same rows of V^-1 give
a kernel vector's coordinates in it.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate
from typing import Iterable, NamedTuple


class SparseIntMatrix:
    """Immutable-by-convention sparse integer matrix.

    ``data`` maps row index -> {col index -> value}; zero entries are never
    stored.  Do not mutate ``data`` after construction.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: dict[int, dict[int, int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.data = {}
        if data:
            for r, row in data.items():
                clean = {c: v for c, v in row.items() if v}
                if clean:
                    if not (0 <= r < rows):
                        raise ValueError(f"row index {r} out of range")
                    for c in clean:
                        if not (0 <= c < cols):
                            raise ValueError(f"col index {c} out of range")
                    self.data[r] = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseIntMatrix":
        return SparseIntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "SparseIntMatrix":
        return SparseIntMatrix(n, n, {i: {i: 1} for i in range(n)})

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Iterable[tuple[int, int, int]]) -> "SparseIntMatrix":
        data: dict[int, dict[int, int]] = {}
        for r, c, v in entries:
            row = data.setdefault(r, {})
            row[c] = row.get(c, 0) + v
        return SparseIntMatrix(rows, cols, data)

    @staticmethod
    def from_dense(dense: list[list[int]], cols: int | None = None) -> "SparseIntMatrix":
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        data = {r: dict(enumerate(row)) for r, row in enumerate(dense)}
        return SparseIntMatrix(rows, cols, data)

    # -- access ------------------------------------------------------------

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, row in self.data.items():
            for c, v in row.items():
                out[r][c] = v
        return out

    def column(self, c: int) -> dict[int, int]:
        return {r: row[c] for r, row in self.data.items() if c in row}

    def nnz(self) -> int:
        return sum(len(row) for row in self.data.values())

    def is_zero(self) -> bool:
        return not self.data

    def entries(self):
        for r in sorted(self.data):
            row = self.data[r]
            for c in sorted(row):
                yield r, c, row[c]

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def transpose(self) -> "SparseIntMatrix":
        data: dict[int, dict[int, int]] = {}
        for r, row in self.data.items():
            for c, v in row.items():
                data.setdefault(c, {})[r] = v
        return SparseIntMatrix(self.cols, self.rows, data)

    def scale(self, k: int) -> "SparseIntMatrix":
        return SparseIntMatrix(self.rows, self.cols,
                               {r: {c: k * v for c, v in row.items()} for r, row in self.data.items()})

    def add(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        data = {r: dict(row) for r, row in self.data.items()}
        for r, row in other.data.items():
            dst = data.setdefault(r, {})
            for c, v in row.items():
                dst[c] = dst.get(c, 0) + v
        return SparseIntMatrix(self.rows, self.cols, data)

    def sub(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        data: dict[int, dict[int, int]] = {}
        for r, row in self.data.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                brow = other.data.get(k)
                if not brow:
                    continue
                for c, w in brow.items():
                    acc[c] = acc.get(c, 0) + v * w
            data[r] = acc
        return SparseIntMatrix(self.rows, other.cols, data)

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector (dict col -> value)."""
        out: dict[int, int] = {}
        for r, row in self.data.items():
            s = 0
            for c, v in row.items():
                w = vec.get(c)
                if w:
                    s += v * w
            if s:
                out[r] = s
        return out

    @staticmethod
    def block(blocks: dict[tuple[int, int], "SparseIntMatrix"],
              row_sizes: list[int], col_sizes: list[int]) -> "SparseIntMatrix":
        """Assemble a block matrix; blocks keyed by (block_row, block_col)."""
        row_off = list(accumulate(row_sizes, initial=0))
        col_off = list(accumulate(col_sizes, initial=0))
        data: dict[int, dict[int, int]] = {}
        for (br, bc), m in blocks.items():
            if m.rows != row_sizes[br] or m.cols != col_sizes[bc]:
                raise ValueError("block shape mismatch")
            ro, co = row_off[br], col_off[bc]
            for r, row in m.data.items():
                dst = data.setdefault(ro + r, {})
                for c, v in row.items():
                    dst[co + c] = v
        return SparseIntMatrix(row_off[-1], col_off[-1], data)


class SmithForm(NamedTuple):
    """Invariant factors d_1 | d_2 | ... (all positive), plus optional transforms.

    ``diagonal`` holds the pivots, positive, in elimination order; they need
    not divide one another, and ``factors`` is their chain
    (``invariant_factors``), of the same length.  When transforms were
    requested, V is unimodular, V_inv is its inverse, and column i of A @ V
    is ``diagonal[i]`` times a column of some unimodular matrix for i < rank
    and zero from ``rank`` on.

    ``unit_pivots`` are the columns of the pivots taken, in order, before the
    first pick of an entry other than +-1.  Such a pivot's column steps all
    start from its own column c, so with W their product, W^-1 differs from
    the identity only in those rows c, and column c of A W is a lone +-1
    after the row steps.  So for any B with A B = 0, W^-1 B is B with those
    rows zeroed: B without them has the same Smith form.  The prefix stops at
    the first non-unit pick, even if its pivot ends as +-1, and takes no
    later unit pick: a gcd pivot can move to the column of a remainder,
    which leaves a column whose row of W^-1 its steps changed without being
    a final pivot, and a later pivot's steps can add that row to its own.
    """

    factors: tuple[int, ...]
    diagonal: tuple[int, ...]
    V: SparseIntMatrix | None
    V_inv: SparseIntMatrix | None
    unit_pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """The divisibility chain of the direct sum of the cyclic groups Z/n,
    least first, one factor per order (so 1s are kept).

    The chain is kept as {factor: multiplicity}.  Each order n is merged in
    by Z/f + Z/n = Z/gcd(f, n) + Z/lcm(f, n), applied to one entry of each
    distinct factor f from the least up with n replaced by the lcm; the last
    lcm joins the chain.  Nothing is factored: each order costs one gcd per
    distinct factor, and distinct factors of a chain at least double from
    one to the next, so there are at most 1 + log2 of the largest one.
    """
    chain: dict[int, int] = {}
    for n in orders:
        if n <= 0:
            raise ValueError("cyclic orders must be positive")
        for f in sorted(chain):
            g = math.gcd(f, n)
            if g != f:
                chain[f] -= 1
                if not chain[f]:
                    del chain[f]
                chain[g] = chain.get(g, 0) + 1
                n = n // g * f
        chain[n] = chain.get(n, 0) + 1
    return tuple(f for f in sorted(chain) for _ in range(chain[f]))


def _fill_score(rows, colrows, r, c):
    return (len(rows[r]) - 1) * (len(colrows[c]) - 1)


def smith_normal_form(A: SparseIntMatrix, transforms: bool = False) -> SmithForm:
    """Smith normal form over Z.

    Pivot rows and columns are deleted as they are cleared.  With transforms
    every column operation is also applied to V and, inverted, to V_inv; the
    row operations are not recorded.
    """
    rows: dict[int, dict[int, int]] = {r: dict(row) for r, row in A.data.items()}
    colrows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            colrows.setdefault(c, set()).add(r)

    # V as sparse columns, V_inv as sparse rows
    V_cols = [{j: 1} for j in range(A.cols)] if transforms else None
    Vinv_rows = [{j: 1} for j in range(A.cols)] if transforms else None

    def row_axpy(i: int, r: int, coef: int):
        """row_i += coef * row_r on the working matrix."""
        dst = rows[i]
        for c, v in rows[r].items():
            nv = dst.get(c, 0) + coef * v
            if nv:
                if c not in dst:
                    colrows.setdefault(c, set()).add(i)
                dst[c] = nv
            else:
                if c in dst:
                    del dst[c]
                    colrows[c].discard(i)
        if not dst:
            del rows[i]

    diag: list[int] = []
    pivot_cols: list[int] = []  # in elimination order
    units = None  # the number of pivots before the first non-unit pick
    heap: list[tuple[int, int, int]] = []
    heap_abs = 0

    def rebuild_heap():
        """Fill the heap with the entries of least |value|, least fill first."""
        nonlocal heap, heap_abs
        heap_abs = min((abs(v) for row in rows.values() for v in row.values()), default=0)
        heap = [(_fill_score(rows, colrows, r, c), r, c)
                for r, row in rows.items() for c, v in row.items() if abs(v) == heap_abs]
        heapq.heapify(heap)

    def pick_pivot():
        while True:
            if not heap:
                rebuild_heap()
                if not heap:
                    return None
            score, r, c = heapq.heappop(heap)
            row = rows.get(r)
            if row is None or c not in row:
                continue
            if heap_abs == 1 and abs(row[c]) != 1:
                continue
            fresh = _fill_score(rows, colrows, r, c)
            if fresh > score and heap and heap[0][0] < fresh:
                heapq.heappush(heap, (fresh, r, c))
                continue
            return r, c

    def clean_pivot(r: int, c: int) -> tuple[int, int]:
        """Clear the pivot's row and column with gcd steps.

        Returns the final pivot position; afterwards row r holds only the
        pivot entry and column c holds only the pivot entry.  Each pass
        either finishes or strictly shrinks |pivot|, so this terminates.
        """
        while True:
            # clear the column via row operations; a remainder smaller than
            # |d| that survives becomes the pivot row
            while True:
                d = rows[r][c]
                for i in sorted(colrows[c] - {r}):
                    q = rows[i][c] // d
                    if q:
                        row_axpy(i, r, -q)
                rem = min(((abs(rows[i][c]), i) for i in colrows[c] - {r}), default=None)
                if rem is None:
                    break
                r = rem[1]
            # clear the row via column operations: column c is now {r}, so
            # col_j -= q * col_c changes only the entry (r, j)
            row = rows[r]
            d = row[c]
            for j in sorted(j for j in row if j != c):
                q, m = divmod(row[j], d)
                if q:
                    if m:
                        row[j] = m
                    else:
                        del row[j]
                        colrows[j].discard(r)
                    if transforms:
                        _axpy(V_cols[j], V_cols[c], -q)
                        _axpy(Vinv_rows[c], Vinv_rows[j], q)
            left = min(((abs(v), j) for j, v in row.items() if j != c), default=None)
            if left is None:
                return r, c
            c = left[1]

    while True:
        picked = pick_pivot()
        if picked is None:
            break
        if units is None and abs(rows[picked[0]][picked[1]]) != 1:
            units = len(diag)
        r, c = clean_pivot(*picked)
        d = rows[r][c]

        if transforms and d < 0:
            # negate column c of V and row c of V_inv; the pivot row goes next
            for vec in (V_cols[c], Vinv_rows[c]):
                for k in vec:
                    vec[k] = -vec[k]

        diag.append(abs(d))
        pivot_cols.append(c)
        del rows[r]
        if colrows.pop(c) != {r}:
            raise AssertionError("pivot column not clean at removal")

    factors, diagonal = invariant_factors(diag), tuple(diag)
    unit_pivots = tuple(pivot_cols[:units])
    if not transforms:
        return SmithForm(factors, diagonal, None, None, unit_pivots)

    # Move pivot k to position (k, k): column k of V and row k of V_inv.
    col_perm = pivot_cols + sorted(set(range(A.cols)) - set(pivot_cols))
    Vt = SparseIntMatrix(A.cols, A.cols, {k: V_cols[c] for k, c in enumerate(col_perm)})
    Vinv = SparseIntMatrix(A.cols, A.cols, {k: Vinv_rows[c] for k, c in enumerate(col_perm)})
    return SmithForm(factors, diagonal, Vt.transpose(), Vinv, unit_pivots)


def _axpy(dst: dict[int, int], src: dict[int, int], coef: int):
    """dst += coef * src on sparse vectors, dropping zeros."""
    for k, v in src.items():
        nv = dst.get(k, 0) + coef * v
        if nv:
            dst[k] = nv
        else:
            del dst[k]
