"""Exact integer and GF(2) linear algebra.

Everything here is plain Python integers (arbitrary precision) or 0/1 bits;
no floating point is used anywhere.  Smith normal form uses the
smallest-absolute-value pivot with a deterministic (row, column) tie-break so
transforms are reproducible across runs.
"""
from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, SchemaError


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in entries)
        except TypeError as ex:
            raise SchemaError(f"matrix entry: {ex}") from None
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        # each output row is the sum of a_k * B[k] over the nonzero a_k of the
        # left row, and over the nonzero entries of B[k]: covers multiply
        # transforms whose entries are mostly 0
        b_rows = [[(j, b) for j, b in enumerate(r) if b] for r in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, b_row in zip(row, b_rows):
                if a:
                    for j, b in b_row:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix(out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)) if self.entries else [])

    def apply(self, vector: Sequence[int]) -> tuple:
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def is_identity(self) -> bool:
        n = self.cols
        return self.rows == n and all(
            r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self.entries)
        )


def _bareiss(a: IntMatrix) -> tuple:
    """Fraction-free (Bareiss) row echelon form of a.

    Returns (rank, sign of the row permutation, last pivot).  After each step
    every entry below the pivot rows is a minor of a, so the division by the
    previous pivot is exact (Sylvester's identity); for a square matrix of
    full rank the last pivot is the determinant up to the sign.
    """
    m = [list(r) for r in a.entries]
    rank, sign, prev = 0, 1, 1
    for c in range(a.cols):
        if rank == a.rows:
            break
        piv = next((i for i in range(rank, a.rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[c]
        for i in range(rank + 1, a.rows):
            f = m[i][c]
            m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
    return rank, sign, prev


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(diagonal), with U, V unimodular."""

    diagonal: tuple
    rank: int
    left: IntMatrix
    right: IntMatrix


def _pivot(m, k, rows, cols):
    """Smallest |entry| in m[k:, k:], ties by (row, col).  The scan is
    row-major and replaces only on a smaller value, so it stops at the first
    unit, which the full scan would keep."""
    best = None
    for i in range(k, rows):
        for j in range(k, cols):
            v = abs(m[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
                if v == 1:
                    return best
    return best


def smith_normal_form(a: IntMatrix) -> SmithForm:
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def clear_position(k: int):
        """Bring the smallest-|entry| pivot to (k, k) and clear its row and
        column; re-select the pivot after every pass (remainders are strictly
        smaller, so the selection terminates)."""
        while True:
            piv = _pivot(m, k, rows, cols)
            if piv is None:
                return False
            _, pi, pj = piv
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            if m[k][k] < 0:
                m[k] = [-x for x in m[k]]
                u[k] = [-x for x in u[k]]
            clean = True
            for i in range(k + 1, rows):
                if m[i][k]:
                    row_op(i, k, m[i][k] // m[k][k])
                    if m[i][k]:
                        clean = False
            for j in range(k + 1, cols):
                if m[k][j]:
                    col_op(j, k, m[k][j] // m[k][k])
                    if m[k][j]:
                        clean = False
            if clean:
                return True

    k = 0
    while k < min(rows, cols) and clear_position(k):
        k += 1

    # enforce divisibility chain d_i | d_{i+1}: fold the offender next to its
    # predecessor and re-diagonalize the tail (the fold can smear later rows)
    rank = sum(1 for i in range(min(rows, cols)) if m[i][i] != 0)
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            d1, d2 = m[i][i], m[i + 1][i + 1]
            if d2 % d1 != 0:
                col_op(i, i + 1, -1)
                kk = i
                while kk < min(rows, cols) and clear_position(kk):
                    kk += 1
                changed = True
    diagonal = tuple(m[i][i] for i in range(min(rows, cols)) if m[i][i] != 0)
    return SmithForm(diagonal=diagonal, rank=len(diagonal), left=IntMatrix(u), right=IntMatrix(v))


def smith_diagonal(rows: Sequence[Mapping[int, int]]) -> tuple:
    """The nonzero Smith diagonal of the integer matrix given by its sparse
    rows ({column: entry}), equal to smith_normal_form(a).diagonal of the
    dense matrix a, without the transforms.

    Unit entries are eliminated first on sparse rows (after Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993): the +-1 entry of least
    Markowitz cost (row nnz - 1) * (column nnz - 1), ties by (row, column),
    clears its column by row operations; the column operations that would
    clear its row change only the pivot row, so the row and column are dropped
    and a 1 is counted.  The dense remainder goes to smith_normal_form.

    A row that is a single unit entry has cost 0, and its row operations only
    delete its column from the other rows.  Such rows go first, in one pass
    that costs O(entries), with each row they leave a single unit; a curve
    system's handle curves are such rows.  The Smith diagonal is unique, so
    the order of the pivots does not change it.  After that pass each row's
    unit columns are kept apart, so a row's cheapest unit costs O(units in
    the row) to find again, not O(row length).
    """
    rows = {i: {j: x for j, x in r.items() if x} for i, r in enumerate(rows)}
    rows_of = {}  # column -> rows holding an entry in it
    for i, r in rows.items():
        for j in r:
            rows_of.setdefault(j, set()).add(i)
    units = 0
    single = [i for i, r in rows.items() if len(r) == 1]
    while single:
        p = single.pop()
        if p not in rows or len(rows[p]) != 1:  # taken, or emptied since
            continue
        (q, x), = rows[p].items()
        if x != 1 and x != -1:
            continue
        del rows[p]
        units += 1
        for i in rows_of.pop(q) - {p}:
            r = rows[i]
            del r[q]
            if len(r) == 1:
                single.append(i)
    units_of = {i: {j for j, x in r.items() if x == 1 or x == -1} for i, r in rows.items()}

    def best(i):
        """(cost, column) of the cheapest unit entry of row i, or None."""
        n = len(rows[i]) - 1
        return min(((n * (len(rows_of[j]) - 1), j) for j in units_of[i]), default=None)

    # a row's current best entry is in the heap whenever the row or one of
    # its columns changes; items that no longer match are skipped
    heap = []

    def push(changed):
        for i in changed:
            b = best(i)
            if b:
                heapq.heappush(heap, (b[0], i, b[1]))

    push(rows)
    while heap:
        c, p, q = heapq.heappop(heap)
        if p not in rows or best(p) != (c, q):
            continue
        top = rows.pop(p)
        del units_of[p]
        s = top.pop(q)
        changed_rows, changed_cols = rows_of.pop(q) - {p}, set(top)
        for i in changed_rows:
            r, unit_cols = rows[i], units_of[i]
            f = r.pop(q) * s  # s is its own inverse
            unit_cols.discard(q)
            for j, x in top.items():
                y = r.get(j, 0) - f * x
                if y:
                    if j not in r:
                        rows_of[j].add(i)
                        changed_cols.add(j)
                    r[j] = y
                    if y == 1 or y == -1:
                        unit_cols.add(j)
                    else:
                        unit_cols.discard(j)
                elif j in r:
                    del r[j]
                    unit_cols.discard(j)
                    rows_of[j].discard(i)
                    changed_cols.add(j)
        for j in top:
            rows_of[j].discard(p)
        units += 1
        for j in changed_cols:
            changed_rows |= rows_of[j]
        push(changed_rows)
    cols = sorted(j for j, owners in rows_of.items() if owners)
    rest = [[r.get(j, 0) for j in cols] for _, r in sorted(rows.items()) if r]
    if not rest:
        return (1,) * units
    return (1,) * units + smith_normal_form(IntMatrix(rest)).diagonal


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exactly: U * m * V = I gives
    m^-1 = V * U."""
    if m.rows != m.cols:
        raise DimensionMismatch("square matrix required")
    snf = smith_normal_form(m)
    if snf.rank != m.rows:
        raise DimensionMismatch("matrix is singular")
    if any(d != 1 for d in snf.diagonal):
        raise DimensionMismatch("matrix is not unimodular")
    return snf.right * snf.left


def rank_over_rationals(a: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Independent of the Smith-form route; the two are cross-checked in tests.
    """
    return _bareiss(a)[0]


# ---------------------------------------------------------------------------
# GF(2)

class F2Matrix:
    """Dense matrix over the two-element field, entries 0/1."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        try:
            rows = tuple(tuple(operator.index(x) & 1 for x in row) for row in entries)
        except TypeError as ex:
            raise SchemaError(f"matrix entry: {ex}") from None
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("F2Matrix is immutable")

    def __eq__(self, other):
        return isinstance(other, F2Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"F2Matrix({[list(r) for r in self.entries]})"

    def apply(self, vector: Sequence[int]) -> tuple:
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length")
        return tuple(sum(a * x for a, x in zip(row, vector)) & 1 for row in self.entries)


def solve_f2(a: F2Matrix, b: Sequence[int]) -> Optional[tuple]:
    """One solution of A x = b over GF(2), or None when the system is
    inconsistent (infeasibility is a normal outcome, not an error).

    Free variables are set to 0.
    """
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length")
    try:
        m = [list(row) + [operator.index(bi) & 1] for row, bi in zip(a.entries, b)]
    except TypeError as ex:
        raise SchemaError(f"right-hand side entry: {ex}") from None
    n = a.cols
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, a.rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(a.rows):
            if i != r and m[i][c]:
                m[i] = [(x ^ y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, a.rows):
        if m[i][n]:
            return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n]
    return tuple(x)
