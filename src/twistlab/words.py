"""Words in Dehn twists and their homological evaluation.

A TwistWord evaluates homologically to the product of its letters' symplectic
transvections taken in reading order (first letter leftmost), so that for the
conjugator word phi = t_a t_b one has eval(phi) * T_a * eval(phi)^-1 = T_b.
Words are never simplified.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .errors import NotARelation, NotPositive
from .exact import IntMatrix
from .surfaces import Curve, HomologyClass


@dataclass(frozen=True)
class TwistLetter:
    """t_{phi(c)}^n = phi t_c^n phi^-1; a missing conjugator means phi = 1."""

    curve: Curve
    exponent: int = 1
    conjugator: Optional["TwistWord"] = None

    def __post_init__(self):
        if self.exponent == 0:
            raise NotPositive("letter exponent must be nonzero")

    def inverse(self) -> "TwistLetter":
        return replace(self, exponent=-self.exponent)


@dataclass(frozen=True)
class TwistWord:
    genus: int
    letters: Tuple[TwistLetter, ...] = ()

    def __post_init__(self):
        for l in self.letters:
            if l.curve.homology.dim != 2 * self.genus:
                raise NotARelation(
                    f"curve {l.curve.name} lives on a different surface"
                )

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if other.genus != self.genus:
            raise NotARelation("surface mismatch")
        return TwistWord(self.genus, self.letters + other.letters)

    def total_exponent(self) -> int:
        return sum(abs(l.exponent) for l in self.letters)


class HomologicalValue:
    """The value of a twist word on H1 = Z^dim: the identity except at the
    rows in `rows`, each a dense list.  An untouched row is never built, so
    a value costs O(dim) per row its word touches, and the dense matrix is
    built only when it is asked for."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows: Dict[int, List[int]]):
        self.dim = dim
        self.rows = rows

    def is_identity(self) -> bool:
        return all(r[i] == 1 and r.count(0) == self.dim - 1 for i, r in self.rows.items())

    @property
    def entries(self) -> Tuple[Tuple[int, ...], ...]:
        """The dense rows."""
        n, rows = self.dim, self.rows
        return tuple(
            tuple(rows[i]) if i in rows else tuple(int(i == j) for j in range(n))
            for i in range(n)
        )

    def matrix(self) -> IntMatrix:
        return IntMatrix(self.entries)

    def apply(self, c: HomologyClass) -> HomologyClass:
        """The image of c: its own entries, each touched row's replaced by
        that row's dot product with c."""
        image = dict(c.support)
        for i, r in self.rows.items():
            image[i] = sum(r[j] * x for j, x in c.support)
        return HomologyClass(self.dim, image.items())


def evaluate_homological(word: TwistWord) -> HomologicalValue:
    """Product of the letters' transvection powers in reading order.

    By the Picard-Lefschetz formula T_c^e = I + e c c^T J (as <c, c> = 0),
    and phi T_c phi^-1 = T_{phi(c)}, so a letter, conjugated or not, is one
    rank-one update of the running product's rows: r <- r + e (r . c) c^T J.
    An identity row e_i meets c in c_i, so a letter touches only the rows in
    its class's support and the rows already touched.
    """
    n = 2 * word.genus
    rows: Dict[int, List[int]] = {}
    for l in word.letters:
        c = l.curve.homology
        if l.conjugator is not None:
            c = evaluate_homological(l.conjugator).apply(c)
        support = c.support
        # e c^T J: the row c^T J (``pairing_row``) holds, 0-based, -c_j at
        # j - 1 for odd j and c_j at j + 1 for even j
        e = l.exponent
        u = [(j ^ 1, -e * x if j & 1 else e * x) for j, x in support]
        for i, _ in support:
            if i not in rows:
                rows[i] = [0] * n
                rows[i][i] = 1
        for r in rows.values():
            s = sum(r[i] * x for i, x in support)
            if s:
                for k, x in u:
                    r[k] += s * x
    return HomologicalValue(n, rows)


def is_positive(word: TwistWord) -> bool:
    return all(l.exponent > 0 for l in word.letters)
