"""Words in Dehn twists and their homological evaluation.

A TwistWord evaluates homologically to the product of its letters' symplectic
transvections taken in reading order (first letter leftmost), so that for the
conjugator word phi = t_a t_b one has eval(phi) * T_a * eval(phi)^-1 = T_b.
Words are never simplified.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .errors import NotARelation, NotPositive
from .exact import IntMatrix
from .surfaces import Curve, pairing_row


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
            if len(l.curve.homology) != 2 * self.genus:
                raise NotARelation(
                    f"curve {l.curve.name} lives on a different surface"
                )

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if other.genus != self.genus:
            raise NotARelation("surface mismatch")
        return TwistWord(self.genus, self.letters + other.letters)

    def total_exponent(self) -> int:
        return sum(abs(l.exponent) for l in self.letters)


def evaluate_homological(word: TwistWord) -> IntMatrix:
    """Product of the letters' transvection powers in reading order.

    By the Picard-Lefschetz formula T_c^e = I + e c c^T J (as <c, c> = 0),
    and phi T_c phi^-1 = T_{phi(c)}, so a letter, conjugated or not, is one
    rank-one update of the running product's rows: r <- r + e (r . c) c^T J.
    """
    n = 2 * word.genus
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for l in word.letters:
        c = l.curve.homology
        if l.conjugator is not None:
            c = evaluate_homological(l.conjugator).apply(c)
        support = [(i, x) for i, x in enumerate(c) if x]
        u = [(k, l.exponent * x) for k, x in enumerate(pairing_row(c)) if x]
        for r in rows:
            s = sum(r[i] * x for i, x in support)
            if s:
                for k, x in u:
                    r[k] += s * x
    return IntMatrix(rows)


def is_positive(word: TwistWord) -> bool:
    return all(l.exponent > 0 for l in word.letters)
