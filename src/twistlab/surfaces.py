"""Surface homology: curves, the intersection form, and twist transvections.

Conventions (inherited by every other module): homology basis
(a1, b1, ..., ag, bg) with <a_i, b_i> = +1, and the right twist acting as
T_c(x) = x - <x, c> c.  With these choices the genus-1 twists about a1 and b1
have matrices [[1,1],[0,1]] and [[1,0],[-1,1]].
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatch, SchemaError
from .exact import IntMatrix
from .presentations import free_reduce


@dataclass(frozen=True)
class SurfaceData:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise SchemaError("negative genus")


class HomologyClass:
    """An integer class of length `dim`, stored as its support: the
    (index, coefficient) pairs of its nonzero entries in index order.  Two
    classes are equal when their supports are; iterating gives the dense
    entries.

    A curve of a built geometric presentation has a handful of nonzero
    entries in a class of length 2e, e the built genus, so every step that
    reads the support is O(support) instead of O(e)."""

    __slots__ = ("dim", "support")

    def __init__(self, dim: int, support: Iterable[Tuple[int, int]] = ()):
        pairs = tuple(sorted((operator.index(j), operator.index(x)) for j, x in support))
        pairs = tuple(p for p in pairs if p[1])
        dim = operator.index(dim)
        if any(not 0 <= j < dim for j, _ in pairs) or len({j for j, _ in pairs}) != len(pairs):
            raise DimensionMismatch(f"support {pairs} is not one entry per index below {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", pairs)

    @classmethod
    def from_dense(cls, entries: Sequence[int]) -> "HomologyClass":
        """The class whose dense entries are `entries`."""
        h = tuple(map(operator.index, entries))
        return cls._trusted(len(h), tuple(zip(compress(range(len(h)), h), filter(None, h))))

    @classmethod
    def of_word(cls, word: Sequence[int], dim: int) -> "HomologyClass":
        """The abelianization of a word in the generators 1..dim, signed
        indices as in ``presentations``."""
        acc: Dict[int, int] = {}
        for x, k in Counter(word).items():
            if not 1 <= abs(x) <= dim:
                raise SchemaError(f"word letter {x} outside generators 1..{dim}")
            acc[abs(x) - 1] = acc.get(abs(x) - 1, 0) + (k if x > 0 else -k)
        return cls._trusted(dim, tuple(sorted((j, x) for j, x in acc.items() if x)))

    @classmethod
    def _trusted(cls, dim: int, support: Tuple[Tuple[int, int], ...]) -> "HomologyClass":
        """A class from a support already sorted, nonzero and in range."""
        h = object.__new__(cls)
        object.__setattr__(h, "dim", dim)
        object.__setattr__(h, "support", support)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("HomologyClass is immutable")

    def __iter__(self):
        dense = [0] * self.dim
        for j, x in self.support:
            dense[j] = x
        return iter(dense)

    def __bool__(self):
        return bool(self.support)

    def __eq__(self, other):
        return (
            isinstance(other, HomologyClass)
            and self.dim == other.dim
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.dim, self.support))

    def __repr__(self):
        return f"HomologyClass({self.dim}, {self.support})"


@dataclass(frozen=True)
class Curve:
    """A simple closed curve datum: name, homology class, separating flag and
    an optional fundamental-group word (signed generator indices).  The class
    may be given dense, as a sequence of ints; it is kept as a
    HomologyClass."""

    name: str
    homology: HomologyClass
    separating: bool = False
    word: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        h = self.homology
        if not isinstance(h, HomologyClass):
            try:
                h = HomologyClass.from_dense(h)
            except TypeError as ex:
                raise SchemaError(f"curve {self.name}: homology entry: {ex}") from None
            object.__setattr__(self, "homology", h)
        if self.separating != (not h.support):
            raise SchemaError(
                f"curve {self.name}: separating flag must match a zero homology class"
            )
        if self.word is not None:
            w = free_reduce(self.word)
            object.__setattr__(self, "word", w)
            ab = HomologyClass.of_word(w, h.dim)
            if ab != h:
                raise SchemaError(
                    f"curve {self.name}: word abelianization {tuple(ab)} != homology {tuple(h)}"
                )


def symplectic_j(genus: int) -> IntMatrix:
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(genus):
        m[2 * i][2 * i + 1] = 1
        m[2 * i + 1][2 * i] = -1
    return IntMatrix(m)


def symplectic_inverse(m: IntMatrix) -> IntMatrix:
    """M^-1 = J^-1 M^T J for symplectic M.  J is a signed permutation, so
    entry (i, j) is (-1)^(i+j) M[j^1][i^1] and no product is needed."""
    e = m.entries
    return IntMatrix(
        [[-e[j ^ 1][i ^ 1] if (i ^ j) & 1 else e[j ^ 1][i ^ 1] for j in range(m.cols)]
         for i in range(m.rows)]
    )


def intersection_pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """<x, y> for the standard form; <a_i, b_i> = +1."""
    if len(x) != len(y) or len(x) % 2:
        raise DimensionMismatch("classes must have equal even length")
    total = 0
    for i in range(len(x) // 2):
        total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
    return total


def pairing_row(c: Sequence[int]) -> Tuple[int, ...]:
    """The row c^T J = (-c2, c1, -c4, c3, ...), so that <c, x> = c^T J x."""
    return tuple(x for i in range(0, len(c), 2) for x in (-c[i + 1], c[i]))


def twist_transvection(curve, genus: Optional[int] = None) -> IntMatrix:
    """Matrix of the right twist about the curve on H1: x -> x - <x, c> c,
    that is I + c c^T J.

    Accepts a Curve or a raw class.  A separating curve (zero class) acts
    trivially.
    """
    c = tuple(curve.homology) if isinstance(curve, Curve) else tuple(curve)
    n = len(c)
    if genus is not None and n != 2 * genus:
        raise DimensionMismatch("class length != 2g")
    if n % 2:
        raise DimensionMismatch("odd class length")
    u = pairing_row(c)
    return IntMatrix([[int(i == k) + c[i] * u[k] for k in range(n)] for i in range(n)])


def is_symplectic(m: IntMatrix) -> bool:
    """M^T J M = J for the standard form."""
    if m.rows != m.cols or m.rows % 2:
        raise DimensionMismatch("square even-dimensional matrix required")
    j = symplectic_j(m.rows // 2)
    return m.transpose() * j * m == j
