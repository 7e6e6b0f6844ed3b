"""Surface homology: curves, the intersection form, and twist transvections.

Conventions (inherited by every other module): homology basis
(a1, b1, ..., ag, bg) with <a_i, b_i> = +1, and the right twist acting as
T_c(x) = x - <x, c> c.  With these choices the genus-1 twists about a1 and b1
have matrices [[1,1],[0,1]] and [[1,0],[-1,1]].
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import DimensionMismatch, SchemaError
from .exact import IntMatrix
from .presentations import exponent_vector, free_reduce


@dataclass(frozen=True)
class SurfaceData:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise SchemaError("negative genus")


@dataclass(frozen=True)
class Curve:
    """A simple closed curve datum: name, homology class, separating flag and
    an optional fundamental-group word (signed generator indices)."""

    name: str
    homology: Tuple[int, ...]
    separating: bool = False
    word: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        try:
            h = tuple(map(operator.index, self.homology))
        except TypeError as ex:
            raise SchemaError(f"curve {self.name}: homology entry: {ex}") from None
        object.__setattr__(self, "homology", h)
        if self.separating != (not any(h)):
            raise SchemaError(
                f"curve {self.name}: separating flag must match a zero homology class"
            )
        if self.word is not None:
            w = free_reduce(self.word)
            object.__setattr__(self, "word", w)
            ab = exponent_vector(w, len(h))
            if ab != h:
                raise SchemaError(
                    f"curve {self.name}: word abelianization {ab} != homology {self.homology}"
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
