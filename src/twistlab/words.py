"""Words in Dehn twists and the positive-relation calculus.

A TwistWord evaluates homologically to the product of its letters' symplectic
transvections taken in reading order (first letter leftmost), so that for the
conjugator word phi = t_a t_b one has eval(phi) * T_a * eval(phi)^-1 = T_b.
Words are never auto-simplified; ``normalize`` folds adjacent equal letters
only.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .errors import NotAdjacent, NotARelation, NotConnected, NotPositive
from .exact import IntMatrix
from .surfaces import Curve, intersection_pairing, pairing_row


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

    def inverse(self) -> "TwistWord":
        return TwistWord(self.genus, tuple(l.inverse() for l in reversed(self.letters)))

    def total_exponent(self) -> int:
        return sum(abs(l.exponent) for l in self.letters)

    def expand(self) -> "TwistWord":
        """Split every letter into |exponent| copies of exponent +-1."""
        out = []
        for l in self.letters:
            sign = 1 if l.exponent > 0 else -1
            out.extend(replace(l, exponent=sign) for _ in range(abs(l.exponent)))
        return TwistWord(self.genus, tuple(out))

    def normalize(self) -> "TwistWord":
        """Fold adjacent letters with equal curve and conjugator."""
        out: List[TwistLetter] = []
        for l in self.letters:
            if out and out[-1].curve == l.curve and out[-1].conjugator == l.conjugator:
                e = out[-1].exponent + l.exponent
                out.pop()
                if e:
                    out.append(replace(l, exponent=e))
            else:
                out.append(l)
        return TwistWord(self.genus, tuple(out))


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


def invert_from_positive_relation(rel: TwistWord, i: int) -> TwistWord:
    """Positive word w with t_{l(i)} * w equal to the cyclic rotation of the
    relation starting at position i (1-based, after expansion).

    If the relation evaluates to the identity homologically, then so does
    t_{l(i)} * w, i.e. w evaluates to the twist's inverse.
    """
    if not is_positive(rel):
        raise NotPositive("relation must use positive exponents only")
    flat = rel.expand()
    mu = len(flat.letters)
    if not 1 <= i <= mu:
        raise IndexError(f"position {i} out of range 1..{mu}")
    rotated = flat.letters[i - 1:] + flat.letters[: i - 1]
    return TwistWord(rel.genus, rotated[1:])


def conjugate_adjacent(a: Curve, b: Curve, genus: int) -> TwistWord:
    """Conjugator phi = t_a t_b with eval(phi) T_a eval(phi)^-1 = T_b,
    available whenever |<a, b>| = 1 (the homological adjacency proxy)."""
    if abs(intersection_pairing(a.homology, b.homology)) != 1:
        raise NotAdjacent(f"|<{a.name},{b.name}>| != 1")
    return TwistWord(genus, (TwistLetter(a), TwistLetter(b)))


def express_inverse_positively(
    system,
    r_names: Sequence[str],
    s_names: Sequence[str],
    rel_s: TwistWord,
    c_name: str,
) -> TwistWord:
    """Positive word of conjugated twists evaluating to T_c^-1.

    Walks an adjacency path from c to a curve d of S occurring in the positive
    relation rel_s, rotates the relation at d, and conjugates the tail back
    along the path.
    """
    from .systems import graph_connected_to

    if not is_positive(rel_s):
        raise NotPositive("rel_s must be positive")
    if not evaluate_homological(rel_s).is_identity():
        raise NotARelation("rel_s does not evaluate to the identity")
    if c_name not in r_names:
        raise NotConnected(f"{c_name} is not in R")

    flat = rel_s.expand()
    occurring = {l.curve.name for l in flat.letters}
    targets = [s for s in s_names if s in occurring]
    if not targets:
        raise NotARelation("no curve of S occurs in rel_s")

    ok, paths = graph_connected_to(system, [c_name], targets)
    if not ok:
        raise NotConnected(f"no adjacency path from {c_name} to S")
    path = paths[c_name]
    d_name = path[-1]

    # rotate at the first occurrence of t_d
    pos = next(
        k + 1 for k, l in enumerate(flat.letters) if l.curve.name == d_name
    )
    tail = invert_from_positive_relation(flat, pos)  # evaluates to T_d^-1

    if len(path) == 1:
        return tail

    curves = {c.name: c for c in system.curves}
    # psi_j conjugates t_{path[j]} to t_{path[j+1]}; compose so that
    # eval(Psi) T_c eval(Psi)^-1 = T_d, i.e. Psi = psi_{k-1} ... psi_0
    steps = [
        conjugate_adjacent(curves[path[j]], curves[path[j + 1]], rel_s.genus)
        for j in range(len(path) - 1)
    ]
    psi = TwistWord(rel_s.genus)
    for step in steps:
        psi = step * psi
    psi_inv = psi.inverse()

    out = []
    for l in tail.letters:
        inner = l.conjugator if l.conjugator is not None else TwistWord(rel_s.genus)
        out.append(replace(l, conjugator=psi_inv * inner))
    return TwistWord(rel_s.genus, tuple(out))
