"""Finite presentations: abelianization, quotients, and index-2 covers.

Words are tuples of nonzero signed integers: +k is the k-th generator
(1-based), -k its inverse.  Relators are stored freely reduced.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import index
from typing import Dict, List, Sequence, Tuple

from .errors import BudgetExceeded, DimensionMismatch, SchemaError, ZeroCharacter
from .exact import IntMatrix, inverse_unimodular, smith_diagonal, smith_normal_form

Word = Tuple[int, ...]

# letters of one parsed word once its powers are expanded
MAX_WORD_LETTERS = 10**6


def free_reduce(word: Sequence[int]) -> Word:
    out: List[int] = []
    try:
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(index(x))
    except TypeError as ex:
        raise SchemaError(f"word letter: {ex}") from None
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i, j = i + 1, j - 1
    return w[i:j + 1]


def inverse_word(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def exponent_vector(word: Sequence[int], n_generators: int) -> tuple:
    v = [0] * n_generators
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def parse_word(tokens: Sequence[str], generators: Sequence[str]) -> Word:
    """Tokens like "a1" or "b2^-1" to a signed index word."""
    if not isinstance(tokens, (list, tuple)):
        raise SchemaError(f"a word is a list of tokens, not {tokens!r}")
    index = {g: i + 1 for i, g in enumerate(generators)}
    out = []
    for tok in tokens:
        if not isinstance(tok, str):
            raise SchemaError(f"word token {tok!r} is not a string")
        name, _, exp = tok.partition("^")
        if name not in index:
            raise SchemaError(f"unknown generator {name!r}")
        try:
            e = int(exp) if exp else 1
        except ValueError:
            raise SchemaError(f"token {tok!r}: the power is not an integer") from None
        if e == 0:
            continue
        if len(out) + abs(e) > MAX_WORD_LETTERS:
            raise BudgetExceeded(f"token {tok!r}: the word would exceed {MAX_WORD_LETTERS} letters")
        out.extend([index[name] if e > 0 else -index[name]] * abs(e))
    return tuple(out)


def format_word(word: Sequence[int], generators: Sequence[str]) -> list:
    toks = []
    for x in word:
        name = generators[abs(x) - 1]
        toks.append(name if x > 0 else f"{name}^-1")
    return toks


@dataclass(frozen=True)
class FinitePresentation:
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise SchemaError("duplicate generator names")
        reduced = tuple(free_reduce(r) for r in self.relators)
        for r in reduced:
            for x in r:
                if x == 0 or abs(x) > n:
                    raise SchemaError(f"relator letter {x} out of range")
        object.__setattr__(self, "relators", reduced)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def relator_matrix(self) -> IntMatrix:
        """Exponent-sum matrix, one row per relator."""
        return IntMatrix([exponent_vector(r, self.rank) for r in self.relators])

    def relator_rows(self) -> List[Dict[int, int]]:
        """The rows of relator_matrix() as {column: exponent}, zeros dropped."""
        rows = []
        for r in self.relators:
            row: Dict[int, int] = {}
            for x, k in Counter(r).items():
                row[abs(x) - 1] = row.get(abs(x) - 1, 0) + (k if x > 0 else -k)
            rows.append({j: v for j, v in row.items() if v})
        return rows


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: Z^free_rank + sum Z/d, divisor chain."""

    free_rank: int
    torsion: Tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise SchemaError("torsion is not a divisor chain")
        if any(t < 2 for t in self.torsion):
            raise SchemaError("torsion entries must be >= 2")

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def abelianize(p: FinitePresentation) -> AbelianInvariants:
    return _invariants(p, smith_diagonal(p.relator_rows()))


def _invariants(p: FinitePresentation, diagonal: Sequence[int]) -> AbelianInvariants:
    """Abelianization of p from the nonzero Smith diagonal of its relator
    matrix or of the transpose (the two share it)."""
    return AbelianInvariants(
        free_rank=p.rank - len(diagonal), torsion=tuple(d for d in diagonal if d > 1)
    )


def quotient_by_normal_closure(
    p: FinitePresentation, extra: Sequence[Sequence[int]]
) -> FinitePresentation:
    """Adjoin extra relators; the normal closure is implicit in presentation
    semantics."""
    new = tuple(free_reduce(w) for w in extra)
    return FinitePresentation(p.generators, p.relators + new)


# ---------------------------------------------------------------------------
# surface groups and index-2 covers


@dataclass(frozen=True)
class SurfaceGroup:
    """Fundamental group of the closed orientable surface of the given genus,
    generators a1, b1, ..., ag, bg with the single product-of-commutators
    relator."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise SchemaError("genus must be >= 1")

    @property
    def generator_names(self) -> Tuple[str, ...]:
        names = []
        for i in range(1, self.genus + 1):
            names += [f"a{i}", f"b{i}"]
        return tuple(names)

    def relator(self) -> Word:
        w: List[int] = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            w += [a, b, -a, -b]
        return tuple(w)

    def presentation(self) -> FinitePresentation:
        return FinitePresentation(self.generator_names, (self.relator(),))


@dataclass(frozen=True)
class LiftResult:
    chi_value: int
    words: Tuple[Word, ...]     # lifts written in Schreier generators
    classes: Tuple[tuple, ...]  # homology classes in the cover basis


@dataclass(frozen=True)
class DoubleCover:
    """Index-2 kernel of chi composed with abelianization, presented via
    Reidemeister-Schreier with transversal {1, t}, t the first generator with
    chi = 1.

    Schreier generators are named ``g^(0)`` / ``g^(1)`` by coset, in base
    generator order; the tree generator (coset 0, t) is dropped.  The homology
    basis is the Schreier generators in declaration order, with the quotient
    by the rewritten relators taken in Smith coordinates.
    """

    base: SurfaceGroup
    character: Tuple[int, ...]
    transversal_gen: int
    schreier_gens: Tuple[Tuple[int, int], ...]  # (coset, base generator)
    cover_presentation: FinitePresentation
    # quotient data: y = left * x; the first _relations coordinates span the
    # relator lattice (Smith diagonal 1) and are dropped
    _left: IntMatrix = field(repr=False)
    _relations: int = field(repr=False)

    @property
    def n_schreier(self) -> int:
        return len(self.schreier_gens)

    def chi_of_word(self, word: Sequence[int]) -> int:
        return sum(self.character[abs(x) - 1] for x in word) % 2

    def rewrite(self, word: Sequence[int], start_coset: int = 0) -> Word:
        """Schreier rewriting of a closed walk based at the given coset."""
        gid = {ux: k + 1 for k, ux in enumerate(self.schreier_gens)}
        return _schreier_rewrite(word, start_coset, self.character, gid)

    def class_of(self, schreier_word: Sequence[int]) -> tuple:
        """Homology class in H1(cover) coordinates."""
        v = exponent_vector(schreier_word, self.n_schreier)
        return self._left.apply(v)[self._relations:]

    def homology_dim(self) -> int:
        return self.n_schreier - self._relations

    def deck_matrix(self) -> IntMatrix:
        """Action of the deck involution on H1(cover) in quotient
        coordinates, computed from the Schreier rewriting of t * s * t^-1:
        the kept rows of U, times the action on Z^schreier, times the kept
        columns of U^-1 (a section of the quotient map)."""
        t = self.transversal_gen
        n = self.n_schreier
        cols = []
        for (u, x) in self.schreier_gens:
            # base word of the Schreier generator: rep(u) x rep(u ^ chi(x))^-1
            rep = () if u == 0 else (t,)
            u2 = u ^ self.character[x - 1]
            rep2 = () if u2 == 0 else (t,)
            base_word = rep + (x,) + inverse_word(rep2)
            conj = free_reduce((t,) + base_word + (-t,))
            cols.append(exponent_vector(self.rewrite(conj, 0), n))
        deck_full = IntMatrix(list(zip(*cols)))  # action on Z^schreier
        r = self._relations
        project = IntMatrix(self._left.entries[r:])
        section = IntMatrix([row[r:] for row in inverse_unimodular(self._left).entries])
        return project * deck_full * section


def _schreier_rewrite(
    word: Sequence[int], start: int, chi: Sequence[int], gid: dict
) -> Word:
    """Schreier rewriting of a closed walk based at coset ``start``; ``gid``
    numbers the Schreier generators (coset, base generator) from 1, and the
    dropped tree generator is absent from it."""
    u = start
    out: List[int] = []
    for x in word:
        cx = chi[abs(x) - 1]
        if x > 0:
            g = gid.get((u, x), 0)
            if g:
                out.append(g)
            u ^= cx
        else:
            u ^= cx
            g = gid.get((u, -x), 0)
            if g:
                out.append(-g)
    if u != start:
        raise SchemaError("word does not define a closed walk at this coset")
    return free_reduce(out)


def reidemeister_schreier_double_cover(
    s: SurfaceGroup, chi: Sequence[int]
) -> DoubleCover:
    try:
        chi = tuple(index(c) % 2 for c in chi)
    except TypeError as ex:
        raise SchemaError(f"character entry: {ex}") from None
    n = 2 * s.genus
    if len(chi) != n:
        raise DimensionMismatch("character length != 2g")
    if not any(chi):
        raise ZeroCharacter("chi = 0 gives a disconnected cover")
    t = next(i + 1 for i in range(n) if chi[i] == 1)

    gens: List[Tuple[int, int]] = []
    for u in (0, 1):
        for x in range(1, n + 1):
            if (u, x) == (0, t):
                continue
            gens.append((u, x))
    names = tuple(f"{s.generator_names[x - 1]}^({u})" for (u, x) in gens)
    gid = {ux: k + 1 for k, ux in enumerate(gens)}
    r = s.relator()
    relators = (_schreier_rewrite(r, 0, chi, gid), _schreier_rewrite(r, 1, chi, gid))
    pres = FinitePresentation(names, relators)

    # quotient coordinates for H1(cover) = Z^N / relator lattice; the same
    # Smith form gives the abelianization
    snf = smith_normal_form(pres.relator_matrix().transpose())
    inv = _invariants(pres, snf.diagonal)
    expected = 2 * (2 * s.genus - 1)
    if inv.free_rank != expected or inv.torsion:
        # a surface cover has free H1 of rank 2 * (2g - 1): anything else
        # would signal a rewriting bug
        raise SchemaError(f"cover abelianization {inv} != free rank {expected}")
    return DoubleCover(
        base=s,
        character=chi,
        transversal_gen=t,
        schreier_gens=tuple(gens),
        cover_presentation=pres,
        _left=snf.left,
        _relations=snf.rank,
    )


def lift_loop(cov: DoubleCover, word: Sequence[int]) -> LiftResult:
    """Lifts of a based loop to the double cover.

    chi(word) = 0: the two disjoint lifts (the rewriting of the word and of
    its conjugate by the nontrivial coset representative).
    chi(word) = 1: the single connected lift, the rewriting of the square.
    """
    w = free_reduce(word)
    c = cov.chi_of_word(w)
    t = cov.transversal_gen
    if c == 0:
        w0 = cov.rewrite(w, 0)
        w1 = cov.rewrite(free_reduce((t,) + w + (-t,)), 0)
        words = (w0, w1)
    else:
        words = (cov.rewrite(w + w, 0),)
    return LiftResult(
        chi_value=c,
        words=words,
        classes=tuple(cov.class_of(x) for x in words),
    )
