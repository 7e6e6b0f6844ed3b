"""Invariants of the total space determined by a monodromy factorization.

Signatures are only computed in the two pinned cases (fiber genus one via the
metaplectic boundary multiplicity, and all-separating vanishing cycles);
anything else is an external input or unknown, and the provenance travels
with the value so downstream formulas never silently mix.  Every report also
records that relations are certified homologically only; the mapping class
group identity is assumed as input.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .errors import GenusMismatch, MissingCommutatorData, NotCentral, NotPositive, SchemaError
from .exact import IntMatrix, smith_diagonal
from .metaplectic import MetaElement, boundary_multiplicity, szpiro_report
from .presentations import AbelianInvariants
from .surfaces import Curve, is_symplectic, symplectic_inverse
from .words import HomologicalValue, TwistWord, evaluate_homological, is_positive

RELATION_CAVEAT = (
    "relation verified homologically; mapping-class-group identity assumed as input"
)


@dataclass(frozen=True)
class Factorization:
    """A monodromy factorization: fiber genus, base genus (0 for the sphere),
    the twist word, its curves, and for a positive-genus base the homological
    images of the commutator factors."""

    fiber_genus: int
    base_genus: int
    word: TwistWord
    curves: Tuple[Curve, ...]
    commutator_part: Optional[Tuple[Tuple[IntMatrix, IntMatrix], ...]] = None

    def __post_init__(self):
        if self.word.genus != self.fiber_genus:
            raise GenusMismatch("word does not live on the fiber surface")
        listed = {c.name: c for c in self.curves}
        for l in self.word.letters:
            # the letters are the one source of the vanishing cycles
            if listed.get(l.curve.name) != l.curve:
                raise SchemaError(f"word letter {l.curve.name!r} is not a listed curve")
        if self.commutator_part is not None:
            for x, y in self.commutator_part:
                if not (is_symplectic(x) and is_symplectic(y)):
                    raise SchemaError("commutator factors must be symplectic")

    def cycles(self) -> Tuple[Curve, ...]:
        """The vanishing cycles: the distinct curves of the word's letters,
        in first-use order."""
        return tuple({l.curve.name: l.curve for l in self.word.letters}.values())

    def cycle_classes(self) -> List[tuple]:
        """Homology classes of the vanishing cycles, in first-use order."""
        return [tuple(c.homology) for c in self.cycles()]

    def verify_homological(self) -> Tuple[bool, Union[HomologicalValue, IntMatrix]]:
        """(passes, residual).  Base genus 0: the word must evaluate to the
        identity, and the residual is the word's value.  Higher base: it must
        equal the product of the supplied commutators."""
        m = evaluate_homological(self.word)
        if self.base_genus == 0:
            return m.is_identity(), m
        target = IntMatrix.identity(2 * self.fiber_genus)
        if self.commutator_part is None:
            if len(self.word.letters) == 0:
                return m.is_identity(), m
            raise MissingCommutatorData("base genus > 0 needs commutator data")
        for x, y in self.commutator_part:
            target = target * (x * y * symplectic_inverse(x) * symplectic_inverse(y))
        residual = m.matrix() * symplectic_inverse(target)
        return residual.is_identity(), residual


def mu(f: Factorization) -> int:
    """Number of singular fibers: each letter t^n contributes n."""
    if not is_positive(f.word):
        raise NotPositive("mu is defined for positive factorizations")
    return f.word.total_exponent()


def euler_characteristic(f: Factorization) -> int:
    """(2 - 2k)(2 - 2g) + mu; the genus-0 base case is the pinned formula,
    the general base is the standard product-plus-mu extension."""
    m = f.word.total_exponent()
    return (2 - 2 * f.base_genus) * (2 - 2 * f.fiber_genus) + m


def h1_total_space(f: Factorization) -> AbelianInvariants:
    """H1 of the total space: Z^2g modulo the span of the vanishing-cycle
    classes (Smith normal form)."""
    if f.base_genus != 0:
        raise SchemaError("h1 computed for base genus 0")
    cycles = f.cycles()
    g2 = 2 * f.fiber_genus
    if not cycles:
        return AbelianInvariants(free_rank=g2, torsion=())
    diagonal = smith_diagonal([dict(c.homology.support) for c in cycles])
    torsion = tuple(d for d in diagonal if d > 1)
    return AbelianInvariants(free_rank=g2 - len(diagonal), torsion=torsion)


def _boundary_case(f: Factorization) -> bool:
    """Fiber genus one with only non-separating vanishing cycles, the case
    whose signature comes from the metaplectic boundary multiplicity."""
    cycles = f.cycles()
    return f.fiber_genus == 1 and bool(cycles) and not any(c.separating for c in cycles)


def signature(
    f: Factorization,
    external: Optional[int] = None,
    homological: Optional[HomologicalValue] = None,
) -> Tuple[Optional[int], str]:
    """(value, provenance), provenance one of computed/external/unknown.

    Computed cases: all vanishing cycles null-homologous (sign = -mu; 0 for
    the smooth product fibration), or fiber genus one with non-separating
    cycles (sign = 4n - mu via the metaplectic boundary multiplicity n, which
    one evaluation of the word gives).  `homological` is the word's value on
    H1 when the caller has it already."""
    if not is_positive(f.word):
        raise NotPositive("signature formulas assume a positive factorization")
    m = f.word.total_exponent()
    if all(c.separating for c in f.cycles()):
        return -m, "computed"
    if _boundary_case(f):
        res = boundary_multiplicity(f.word, homological)
        if isinstance(res, MetaElement):
            raise NotCentral(res)
        return 4 * res - m, "computed"
    return _not_computed(external)


def _not_computed(external: Optional[int]) -> Tuple[Optional[int], str]:
    if external is not None:
        return int(external), "external"
    return None, "unknown"


def _lambda(sign: int, m: int) -> Fraction:
    lam = Fraction(sign + m, 4)
    if lam.denominator != 1:
        raise SchemaError(f"non-integer hodge pairing {lam}: inconsistent input")
    return lam


@dataclass(frozen=True)
class TorelliReport:
    ok: bool
    reason: str


def torelli_certificate(f: Factorization) -> TorelliReport:
    """Contradiction when every vanishing cycle is null-homologous (such a
    positive word cannot come from a genuine fibration: it would force the
    Hodge pairing to vanish where positivity is required); otherwise Ok, with
    sign + mu > 0 asserted whenever the signature is known."""
    if f.base_genus != 0:
        raise SchemaError("certificate applies to sphere-base factorizations")
    if not f.word.letters or not is_positive(f.word):
        raise NotPositive("certificate needs a nonempty positive word")
    try:
        sign, _ = signature(f)
    except NotCentral:
        sign = None
    return _torelli(f, sign)


def _torelli(f: Factorization, sign: Optional[int]) -> TorelliReport:
    """The certificate of a nonempty positive sphere-base word, given its
    signature when computed (None otherwise)."""
    cycles = f.cycles()
    m = f.word.total_exponent()
    if all(c.separating for c in cycles):
        return TorelliReport(
            ok=False,
            reason=(
                f"all {len(cycles)} vanishing cycles are null-homologous: "
                f"hodge pairing (sign + mu)/4 = ({-m} + {m})/4 = 0, "
                "but a genuine fibration forces it positive"
            ),
        )
    if sign is not None and sign + m <= 0:
        return TorelliReport(ok=False, reason=f"sign + mu = {sign + m} <= 0")
    return TorelliReport(ok=True, reason="contains a non-separating vanishing cycle")


@dataclass(frozen=True)
class LiuBound:
    lam: Fraction
    bound: Fraction
    passes: bool


def _liu(lam: Fraction, fiber_genus: int) -> LiuBound:
    bound = Fraction(4 * fiber_genus - 5, 6)
    return LiuBound(lam=lam, bound=bound, passes=lam > bound)


def fiber_sum(f1: Factorization, f2: Factorization) -> Factorization:
    """Glue along a regular fiber: concatenated word, curves merged by name
    (names shared between the summands must carry identical data)."""
    if f1.fiber_genus != f2.fiber_genus:
        raise GenusMismatch("fiber sum needs equal fiber genus")
    if f1.base_genus != 0 or f2.base_genus != 0:
        raise GenusMismatch("fiber sum implemented over the sphere")
    merged: Dict[str, Curve] = {c.name: c for c in f1.curves}
    for c in f2.curves:
        if c.name in merged and merged[c.name] != c:
            raise SchemaError(f"curve {c.name!r} differs between summands")
        merged[c.name] = c
    return Factorization(
        fiber_genus=f1.fiber_genus,
        base_genus=0,
        word=f1.word * f2.word,
        curves=tuple(merged.values()),
    )


@dataclass(frozen=True)
class InvariantReport:
    mu: int
    euler: int
    b1: int
    b2: int
    signature: Optional[int]
    signature_provenance: str
    lam: Optional[Fraction]
    c1_squared: Optional[int]
    szpiro: Optional[dict]
    torelli_ok: bool
    torelli_reason: str
    liu_status: str
    relation_verified: bool
    euler_note: str
    caveat: str = RELATION_CAVEAT

    def consistency_ok(self) -> bool:
        if self.b2 != self.euler - 2 + 2 * self.b1:
            return False
        if self.signature is not None and abs(self.signature) > self.b2:
            return False
        if self.signature is not None and self.c1_squared is not None:
            if self.c1_squared != 2 * self.euler + 3 * self.signature:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "euler": self.euler,
            "b1": self.b1,
            "b2": self.b2,
            "signature": self.signature,
            "signature_provenance": self.signature_provenance,
            "lambda": None if self.lam is None else str(self.lam),
            "c1_squared": self.c1_squared,
            "szpiro": self.szpiro,
            "torelli_ok": self.torelli_ok,
            "torelli_reason": self.torelli_reason,
            "liu_status": self.liu_status,
            "relation_verified_homologically": self.relation_verified,
            "euler_note": self.euler_note,
            "caveat": self.caveat,
        }


def invariant_report(
    f: Factorization, external_signature: Optional[int] = None
) -> InvariantReport:
    # over the sphere the residual is the word's value, which the genus-1
    # lift below reads too
    ok, value = f.verify_homological()
    m = mu(f)
    euler = euler_characteristic(f)
    b1 = h1_total_space(f).free_rank if f.base_genus == 0 else None
    if b1 is None:
        raise SchemaError("full reports implemented for base genus 0")
    b2 = euler - 2 + 2 * b1
    # the only metaplectic evaluation of the report: in the boundary case
    # sign = 4n - mu, so lambda = n and the Szpiro data follow from it
    try:
        sign, prov = signature(f, external_signature, value)
    except NotCentral:
        # only a word that fails the relation evaluates off the centre
        sign, prov = _not_computed(external_signature)
    lam = None
    c1sq = None
    liu_status = "lambda unknown"
    if sign is not None:
        lam = _lambda(sign, m)
        c1sq = 2 * euler + 3 * sign
        liu = _liu(lam, f.fiber_genus)
        liu_status = f"{liu.lam} > {liu.bound}: {'pass' if liu.passes else 'FAIL'}"
    szp = None
    if prov == "computed" and _boundary_case(f):
        rep = szpiro_report(f.word, int(lam))
        szp = {
            "n": rep.n,
            "sum_exponents": rep.sum_exponents,
            "syllables": rep.syllables,
            "sigma_squared": rep.sigma_squared,
            "passes": rep.passes,
        }
    if f.word.letters:
        # an external signature is an assertion, not a certificate input
        tor = _torelli(f, sign if prov == "computed" else None)
    else:
        tor = TorelliReport(ok=True, reason="empty word: certificate not applicable")
    return InvariantReport(
        mu=m,
        euler=euler,
        b1=b1,
        b2=b2,
        signature=sign,
        signature_provenance=prov,
        lam=lam,
        c1_squared=c1sq,
        szpiro=szp,
        torelli_ok=tor.ok,
        torelli_reason=tor.reason,
        liu_status=liu_status,
        relation_verified=ok,
        euler_note="pinned sphere-base formula",
    )
