"""The metaplectic group ~SL(2,Z) via the Maslov-index cocycle.

Elements are pairs (M, n) with M in SL(2,Z) subject to the membership
predicate: c = 0 forces n even with sign(a) = (-1)^(n/2), c != 0 forces n odd
with sign(c) = (-1)^((n+1)/2).  Multiplication is
(g1, n1)(g2, n2) = (g1 g2, n1 + n2 + tau(l0, g1 l0, g1 g2 l0)) with the
reference Lagrangian l0 = span(p).

Lagrangian lines are primitive integer vectors up to sign; every order and
betweenness computation is an exact sign of a 2x2 determinant.

There is one group law (``multiply``, ``meta_inverse``, ``cocycle``), and
every evaluation goes through ``maslov_index``.  Its value is the
cyclic-order rule, cross-checked on every call against the integer closed
form -sign(w12 w23 w31) of the signature of the Maslov form.
A word's value comes from its homological product and the exponent-sum
homomorphism h: ~SL(2,Z) -> Z, lifted once through the group law; the same h
is the positivity obstruction, which needs no search.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .errors import BudgetExceeded, InvalidElement, NotCentral, NotPositive, SchemaError
from .presentations import MAX_WORD_LETTERS
from .surfaces import Curve
from .words import HomologicalValue, TwistLetter, TwistWord, evaluate_homological, is_positive

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))
A_MATRIX: Mat2 = ((1, 1), (0, 1))       # image of t_a
B_MATRIX: Mat2 = ((1, 0), (-1, 1))      # image of t_b
J_MATRIX: Mat2 = ((0, 1), (-1, 0))


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat_inv(x: Mat2) -> Mat2:
    if x[0][0] * x[1][1] - x[0][1] * x[1][0] != 1:
        raise InvalidElement("matrix not in SL(2,Z)")
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def mat_apply(x: Mat2, v: Tuple[int, int]) -> Tuple[int, int]:
    return (x[0][0] * v[0] + x[0][1] * v[1], x[1][0] * v[0] + x[1][1] * v[1])


@dataclass(frozen=True)
class LagrangianLine:
    """Line through the origin, a primitive vector up to overall sign.

    Normalized so the second coordinate is positive, or zero with the first
    positive; the angle theta then lies in [0, pi)."""

    vector: Tuple[int, int]

    def __post_init__(self):
        try:
            x, y = map(operator.index, self.vector)
        except TypeError as ex:
            raise SchemaError(f"line entry: {ex}") from None
        if x == 0 and y == 0:
            raise SchemaError("zero vector is not a line")
        g = math.gcd(x, y)
        x, y = x // g, y // g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        object.__setattr__(self, "vector", (x, y))

    def apply(self, m: Mat2) -> "LagrangianLine":
        return LagrangianLine(mat_apply(m, self.vector))


LINE_P = LagrangianLine((1, 0))


def _maslov_cyclic(l1: LagrangianLine, l2: LagrangianLine, l3: LagrangianLine) -> int:
    """Cyclic-order Maslov rule."""
    v1, v2, v3 = l1.vector, l2.vector, l3.vector
    if v1 == v2 or v2 == v3 or v1 == v3:
        return 0
    # +1 iff v2 lies strictly between v1 and v3 in the counterclockwise
    # cyclic order on theta in [0, pi)
    a12 = v1[0] * v2[1] - v1[1] * v2[0] > 0
    a13 = v1[0] * v3[1] - v1[1] * v3[0] > 0
    a23 = v2[0] * v3[1] - v2[1] * v3[0] > 0
    between = (a12 and a23) if a13 else (a12 or a23)
    return 1 if between else -1


def _maslov_closed_form(l1: LagrangianLine, l2: LagrangianLine, l3: LagrangianLine) -> int:
    """Signature of the Maslov form as -sign(w12 w23 w31), w_ij the
    determinant of the vectors spanning lines i and j (Barge-Ghys).

    The form has zero diagonal, so its trace is 0 and its determinant is
    w12 w23 w31 / 4: a positive determinant means two negative eigenvalues,
    a zero one means a repeated line and signature 0.  Flipping the sign of
    one vector flips two factors, so the product is a function of the lines."""
    (x1, y1), (x2, y2), (x3, y3) = l1.vector, l2.vector, l3.vector
    p = (x1 * y2 - y1 * x2) * (x2 * y3 - y2 * x3) * (x3 * y1 - y3 * x1)
    return (p < 0) - (p > 0)


def maslov_index(l1: LagrangianLine, l2: LagrangianLine, l3: LagrangianLine) -> int:
    """Maslov index of a triple of lines, in {-1, 0, 1}.

    Computed by the cyclic-order rule and cross-checked against the closed
    form of the quadratic form's signature on every call."""
    cyc = _maslov_cyclic(l1, l2, l3)
    sig = _maslov_closed_form(l1, l2, l3)
    if cyc != sig:
        raise SchemaError(
            f"maslov cross-check failed: cyclic {cyc} != signature {sig}"
        )
    return cyc


def cocycle(g: Mat2, h: Mat2, line: LagrangianLine = LINE_P) -> int:
    """tau_l(g, h) = tau(l, g l, g h l)."""
    return maslov_index(line, line.apply(g), line.apply(mat_mul(g, h)))


@dataclass(frozen=True)
class MetaElement:
    matrix: Mat2
    n: int

    def __post_init__(self):
        try:
            m = tuple(tuple(map(operator.index, row)) for row in self.matrix)
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError as ex:
            raise SchemaError(f"metaplectic entry: {ex}") from None
        object.__setattr__(self, "matrix", m)
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
            raise InvalidElement("matrix not in SL(2,Z)")

    def is_valid(self) -> bool:
        a = self.matrix[0][0]
        c = self.matrix[1][0]
        if c == 0:
            return self.n % 2 == 0 and _sign(a) == (-1) ** ((self.n // 2) % 2)
        return self.n % 2 == 1 and _sign(c) == (-1) ** (((self.n + 1) // 2) % 2)

    def __str__(self):
        return f"({self.matrix}, {self.n})"


def _sign(x: int) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def multiply(x: MetaElement, y: MetaElement) -> MetaElement:
    if not x.is_valid() or not y.is_valid():
        raise InvalidElement("operand fails the membership predicate")
    z = MetaElement(mat_mul(x.matrix, y.matrix), x.n + y.n + cocycle(x.matrix, y.matrix))
    return z


def meta_identity() -> MetaElement:
    return MetaElement(IDENTITY, 0)


def meta_inverse(x: MetaElement) -> MetaElement:
    gi = mat_inv(x.matrix)
    return MetaElement(gi, -x.n - cocycle(x.matrix, gi))


def meta_power(x: MetaElement, e: int) -> MetaElement:
    """x^e by square-and-multiply; x^1 costs no multiplication."""
    if e < 0:
        return meta_power(meta_inverse(x), -e)
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else multiply(acc, x)
        e >>= 1
        if e:
            x = multiply(x, x)
    return meta_identity() if acc is None else acc


def lift_generators(k: int = 0) -> Tuple[MetaElement, MetaElement, MetaElement]:
    """(A~_k, B~_k, J~) with A~_k = (A, 4k), J~ = (J, 1) and
    B~_k = J~ A~_k J~^-1 = (B, 4k + 1)."""
    a_t = MetaElement(A_MATRIX, 4 * k)
    j_t = MetaElement(J_MATRIX, 1)
    b_t = multiply(multiply(j_t, a_t), meta_inverse(j_t))
    assert b_t == MetaElement(B_MATRIX, 4 * k + 1)
    return a_t, b_t, j_t


def evaluate_meta_word(word, homological: Optional[HomologicalValue] = None) -> MetaElement:
    """Value of a genus-1 twist word in ~SL(2,Z).  The twist about a primitive
    class (p, q) lifts to the conjugate of A~_0 = (A, 0) by any lift of a
    matrix taking (1, 0) to (p, q): t_a to A~_0, t_b to B~_0 = (B, 1).

    Each lifted letter is a conjugate of A~_0, so the exponent-sum
    homomorphism h (see ``search_positive_identity``) is 1 on it, a letter
    t^e conjugated by any word has h = e, and the word's h is the sum of its
    top-level exponents.  That h and the homological product fix the value
    (``_lift``); `homological` is that product when the caller has it."""
    if word.genus != 1:
        raise SchemaError("metaplectic evaluation needs a genus-1 word")
    _check_primitive(word)
    if homological is None:
        homological = evaluate_homological(word)
    m = homological.entries
    return _lift(m, sum(l.exponent for l in word.letters))


def _check_primitive(word) -> None:
    """Every letter's class, conjugators included, must be primitive: only
    then is its twist a conjugate of t_a."""
    for letter in word.letters:
        if math.gcd(*(x for _, x in letter.curve.homology.support)) != 1:
            raise SchemaError("genus-1 twist class must be primitive")
        if letter.conjugator is not None:
            _check_primitive(letter.conjugator)


def _lift(m: Mat2, h: int) -> MetaElement:
    """The lift of m with exponent sum h.

    Euclid writes m as a product x of factors (A^q J, 1) = A~^q J~ with
    J~ = A~ B~ A~, at most one (-I, 2) = (A~ B~)^3 and a last (A^b, 0), whose
    exponent sums q + 3, 6 and b add up to e.  Two lifts of m differ by a
    central (I, 4k), whose exponent sum is 12k, so the value is
    (m, x.n + (h - e)/3).  A remainder of h - e mod 12 means that m and h do
    not come from one word."""
    (a, b), (c, d) = m
    x, e = meta_identity(), 0
    while c:
        q = (2 * a + c) // (2 * c)  # nearest quotient: |c| at least halves
        x = multiply(x, MetaElement(((-q, 1), (-1, 0)), 1))
        e += q + 3
        a, b, c, d = -c, -d, a - q * c, b - q * d
    if a < 0:
        x = multiply(x, MetaElement(((-1, 0), (0, -1)), 2))
        e += 6
        b = -b
    x = multiply(x, MetaElement(((1, b), (0, 1)), 0))
    e += b
    if (h - e) % 12:
        raise SchemaError(
            f"homological cross-check failed: matrix {m} has no lift with exponent sum {h}"
        )
    return MetaElement(x.matrix, x.n + (h - e) // 3)


def central_multiplicity(value: MetaElement) -> Optional[int]:
    """n when the value is the central element (I, 4n), else None."""
    if value.matrix == IDENTITY and value.n % 4 == 0:
        return value.n // 4
    return None


def boundary_multiplicity(
    word, homological: Optional[HomologicalValue] = None
) -> Union[int, MetaElement]:
    """n when the word evaluates to the central element (I, 4n); otherwise
    the residual element (a normal outcome, not a fault).  `homological` is
    the word's homological product when the caller has it."""
    if not is_positive(word):
        raise NotPositive("boundary multiplicity requires a positive word")
    val = evaluate_meta_word(word, homological)
    n = central_multiplicity(val)
    return val if n is None else n


@dataclass(frozen=True)
class SzpiroReport:
    n: int
    sum_exponents: int
    syllables: int
    sigma_squared: int
    sum_is_12n: bool
    syllables_exceed_2n: bool

    @property
    def passes(self) -> bool:
        return self.sum_is_12n and self.syllables_exceed_2n


def szpiro_check(word) -> SzpiroReport:
    """Szpiro report of a positive word, which must evaluate to a central
    element."""
    res = boundary_multiplicity(word)
    if isinstance(res, MetaElement):
        raise NotCentral(res)
    return szpiro_report(word, res)


def szpiro_report(word, n: int) -> SzpiroReport:
    """Checks sum(n_i) = 12 n and m > 2 n for a positive relation evaluating
    to the n-th power (I, 4n) of the boundary twist; the section
    self-intersection is -n."""
    total = word.total_exponent()
    syllables = len(word.letters)
    return SzpiroReport(
        n=n,
        sum_exponents=total,
        syllables=syllables,
        sigma_squared=-n,
        sum_is_12n=(total == 12 * n),
        syllables_exceed_2n=(syllables > 2 * n),
    )


# ---------------------------------------------------------------------------
# positivity obstruction (no positive word in conjugates of t_a is the identity)


def search_positive_identity(
    max_total_exponent: int = 12, max_conjugator_length: int = 2
) -> Optional[Tuple[MetaElement, ...]]:
    """Witness that a positive product of conjugates of t_a, within the given
    bounds, is the identity (I, 0); always None, for every bound.

    Proof, by the exponent-sum homomorphism h: ~SL(2,Z) -> Z.
    1. A~_0 = (A, 0) and B~_0 = (B, 1) satisfy the braid relation
       A~ B~ A~ = B~ A~ B~, so B_3 -> ~SL(2,Z), sigma_1 -> A~_0,
       sigma_2 -> B~_0, is a homomorphism.  It is an isomorphism: both groups
       are central extensions of SL(2,Z) by Z, and the generator
       (sigma_1 sigma_2)^6 of the kernel on the left goes to
       (A~_0 B~_0)^6 = (I, 4), the generator on the right.  So h with
       h(A~_0) = h(B~_0) = 1, the exponent sum of B_3, is well defined.
    2. Z is abelian, so every conjugate phi A~_0 phi^-1 has h = 1.
    3. So a positive product of k >= 1 conjugates has h = k != 0 = h(I, 0).
    The arguments are kept for callers that name a bound; the tests compare
    the answer with an exhaustive search at small bounds.
    """
    return None


# ---------------------------------------------------------------------------
# compact word syntax: "(a b)^6", "a^3 b^-1", "[w] a [w]^-1"


def parse_meta_word(text: str):
    """Parse the compact CLI syntax into a genus-1 TwistWord.

    Atoms are a, b; parentheses group with integer powers; the pattern
    [w] atom^k [w]^-1 folds into a single conjugated letter."""
    curve_a = Curve("a", (1, 0), word=(1,))
    curve_b = Curve("b", (0, 1), word=(2,))

    tokens = _tokenize(text)
    pos = 0

    def parse_seq(stop=None):
        nonlocal pos
        letters: List[TwistLetter] = []
        while pos < len(tokens) and tokens[pos] != stop:
            tok = tokens[pos]
            if tok == "(":
                pos += 1
                inner = parse_seq(")")
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise SchemaError("unbalanced parenthesis")
                pos += 1
                power = _maybe_power()
                if len(letters) + len(inner) * abs(power) > MAX_WORD_LETTERS:
                    raise BudgetExceeded(
                        f"group power ^{power}: the word would exceed {MAX_WORD_LETTERS} letters"
                    )
                block = inner * abs(power)
                if power < 0:
                    block = [l.inverse() for l in reversed(block)]
                letters.extend(block)
            elif tok == "[":
                pos += 1
                conj = parse_seq("]")
                if pos >= len(tokens) or tokens[pos] != "]":
                    raise SchemaError("unbalanced bracket")
                pos += 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    raise SchemaError("conjugator bracket cannot carry a power here")
                core = parse_atom()
                # expect [w]^-1
                if not (
                    pos < len(tokens)
                    and tokens[pos] == "["
                ):
                    raise SchemaError("expected closing [w]^-1 after conjugated letter")
                pos += 1
                conj2 = parse_seq("]")
                if pos >= len(tokens) or tokens[pos] != "]":
                    raise SchemaError("unbalanced bracket")
                pos += 1
                p = _maybe_power()
                if p != -1:
                    raise SchemaError("conjugation must close with [w]^-1")
                if [(l.curve.name, l.exponent) for l in conj2] != [
                    (l.curve.name, l.exponent) for l in conj
                ]:
                    raise SchemaError("mismatched conjugator brackets")
                phi = TwistWord(1, tuple(conj))
                letters.append(
                    TwistLetter(core.curve, core.exponent, conjugator=phi)
                )
            elif tok in ("a", "b"):
                letters.append(parse_atom())
            else:
                raise SchemaError(f"unexpected token {tok!r}")
        return letters

    def parse_atom() -> TwistLetter:
        nonlocal pos
        if pos >= len(tokens):
            raise SchemaError("expected a or b, got the end of the word")
        tok = tokens[pos]
        if tok not in ("a", "b"):
            raise SchemaError(f"expected a or b, got {tok!r}")
        pos += 1
        power = _maybe_power()
        curve = curve_a if tok == "a" else curve_b
        return TwistLetter(curve, power)

    def _maybe_power() -> int:
        nonlocal pos
        if pos < len(tokens) and tokens[pos].startswith("^"):
            val = int(tokens[pos][1:])
            pos += 1
            if val == 0:
                raise SchemaError("zero power")
            return val
        return 1

    letters = parse_seq()
    if pos != len(tokens):
        raise SchemaError("trailing tokens")
    return TwistWord(1, tuple(letters))


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()[]ab":
            out.append(ch)
            i += 1
        elif ch == "^":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            digits = j
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == digits:
                raise SchemaError("dangling ^")
            out.append(text[i:j])
            i = j
        else:
            raise SchemaError(f"bad character {ch!r}")
    return out
