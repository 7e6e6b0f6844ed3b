import math
from fractions import Fraction
from typing import Tuple

import pytest

from twistlab.errors import SchemaError
from twistlab.exact import IntMatrix
from twistlab.invariants import Factorization
from twistlab.metaplectic import (
    A_MATRIX,
    B_MATRIX,
    LagrangianLine,
    Mat2,
    MetaElement,
    meta_identity,
    meta_inverse,
    meta_power,
    multiply,
)
from twistlab.schema import load_fixture
from twistlab.surfaces import Curve, symplectic_j, twist_transvection
from twistlab.systems import _chords, _Crossing
from twistlab.words import TwistLetter, TwistWord

CURVE_A = Curve("a", (1, 0), word=(1,))
CURVE_B = Curve("b", (0, 1), word=(2,))


def e1_word(copies: int = 1) -> TwistWord:
    letters = []
    for _ in range(copies):
        for _ in range(6):
            letters += [TwistLetter(CURVE_A), TwistLetter(CURVE_B)]
    return TwistWord(1, tuple(letters))


def e1_factorization(copies: int = 1) -> Factorization:
    return Factorization(
        fiber_genus=1,
        base_genus=0,
        word=e1_word(copies),
        curves=(CURVE_A, CURVE_B),
    )


def _maslov_signature(l1: LagrangianLine, l2: LagrangianLine, l3: LagrangianLine) -> int:
    """Signature of Q(x1+x2+x3) = w(x1,x2) + w(x2,x3) + w(x3,x1) on the three
    lines, by exact congruence diagonalization: the reference route that the
    cyclic-order rule and the closed form are compared against."""
    def w(u, v):
        return u[0] * v[1] - u[1] * v[0]

    v1, v2, v3 = l1.vector, l2.vector, l3.vector
    h = Fraction(1, 2)
    m = [
        [Fraction(0), h * w(v1, v2), h * w(v3, v1)],
        [h * w(v1, v2), Fraction(0), h * w(v2, v3)],
        [h * w(v3, v1), h * w(v2, v3), Fraction(0)],
    ]
    basis = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]

    def form(u, v):
        return sum(u[i] * m[i][j] * v[j] for i in range(3) for j in range(3))

    sig = 0
    vecs = [row[:] for row in basis]
    while vecs:
        d = next((i for i, u in enumerate(vecs) if form(u, u) != 0), None)
        if d is None:
            # isotropic remainder: pair off hyperbolic planes (signature 0)
            pair = None
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    if form(vecs[i], vecs[j]) != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # radical only
            i, j = pair
            u = [a + b for a, b in zip(vecs[i], vecs[j])]
            if form(u, u) == 0:
                break
            vecs.append(u)
            continue
        u = vecs.pop(d)
        q = form(u, u)
        sig += 1 if q > 0 else -1
        vecs = [
            [a - form(u, v) / q * b for a, b in zip(v, u)] for v in vecs
        ]
    return sig


def canonical_lift(m: Mat2) -> MetaElement:
    """Some valid lift of the matrix (unique up to the center (I, 4k))."""
    for n in (0, 1, 2, 3, -1, -2):
        x = MetaElement(m, n)
        if x.is_valid():
            return x
    raise AssertionError("no valid lift found")


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def meta_twist(homology_class) -> MetaElement:
    """Lift of the twist about a primitive genus-1 class: A~_0 conjugated by
    a lift of a matrix taking (1,0) to the class.  Well defined because the
    central ambiguity of the conjugator cancels."""
    p, q = (int(v) for v in homology_class)
    if math.gcd(p, q) != 1:
        raise SchemaError("genus-1 twist class must be primitive")
    # second column (r, s) with p s - q r = 1, from s0 p + t0 q = 1
    _, s0, t0 = _ext_gcd(p, q)
    w: Mat2 = ((p, -t0), (q, s0))
    assert p * s0 + q * t0 == 1
    phi = canonical_lift(w)
    return multiply(multiply(phi, MetaElement(A_MATRIX, 0)), meta_inverse(phi))


def meta_word_oracle(word) -> MetaElement:
    """Per-letter route to a genus-1 word's metaplectic value: the ordered
    product of the lifted letters, powers by ``meta_power``, conjugators
    evaluated recursively and conjugated through the group law."""
    acc = meta_identity()
    for letter in word.letters:
        m = meta_power(meta_twist(letter.curve.homology), letter.exponent)
        if letter.conjugator is not None:
            c = meta_word_oracle(letter.conjugator)
            m = multiply(multiply(c, m), meta_inverse(c))
        acc = multiply(acc, m)
    return acc


def matmul_oracle(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Dense product of a and b: each entry the dot product of a row of a
    with a column of b."""
    b_cols = list(zip(*b.entries)) if b.entries else []
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in b_cols] for row in a.entries])


def evaluate_homological_oracle(word) -> IntMatrix:
    """Per-letter route to a word's homological value: each letter's
    transvection matrix, powers by square-and-multiply, conjugators
    evaluated recursively and applied as c m c^-1 with c^-1 = (-J) c^T J."""
    j = symplectic_j(word.genus)

    def inverse(m: IntMatrix) -> IntMatrix:
        return (-j) * m.transpose() * j

    acc = IntMatrix.identity(2 * word.genus)
    for letter in word.letters:
        t = twist_transvection(letter.curve, word.genus)
        if letter.exponent < 0:
            t = inverse(t)
        m, e = IntMatrix.identity(2 * word.genus), abs(letter.exponent)
        while e:
            if e & 1:
                m = m * t
            e >>= 1
            if e:
                t = t * t
        if letter.conjugator is not None:
            c = evaluate_homological_oracle(letter.conjugator)
            m = c * m * inverse(c)
        acc = acc * m
    return acc


def _circle_point(k: int, n: int) -> Tuple[Fraction, Fraction]:
    # rational points on the unit circle, cyclic order = index order
    t = Fraction(2 * k - (n - 1), 2)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def _segment_crossing(p1, p2, q1, q2):
    """Exact crossing of open segments p1p2, q1q2; returns (s, t) parameters
    and the sign, or None."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return None
    w = (q1[0] - p1[0], q1[1] - p1[1])
    s = (w[0] * d2[1] - w[1] * d2[0]) / denom
    t = (w[0] * d1[1] - w[1] * d1[0]) / denom
    if 0 < s < 1 and 0 < t < 1:
        return s, t, (1 if denom > 0 else -1)
    return None


def hub_crossings_oracle(rels, n_gens: int):
    """The chord crossings of the hub drawing by the exact segment test on
    every pair of chords, in pair order, with the ports at rational points of
    the unit circle: the route that the port-index signs and order keys are
    compared against.  param1 and param2 are the true parameters s, t."""
    chords = _chords(rels, n_gens)
    pts = [_circle_point(k, 2 * len(chords)) for k in range(2 * len(chords))]
    crossings = []
    for i in range(len(chords)):
        ri, ji, a1, b1 = chords[i]
        for k in range(i + 1, len(chords)):
            rk, jk, a2, b2 = chords[k]
            hit = _segment_crossing(pts[a1], pts[b1], pts[a2], pts[b2])
            if hit:
                s, t, sign = hit
                crossings.append(_Crossing(sign, (ri, ji), (rk, jk), s, t))
    return crossings


def conjugates_of_t_a(max_conjugator_length: int = 2) -> Tuple[MetaElement, ...]:
    """Distinct values phi (A~_0) phi^-1 over reduced conjugator words of the
    given maximum length in t_a, t_b and inverses, sorted by (matrix, n)."""
    a_t = MetaElement(A_MATRIX, 0)
    b_t = MetaElement(B_MATRIX, 1)
    gens = {1: a_t, -1: meta_inverse(a_t), 2: b_t, -2: meta_inverse(b_t)}
    level = [(0, meta_identity())]  # (last letter, value) of each reduced word
    conjugators = [meta_identity()]
    for _ in range(max_conjugator_length):
        level = [
            (s, multiply(phi, g)) for last, phi in level for s, g in gens.items() if last != -s
        ]
        conjugators.extend(phi for _, phi in level)
    out = {multiply(multiply(phi, a_t), meta_inverse(phi)) for phi in conjugators}
    return tuple(sorted(out, key=lambda e: (e.matrix, e.n)))


def positive_identity_oracle(max_total_exponent: int, max_conjugator_length: int):
    """Exhaustive reachability search for (I, 0) among positive products of
    conjugates of t_a with total exponent bounded as given.

    Dedups states (two words with equal value have identical futures) and
    splits the bound in half: a product of length L <= 2D equals the identity
    iff some prefix value u of length <= D has u^-1 reachable in <= D steps.
    Returns a witness pair of values or None.
    """
    conjs = conjugates_of_t_a(max_conjugator_length)
    depth = (max_total_exponent + 1) // 2
    start = meta_identity()
    dist = {start: 0}
    frontier = [start]
    for d in range(1, depth + 1):
        nxt = []
        for st in frontier:
            for c in conjs:
                v = multiply(st, c)
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    for st, d in dist.items():
        inv = meta_inverse(st)
        other = dist.get(inv)
        if other is not None and 1 <= d + other <= max_total_exponent:
            return (st, inv)
    return None


@pytest.fixture
def fixture_e1():
    return load_fixture("E1")


@pytest.fixture
def fixture_genus2():
    return load_fixture("genus2-paper")


@pytest.fixture
def fixture_genus3():
    return load_fixture("genus3-b1")


@pytest.fixture
def fixture_wajnryb():
    return load_fixture("wajnryb-map21")


@pytest.fixture
def fixture_amalgam():
    return load_fixture("sl2z-amalgam")
