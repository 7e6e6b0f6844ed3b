import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from twistlab.errors import InvalidElement, NotARelation, NotPositive, SchemaError
from twistlab.exact import IntMatrix, _bareiss
from twistlab.invariants import Factorization
from twistlab.metaplectic import (
    A_MATRIX,
    B_MATRIX,
    LINE_P,
    LagrangianLine,
    Mat2,
    MetaElement,
    maslov_index,
    meta_identity,
    meta_inverse,
    meta_power,
    multiply,
)
from twistlab.presentations import (
    FinitePresentation,
    SurfaceGroup,
    free_reduce,
    quotient_by_normal_closure,
)
from twistlab.schema import load_fixture
from twistlab.surfaces import Curve, intersection_pairing, symplectic_j, twist_transvection
from twistlab.systems import CurveSystem, _chords, _Crossing
from twistlab.words import TwistLetter, TwistWord, evaluate_homological, is_positive

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


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination: the reference
    route that Smith forms are checked against (|det U| = |det V| = 1, and
    |det A| is the product of the diagonal)."""
    if a.rows != a.cols:
        raise ValueError("square matrix required")
    rank, sign, pivot = _bareiss(a)
    return sign * pivot if rank == a.rows else 0


def sparse_rows(entries: Sequence[Sequence[int]]) -> List[Dict[int, int]]:
    """Each row as {column: entry} of its nonzero entries, the input of
    ``smith_diagonal``."""
    return [{j: x for j, x in enumerate(r) if x} for r in entries]


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
        return j.transpose() * m.transpose() * j  # J^T = -J = J^-1

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


def pi1_presentation(f: Factorization) -> FinitePresentation:
    """pi1 of a sphere-base total space: the fiber's surface group modulo the
    vanishing cycles' words (ValueError when a cycle carries none).  Its
    abelianization is the independent route to ``h1_total_space``."""
    if f.base_genus != 0:
        raise SchemaError("pi1 presentation implemented for base genus 0")
    words = []
    for c in f.cycles():
        if c.word is None:
            raise ValueError(f"curve {c.name} carries no fundamental-group word")
        words.append(c.word)
    return quotient_by_normal_closure(SurfaceGroup(f.fiber_genus).presentation(), words)


def transfer(cov, base_class) -> tuple:
    """Transfer H1(base) -> H1(cover) of a double cover: the class of the
    full preimage of each generator's loop, weighted by the base class.  The
    lifts of a loop, as ``lift_loop`` gives them, sum to it."""
    out = (0,) * cov.homology_dim()
    for i, c in enumerate(base_class):
        if c:
            word = (i + 1,)
            if cov.character[i] == 0:
                w = free_reduce(cov.rewrite(word, 0) + cov.rewrite(word, 1))
            else:
                w = cov.rewrite(word + word, 0)
            out = tuple(a + c * x for a, x in zip(out, cov.class_of(w)))
    return out


# ---------------------------------------------------------------------------
# the positive-inverse lemma: in a curve system joined by adjacency paths to
# the curves of a positive relation, the inverse of every twist is a
# positive word of conjugated twists


def expand_word(word: TwistWord) -> TwistWord:
    """Split every letter into |exponent| copies of exponent +-1."""
    out = []
    for l in word.letters:
        sign = 1 if l.exponent > 0 else -1
        out.extend(replace(l, exponent=sign) for _ in range(abs(l.exponent)))
    return TwistWord(word.genus, tuple(out))


def invert_word(word: TwistWord) -> TwistWord:
    return TwistWord(word.genus, tuple(l.inverse() for l in reversed(word.letters)))


def graph_connected_to(
    system: CurveSystem, r_names: Sequence[str], s_names: Sequence[str]
) -> Tuple[bool, Dict[str, Optional[list]]]:
    """Is every curve of R joined to S by a path of adjacency edges
    (multiplicity exactly one, a single transverse intersection point)?

    Returns the flag plus a witness path per R-curve (None if unreachable).
    A curve already in S gets the length-0 path [curve].
    """
    index = {c.name: i for i, c in enumerate(system.curves)}
    for n in list(r_names) + list(s_names):
        if n not in index:
            raise SchemaError(f"unknown curve {n!r}")
    # adjacency lists in curve order, the order in which the search visits
    # neighbours, so the witness paths do not depend on the table's order
    adj: Dict[str, List[str]] = {name: [] for name in index}
    for (a, b), k in system._table.items():
        if k == 1 and a != b:
            adj[a].append(b)
            adj[b].append(a)
    for nbrs in adj.values():
        nbrs.sort(key=index.__getitem__)
    target = set(s_names)
    paths: Dict[str, Optional[list]] = {}
    for r in r_names:
        if r in target:
            paths[r] = [r]
            continue
        prev = {r: None}
        queue = deque([r])
        found = None
        while queue and found is None:
            cur = queue.popleft()
            for w in adj[cur]:
                if w not in prev:
                    prev[w] = cur
                    if w in target:
                        found = w
                        break
                    queue.append(w)
        if found is None:
            paths[r] = None
        else:
            path = [found]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            paths[r] = list(reversed(path))
    return all(p is not None for p in paths.values()), paths


def invert_from_positive_relation(rel: TwistWord, i: int) -> TwistWord:
    """Positive word w with t_{l(i)} * w equal to the cyclic rotation of the
    relation starting at position i (1-based, after expansion).

    If the relation evaluates to the identity homologically, then so does
    t_{l(i)} * w, i.e. w evaluates to the twist's inverse.
    """
    if not is_positive(rel):
        raise NotPositive("relation must use positive exponents only")
    flat = expand_word(rel)
    mu = len(flat.letters)
    if not 1 <= i <= mu:
        raise IndexError(f"position {i} out of range 1..{mu}")
    rotated = flat.letters[i - 1:] + flat.letters[: i - 1]
    return TwistWord(rel.genus, rotated[1:])


def conjugate_adjacent(a: Curve, b: Curve, genus: int) -> TwistWord:
    """Conjugator phi = t_a t_b with eval(phi) T_a eval(phi)^-1 = T_b,
    available whenever |<a, b>| = 1 (the homological adjacency proxy)."""
    if abs(intersection_pairing(tuple(a.homology), tuple(b.homology))) != 1:
        raise ValueError(f"|<{a.name},{b.name}>| != 1")
    return TwistWord(genus, (TwistLetter(a), TwistLetter(b)))


def express_inverse_positively(
    system: CurveSystem,
    r_names: Sequence[str],
    s_names: Sequence[str],
    rel_s: TwistWord,
    c_name: str,
) -> TwistWord:
    """Positive word of conjugated twists evaluating to T_c^-1.

    Walks an adjacency path from c to a curve d of S occurring in the positive
    relation rel_s, rotates the relation at d, and conjugates the tail back
    along the path.  LookupError when c is not in R or no path exists.
    """
    if not is_positive(rel_s):
        raise NotPositive("rel_s must be positive")
    if not evaluate_homological(rel_s).is_identity():
        raise NotARelation("rel_s does not evaluate to the identity")
    if c_name not in r_names:
        raise LookupError(f"{c_name} is not in R")

    flat = expand_word(rel_s)
    occurring = {l.curve.name for l in flat.letters}
    targets = [s for s in s_names if s in occurring]
    if not targets:
        raise NotARelation("no curve of S occurs in rel_s")

    ok, paths = graph_connected_to(system, [c_name], targets)
    if not ok:
        raise LookupError(f"no adjacency path from {c_name} to S")
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
    psi_inv = invert_word(psi)

    out = []
    for l in tail.letters:
        inner = l.conjugator if l.conjugator is not None else TwistWord(rel_s.genus)
        out.append(replace(l, conjugator=psi_inv * inner))
    return TwistWord(rel_s.genus, tuple(out))


# ---------------------------------------------------------------------------
# the covered Lagrangian Grassmannian, on which conjugates of t_a displace
# points by at most pi


LINE_Q = LagrangianLine((0, 1))


def fraction_of_pi(line: LagrangianLine) -> Optional[Fraction]:
    """theta as an exact multiple of pi when standard, else None."""
    table = {(1, 0): Fraction(0), (1, 1): Fraction(1, 4),
             (0, 1): Fraction(1, 2), (-1, 1): Fraction(3, 4)}
    return table.get(line.vector)


def angle_lt(l1: LagrangianLine, l2: LagrangianLine) -> bool:
    """theta(l1) < theta(l2), exactly."""
    a, b = l1.vector, l2.vector
    return a[0] * b[1] - a[1] * b[0] > 0


@dataclass(frozen=True)
class TildeLambdaPoint:
    """Point (line, k) of the universal cover; k has the parity of
    1 + dim(line n span(p)) (ValueError otherwise).

    The real coordinate is theta~ = theta(line) - ceil(k/2) pi.  (The naive
    linear-in-k version theta - k pi/2 agrees on even k and on all the pinned
    calibration data but identifies the distinct points (p, 0) and (q, 1), so
    it is not injective; the parity constraint forces the ceiling.)  One unit
    of the central generator (I, 4) translates theta~ by -2 pi and the deck
    step k -> k + 2 by -pi."""

    line: LagrangianLine
    k: int

    def __post_init__(self):
        if not self.is_valid():
            raise ValueError(f"parity violation at {self}")

    def is_valid(self) -> bool:
        dim = 1 if self.line == LINE_P else 0
        return self.k % 2 == (1 + dim) % 2

    def pi_steps(self) -> int:
        return (self.k + 1) // 2  # ceil(k / 2)

    def theta_fraction(self) -> Optional[Fraction]:
        """theta~ as an exact multiple of pi, when the line is at a standard
        angle."""
        f = fraction_of_pi(self.line)
        if f is None:
            return None
        return f - self.pi_steps()


def act_tilde_lambda(x: MetaElement, pt: TildeLambdaPoint) -> TildeLambdaPoint:
    """(g, n) . (l, k) = (g l, n + k + tau(l0, g l0, g l))."""
    if not x.is_valid():
        raise InvalidElement(str(x))
    new_line = pt.line.apply(x.matrix)
    k = x.n + pt.k + maslov_index(LINE_P, LINE_P.apply(x.matrix), new_line)
    return TildeLambdaPoint(new_line, k)


@dataclass(frozen=True)
class Displacement:
    """theta~ difference.

    ``pi_fraction`` is an exact multiple of pi whenever both lines sit at
    standard angles (multiples of pi/4); ``cmp_half_pi`` compares the exact
    value against any multiple of pi/2 without ever touching floats."""

    line_before: LagrangianLine
    line_after: LagrangianLine
    pi_step_diff: int  # ceil(k_after/2) - ceil(k_before/2)

    def pi_fraction(self) -> Optional[Fraction]:
        f1 = fraction_of_pi(self.line_before)
        f2 = fraction_of_pi(self.line_after)
        if f1 is None or f2 is None:
            return None
        return f2 - f1 - self.pi_step_diff

    def cmp_half_pi(self, m: int) -> int:
        """Exact sign of (displacement - m pi/2); never uses floats."""
        # displacement = dtheta - pi_step_diff * pi with dtheta in (-pi, pi)
        t = m + 2 * self.pi_step_diff  # compare dtheta against t * pi/2
        la, lb = self.line_before, self.line_after
        if lb == la:
            dtheta_cmp0 = 0
        elif angle_lt(la, lb):
            dtheta_cmp0 = 1
        else:
            dtheta_cmp0 = -1
        if t >= 2:
            return -1
        if t <= -2:
            return 1
        if t == 0:
            return dtheta_cmp0
        if t == 1:
            # dtheta vs pi/2: rotate la by +pi/2 (wraps when theta >= pi/2)
            if la.vector[0] <= 0:
                return -1  # theta(la) >= pi/2 so theta(lb) < theta(la) + pi/2
            rot = LagrangianLine((-la.vector[1], la.vector[0]))
            if lb == rot:
                return 0
            return 1 if angle_lt(rot, lb) else -1
        # t == -1: dtheta + pi/2 has the sign of theta(lb) + pi/2 - theta(la)
        if lb.vector[0] <= 0:
            return 1  # theta(lb) + pi/2 wraps past pi, above any theta(la)
        rot = LagrangianLine((-lb.vector[1], lb.vector[0]))
        if la == rot:
            return 0
        return 1 if angle_lt(la, rot) else -1

    def in_interval_closed(self, lo_halves: int, hi_halves: int) -> bool:
        """displacement in [lo pi/2, hi pi/2], exactly."""
        return self.cmp_half_pi(lo_halves) >= 0 and self.cmp_half_pi(hi_halves) <= 0


def displacement(x: MetaElement, pt: TildeLambdaPoint) -> Displacement:
    after = act_tilde_lambda(x, pt)
    return Displacement(
        line_before=pt.line,
        line_after=after.line,
        pi_step_diff=after.pi_steps() - pt.pi_steps(),
    )


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
