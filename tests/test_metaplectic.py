import itertools
import json
import math
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CURVE_A,
    LINE_Q,
    TildeLambdaPoint,
    _maslov_signature,
    act_tilde_lambda,
    conjugates_of_t_a,
    displacement,
    e1_word,
    meta_twist,
    meta_word_oracle,
    positive_identity_oracle,
)
from twistlab.errors import InvalidElement, NotCentral, SchemaError
from twistlab.metaplectic import (
    A_MATRIX,
    B_MATRIX,
    IDENTITY,
    J_MATRIX,
    LINE_P,
    LagrangianLine,
    MetaElement,
    boundary_multiplicity,
    cocycle,
    evaluate_meta_word,
    lift_generators,
    maslov_index,
    mat_mul,
    meta_identity,
    meta_inverse,
    meta_power,
    multiply,
    parse_meta_word,
    search_positive_identity,
    szpiro_check,
    _maslov_closed_form,
    _maslov_cyclic,
)
from twistlab.schema import load_fixture
from twistlab.surfaces import Curve
from twistlab.words import TwistLetter, TwistWord, evaluate_homological

LINE_PQ = LagrangianLine((1, 1))


def words_up_to(length, letters):
    out = [()]
    level = [()]
    for _ in range(length):
        level = [w + (s,) for w in level for s in letters]
        out.extend(level)
    return out


def value_of(word):
    mats = {
        1: A_MATRIX,
        -1: ((1, -1), (0, 1)),
        2: B_MATRIX,
        -2: ((1, 0), (1, 1)),
        3: J_MATRIX,
        -3: ((0, -1), (1, 0)),
    }
    m = IDENTITY
    for s in word:
        m = mat_mul(m, mats[s])
    return m


class TestMaslov:
    def test_repeated_lines(self):
        assert maslov_index(LINE_P, LINE_P, LINE_Q) == 0
        assert maslov_index(LINE_P, LINE_Q, LINE_P) == 0

    def test_basic_triple(self):
        assert maslov_index(LINE_P, LINE_PQ, LINE_Q) == 1

    def test_signature_route_matches_cyclic_route(self):
        vecs = [(1, 0), (1, 1), (0, 1), (-1, 1), (1, 2), (-2, 1), (3, 1), (-1, 3)]
        lines = [LagrangianLine(v) for v in vecs]
        for l1, l2, l3 in itertools.product(lines, repeat=3):
            sig = _maslov_signature(l1, l2, l3)
            assert _maslov_cyclic(l1, l2, l3) == sig
            assert _maslov_closed_form(l1, l2, l3) == sig

    def test_antisymmetry_and_cyclicity(self):
        l1, l2, l3 = LINE_P, LINE_PQ, LINE_Q
        base = maslov_index(l1, l2, l3)
        assert maslov_index(l2, l3, l1) == base
        assert maslov_index(l3, l1, l2) == base
        assert maslov_index(l2, l1, l3) == -base
        assert maslov_index(l1, l3, l2) == -base

    def test_sign_normalization(self):
        assert LagrangianLine((2, -4)) == LagrangianLine((-1, 2))
        with pytest.raises(SchemaError):
            LagrangianLine((0, 0))


class TestCocycle:
    def test_identity_argument(self):
        assert cocycle(IDENTITY, A_MATRIX) == 0

    def test_fixed_line_vanishing(self):
        # A fixes span(p), so tau(p, p, ABp) = 0
        assert cocycle(A_MATRIX, B_MATRIX) == 0

    def test_q_signature_oracle(self):
        ab = mat_mul(A_MATRIX, B_MATRIX)
        l = LINE_P
        expect = _maslov_signature(l, l.apply(ab), l.apply(mat_mul(ab, ab)))
        assert cocycle(ab, ab) == expect

    def test_cocycle_identity_exhaustive(self):
        # all triples of words with total length <= 4 over A, B, J and
        # inverses; the bulk pass uses the cocycle (the cyclic-order rule,
        # checked against the closed form), and every distinct line triple
        # that occurs is cross-checked against the Fraction signature once
        letters = (1, -1, 2, -2, 3, -3)
        singles = words_up_to(4, letters)
        by_len = {}
        for w in singles:
            by_len.setdefault(len(w), set()).add(value_of(w))

        tau_cache = {}

        def tau(g, h):
            key = (g, h)
            if key not in tau_cache:
                tau_cache[key] = cocycle(g, h)
            return tau_cache[key]

        checked = 0
        for n1 in range(5):
            for n2 in range(5 - n1):
                for n3 in range(5 - n1 - n2):
                    for g1 in by_len.get(n1, ()):
                        for g2 in by_len.get(n2, ()):
                            g12 = mat_mul(g1, g2)
                            t12 = tau(g1, g2)
                            for g3 in by_len.get(n3, ()):
                                lhs = tau(g12, g3) + t12
                                rhs = tau(g1, mat_mul(g2, g3)) + tau(g2, g3)
                                assert lhs == rhs
                                checked += 1
        assert checked > 1000
        # dual-route verification of every tau value used above
        triples = set()
        for g, h in tau_cache:
            gh = mat_mul(g, h)
            triples.add((LINE_P, LINE_P.apply(g), LINE_P.apply(gh)))
        for l1, l2, l3 in triples:
            assert _maslov_cyclic(l1, l2, l3) == _maslov_signature(l1, l2, l3)


class TestMembership:
    def test_examples(self):
        assert MetaElement(A_MATRIX, 0).is_valid()
        assert not MetaElement(A_MATRIX, 2).is_valid()
        assert MetaElement(B_MATRIX, 1).is_valid()

    def test_kernel_characterization(self):
        # central elements are exactly (I, 4k)
        for n in range(-8, 9):
            ok = MetaElement(IDENTITY, n).is_valid()
            assert ok == (n % 4 == 0)

    def test_multiply_rejects_invalid(self):
        with pytest.raises(InvalidElement):
            multiply(MetaElement(A_MATRIX, 2), MetaElement(A_MATRIX, 0))


class TestGroupLaw:
    def test_table_k0(self):
        a, b, j = lift_generators(0)
        ab = multiply(a, b)
        assert ab == MetaElement(mat_mul(A_MATRIX, B_MATRIX), 1)
        aba = multiply(ab, a)
        bab = multiply(multiply(b, a), b)
        assert aba == bab
        assert aba.n == 1
        assert meta_power(ab, 6) == MetaElement(IDENTITY, 4)

    def test_table_k1(self):
        a, b, _ = lift_generators(1)
        assert (a.n, b.n) == (4, 5)
        ab = multiply(a, b)
        assert ab.n == 9
        assert multiply(ab, a).n == 13
        assert meta_power(ab, 6).n == 52

    def test_j_squared_is_central(self):
        _, _, j = lift_generators(0)
        j2 = multiply(j, j)
        assert j2.matrix == ((-1, 0), (0, -1))
        for x in (lift_generators(0)[0], lift_generators(0)[1], j):
            assert multiply(j2, x) == multiply(x, j2)

    def test_group_axioms(self):
        a, b, j = lift_generators(0)
        elems = [a, b, j, multiply(a, b), meta_inverse(a), meta_inverse(j)]
        e = meta_identity()
        for x in elems:
            assert multiply(x, e) == x == multiply(e, x)
            assert multiply(x, meta_inverse(x)) == e
            assert x.is_valid()
        for x in elems:
            for y in elems:
                assert multiply(x, y).is_valid()
                for z in elems:
                    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


class TestMetaWords:
    def test_e1_word(self):
        v = evaluate_meta_word(e1_word())
        assert v == MetaElement(IDENTITY, 4)

    def test_empty(self):
        assert evaluate_meta_word(TwistWord(1)) == meta_identity()

    def test_inverse_law(self):
        w = TwistWord(1, (TwistLetter(CURVE_A), TwistLetter(CURVE_A, -1)))
        assert evaluate_meta_word(w) == meta_identity()

    def test_meta_twist_general_class(self):
        # twist about the (1,1)-curve is a conjugate of the a-twist
        t = meta_twist((1, 1))
        assert t.is_valid()
        tr = t.matrix[0][0] + t.matrix[1][1]
        assert tr == 2  # parabolic

    def test_boundary_multiplicity(self):
        assert boundary_multiplicity(e1_word()) == 1
        assert boundary_multiplicity(e1_word(2)) == 2
        res = boundary_multiplicity(TwistWord(1, (TwistLetter(CURVE_A),)))
        assert isinstance(res, MetaElement)

    def test_szpiro(self):
        rep = szpiro_check(e1_word())
        assert (rep.n, rep.sum_exponents, rep.syllables) == (1, 12, 12)
        assert rep.sigma_squared == -1
        assert rep.passes
        rep2 = szpiro_check(e1_word(2))
        assert (rep2.n, rep2.sum_exponents, rep2.syllables) == (2, 24, 24)
        assert rep2.passes
        with pytest.raises(NotCentral):
            szpiro_check(TwistWord(1, (TwistLetter(CURVE_A),)))


GOLDEN_CASES = os.path.join(os.path.dirname(__file__), "golden", "cases.json")


def golden_meta_words():
    with open(GOLDEN_CASES) as fh:
        cases = json.load(fh)
    return sorted(c["argv"][1] for c in cases.values() if c["argv"][0] == "metaplectic")


class TestWordValue:
    """The homological product with the exponent-sum lift gives the value of
    the per-letter cocycle route."""

    @pytest.mark.parametrize(
        "text",
        golden_meta_words()
        + [f"(a b)^{6 * n}" for n in range(1, 5)]
        + [f"(a b a)^{4 * n}" for n in range(1, 5)]
        + ["a^99999999999"],
    )
    def test_matches_per_letter_route(self, text):
        w = parse_meta_word(text)
        assert evaluate_meta_word(w) == meta_word_oracle(w)

    @pytest.mark.parametrize(
        "text",
        ["a b^100000 (a b)^5", "a^1000000000 b", "b^-100000 a^77777 b^3", "a^-1000000000 b^999999999 a"],
    )
    def test_lift_steps_logarithmic(self, monkeypatch, text):
        # nearest-quotient Euclid: |c| at least halves per step, so the lift
        # makes at most (bit length of the largest entry) + 3 products; floor
        # quotients shrank |c| by 1 per step on the first word's matrix
        # ((-99998, 99999), (-99999, 100000))
        import twistlab.metaplectic as meta

        w = parse_meta_word(text)
        m = evaluate_homological(w).entries
        budget = [max(abs(x) for row in m for x in row).bit_length() + 3]

        def counted(x, y):
            budget[0] -= 1
            assert budget[0] >= 0, "too many products in the lift"
            return multiply(x, y)

        monkeypatch.setattr(meta, "multiply", counted)
        value = meta._lift(m, sum(l.exponent for l in w.letters))
        monkeypatch.undo()
        assert value == evaluate_meta_word(w) == meta_word_oracle(w)

    def test_fixture_word(self):
        w = load_fixture("E1").word
        assert evaluate_meta_word(w) == meta_word_oracle(w) == MetaElement(IDENTITY, 4)

    def test_central_powers(self):
        for n in range(1, 5):
            for text in (f"(a b)^{6 * n}", f"(a b a)^{4 * n}"):
                assert evaluate_meta_word(parse_meta_word(text)) == MetaElement(IDENTITY, 4 * n)

    @pytest.mark.parametrize("homology", [(5, 0), (0, 0), (2, -4)])
    def test_rejects_non_primitive_class(self, homology):
        curve = Curve("c", homology, separating=homology == (0, 0))
        word = TwistWord(1, (TwistLetter(curve),))
        with pytest.raises(SchemaError, match="must be primitive"):
            evaluate_meta_word(word)
        # the same letter as a conjugator letter three levels down
        for _ in range(3):
            word = TwistWord(1, (TwistLetter(CURVE_A, conjugator=word),))
        with pytest.raises(SchemaError, match="must be primitive"):
            evaluate_meta_word(word)


primitive_curves = (
    st.tuples(st.integers(-7, 7), st.integers(-7, 7))
    .filter(lambda c: math.gcd(*c) == 1)
    .map(lambda c: Curve(f"c{c}", c))
)
exponents = st.integers(-12, 12).filter(bool)


def twist_words(depth: int, max_letters: int):
    conjugators = st.none()
    if depth:
        conjugators = st.none() | twist_words(depth - 1, 3)
    letters = st.builds(TwistLetter, primitive_curves, exponents, conjugators)
    return st.lists(letters, max_size=max_letters).map(lambda ls: TwistWord(1, tuple(ls)))


@settings(max_examples=150, deadline=None)
@given(twist_words(2, 10))
def test_word_value_matches_per_letter_route(word):
    assert evaluate_meta_word(word) == meta_word_oracle(word)


class TestParser:
    def test_power_groups(self):
        w = parse_meta_word("(a b)^6")
        assert len(w.letters) == 12
        assert evaluate_meta_word(w) == MetaElement(IDENTITY, 4)

    def test_negative_powers(self):
        w = parse_meta_word("a^3 b^-1")
        assert [l.exponent for l in w.letters] == [3, -1]

    def test_conjugation_brackets(self):
        w = parse_meta_word("[a b] a [a b]^-1")
        assert len(w.letters) == 1
        assert w.letters[0].conjugator is not None
        assert evaluate_meta_word(w) == MetaElement(B_MATRIX, 1)

    def test_parse_errors(self):
        for bad in ("c", "a^", "(a b", "[a] b"):
            with pytest.raises(SchemaError):
                parse_meta_word(bad)


class TestTildeLambda:
    def test_parity_validation(self):
        TildeLambdaPoint(LINE_P, 0)
        TildeLambdaPoint(LINE_Q, 1)
        with pytest.raises(ValueError):
            TildeLambdaPoint(LINE_P, 1)
        with pytest.raises(ValueError):
            TildeLambdaPoint(LINE_Q, 0)

    def test_fixed_points(self):
        a, b, _ = lift_generators(0)
        for k in (-2, 0, 2):
            pt = TildeLambdaPoint(LINE_P, k)
            assert act_tilde_lambda(a, pt) == pt
        for k in (-1, 1, 3):
            pt = TildeLambdaPoint(LINE_Q, k)
            assert act_tilde_lambda(b, pt) == pt

    def test_central_translation(self):
        c = MetaElement(IDENTITY, 4)
        for pt in (TildeLambdaPoint(LINE_P, 0), TildeLambdaPoint(LINE_Q, 1)):
            out = act_tilde_lambda(c, pt)
            assert out.line == pt.line and out.k == pt.k + 4
            d = displacement(c, pt)
            assert d.pi_fraction() == Fraction(-2)

    def test_deck_translation_commutes(self):
        a, b, _ = lift_generators(0)
        for x in (a, b, multiply(a, b)):
            for pt in (TildeLambdaPoint(LINE_Q, 1), TildeLambdaPoint(LINE_PQ, 1)):
                shifted = TildeLambdaPoint(pt.line, pt.k + 2)
                lhs = act_tilde_lambda(x, shifted)
                rhs = act_tilde_lambda(x, pt)
                assert lhs.line == rhs.line and lhs.k == rhs.k + 2

    def test_theta_convention_monotone(self):
        # theta~ decreases by pi/2 per unit of k
        p1 = TildeLambdaPoint(LINE_Q, 1)
        p2 = TildeLambdaPoint(LINE_Q, 3)
        assert p1.theta_fraction() - p2.theta_fraction() == Fraction(1)


class TestDisplacement:
    def test_fixed_point_zero(self):
        a, _, _ = lift_generators(0)
        d = displacement(a, TildeLambdaPoint(LINE_P, 0))
        assert d.pi_fraction() == 0
        assert d.cmp_half_pi(0) == 0

    def test_a_at_q(self):
        a, _, _ = lift_generators(0)
        d = displacement(a, TildeLambdaPoint(LINE_Q, 1))
        assert d.pi_fraction() == Fraction(-1, 4)
        assert d.cmp_half_pi(0) < 0
        assert d.cmp_half_pi(-2) > 0

    def test_bound_for_twist_conjugates(self):
        # displacement of any conjugate of the a-twist lies in [-pi, 0]
        pts = [
            TildeLambdaPoint(LINE_P, 0),
            TildeLambdaPoint(LINE_Q, 1),
            TildeLambdaPoint(LINE_PQ, 1),
            TildeLambdaPoint(LagrangianLine((2, 1)), 1),
            TildeLambdaPoint(LagrangianLine((-1, 3)), 1),
            TildeLambdaPoint(LagrangianLine((5, -2)), 1),
        ]
        for t in conjugates_of_t_a(2):
            for pt in pts:
                d = displacement(t, pt)
                assert d.in_interval_closed(-2, 0), (t, pt)


class TestPositivityObstruction:
    def test_small_bound(self):
        for bounds in ((6, 2), (8, 2), (8, 3)):
            assert positive_identity_oracle(*bounds) is None
            assert search_positive_identity(*bounds) is None

    def test_large_bound_is_immediate(self):
        start = time.perf_counter()
        assert search_positive_identity(14, 3) is None
        assert time.perf_counter() - start < 1.0

    def test_exponent_sum_homomorphism(self):
        # h(A~_0) = h(B~_0) = 1 extends without conflict over every value of
        # a word of length <= 8 in A~_0^+-1, B~_0^+-1
        a, b, _ = lift_generators(0)
        assert multiply(multiply(a, b), a) == multiply(multiply(b, a), b)
        steps = [(a, 1), (meta_inverse(a), -1), (b, 1), (meta_inverse(b), -1)]
        h = {meta_identity(): 0}
        frontier = [meta_identity()]
        for _ in range(8):
            nxt = []
            for x in frontier:
                for g, dh in steps:
                    y = multiply(x, g)
                    if y not in h:
                        h[y] = h[x] + dh
                        nxt.append(y)
                    assert h[y] == h[x] + dh, y
            frontier = nxt
        assert len(h) == 2589
        for t in conjugates_of_t_a(3):
            assert h[t] == 1, t

    def test_conjugate_set_contains_b(self):
        values = conjugates_of_t_a(2)
        assert MetaElement(B_MATRIX, 1) in values
        assert MetaElement(A_MATRIX, 0) in values
