import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CURVE_A,
    CURVE_B,
    conjugate_adjacent,
    e1_word,
    evaluate_homological_oracle,
    expand_word,
    express_inverse_positively,
    invert_from_positive_relation,
)
from twistlab.errors import NotARelation, NotPositive
from twistlab.exact import IntMatrix
from twistlab.surfaces import Curve, SurfaceData, twist_transvection
from twistlab.systems import CurveSystem
from twistlab.words import TwistLetter, TwistWord, evaluate_homological, is_positive

A = IntMatrix([[1, 1], [0, 1]])
B = IntMatrix([[1, 0], [-1, 1]])

V_CLASSES = {
    "v1": (1, 0, 0, 0),
    "v2": (1, -1, 0, 0),
    "v3": (0, -1, -1, 0),
    "v4": (0, -1, -1, 1),
    "v5": (0, -1, 0, 1),
}


def genus2_relation() -> TwistWord:
    curves = {n: Curve(n, c) for n, c in V_CLASSES.items()}
    letters = []
    for _ in range(2):
        for n in ("v1", "v2", "v3", "v4", "v5"):
            letters.append(TwistLetter(curves[n], 2))
    return TwistWord(2, tuple(letters))


class TestEvaluate:
    def test_empty_word(self):
        assert evaluate_homological(TwistWord(1)).is_identity()

    def test_reading_order(self):
        w = TwistWord(1, (TwistLetter(CURVE_A), TwistLetter(CURVE_B)))
        assert evaluate_homological(w).matrix() == A * B

    def test_homomorphism(self):
        u = TwistWord(1, (TwistLetter(CURVE_A, 2),))
        v = TwistWord(1, (TwistLetter(CURVE_B, -1), TwistLetter(CURVE_A)))
        product = evaluate_homological(u).matrix() * evaluate_homological(v).matrix()
        assert evaluate_homological(u * v).matrix() == product

    def test_e1_relation(self):
        assert evaluate_homological(e1_word()).is_identity()

    def test_genus2_relation(self):
        assert evaluate_homological(genus2_relation()).is_identity()

    def test_conjugated_letter(self):
        phi = TwistWord(1, (TwistLetter(CURVE_A), TwistLetter(CURVE_B)))
        letter = TwistLetter(CURVE_A, 3, conjugator=phi)
        w = TwistWord(1, (letter,))
        c = A * B
        c_inv = IntMatrix([[1, -1], [1, 0]])
        assert c * c_inv == IntMatrix.identity(2)
        assert evaluate_homological(w).matrix() == c * (A * A * A) * c_inv

    @pytest.mark.parametrize("exponent", [-4, -1, 2, 3, 5])
    def test_letter_power(self, exponent):
        # a letter's power against repeated products, in genus 1 and 2
        for genus, curve in ((1, CURVE_A), (2, Curve("v4", V_CLASSES["v4"]))):
            t = twist_transvection(curve, genus)
            repeated = IntMatrix.identity(2 * genus)
            for _ in range(abs(exponent)):
                repeated = repeated * t
            value = evaluate_homological(TwistWord(genus, (TwistLetter(curve, exponent),))).matrix()
            if exponent > 0:
                assert value == repeated
            else:
                assert (value * repeated).is_identity()

    def test_brute_force_small_words(self):
        # every word of length <= 6 in t_a, t_b matches direct multiplication
        import itertools

        mats = {1: A, 2: B}
        for n in range(7):
            for combo in itertools.product((1, 2), repeat=n):
                w = TwistWord(
                    1, tuple(TwistLetter(CURVE_A if s == 1 else CURVE_B) for s in combo)
                )
                direct = IntMatrix.identity(2)
                for s in combo:
                    direct = direct * mats[s]
                assert evaluate_homological(w).matrix() == direct


def twist_words(genus: int, depth: int, max_letters: int):
    """Words on the genus-g surface: classes in [-3, 3]^2g, the zero class
    included, exponents of both signs, conjugators nested to the depth."""
    classes = st.tuples(*[st.integers(-3, 3)] * (2 * genus))
    curves = classes.map(lambda c: Curve(f"c{c}", c, separating=not any(c)))
    exponents = st.sampled_from((-5, -2, -1, 1, 2, 3, 7))
    conjugators = st.none()
    if depth:
        conjugators = st.none() | twist_words(genus, depth - 1, 3)
    letters = st.builds(TwistLetter, curves, exponents, conjugators)
    return st.lists(letters, max_size=max_letters).map(lambda ls: TwistWord(genus, tuple(ls)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda g: twist_words(g, 2, 6)))
def test_value_matches_per_letter_route(word):
    assert evaluate_homological(word).matrix() == evaluate_homological_oracle(word)


class TestPositivity:
    def test_positive_word(self):
        assert is_positive(e1_word())

    def test_negative_letter(self):
        w = TwistWord(1, (TwistLetter(CURVE_A), TwistLetter(CURVE_B, -1)))
        assert not is_positive(w)

    def test_conjugated_positive(self):
        phi = TwistWord(1, (TwistLetter(CURVE_B, -2),))
        w = TwistWord(1, (TwistLetter(CURVE_A, 1, conjugator=phi),))
        assert is_positive(w)


class TestInvertFromPositiveRelation:
    def curves(self):
        return [Curve(f"t{i}", ((1, 0) if i == 1 else ((0, 1) if i == 2 else (1, 1)))) for i in (1, 2, 3)]

    def test_head_position(self):
        t1, t2, t3 = self.curves()
        rel = TwistWord(2, ())
        rel = TwistWord(1, tuple(TwistLetter(c) for c in (t1, t2, t3)))
        out = invert_from_positive_relation(rel, 1)
        assert [l.curve.name for l in out.letters] == ["t2", "t3"]

    def test_cyclic_rotation(self):
        t1, t2, t3 = self.curves()
        rel = TwistWord(1, tuple(TwistLetter(c) for c in (t1, t2, t3)))
        out = invert_from_positive_relation(rel, 2)
        assert [l.curve.name for l in out.letters] == ["t3", "t1"]

    def test_single_letter(self):
        t1 = Curve("t1", (1, 0))
        rel = TwistWord(1, (TwistLetter(t1),))
        assert invert_from_positive_relation(rel, 1).letters == ()

    def test_rejects_negative(self):
        rel = TwistWord(1, (TwistLetter(CURVE_A, -1),))
        with pytest.raises(NotPositive):
            invert_from_positive_relation(rel, 1)

    def test_homological_inverse_check(self):
        rel = e1_word()
        for i in (1, 5, 12):
            out = invert_from_positive_relation(rel, i)
            assert is_positive(out)
            head = expand_word(rel).letters[i - 1]
            full = TwistWord(1, (head,) + out.letters)
            assert evaluate_homological(full).is_identity()


class TestConjugateAdjacent:
    def test_genus1(self):
        phi = conjugate_adjacent(CURVE_A, CURVE_B, 1)
        c = evaluate_homological(phi).matrix()
        c_inv = IntMatrix([[1, -1], [1, 0]])
        assert (c * A * c_inv) == B

    def test_rejects_self(self):
        with pytest.raises(ValueError):
            conjugate_adjacent(CURVE_A, CURVE_A, 1)

    def test_genus2_pair(self):
        v1 = Curve("v1", V_CLASSES["v1"])
        v2 = Curve("v2", V_CLASSES["v2"])
        phi = conjugate_adjacent(v1, v2, 2)
        c = evaluate_homological(phi).matrix()
        from twistlab.surfaces import symplectic_j

        j = symplectic_j(2)
        c_inv = j.transpose() * c.transpose() * j  # J^T = -J
        assert c * twist_transvection(v1) * c_inv == twist_transvection(v2)


def torus_system():
    return CurveSystem(
        SurfaceData(1),
        (CURVE_A, CURVE_B),
        (("a", "b", 1),),
    )


class TestExpressInversePositively:
    def test_genus1_walkthrough(self):
        system = torus_system()
        rel = e1_word()
        out = express_inverse_positively(system, ["a"], ["b"], rel, "a")
        assert is_positive(out)
        a_inv = IntMatrix([[1, -1], [0, 1]])
        assert evaluate_homological(out).matrix() == a_inv

    def test_curve_already_in_s(self):
        system = torus_system()
        rel = e1_word()
        out = express_inverse_positively(system, ["b"], ["b"], rel, "b")
        assert is_positive(out)
        b_inv = IntMatrix([[1, 0], [1, 1]])
        assert evaluate_homological(out).matrix() == b_inv
        # path length 0 reduces to the rotated tail: plain letters only
        assert all(l.conjugator is None for l in out.letters)

    def test_two_step_path(self):
        # adjacency forced through a middle curve: v1 - v2 - v3
        curves = {n: Curve(n, c) for n, c in V_CLASSES.items()}
        counts = []
        names = list(V_CLASSES)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                counts.append((a, b, 1))
        # break direct adjacency between v1 and every S-curve
        counts = [
            (a, b, 3 if (a, b) in (("v1", "v3"), ("v1", "v4"), ("v1", "v5")) else k)
            for a, b, k in counts
        ]
        system = CurveSystem(SurfaceData(2), tuple(curves.values()), tuple(counts))
        rel = genus2_relation()
        out = express_inverse_positively(system, ["v1"], ["v3"], rel, "v1")
        assert is_positive(out)
        t1 = twist_transvection(curves["v1"])
        assert evaluate_homological(out).matrix() * t1 == IntMatrix.identity(4)

    def test_disconnected(self):
        far = Curve("far", (0, 0, 0, 0), separating=True)
        v1 = Curve("v1", (1, 0, 0, 0))
        v2 = Curve("v2", (0, 1, 0, 0))
        system = CurveSystem(
            SurfaceData(2), (far, v1, v2), (("v1", "v2", 1),)
        )
        rel = TwistWord(
            2,
            tuple(
                TwistLetter(c)
                for c in (v1, v2, v1, v2, v1, v2) * 2
            ),
        )
        # (t_{v1} t_{v2})^6 restricted to the first handle is a relation
        assert evaluate_homological(rel).is_identity()
        with pytest.raises(LookupError):
            express_inverse_positively(system, ["far"], ["v2"], rel, "far")

    def test_not_a_relation(self):
        system = torus_system()
        rel = TwistWord(1, (TwistLetter(CURVE_A),))
        with pytest.raises(NotARelation):
            express_inverse_positively(system, ["a"], ["b"], rel, "a")
