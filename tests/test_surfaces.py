import random

import pytest
from hypothesis import given, settings, strategies as st

from twistlab.errors import DimensionMismatch, SchemaError
from twistlab.exact import IntMatrix
from twistlab.schema import curve_system_from_dict
from twistlab.surfaces import (
    Curve,
    HomologyClass,
    SurfaceData,
    intersection_pairing,
    is_symplectic,
    pairing_row,
    symplectic_inverse,
    symplectic_j,
    twist_transvection,
)

A = IntMatrix([[1, 1], [0, 1]])
B = IntMatrix([[1, 0], [-1, 1]])


class TestCurve:
    def test_separating_flag_must_match_class(self):
        Curve("sep", (0, 0), separating=True)
        with pytest.raises(SchemaError):
            Curve("bad", (1, 0), separating=True)
        with pytest.raises(SchemaError):
            Curve("bad", (0, 0), separating=False)

    def test_word_class_consistency(self):
        Curve("v2", (1, -1), word=(1, -2))
        with pytest.raises(SchemaError):
            Curve("v2", (1, -1), word=(1, 2))

    @pytest.mark.parametrize("entry", [1.5, "1", 1.0, None])
    def test_non_integer_entry_rejected_by_name(self, entry):
        # each entry was once coerced with int(), so 1.5 and "1" read as 1
        with pytest.raises(SchemaError, match="curve c7:"):
            Curve("c7", (entry, 0))

    def test_integer_likes_become_plain_ints(self):
        assert Curve("t", (True, 0)).homology.support == ((0, 1),)
        assert type(Curve("t", (True, 0)).homology.support[0][1]) is int

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3) | st.integers(-10**30, 10**30)] * 2), max_size=6))
    def test_dense_and_support_give_one_curve(self, handles):
        dense = [x for pair in handles for x in pair]
        support = [(j, x) for j, x in enumerate(dense) if x]
        random.Random(len(dense)).shuffle(support)  # any order of the pairs
        word = None
        if all(abs(x) <= 3 for x in dense):  # a word abelianizing to the class
            word = tuple(j + 1 if x > 0 else -(j + 1) for j, x in enumerate(dense) for _ in range(abs(x)))
        sep = not any(dense)
        from_dense = Curve("c", dense, sep, word)
        from_support = Curve("c", HomologyClass(len(dense), support), sep, word)
        assert from_dense == from_support
        assert hash(from_dense) == hash(from_support)
        assert list(from_dense.homology) == dense
        assert from_dense.homology.dim == len(dense)

    def test_support_built_class_is_checked(self):
        one = HomologyClass(4, [(2, 1)])
        with pytest.raises(SchemaError, match="separating flag"):
            Curve("bad", one, separating=True)
        with pytest.raises(SchemaError, match="separating flag"):
            Curve("bad", HomologyClass(4), separating=False)
        with pytest.raises(SchemaError, match="word abelianization"):
            Curve("bad", one, word=(4,))
        with pytest.raises(SchemaError, match="outside generators"):
            Curve("bad", one, word=(5,))
        Curve("a2", one, word=(3, 4, -4))
        with pytest.raises(DimensionMismatch):
            HomologyClass(4, [(4, 1)])
        with pytest.raises(DimensionMismatch):
            HomologyClass(4, [(1, 1), (1, 2)])
        with pytest.raises(TypeError):
            HomologyClass(4, [(1, 1.5)])
        # zero coefficients are not support
        assert HomologyClass(4, [(1, 0)]) == HomologyClass(4)

    @pytest.mark.parametrize("entry", [True, False, 1.0, 1.5])
    def test_file_entries_must_be_ints(self, entry):
        with pytest.raises(SchemaError, match="homology must be a list"):
            curve_system_from_dict({"genus": 1, "curves": [{"name": "a", "homology": [entry, 0]}]})


class TestPairing:
    def test_convention(self):
        assert intersection_pairing((1, 0), (0, 1)) == 1

    def test_antisymmetry_on_diagonal(self):
        for x in [(1, 0), (2, 3), (1, 2, 3, 4)]:
            assert intersection_pairing(x, x) == 0

    def test_bilinear_expansion(self):
        # <a1 - b1, -a1 - b1 + a2> = <a1, -b1> + <-b1, -a1> = -1 - 1
        v2 = (1, -1, 0, 0)
        v3 = (-1, -1, 1, 0)
        assert intersection_pairing(v2, v3) == -2

    def test_genus2_blocks(self):
        assert intersection_pairing((0, 0, 1, 0), (0, 0, 0, 1)) == 1
        assert intersection_pairing((1, 0, 0, 0), (0, 0, 0, 1)) == 0


class TestTransvection:
    def test_genus1_a(self):
        assert twist_transvection((1, 0)) == A

    def test_genus1_b(self):
        assert twist_transvection((0, 1)) == B

    def test_separating_acts_trivially(self):
        assert twist_transvection(Curve("s", (0, 0, 0, 0), separating=True)).is_identity()

    def test_fixes_its_curve_and_pairing_kernel(self):
        rng = random.Random(7)
        for _ in range(20):
            g = rng.randint(1, 3)
            c = tuple(rng.randint(-3, 3) for _ in range(2 * g))
            t = twist_transvection(c)
            assert t.apply(c) == c
            # any x with <x, c> = 0 is fixed
            x = tuple(rng.randint(-3, 3) for _ in range(2 * g))
            if intersection_pairing(x, c) == 0:
                assert t.apply(x) == x

    def test_result_is_symplectic(self):
        rng = random.Random(11)
        for _ in range(20):
            g = rng.randint(1, 3)
            c = tuple(rng.randint(-4, 4) for _ in range(2 * g))
            assert is_symplectic(twist_transvection(c))

    def test_conjugation_covariance(self):
        # M T_c M^-1 = T_{M c} for symplectic M
        rng = random.Random(3)
        for _ in range(15):
            g = rng.randint(1, 2)
            # build symplectic M as a product of transvections
            m = IntMatrix.identity(2 * g)
            for _ in range(3):
                c = tuple(rng.randint(-2, 2) for _ in range(2 * g))
                m = m * twist_transvection(c)
            c = tuple(rng.randint(-2, 2) for _ in range(2 * g))
            j = symplectic_j(g)
            m_inv = j.transpose() * m.transpose() * j
            assert m * twist_transvection(c) * m_inv == twist_transvection(m.apply(c))

    def test_braid_relation_for_adjacent_classes(self):
        rng = random.Random(5)
        found = 0
        for _ in range(200):
            g = rng.randint(1, 2)
            x = tuple(rng.randint(-2, 2) for _ in range(2 * g))
            y = tuple(rng.randint(-2, 2) for _ in range(2 * g))
            if abs(intersection_pairing(x, y)) != 1:
                continue
            found += 1
            tx, ty = twist_transvection(x), twist_transvection(y)
            assert tx * ty * tx == ty * tx * ty
        assert found > 10


class TestSymplecticInverse:
    def test_pairing_row(self):
        rng = random.Random(13)
        for _ in range(20):
            n = 2 * rng.randint(1, 4)
            c = tuple(rng.randint(-5, 5) for _ in range(n))
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            assert sum(a * b for a, b in zip(pairing_row(c), x)) == intersection_pairing(c, x)

    def test_against_j_products(self):
        # random products of transvections: the closed form equals
        # (-J) M^T J and inverts M on both sides
        rng = random.Random(17)
        for _ in range(30):
            g = rng.randint(1, 4)
            m = IntMatrix.identity(2 * g)
            for _ in range(rng.randint(0, 6)):
                c = tuple(rng.randint(-3, 3) for _ in range(2 * g))
                m = m * twist_transvection(c)
            j = symplectic_j(g)
            inv = symplectic_inverse(m)
            assert inv == j.transpose() * m.transpose() * j  # J^-1 = J^T = -J
            assert (m * inv).is_identity() and (inv * m).is_identity()


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(IntMatrix.identity(4))

    def test_singular_matrix(self):
        assert not is_symplectic(IntMatrix([[1, 1], [1, 1]]))

    def test_surface_data_validation(self):
        with pytest.raises(SchemaError):
            SurfaceData(-1)
