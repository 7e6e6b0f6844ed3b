import pytest

from conftest import CURVE_A, CURVE_B, e1_factorization, e1_word, pi1_presentation
from twistlab.errors import GenusMismatch, MissingCommutatorData, NotPositive, SchemaError
from twistlab.exact import IntMatrix
from twistlab.invariants import (
    Factorization,
    euler_characteristic,
    fiber_sum,
    h1_total_space,
    invariant_report,
    mu,
    signature,
    torelli_certificate,
)
from twistlab.presentations import AbelianInvariants, abelianize
from twistlab.surfaces import Curve, twist_transvection
from twistlab.words import TwistLetter, TwistWord


def separating_factorization(genus=2, twists=5):
    sep = Curve("s", (0,) * (2 * genus), separating=True)
    word = TwistWord(genus, tuple(TwistLetter(sep) for _ in range(twists)))
    return Factorization(genus, 0, word, (sep,))


class TestVanishingCycles:
    def test_letter_curve_is_the_listed_curve(self):
        moved = Curve("a", (1, 1), word=(1, 2))
        with pytest.raises(SchemaError, match="not a listed curve"):
            Factorization(1, 0, TwistWord(1, (TwistLetter(moved),)), (CURVE_A, CURVE_B))

    def test_first_use_order_of_top_level_letters(self):
        # a conjugator's curves are not vanishing cycles
        empty = Factorization(1, 0, TwistWord(1), (CURVE_A, CURVE_B))
        conj = TwistWord(1, (TwistLetter(CURVE_A),))
        word = TwistWord(1, (TwistLetter(CURVE_B, conjugator=conj), TwistLetter(CURVE_B)))
        assert empty.cycles() == ()
        f = Factorization(1, 0, word * e1_word(), (CURVE_A, CURVE_B))
        assert f.cycles() == (CURVE_B, CURVE_A)
        assert f.cycle_classes() == [(0, 1), (1, 0)]


class TestMu:
    def test_e1(self):
        assert mu(e1_factorization()) == 12

    def test_exponents_count(self, fixture_genus3):
        # squares on the two split-cycle lifts, single twists on the rest
        assert mu(fixture_genus3) == 16

    def test_empty(self):
        f = Factorization(1, 0, TwistWord(1), (CURVE_A,))
        assert mu(f) == 0

    def test_rejects_negative(self):
        w = TwistWord(1, (TwistLetter(CURVE_A, -1),))
        f = Factorization(1, 0, w, (CURVE_A,))
        with pytest.raises(NotPositive):
            mu(f)


class TestEuler:
    def test_e1(self):
        assert euler_characteristic(e1_factorization()) == 12

    def test_genus3(self, fixture_genus3):
        assert euler_characteristic(fixture_genus3) == 4 - 12 + 16

    def test_product_case(self):
        for g in (1, 2, 3):
            f = Factorization(g, 0, TwistWord(g), (Curve("x", (1,) + (0,) * (2 * g - 1)),))
            assert euler_characteristic(f) == 4 - 4 * g


class TestPi1:
    def test_e1_simply_connected(self):
        p = pi1_presentation(e1_factorization())
        assert abelianize(p) == AbelianInvariants(0, ())

    def test_genus2_cycles_kill_h1(self, fixture_genus2):
        p = pi1_presentation(fixture_genus2)
        assert abelianize(p) == AbelianInvariants(0, ())

    def test_no_cycles_gives_surface_group(self):
        f = Factorization(2, 0, TwistWord(2), (Curve("x", (1, 0, 0, 0)),))
        p = pi1_presentation(f)
        assert abelianize(p) == AbelianInvariants(4, ())

    def test_missing_words(self, fixture_genus3):
        with pytest.raises(ValueError, match="no fundamental-group word"):
            pi1_presentation(fixture_genus3)


class TestH1:
    def test_e1(self):
        assert h1_total_space(e1_factorization()) == AbelianInvariants(0, ())

    def test_genus3_fixture(self, fixture_genus3):
        inv = h1_total_space(fixture_genus3)
        assert inv.free_rank == 2
        assert not inv.torsion

    def test_all_separating(self):
        f = separating_factorization(genus=2)
        assert h1_total_space(f) == AbelianInvariants(4, ())

    def test_matches_pi1_abelianization(self, fixture_genus2):
        assert h1_total_space(fixture_genus2) == abelianize(pi1_presentation(fixture_genus2))


class TestSignature:
    def test_e1_classical_value(self):
        # the rational elliptic surface has signature -8
        sign, prov = signature(e1_factorization())
        assert (sign, prov) == (-8, "computed")

    def test_separating_twists(self):
        sign, prov = signature(separating_factorization(twists=5))
        assert (sign, prov) == (-5, "computed")

    def test_genus2_unknown(self, fixture_genus2):
        sign, prov = signature(fixture_genus2)
        assert sign is None and prov == "unknown"

    def test_external_input(self, fixture_genus2):
        sign, prov = signature(fixture_genus2, external=-12)
        assert (sign, prov) == (-12, "external")

    def test_genus1_cross_check(self):
        # 4 n - mu with sum of exponents 12 n, for one and two copies
        for copies in (1, 2):
            f = e1_factorization(copies)
            sign, _ = signature(f)
            assert sign == 4 * copies - 12 * copies
            assert mu(f) == 12 * copies


class TestHodge:
    def test_e1(self):
        assert invariant_report(e1_factorization()).lam == 1

    def test_separating_only(self):
        assert invariant_report(separating_factorization()).lam == 0

    def test_unknown_signature(self, fixture_genus2):
        rep = invariant_report(fixture_genus2)
        assert rep.lam is None and rep.liu_status == "lambda unknown"

    def test_fiber_sum_additivity(self):
        f = fiber_sum(e1_factorization(), e1_factorization())
        assert invariant_report(f).lam == 2


class TestTorelli:
    def test_all_separating_contradiction(self):
        rep = torelli_certificate(separating_factorization())
        assert not rep.ok
        assert "null-homologous" in rep.reason

    def test_e1_ok(self):
        rep = torelli_certificate(e1_factorization())
        assert rep.ok
        sign, _ = signature(e1_factorization())
        assert sign + 12 > 0

    def test_genus2_fixture_ok(self, fixture_genus2):
        assert torelli_certificate(fixture_genus2).ok


class TestLiu:
    def test_e1(self):
        rep = invariant_report(e1_factorization())
        assert rep.lam == 1 and rep.liu_status == "1 > -1/6: pass"

    def test_genus3_with_external_signature(self, fixture_genus3):
        rep = invariant_report(fixture_genus3, external_signature=-8)
        assert rep.lam == 2 and rep.liu_status == "2 > 7/6: pass"

    def test_separating_genus2_fails(self):
        rep = invariant_report(separating_factorization(genus=2))
        assert rep.lam == 0 and rep.liu_status == "0 > 1/2: FAIL"

    def test_unknown(self, fixture_genus2):
        rep = invariant_report(fixture_genus2)
        assert rep.lam is None and rep.liu_status == "lambda unknown"


class TestFiberSum:
    def test_doubles_invariants(self):
        f = fiber_sum(e1_factorization(), e1_factorization())
        assert mu(f) == 24
        assert euler_characteristic(f) == 24
        sign, _ = signature(f)
        assert sign == -16

    def test_euler_additivity_formula(self):
        f1, f2 = e1_factorization(), e1_factorization(2)
        total = fiber_sum(f1, f2)
        g = f1.fiber_genus
        assert euler_characteristic(total) == (
            euler_characteristic(f1) + euler_characteristic(f2) - 2 * (2 - 2 * g)
        )

    def test_identity_element(self):
        f = e1_factorization()
        empty = Factorization(1, 0, TwistWord(1), (CURVE_A, CURVE_B))
        total = fiber_sum(f, empty)
        assert total.word.letters == f.word.letters

    def test_genus_mismatch(self, fixture_genus2):
        with pytest.raises(GenusMismatch):
            fiber_sum(e1_factorization(), fixture_genus2)


class TestHigherBase:
    def test_smooth_fibration(self):
        f = Factorization(2, 1, TwistWord(2), (Curve("x", (1, 0, 0, 0)),))
        ok, _ = f.verify_homological()
        assert ok

    def test_commutator_identity(self):
        # (t_a t_b)^6 = I equals the empty-commutator and the [X, X] products
        x = twist_transvection((1, 1))
        f = Factorization(
            1, 1, e1_word(), (CURVE_A, CURVE_B), commutator_part=((x, x),)
        )
        ok, residual = f.verify_homological()
        assert ok and residual.is_identity()

    def test_violation_reports_residual(self):
        x = twist_transvection((1, 1))
        w = TwistWord(1, (TwistLetter(CURVE_A),))
        f = Factorization(1, 1, w, (CURVE_A,), commutator_part=((x, x),))
        ok, residual = f.verify_homological()
        assert not ok
        assert not residual.is_identity()

    def test_missing_data(self):
        w = TwistWord(1, (TwistLetter(CURVE_A),))
        f = Factorization(1, 1, w, (CURVE_A,))
        with pytest.raises(MissingCommutatorData):
            f.verify_homological()


class TestReportConsistency:
    def test_e1_report(self):
        rep = invariant_report(e1_factorization())
        assert (rep.mu, rep.euler, rep.b1, rep.b2) == (12, 12, 0, 10)
        assert rep.signature == -8 and rep.lam == 1
        assert rep.c1_squared == 0
        assert abs(rep.signature) <= rep.b2
        assert rep.consistency_ok()
        assert rep.szpiro and rep.szpiro["passes"]

    def test_fixture_reports_consistent(self, fixture_e1, fixture_genus2, fixture_genus3):
        for f in (fixture_e1, fixture_genus2, fixture_genus3):
            rep = invariant_report(f)
            assert rep.relation_verified
            assert rep.consistency_ok()
            assert rep.b2 == rep.euler - 2 + 2 * rep.b1

    def test_b1_equals_rank_formula(self, fixture_genus2, fixture_genus3):
        from twistlab.exact import rank_over_rationals

        for f in (fixture_genus2, fixture_genus3):
            classes = f.cycle_classes()
            expected = 2 * f.fiber_genus - rank_over_rationals(IntMatrix(classes))
            assert h1_total_space(f).free_rank == expected
