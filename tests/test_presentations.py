import json
import os
import time

import pytest

from conftest import transfer
from twistlab.errors import BudgetExceeded, SchemaError, ZeroCharacter
from twistlab.exact import IntMatrix, rank_over_rationals
from twistlab.presentations import (
    MAX_WORD_LETTERS,
    AbelianInvariants,
    FinitePresentation,
    SurfaceGroup,
    abelianize,
    cyclic_reduce,
    free_reduce,
    inverse_word,
    lift_loop,
    parse_word,
    quotient_by_normal_closure,
    reidemeister_schreier_double_cover,
)

BRAID = FinitePresentation(("ta", "tb"), ((1, 2, 1, -2, -1, -2),))

# deck_matrix() for seeded characters of genus 2..6, recorded from the
# implementation that projected with 0/1 matrix products
with open(os.path.join(os.path.dirname(__file__), "golden", "deck_matrix.json")) as fh:
    DECK_GOLDEN = json.load(fh)


def test_free_and_cyclic_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert cyclic_reduce((1, 2, -1)) == (2,)


class TestParseWord:
    def test_tokens(self):
        assert parse_word(["a1", "b1^-2", "a1^0"], ("a1", "b1")) == (1, -2, -2)

    @pytest.mark.parametrize(
        "tokens", [[5], ["a1", None], ["a1^x"], ["a1^1.5"], "a1", 5], ids=repr
    )
    def test_malformed(self, tokens):
        with pytest.raises(SchemaError):
            parse_word(tokens, ("a1", "b1"))

    def test_power_budget(self):
        assert len(parse_word([f"a1^{MAX_WORD_LETTERS}"], ("a1",))) == MAX_WORD_LETTERS
        with pytest.raises(BudgetExceeded, match="a1\\^-99999999999"):
            parse_word(["a1^-99999999999"], ("a1",))
        # the budget counts the whole word, not one token
        with pytest.raises(BudgetExceeded, match="b1"):
            parse_word([f"a1^{MAX_WORD_LETTERS}", "b1"], ("a1", "b1"))


class TestAbelianize:
    def test_braid_presentation_is_z(self):
        inv = abelianize(BRAID)
        assert inv == AbelianInvariants(free_rank=1, torsion=())

    def test_wajnryb_is_z10(self, fixture_wajnryb):
        assert abelianize(fixture_wajnryb) == AbelianInvariants(0, (10,))

    def test_amalgam_is_z12(self, fixture_amalgam):
        assert abelianize(fixture_amalgam) == AbelianInvariants(0, (12,))

    def test_surface_group(self):
        for g in (1, 2, 3):
            inv = abelianize(SurfaceGroup(g).presentation())
            assert inv == AbelianInvariants(2 * g, ())

    def test_invariance_under_rewriting(self, fixture_wajnryb):
        p = fixture_wajnryb
        base = abelianize(p)
        # free insertion, inversion, conjugation of relators
        mangled = tuple(
            free_reduce((1, -1) + inverse_word(r) if i % 2 else (2,) + r + (-2,))
            for i, r in enumerate(p.relators)
        )
        assert abelianize(FinitePresentation(p.generators, mangled)) == base


class TestQuotient:
    def test_torus_mod_b(self):
        q = quotient_by_normal_closure(SurfaceGroup(1).presentation(), [(2,)])
        assert abelianize(q) == AbelianInvariants(1, ())

    def test_genus2_mod_vanishing_cycles(self):
        words = [(1,), (1, -2), (-2, -3), (-2, -3, 4), (-2, 4)]
        q = quotient_by_normal_closure(SurfaceGroup(2).presentation(), words)
        assert abelianize(q) == AbelianInvariants(0, ())

    def test_empty_extra_is_identity(self):
        p = SurfaceGroup(2).presentation()
        assert quotient_by_normal_closure(p, []) == p

    def test_two_route_abelianization(self):
        # quotient then abelianize == abelianize then quotient by the classes
        p = FinitePresentation(("x", "y", "z"), ((1, 1, 2),))
        extra = [(3, 3, 3), (1, -3)]
        route1 = abelianize(quotient_by_normal_closure(p, extra))
        from twistlab.exact import smith_normal_form
        from twistlab.presentations import exponent_vector

        rows = [exponent_vector(r, 3) for r in p.relators + tuple(extra)]
        snf = smith_normal_form(IntMatrix(rows))
        route2 = AbelianInvariants(
            3 - snf.rank, tuple(d for d in snf.diagonal if d > 1)
        )
        assert route1 == route2


class TestDoubleCover:
    def test_torus_cover_is_torus(self):
        cov = reidemeister_schreier_double_cover(SurfaceGroup(1), (1, 0))
        assert abelianize(cov.cover_presentation) == AbelianInvariants(2, ())

    def test_genus2_cover_is_genus3(self):
        cov = reidemeister_schreier_double_cover(SurfaceGroup(2), (0, 1, 0, 0))
        assert abelianize(cov.cover_presentation) == AbelianInvariants(6, ())

    def test_zero_character_rejected(self):
        with pytest.raises(ZeroCharacter):
            reidemeister_schreier_double_cover(SurfaceGroup(2), (0, 0, 0, 0))

    def test_euler_characteristic_multiplicativity(self):
        # cover genus h satisfies 2 - 2h = 2 (2 - 2g)
        for g, chi in ((1, (1, 0)), (2, (0, 1, 0, 0)), (3, (1, 0, 1, 0, 0, 1))):
            cov = reidemeister_schreier_double_cover(SurfaceGroup(g), chi)
            h = abelianize(cov.cover_presentation).free_rank // 2
            assert 2 - 2 * h == 2 * (2 - 2 * g)

    def test_deck_is_involution(self):
        cov = reidemeister_schreier_double_cover(SurfaceGroup(2), (0, 1, 0, 0))
        d = cov.deck_matrix()
        assert d * d == IntMatrix.identity(cov.homology_dim())

    @pytest.mark.parametrize(
        "case", DECK_GOLDEN, ids=lambda c: f"g{c['genus']}-" + "".join(map(str, c["chi"]))
    )
    def test_deck_matrix_golden(self, case):
        cov = reidemeister_schreier_double_cover(SurfaceGroup(case["genus"]), case["chi"])
        assert cov.deck_matrix() == IntMatrix(case["deck_matrix"])

    def test_deck_matrix_genus60_time(self):
        # the transforms are mostly zeros, which the products skip; the
        # dense products took about 1.6 s here
        chi = tuple((i * 7 + 3) % 5 % 2 for i in range(120))
        cov = reidemeister_schreier_double_cover(SurfaceGroup(60), chi)
        start = time.perf_counter()
        d = cov.deck_matrix()
        assert time.perf_counter() - start < 0.5
        assert d.rows == cov.homology_dim()


class TestLiftLoop:
    def setup_method(self):
        self.cov = reidemeister_schreier_double_cover(SurfaceGroup(2), (0, 1, 0, 0))

    def test_empty_word(self):
        res = lift_loop(self.cov, ())
        assert res.chi_value == 0
        assert len(res.classes) == 2
        assert all(all(v == 0 for v in c) for c in res.classes)

    def test_split_case_transfer_and_deck(self):
        res = lift_loop(self.cov, (1,))  # a1: chi = 0, splits
        assert res.chi_value == 0 and len(res.classes) == 2
        u, v = res.classes
        total = tuple(a + b for a, b in zip(u, v))
        assert total == transfer(self.cov, (1, 0, 0, 0))
        d = self.cov.deck_matrix()
        assert d.apply(total) == total
        # the deck involution exchanges the two lifts
        assert d.apply(u) == v

    def test_connected_case_is_deck_invariant(self):
        res = lift_loop(self.cov, (1, -2))  # chi = 1
        assert res.chi_value == 1 and len(res.classes) == 1
        w = res.classes[0]
        assert self.cov.deck_matrix().apply(w) == w
        assert w == transfer(self.cov, (1, -1, 0, 0))

    def test_word_choice_moves_only_the_antiinvariant_part(self):
        # two words with the same class: lift-class sum is word independent
        r1 = lift_loop(self.cov, (1,))
        r2 = lift_loop(self.cov, (1, 4, 2, -4, -2))  # a1 * [b2, b1], class a1
        s1 = tuple(a + b for a, b in zip(*r1.classes))
        s2 = tuple(a + b for a, b in zip(*r2.classes))
        assert s1 == s2
        assert r1.classes[0] != r2.classes[0]

    def test_lift_class_span_rank(self):
        words = [(1,), (1, -2), (-2, -3), (-2, -3, 4), (-2, 4)]
        classes = []
        for w in words:
            classes.extend(lift_loop(self.cov, w).classes)
        assert rank_over_rationals(IntMatrix(classes)) == 4
