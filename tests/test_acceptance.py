"""Acceptance suite: one test per criterion, one printed line per criterion.

Exact integer arithmetic throughout; every comparison is equality unless a
bound is stated.  Criteria 2 and 3 pin the values forced by the defining
constraints and include companion assertions that mechanically reject a
commonly transcribed but inconsistent variant of the same data (wrong
character vector, wrong third class, and a lifted word that fails the
relation check).
"""
import itertools
import random
from contextlib import contextmanager

from conftest import _maslov_signature, e1_factorization, e1_word, positive_identity_oracle
from twistlab.exact import F2Matrix, IntMatrix, rank_over_rationals, solve_f2
from twistlab.invariants import (
    fiber_sum,
    h1_total_space,
    invariant_report,
    mu,
    signature,
    torelli_certificate,
)
from twistlab.metaplectic import (
    A_MATRIX,
    B_MATRIX,
    IDENTITY,
    J_MATRIX,
    LINE_P,
    MetaElement,
    cocycle,
    lift_generators,
    mat_mul,
    meta_power,
    multiply,
    search_positive_identity,
    szpiro_check,
    _maslov_cyclic,
)
from twistlab.presentations import (
    AbelianInvariants,
    FinitePresentation,
    SurfaceGroup,
    abelianize,
    lift_loop,
    reidemeister_schreier_double_cover,
)
from twistlab.schema import load_fixture
from twistlab.surfaces import Curve
from twistlab.systems import build_geometric_presentation, verify_geometric_presentation
from twistlab.words import TwistLetter, TwistWord, evaluate_homological


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number:2d}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE criterion {number:2d}: PASS - {title}")


V_CLASSES = {
    "v1": (1, 0, 0, 0),
    "v2": (1, -1, 0, 0),
    "v3": (0, -1, -1, 0),
    "v4": (0, -1, -1, 1),
    "v5": (0, -1, 0, 1),
}

# an inconsistent variant of the class list (differs at v3 and v5): it fails
# the relation it is supposed to satisfy and has even pairings <v2,v3> and
# <v3,v5>, impossible for lifts of loops around branch-point pairs sharing
# exactly one point; the tests below reject it mechanically
V_CLASSES_VARIANT = {
    "v1": (1, 0, 0, 0),
    "v2": (1, -1, 0, 0),
    "v3": (-1, -1, 1, 0),
    "v4": (0, -1, -1, 1),
    "v5": (0, 1, 0, 1),
}


def genus2_word(classes) -> TwistWord:
    curves = {n: Curve(n, c) for n, c in classes.items()}
    letters = []
    for _ in range(2):
        for n in ("v1", "v2", "v3", "v4", "v5"):
            letters.append(TwistLetter(curves[n], 2))
    return TwistWord(2, tuple(letters))


def test_criterion_1_genus2_relation():
    with criterion(1, "genus-2 relation (t1^2..t5^2)^2 = 1 in Sp(4,Z), exactly"):
        word = genus2_word(V_CLASSES)
        assert evaluate_homological(word).matrix() == IntMatrix.identity(4)
        # the quoted anchor classes hold verbatim
        assert V_CLASSES["v1"] == (1, 0, 0, 0)  # v1 = a1
        assert V_CLASSES["v2"] == (1, -1, 0, 0)  # v2 = a1 - b1
        # the inconsistent variant does not satisfy the relation
        assert evaluate_homological(genus2_word(V_CLASSES_VARIANT)).matrix() != IntMatrix.identity(4)
        # fixture carries exactly the passing classes
        fixture = load_fixture("genus2-paper")
        assert {c.name: tuple(c.homology) for c in fixture.curves} == V_CLASSES


def test_criterion_2_character_solve():
    with criterion(2, "unique mod-2 character with targets (0,1,1,1,1) on v1..v5"):
        rows = [tuple(x % 2 for x in V_CLASSES[f"v{i}"]) for i in range(1, 6)]
        targets = (0, 1, 1, 1, 1)
        a = F2Matrix(rows)
        x = solve_f2(a, targets)
        # independent oracle: exhaust all sixteen candidates
        brute = [
            v for v in itertools.product((0, 1), repeat=4) if a.apply(v) == targets
        ]
        assert brute == [(0, 1, 0, 0)]
        assert x == (0, 1, 0, 0)
        # the often-quoted vector (a1,b1,a2,b2) -> (1,0,1,1) violates the
        # very first constraint chi(v1) = chi(a1) = 0
        assert a.apply((1, 0, 1, 1)) != targets
        # same conclusion on the inconsistent class variant
        rows_variant = [
            tuple(x % 2 for x in V_CLASSES_VARIANT[f"v{i}"]) for i in range(1, 6)
        ]
        assert F2Matrix(rows_variant).apply((1, 0, 1, 1)) != targets


def test_criterion_3_cover_pipeline():
    with criterion(
        3,
        "double-cover pipeline: H1 = Z^6; lift span rank 4 and b1 = 2 "
        "(rank 5 / b1 = 1 arise only from inconsistent non-relation data)",
    ):
        chi = (0, 1, 0, 0)
        cover = reidemeister_schreier_double_cover(SurfaceGroup(2), chi)
        inv = abelianize(cover.cover_presentation)
        assert inv == AbelianInvariants(6, ())

        words = {
            "v1": (1,),
            "v2": (1, -2),
            "v3": (-2, -3),
            "v4": (-2, -3, 4),
            "v5": (-2, 4),
        }
        classes = []
        shapes = []
        for name in ("v1", "v2", "v3", "v4", "v5"):
            res = lift_loop(cover, words[name])
            shapes.append(len(res.classes))
            classes.extend(res.classes)
        assert shapes == [2, 1, 1, 1, 1]  # v1 splits, the others stay connected
        assert rank_over_rationals(IntMatrix(classes)) == 4

        fixture = load_fixture("genus3-b1")
        ok, _ = fixture.verify_homological()
        assert ok
        h1 = h1_total_space(fixture)
        assert h1.free_rank == 2 and not h1.torsion
        assert rank_over_rationals(IntMatrix(fixture.cycle_classes())) == 4

        # where rank 5 and quotient rank 1 come from: the inconsistent
        # character (1,0,1,1) paired with the inconsistent classes does
        # produce them, but that configuration is not monodromy data: its
        # candidate word fails the homological identity check
        cover_p = reidemeister_schreier_double_cover(SurfaceGroup(2), (1, 0, 1, 1))
        words_p = {
            "v1": (1,),
            "v2": (1, -2),
            "v3": (-1, -2, 3),
            "v4": (-2, -3, 4),
            "v5": (2, 4),
        }
        classes_p = []
        for name in ("v1", "v2", "v3", "v4", "v5"):
            classes_p.extend(lift_loop(cover_p, words_p[name]).classes)
        assert rank_over_rationals(IntMatrix(classes_p)) == 5
        m = IntMatrix(classes_p)
        assert 2 * 3 - rank_over_rationals(m) == 1
        curves_p = [
            Curve(f"c{i}", tuple(c)) for i, c in enumerate(classes_p)
        ]
        letters = []
        for _ in range(2):
            letters += [TwistLetter(c) for c in curves_p]
        assert evaluate_homological(TwistWord(3, tuple(letters))).matrix() != IntMatrix.identity(6)


def test_criterion_4_metaplectic_table():
    with criterion(4, "metaplectic multiplication table at k = 0 and k = 1"):
        for k, (n_ab, n_aba, n_six) in ((0, (1, 1, 4)), (1, (9, 13, 52))):
            a, b, _ = lift_generators(k)
            ab = multiply(a, b)
            assert ab == MetaElement(mat_mul(A_MATRIX, B_MATRIX), n_ab)
            aba = multiply(ab, a)
            bab = multiply(multiply(b, a), b)
            assert aba == bab == MetaElement(mat_mul(mat_mul(A_MATRIX, B_MATRIX), A_MATRIX), n_aba)
            assert meta_power(ab, 6) == MetaElement(IDENTITY, n_six)


def test_criterion_5_szpiro_and_cocycle():
    with criterion(5, "Szpiro numbers for (t_a t_b)^6 and the cocycle identity"):
        rep = szpiro_check(e1_word())
        assert rep.n == 1
        assert rep.sum_exponents == 12 == 12 * rep.n
        assert rep.syllables == 12 > 2 * rep.n
        assert rep.sigma_squared == -1
        assert rep.passes

        # exhaustive cocycle identity over triples of words of total length
        # <= 4 in A, B, J and inverses, with every Maslov value double-checked
        letters = {
            1: A_MATRIX,
            -1: ((1, -1), (0, 1)),
            2: B_MATRIX,
            -2: ((1, 0), (1, 1)),
            3: J_MATRIX,
            -3: ((0, -1), (1, 0)),
        }
        by_len = {0: {IDENTITY}}
        level = [IDENTITY]
        for n in range(1, 5):
            nxt = []
            for m in level:
                for mat in letters.values():
                    nxt.append(mat_mul(m, mat))
            by_len[n] = set(nxt)
            level = nxt
        cache = {}

        def tau(g, h):
            if (g, h) not in cache:
                cache[(g, h)] = cocycle(g, h)
            return cache[(g, h)]

        checked = 0
        for n1 in range(5):
            for n2 in range(5 - n1):
                for n3 in range(5 - n1 - n2):
                    for g1 in by_len[n1]:
                        for g2 in by_len[n2]:
                            g12 = mat_mul(g1, g2)
                            t12 = tau(g1, g2)
                            for g3 in by_len[n3]:
                                assert tau(g12, g3) + t12 == tau(
                                    g1, mat_mul(g2, g3)
                                ) + tau(g2, g3)
                                checked += 1
        assert checked > 5000  # distinct-value triples after dedup
        for g, h in cache:
            gh = mat_mul(g, h)
            l1, l2, l3 = LINE_P, LINE_P.apply(g), LINE_P.apply(gh)
            assert _maslov_cyclic(l1, l2, l3) == _maslov_signature(l1, l2, l3)


def test_criterion_6_positivity_obstruction():
    with criterion(
        6,
        "no positive word in conjugates of t_a (total exponent <= 12, "
        "conjugators length <= 2) evaluates to (I, 0)",
    ):
        assert positive_identity_oracle(12, 2) is None
        assert search_positive_identity(12, 2) is None


def test_criterion_7_abelianizations():
    with criterion(7, "abelianizations: Z/10, Z, Z/12"):
        assert abelianize(load_fixture("wajnryb-map21")) == AbelianInvariants(0, (10,))
        braid = FinitePresentation(("ta", "tb"), ((1, 2, 1, -2, -1, -2),))
        assert abelianize(braid) == AbelianInvariants(1, ())
        assert abelianize(load_fixture("sl2z-amalgam")) == AbelianInvariants(0, (12,))


def test_criterion_8_e1_invariants():
    with criterion(8, "E(1) invariants and fiber-sum additivity"):
        f = e1_factorization()
        rep = invariant_report(f)
        assert (rep.mu, rep.euler, rep.b1) == (12, 12, 0)
        assert rep.signature == -8  # classical value for the rational
        # elliptic surface, cross-checked here against 4n - mu with n = 1
        assert rep.signature == 4 * 1 - 12
        assert rep.lam == 1
        assert rep.b2 == 10
        assert abs(rep.signature) <= rep.b2
        assert rep.consistency_ok()

        total = fiber_sum(f, e1_factorization())
        rep2 = invariant_report(total)
        assert rep2.mu == 24
        assert rep2.signature == -16
        assert rep2.lam == 2


def test_criterion_9_torelli_certificates():
    with criterion(9, "all-separating words contradict; genuine fixtures pass"):
        for genus, twists in ((1, 3), (2, 5), (3, 7)):
            sep = Curve("s", (0,) * (2 * genus), separating=True)
            word = TwistWord(genus, tuple(TwistLetter(sep) for _ in range(twists)))
            from twistlab.invariants import Factorization

            f = Factorization(genus, 0, word, (sep,))
            rep = torelli_certificate(f)
            assert not rep.ok
        for name in ("E1", "genus2-paper", "genus3-b1"):
            f = load_fixture(name)
            rep = torelli_certificate(f)
            assert rep.ok, name
            sign, prov = signature(f)
            if sign is not None:
                assert sign + mu(f) > 0


def test_criterion_10_geometric_presentation_builder():
    with criterion(10, "builder invariants on 20 random small presentations"):
        rng = random.Random(424242)
        built = 0
        while built < 20:
            g = rng.randint(1, 3)
            rels = []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 5)
                rels.append(
                    tuple(
                        rng.choice([1, -1]) * rng.randint(1, 2 * g)
                        for _ in range(length)
                    )
                )
            try:
                gp = build_geometric_presentation(SurfaceGroup(g), rels)
            except Exception:
                continue  # relator reduced to the empty word
            built += 1
            names = [c.name for c in gp.system.curves]
            assert all(
                gp.system.count(x, y) <= 1 for x in names for y in names if x < y
            )
            report = verify_geometric_presentation(gp)
            assert report["union_connected"]
            assert gp.genus == gp.base.genus + gp.crossings
            assert report["abelianization_match"]
            assert report["pass"]
