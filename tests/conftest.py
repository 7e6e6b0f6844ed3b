import pytest

from twistlab.invariants import Factorization
from twistlab.metaplectic import conjugates_of_t_a, meta_identity, meta_inverse, multiply
from twistlab.schema import load_fixture
from twistlab.surfaces import Curve
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
