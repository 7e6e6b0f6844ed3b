import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import det, matmul_oracle, sparse_rows
from twistlab.errors import DimensionMismatch, SchemaError
from twistlab.exact import (
    F2Matrix,
    IntMatrix,
    inverse_unimodular,
    rank_over_rationals,
    smith_diagonal,
    smith_normal_form,
    solve_f2,
)
from twistlab.metaplectic import LagrangianLine, MetaElement
from twistlab.presentations import SurfaceGroup, free_reduce, reidemeister_schreier_double_cover


def diag_matrix(snf, shape):
    """The rows x cols matrix with the Smith diagonal on its diagonal."""
    rows, cols = shape
    return IntMatrix([[snf.diagonal[i] if i == j and i < snf.rank else 0 for j in range(cols)]
                      for i in range(rows)])


@pytest.mark.parametrize("entry", [0.5, 2.0, "3"])
def test_int_matrix_rejects_non_integer_entries(entry):
    with pytest.raises(SchemaError, match="matrix entry"):
        IntMatrix([[1, entry], [0, 1]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: MetaElement(((1.9, 0), (0, 1)), 0),
        lambda: MetaElement(((1, 0), (0, 1)), 4.0),
        lambda: LagrangianLine((1.5, 0)),
        lambda: free_reduce((1.7,)),
        lambda: F2Matrix([[1.5, 3]]),
        lambda: solve_f2(F2Matrix([[1]]), (1.5,)),
        lambda: reidemeister_schreier_double_cover(SurfaceGroup(1), (1.5, 0)),
    ],
    ids=["meta-matrix", "meta-n", "line", "free-reduce", "f2-matrix", "f2-rhs", "character"],
)
def test_other_integer_inputs_reject_non_integers(build):
    # each entry was once coerced with int(), so 1.9 and 1.5 read as 1
    with pytest.raises(SchemaError):
        build()


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)
        assert snf.rank == 3

    def test_already_diagonal(self):
        snf = smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
        assert snf.diagonal == (2, 4)

    def test_two_by_two(self):
        # hand row-reduction: R2 -= 3 R1 then C2 -= 2 C1 gives diag(2, -4);
        # the divisor chain is (2, 4), det magnitude 8 preserved
        a = IntMatrix([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (2, 4)
        assert abs(det(a)) == 8

    def test_transforms_reconstruct(self):
        a = IntMatrix([[2, 4], [6, 8]])
        snf = smith_normal_form(a)
        assert snf.left * a * snf.right == diag_matrix(snf, (2, 2))

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.zeros(2, 3))
        assert snf.diagonal == ()
        assert snf.rank == 0

    def test_dense_regression(self):
        # once triggered entry explosion in a subtractive reduction strategy
        a = IntMatrix(
            [
                [-20, -21, -3, 20, -9, 4],
                [-27, 10, -15, 19, 27, 30],
                [-29, -19, 24, -11, -6, 30],
                [14, 28, 0, -8, -11, 29],
                [26, -19, 10, -18, -17, 4],
                [-29, -20, -30, 12, 14, 18],
            ]
        )
        snf = smith_normal_form(a)
        assert snf.left * a * snf.right == diag_matrix(snf, (6, 6))
        assert snf.diagonal == (1, 1, 1, 1, 1, 1452849934)
        assert abs(det(a)) == 1452849934


# mostly zeros, as in the transforms covers multiply, with some big entries
product_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**20), 10**20))


@st.composite
def product_pairs(draw):
    """(a, b) with a.cols == b.rows, including 0-row and 0-column shapes."""
    r, k, m = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    a = IntMatrix([[draw(product_entries) for _ in range(k)] for _ in range(r)])
    b = IntMatrix([[draw(product_entries) for _ in range(m)] for _ in range(a.cols)])
    return a, b


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_product_agrees_with_column_products(pair):
    a, b = pair
    product = a * b
    assert product == matmul_oracle(a, b)
    assert product.rows == a.rows


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_round_trip(entries):
    a = IntMatrix(entries)
    snf = smith_normal_form(a)
    assert snf.left * a * snf.right == diag_matrix(snf, (a.rows, a.cols))
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d2 % d1 == 0
    assert all(d > 0 for d in snf.diagonal)
    # transforms are unimodular
    assert abs(det(snf.left)) == 1
    assert abs(det(snf.right)) == 1


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_rank_agrees_with_snf(entries):
    a = IntMatrix(entries)
    assert rank_over_rationals(a) == smith_normal_form(a).rank


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_det_agrees_with_snf(entries):
    # |det| is the product of the Smith diagonal, 0 below full rank
    n = min(len(entries), len(entries[0]))
    a = IntMatrix([row[:n] for row in entries[:n]])
    snf = smith_normal_form(a)
    product = 1
    for d in snf.diagonal:
        product *= d
    assert abs(det(a)) == (product if snf.rank == a.rows else 0)


class TestSmithDiagonal:
    """The sparse unit-pivot route against the dense Smith form."""

    @pytest.mark.parametrize(
        "entries, diagonal",
        [
            ([], ()),
            ([[], []], ()),
            ([[0, 0, 0], [0, 0, 0]], ()),
            ([[0, 1, 0], [0, 0, 0], [0, 3, 0]], (1,)),
            ([[1, 2], [3, 4]], (1, 2)),
            ([[2, 4], [6, 8]], (2, 4)),
            ([[2, 0, 0], [0, 3, 0], [0, 0, 0]], (1, 6)),
            ([[1, 1, 0], [0, 6, 1], [0, 0, 6]], (1, 1, 36)),
        ],
    )
    def test_cases(self, entries, diagonal):
        a = IntMatrix(entries)
        assert smith_diagonal(sparse_rows(entries)) == diagonal == smith_normal_form(a).diagonal


# mostly zero, with units and the torsion-making entries 2, 3 and 6; zero rows,
# zero columns and the empty matrix occur
sparse_matrices = st.integers(min_value=0, max_value=9).flatmap(
    lambda r: st.integers(min_value=0, max_value=9).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 6)), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# a curve system's shape: rows that are one entry (the handle curves), at
# times two on one column or a non-unit, above a few long rows (the relator
# curves) through their columns
handle_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda c: st.tuples(
        st.lists(st.tuples(st.integers(0, c - 1), st.sampled_from((1, -1, 2))), max_size=10),
        st.lists(st.lists(st.sampled_from((0, 1, -1, 2, -3)), min_size=c, max_size=c), max_size=3),
    ).map(lambda t: [[x if j == k else 0 for j in range(c)] for k, x in t[0]] + t[1])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices, small_matrices, handle_matrices))
def test_smith_diagonal_agrees_with_snf(entries):
    a = IntMatrix(entries)
    assert smith_diagonal(sparse_rows(entries)) == smith_normal_form(a).diagonal


class TestRank:
    def test_zero(self):
        assert rank_over_rationals(IntMatrix.zeros(3, 3)) == 0

    def test_identity(self):
        for n in (1, 2, 5):
            assert rank_over_rationals(IntMatrix.identity(n)) == n

    def test_empty(self):
        assert rank_over_rationals(IntMatrix([])) == 0
        assert det(IntMatrix([])) == 1

    def test_skipped_column(self):
        # the second column vanishes below the first pivot, so elimination
        # skips it and the third column gives the second pivot
        a = IntMatrix([[2, 4, 1], [4, 8, 5], [6, 12, 9]])
        assert rank_over_rationals(a) == 2
        assert det(a) == 0

    def test_det_sign_of_row_swap(self):
        assert det(IntMatrix([[0, 1], [1, 0]])) == -1
        assert det(IntMatrix([[0, 2, 0], [0, 0, 3], [5, 0, 0]])) == 30


# products of elementary matrices: unimodular by construction
elementary_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5), elementary_ops)
def test_inverse_unimodular_round_trip(n, ops):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, q in ops:
        i, j = i % n, j % n
        if i == j:  # negate a row
            m[i] = [-x for x in m[i]]
        else:  # row_i += q * row_j
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    a = IntMatrix(m)
    inv = inverse_unimodular(a)
    assert inv * a == IntMatrix.identity(n)
    assert a * inv == IntMatrix.identity(n)


class TestInverseUnimodular:
    def test_not_square(self):
        with pytest.raises(DimensionMismatch, match="square"):
            inverse_unimodular(IntMatrix([[1, 0, 0], [0, 1, 0]]))

    def test_singular(self):
        with pytest.raises(DimensionMismatch, match="singular"):
            inverse_unimodular(IntMatrix([[1, 2], [2, 4]]))

    def test_not_unimodular(self):
        with pytest.raises(DimensionMismatch, match="not unimodular"):
            inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))


class TestSolveF2:
    def test_identity_system(self):
        a = F2Matrix([[1, 0], [0, 1]])
        assert solve_f2(a, (1, 0)) == (1, 0)
        assert solve_f2(a, (1, 1)) == (1, 1)

    def test_forced_inconsistency(self):
        a = F2Matrix([[1, 1], [1, 1]])
        assert solve_f2(a, (0, 1)) is None

    def test_character_system(self):
        # rows: the five vanishing-cycle classes mod 2, targets 0,1,1,1,1;
        # brute force certifies the unique solution
        rows = [
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (0, 1, 0, 1),
        ]
        b = (0, 1, 1, 1, 1)
        a = F2Matrix(rows)
        solutions = [
            x
            for x in itertools.product((0, 1), repeat=4)
            if a.apply(x) == b
        ]
        assert solutions == [(0, 1, 0, 0)]
        assert solve_f2(a, b) == (0, 1, 0, 0)


small_f2 = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ),
            st.lists(st.integers(min_value=0, max_value=1), min_size=r, max_size=r),
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_f2)
def test_solve_f2_against_brute_force(data):
    entries, b = data
    a = F2Matrix(entries)
    b = tuple(b)
    x = solve_f2(a, b)
    brute = [
        v for v in itertools.product((0, 1), repeat=a.cols) if a.apply(v) == b
    ]
    if x is None:
        assert not brute
    else:
        assert a.apply(x) == b
        assert x in brute
