from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.errors import ContainmentError
from quiverhh.fields import GF, QQ
from quiverhh.linalg import (
    LabeledBasis,
    LinearMap,
    QuotientView,
    image,
    intersect,
    kernel,
    member,
    reduce_against,
    solve_columns,
    span,
    subspace_sum,
)

B4 = LabeledBasis(("a", "b", "c", "d"))


def test_span_canonical():
    s1 = span(QQ, B4, [{0: Fraction(2), 1: Fraction(2)}, {1: Fraction(1)}])
    s2 = span(QQ, B4, [{0: Fraction(1)}, {0: Fraction(3), 1: Fraction(7)}])
    assert s1 == s2
    assert s1.rows == (((0, Fraction(1)),), ((1, Fraction(1)),))


def test_member_sum_intersect():
    s = span(QQ, B4, [{0: Fraction(1), 1: Fraction(1)}])
    t = span(QQ, B4, [{1: Fraction(1), 2: Fraction(1)}])
    assert member(QQ, s, {0: Fraction(2), 1: Fraction(2)})
    assert not member(QQ, s, {0: Fraction(1)})
    u = subspace_sum(QQ, s, t)
    assert u.dim == 2
    assert intersect(QQ, s, t).dim == 0
    assert u.dim == s.dim + t.dim  # the sum is direct
    assert intersect(QQ, u, s) == s


def test_kernel_image_zero_and_identity():
    zero = LinearMap(B4, B4, ({}, {}, {}, {}))
    assert kernel(QQ, zero).dim == 4
    assert image(QQ, zero).dim == 0
    ident = LinearMap(B4, B4, tuple({i: QQ.one} for i in range(4)))
    assert kernel(QQ, ident).dim == 0
    assert image(QQ, ident).dim == 4


def test_rank_nullity_modp():
    f = GF(5)
    cols = ({0: 1, 1: 2}, {0: 2, 1: 4}, {2: 3}, {})
    m = LinearMap(B4, B4, cols)
    assert kernel(f, m).dim + image(f, m).dim == 4
    assert image(f, m).dim == 2


def test_quotient_view_representatives():
    total = span(QQ, B4, [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}])
    sub = span(QQ, B4, [{0: Fraction(1), 1: Fraction(1)}])
    view = QuotientView(QQ, total, sub)
    assert view.dim == 2
    coords = view.project({0: Fraction(1)})
    # class of e_a equals minus the class of e_b modulo the sub
    assert view.project({1: Fraction(-1)}) == coords
    with pytest.raises(ContainmentError):
        QuotientView(QQ, sub, total)


def test_quotient_view_fold_is_built_on_first_projection_through_sub():
    total = span(QQ, B4, [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}])
    sub = span(QQ, B4, [{0: Fraction(1), 1: Fraction(1)}])
    view = QuotientView(QQ, total, sub)
    assert "_fold" not in view.__dict__
    # e_b and e_c are the representatives: no pivot of the sub is hit
    assert view.project({1: Fraction(2), 2: Fraction(1)}) == {0: Fraction(2), 1: Fraction(1)}
    assert "_fold" not in view.__dict__
    assert view.project({0: Fraction(1)}) == {0: Fraction(-1)}
    fold = view.__dict__["_fold"]
    assert fold == {0: ((0, Fraction(-1)),)}
    assert view.project({0: Fraction(3), 2: Fraction(1)}) == {0: Fraction(-3), 1: Fraction(1)}
    assert view._fold is fold


def test_solve_columns():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    sol = solve_columns(QQ, 4, cols, {0: Fraction(2), 1: Fraction(5)})
    assert sol == [Fraction(2), Fraction(3)]
    assert solve_columns(QQ, 4, cols, {2: Fraction(1)}) is None


@st.composite
def rational_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    ints = st.integers(-4, 4)
    data = draw(
        st.lists(st.lists(ints, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return [[Fraction(x) for x in row] for row in data]


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_rank_equals_transpose_rank(mat):
    rows, cols = len(mat), len(mat[0])
    rb = LabeledBasis(tuple(range(cols)))
    cb = LabeledBasis(tuple(range(rows)))
    direct = span(QQ, rb, [{j: x for j, x in enumerate(r) if x} for r in mat])
    transp = span(
        QQ, cb, [{i: mat[i][j] for i in range(rows) if mat[i][j]} for j in range(cols)]
    )
    assert direct.dim == transp.dim


@settings(max_examples=40, deadline=None)
@given(rational_matrix(), st.randoms(use_true_random=False))
def test_span_invariant_under_row_ops(mat, rng):
    cols = len(mat[0])
    rb = LabeledBasis(tuple(range(cols)))
    vecs = [{j: x for j, x in enumerate(r) if x} for r in mat]
    s1 = span(QQ, rb, vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    if len(shuffled) >= 2:
        merged = dict(shuffled[0])
        for j, x in shuffled[1].items():
            merged[j] = merged.get(j, Fraction(0)) + 3 * x
        shuffled[0] = {j: x for j, x in merged.items() if x}
    assert span(QQ, rb, shuffled) == s1


def test_reduce_against_roundtrip():
    s = span(QQ, B4, [{0: Fraction(1), 2: Fraction(2)}, {1: Fraction(1)}])
    coeffs, rem = reduce_against(QQ, s, {0: Fraction(3), 1: Fraction(1), 2: Fraction(6)})
    assert rem == {}
    assert coeffs == {0: Fraction(3), 1: Fraction(1)}
