"""Differential tests: rationals as machine integers against all-``Fraction`` scalars.

``QQ`` keeps a rational as a plain ``int`` while it is integral and makes it
a ``Fraction`` only when an inverse of a non-unit makes it fractional.
``FractionField`` below is the rational field as it was before that: its
zero, one and ``inv`` always give a ``Fraction``.  Because
``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, every linear-algebra result must be equal
under both fields, print the same entry by entry, and never hold a float.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_linalg_reference import SHAPES, _combination
from quiverhh.fields import QQ, FieldSpec
from quiverhh.linalg import (
    LabeledBasis,
    LinearMap,
    QuotientView,
    intersect,
    kernel,
    reduce_against,
    span,
)


@dataclass(frozen=True)
class FractionField(FieldSpec):
    """The rationals with every scalar a ``Fraction``."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "zero", Fraction(0))
        object.__setattr__(self, "one", Fraction(1))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a


REF = FractionField(0)


def _leaves(x) -> list:
    """The scalars of nested tuples, lists and dicts (dicts by sorted key)."""
    if isinstance(x, dict):
        return [leaf for k in sorted(x) for leaf in [k] + _leaves(x[k])]
    if isinstance(x, (tuple, list)):
        return [leaf for y in x for leaf in _leaves(y)]
    return [x]


def assert_same(got, want):
    """Equal values that print the same, entry by entry, with no float anywhere."""
    assert got == want
    leaves, ref_leaves = _leaves(got), _leaves(want)
    assert not any(isinstance(x, float) for x in leaves + ref_leaves)
    assert [str(x) for x in leaves] == [str(x) for x in ref_leaves]


@st.composite
def rational_rows(draw):
    """(width, rows under QQ, the same rows under FractionField).

    An integral entry is an ``int`` under QQ unless drawn to stay a
    ``Fraction`` (as products of fractions may); under the reference every
    entry is a ``Fraction``.
    """
    rlo, rhi, clo, chi = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    width = draw(st.integers(clo, chi))
    scalar = st.tuples(
        st.integers(-4, 4).filter(bool), st.sampled_from((1, 1, 1, 2, 3)), st.booleans()
    )
    if width:
        entry = st.dictionaries(st.integers(0, width - 1), scalar, max_size=min(width, 4))
    else:
        entry = st.just({})
    drawn = draw(st.lists(entry, min_size=rlo, max_size=rhi))
    rows, ref_rows = [], []
    for row in drawn:
        qq, ref = {}, {}
        for k, (num, den, keep) in row.items():
            x = Fraction(num, den)
            qq[k] = x if keep or x.denominator != 1 else x.numerator
            ref[k] = x
        rows.append(qq)
        ref_rows.append(ref)
    return width, rows, ref_rows


HALVES = (2, [{0: 2, 1: 1}], [{0: Fraction(2), 1: Fraction(1)}])
MIXED = (
    3,
    [{0: 3, 1: Fraction(1, 2)}, {1: Fraction(2), 2: -1}, {0: 1, 2: 2}],
    [{0: Fraction(3), 1: Fraction(1, 2)}, {1: Fraction(2), 2: Fraction(-1)},
     {0: Fraction(1), 2: Fraction(2)}],
)


@settings(max_examples=150, deadline=None)
@given(rational_rows())
@example(HALVES)
@example(MIXED)
def test_span_and_kernel_match_fraction_field(case):
    width, rows, ref_rows = case
    basis = LabeledBasis(tuple(range(width)))
    assert_same(span(QQ, basis, rows).rows, span(REF, basis, ref_rows).rows)
    # the rows are the columns of a map into range(width)
    domain = LabeledBasis(tuple(range(len(rows))))
    got = kernel(QQ, LinearMap(domain, basis, tuple(rows)))
    want = kernel(REF, LinearMap(domain, basis, tuple(ref_rows)))
    assert_same(got.rows, want.rows)


@settings(max_examples=150, deadline=None)
@given(rational_rows(), st.integers(0, 20))
@example(HALVES, 1)
@example(MIXED, 2)
def test_intersect_and_reduce_against_match_fraction_field(case, cut):
    width, rows, ref_rows = case
    basis = LabeledBasis(tuple(range(width)))
    s, ref_s = span(QQ, basis, rows[:cut]), span(REF, basis, ref_rows[:cut])
    t, ref_t = span(QQ, basis, rows[cut:]), span(REF, basis, ref_rows[cut:])
    assert_same(intersect(QQ, s, t).rows, intersect(REF, ref_s, ref_t).rows)
    for vec, ref_vec in zip(rows[cut:] or [{}], ref_rows[cut:] or [{}]):
        assert_same(reduce_against(QQ, s, vec), reduce_against(REF, ref_s, ref_vec))


@settings(max_examples=150, deadline=None)
@given(
    rational_rows(),
    st.integers(0, 20),
    st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=4), max_size=6),
)
@example(MIXED, 1, [[(0, 1)], [(1, 2), (2, -1)]])
def test_project_matches_fraction_field(case, cut, combos):
    width, rows, ref_rows = case
    basis = LabeledBasis(tuple(range(width)))
    view = QuotientView(QQ, span(QQ, basis, rows), span(QQ, basis, rows[:cut]))
    ref = QuotientView(REF, span(REF, basis, ref_rows), span(REF, basis, ref_rows[:cut]))
    assert view.rep_indices == ref.rep_indices
    pairs = [
        (_combination(QQ, rows, picks), _combination(REF, ref_rows, picks))
        for picks in combos
        if rows
    ]
    pairs += zip(view.total.row_vectors(), ref.total.row_vectors())
    for vec, ref_vec in pairs:
        assert_same(view.project(vec), ref.project(ref_vec))


def test_fractional_path_is_pinned():
    # no command-line output reaches a non-integral scalar, so pin it here
    halves = span(QQ, LabeledBasis((0, 1)), [{0: 2, 1: 1}])
    assert halves.rows == (((0, 1), (1, Fraction(1, 2))),)
    assert [str(x) for _, x in halves.rows[0]] == ["1", "1/2"]
    one, minus_one = 1, -1
    assert QQ.inv(one) is one and QQ.inv(minus_one) is minus_one
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-2) == Fraction(-1, 2)
    assert type(QQ.inv(Fraction(1, 2))) is int and QQ.inv(Fraction(-1, 2)) == -2
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert (QQ.zero, QQ.one, QQ.neg(7)) == (0, 1, -7)
    assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.neg(7)))
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)
