"""Differential tests: the sparse elimination core against dense RREF.

The reference below is the positional dense ``Fraction``-row elimination
the package used before its sparse core, kept here unchanged, with the
dense forms of ``span``, ``kernel``, ``intersect``, ``solve_columns`` and
``reduce_against`` built on it.  RREF is unique, so both must agree
exactly on every input.

``RefQuotientView`` is ``QuotientView`` as it was while ``reduce_against``
returned one coefficient per row and ``project`` a dense tuple of
coordinates, rebuilt on the dense reduction; the sparse forms must hold
exactly its nonzero entries.  ``representatives`` lists the rows of the
total space that ``QuotientView`` takes as class representatives.

``ref_rref_rowwise`` is the sparse ``_rref`` as it was before its
unit-row presolve: every row, single-entry rows included, is reduced
against the pivots so far and then cleared from them.  The presolved
``_rref`` must return the same pivots and the same rows.

``ref_reduce_against_sparse`` is the sparse ``reduce_against`` as it was
while it accumulated every entry of a row, its pivot included, into the
remainder.  The form that drops the pivot entry must return the same
coefficients and the same remainder, key order included, on vectors
inside and outside the span.

``ref_project_reduced`` is ``QuotientView.project`` as it was before it
read one-entry vectors off its table of one-entry rows: every vector is
reduced against the total space, and the rows at pivots of the sub space
are folded onto the representatives.  The table must give the same
coordinates, key order included, and raise wherever the reduction raises.

``ref_restricted_kernel`` is ``restricted_kernel`` as it was while it took
arbitrary vectors over the domain: it maps them through an inclusion, takes
the kernel of their images and lifts that kernel back with a second
elimination.  The form that takes label columns and renumbers their kernel
in place must return the same rows and the same pivots as this one on the
unit vectors at those columns, whatever order the columns come in.
"""

import copy
from fractions import Fraction
from typing import Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from quiverhh import linalg
from quiverhh.errors import ContainmentError
from quiverhh.fields import GF, QQ, FieldSpec
from quiverhh.linalg import (
    LabeledBasis,
    LinearMap,
    QuotientView,
    Subspace,
    accumulate,
    intersect,
    kernel,
    null_space,
    reduce_against,
    restricted_kernel,
    solve_columns,
    span,
)


def ref_rref_rowwise(field, rows) -> dict:
    """Reduced row echelon form of sparse rows as ``{pivot column: row dict}``.

    Each incoming row is reduced against the pivots found so far, its
    lowest remaining column becomes a new pivot (scaled to one), and that
    column is cleared from the earlier rows.
    """
    mul, neg, inv = field.mul, field.neg, field.inv
    piv: dict = {}

    def axpy(r: dict, c, row: dict):
        for k, x in row.items():
            accumulate(field, r, k, mul(c, x))

    for v in rows:
        r = {k: x for k, x in v.items() if not field.is_zero(x)}
        # pivot rows vanish on each other's pivots, so one pass suffices
        for p in [k for k in r if k in piv]:
            axpy(r, neg(r[p]), piv[p])
        if not r:
            continue
        p = min(r)
        if r[p] != 1:
            s = inv(r[p])
            r = {k: mul(s, x) for k, x in r.items()}
        for row in piv.values():
            c = row.get(p)
            if c is not None:
                axpy(row, neg(c), r)
        piv[p] = r
    return piv


def ref_reduce_against_sparse(field, space, vec) -> tuple:
    """Split ``vec`` as ``({row index: coefficient}, remainder)``."""
    index = space.pivot_index
    rem = dict(vec)
    coeffs = {}
    mul, neg = field.mul, field.neg
    for p in sorted(p for p in vec if p in index):
        r, c = index[p], vec[p]
        coeffs[r] = c
        for i, x in space.rows[r]:
            accumulate(field, rem, i, neg(mul(c, x)))
    return coeffs, rem


def ref_project_reduced(view: QuotientView, vec: dict) -> dict:
    """Coordinates of the class of ``vec`` as ``{representative position:
    coefficient}``, ascending and without zeros, reducing once against total."""
    coeffs, rem = reduce_against(view.field, view.total, vec)
    if rem:
        raise ContainmentError("vector lies outside the total space")
    position = view._rep_position
    out = {position[i]: c for i, c in coeffs.items() if i in position}
    if len(out) == len(coeffs):
        return out
    f, fold = view.field, view._fold
    for i, c in coeffs.items():
        for k, x in fold.get(i, ()):
            accumulate(f, out, k, f.mul(c, x))
    return dict(sorted(out.items()))


def ref_restricted_kernel(field: FieldSpec, m: LinearMap, vectors: Sequence[dict]) -> Subspace:
    """The combinations of ``vectors`` (over ``m.domain``) that ``m`` sends to zero."""
    coords = LabeledBasis(tuple(range(len(vectors))))
    inclusion = LinearMap(coords, m.domain, tuple(vectors))
    images = tuple(m.apply(field, v) for v in vectors)
    ker = kernel(field, LinearMap(coords, m.codomain, images))
    return span(field, m.domain, [inclusion.apply(field, dict(row)) for row in ker.rows])


def _rref(field, rows: list, width: int) -> tuple:
    """Reduced row echelon form; returns (rows, pivots) with dense tuple rows."""
    work = [list(r) for r in rows if any(not field.is_zero(x) for x in r)]
    pivots = []
    r = 0
    for c in range(width):
        pr = None
        for i in range(r, len(work)):
            if not field.is_zero(work[i][c]):
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    work = [tuple(row) for row in work[:r]]
    return tuple(work), tuple(pivots)


def _dense(field, vectors, width):
    rows = []
    for v in vectors:
        row = [field.zero] * width
        for i, c in v.items():
            row[i] = c
        rows.append(row)
    return rows


def ref_span(field, width, vectors):
    return _rref(field, _dense(field, vectors, width), width)


def ref_kernel(field, width, columns):
    ncols = len(columns)
    rows = [[field.zero] * ncols for _ in range(width)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    ech, pivots = _rref(field, rows, ncols)
    pivset = set(pivots)
    gens = []
    for f in (j for j in range(ncols) if j not in pivset):
        v = {f: field.one}
        for row, p in zip(ech, pivots):
            if not field.is_zero(row[f]):
                v[p] = field.neg(row[f])
        gens.append(v)
    return ref_span(field, ncols, gens)


def ref_intersect(field, width, s_rows, t_rows):
    rows = [list(r) + list(r) for r in s_rows]
    rows += [list(r) + [field.zero] * width for r in t_rows]
    ech, _ = _rref(field, rows, 2 * width)
    meet = []
    for row in ech:
        if all(field.is_zero(x) for x in row[:width]):
            v = {i: c for i, c in enumerate(row[width:]) if not field.is_zero(c)}
            if v:
                meet.append(v)
    return ref_span(field, width, meet)


def ref_solve_columns(field, width, columns, target):
    ncols = len(columns) + 1
    rows = [[field.zero] * ncols for _ in range(width)]
    for j, col in enumerate(list(columns) + [target]):
        for i, x in col.items():
            rows[i][j] = x
    ech, pivots = _rref(field, rows, ncols)
    if ncols - 1 in pivots:
        return None
    sol = [field.zero] * len(columns)
    for row, p in zip(ech, pivots):
        sol[p] = row[ncols - 1]
    return sol


def ref_reduce_against(field, rows, pivots, vec):
    rem = dict(vec)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = rem.get(p, field.zero)
        coeffs.append(c)
        if not field.is_zero(c):
            for i, x in enumerate(row):
                if field.is_zero(x):
                    continue
                s = field.add(rem.get(i, field.zero), field.neg(field.mul(c, x)))
                if field.is_zero(s):
                    rem.pop(i, None)
                else:
                    rem[i] = s
    return coeffs, rem


def as_dense(field, space):
    """(dense rows, pivots) of a sparse-stored subspace."""
    width = len(space.basis)
    return tuple(map(tuple, _dense(field, space.row_vectors(), width))), space.pivots


def nonzero(field, coords) -> dict:
    """The nonzero entries of a dense coordinate sequence, by position."""
    return {k: c for k, c in enumerate(coords) if not field.is_zero(c)}


def representatives(view) -> list:
    """The rows of ``view.total`` at ``view.rep_indices``, as the package's
    ``QuotientView.representatives`` returned them before it was removed."""
    rows = view.total.row_vectors()
    return [rows[i] for i in view.rep_indices]


class RefQuotientView:
    """Classes of ``total / sub`` with dense coordinate tuples."""

    def __init__(self, field, total, sub):
        self.field = field
        self.total = as_dense(field, total)
        coord_rows = []
        for v in sub.row_vectors():
            coeffs, rem = ref_reduce_against(field, *self.total, v)
            if rem:
                raise ContainmentError("subspace is not contained in the total space")
            coord_rows.append(nonzero(field, coeffs))
        self._sub_in_total = ref_span(field, total.dim, coord_rows)
        piv = set(self._sub_in_total[1])
        self.rep_indices = tuple(i for i in range(total.dim) if i not in piv)

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    def project(self, vec: dict) -> tuple:
        coeffs, rem = ref_reduce_against(self.field, *self.total, vec)
        if rem:
            raise ContainmentError("vector lies outside the total space")
        _, reduced = ref_reduce_against(self.field, *self._sub_in_total, nonzero(self.field, coeffs))
        return tuple(reduced.get(i, self.field.zero) for i in self.rep_indices)


FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}
# (rows lo, rows hi, columns lo, columns hi)
SHAPES = {"square": (0, 6, 0, 6), "tall": (6, 14, 1, 2), "wide": (1, 3, 6, 14)}


@st.composite
def matrices(draw):
    """(field, width, rows): sparse zero-free rows over ``range(width)``,
    with some zero rows and repeated rows mixed in."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rlo, rhi, clo, chi = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    width = draw(st.integers(clo, chi))
    if f.char:
        scalar = st.integers(1, f.char - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    if width:
        entry = st.dictionaries(st.integers(0, width - 1), scalar, max_size=min(width, 4))
    else:
        entry = st.just({})
    rows = draw(st.lists(st.one_of(entry, st.just({})), min_size=rlo, max_size=rhi))
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [dict(rows[i]) for i in repeats]
    return f, width, rows


QUARTER = [{0: Fraction(1), 1: Fraction(2)}, {}, {0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1, 3)}]
TALL = [{0: 1}, {0: 1}, {}, {1: 1}, {0: 1, 1: 1}, {}, {1: 1}]
WIDE = [{0: 2, 7: 1, 11: 4}, {3: 1, 7: 3}]


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((QQ, 0, []))
@example((QQ, 0, [{}, {}]))
@example((QQ, 4, QUARTER))
@example((GF(2), 2, TALL))
@example((GF(5), 12, WIDE))
def test_span_matches_dense(case):
    f, width, rows = case
    got = span(f, LabeledBasis(tuple(range(width))), rows)
    assert as_dense(f, got) == ref_span(f, width, rows)


# the first row keeps a single entry once the unit columns 2 and 3 are deleted
ONE_LEFT_AFTER_UNITS = [
    {0: Fraction(1), 2: Fraction(1), 3: Fraction(2)}, {2: Fraction(1, 2)}, {3: Fraction(5)}
]


def _sorted_rows(piv: dict) -> dict:
    return {p: sorted(row.items()) for p, row in sorted(piv.items())}


@settings(max_examples=200, deadline=None)
@given(matrices())
@example((QQ, 4, [{1: Fraction(2), 3: Fraction(1)}, {3: Fraction(4)}]))  # unit after longer row
@example((QQ, 3, [{1: Fraction(-2, 3)}, {0: Fraction(1), 1: Fraction(1)}]))
@example((GF(5), 3, [{2: 3}, {0: 1, 2: 4}]))
@example((GF(3), 2, [{1: 2}, {1: 2}, {1: 1}, {0: 1, 1: 1}]))  # repeated unit rows
@example((QQ, 3, [{1: Fraction(0)}, {1: Fraction(1), 2: Fraction(1)}]))
@example((GF(2), 3, [{2: 0}]))
@example((GF(5), 6, [{3: 0, 5: 2}, {3: 1, 5: 1}]))
@example((QQ, 4, ONE_LEFT_AFTER_UNITS))
def test_rref_matches_rowwise(case):
    f, _, rows = case
    assert _sorted_rows(linalg._rref(f, rows)) == _sorted_rows(ref_rref_rowwise(f, rows))


@settings(max_examples=100, deadline=None)
@given(matrices())
@example((QQ, 3, [{1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]))
@example((GF(5), 6, [{3: 0, 5: 2}, {2: 1}]))
def test_elimination_leaves_input_rows_alone(case):
    f, width, rows = case
    before = copy.deepcopy(rows)
    piv = linalg._rref(f, rows)
    assert rows == before
    assert not any(row is v for row in piv.values() for v in rows)
    basis = LabeledBasis(tuple(range(width)))
    span(f, basis, rows)
    null_space(f, basis, rows)
    assert rows == before


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((QQ, 0, []))
@example((QQ, 3, [{}, {}]))
@example((QQ, 4, QUARTER))
@example((GF(2), 2, TALL))
@example((GF(5), 12, WIDE))
def test_kernel_matches_dense(case):
    # the rows are the columns of a map into range(width)
    f, width, cols = case
    m = LinearMap(
        LabeledBasis(tuple(range(len(cols)))), LabeledBasis(tuple(range(width))), tuple(cols)
    )
    assert as_dense(f, kernel(f, m)) == ref_kernel(f, width, cols)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(st.integers(0, 20), unique=True))
@example((QQ, 0, []), [])
@example((QQ, 4, QUARTER), [3, 0, 2])
@example((GF(2), 2, TALL), [6, 4, 1, 0, 3])
@example((GF(5), 12, WIDE), [1, 0])
def test_restricted_kernel_matches_reference(case, picks):
    # the rows are the columns of a map into range(width); the columns kept
    # are the picks inside its domain, in the order drawn
    f, width, cols = case
    n = len(cols)
    m = LinearMap(LabeledBasis(tuple(range(n))), LabeledBasis(tuple(range(width))), tuple(cols))
    columns = [j for j in picks if j < n]
    got = restricted_kernel(f, m, columns)
    ref = ref_restricted_kernel(f, m, [{j: f.one} for j in columns])
    assert got.basis == m.domain
    assert (got.rows, got.pivots) == (ref.rows, ref.pivots)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 20))
@example((QQ, 0, []), 0)
@example((QQ, 4, QUARTER), 2)
@example((GF(2), 2, TALL), 3)
@example((GF(5), 12, WIDE), 1)
def test_intersect_matches_dense(case, cut):
    f, width, rows = case
    basis = LabeledBasis(tuple(range(width)))
    s = span(f, basis, rows[:cut])
    t = span(f, basis, rows[cut:])
    want = ref_intersect(f, width, as_dense(f, s)[0], as_dense(f, t)[0])
    assert as_dense(f, intersect(f, s, t)) == want


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((QQ, 0, []))
@example((QQ, 4, QUARTER))
@example((GF(2), 2, TALL))
@example((GF(5), 12, WIDE))
def test_solve_columns_matches_dense(case):
    f, width, rows = case
    columns, target = rows[:-1], (rows[-1] if rows else {})
    assert solve_columns(f, width, columns, target) == ref_solve_columns(
        f, width, columns, target
    )


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 20))
@example((QQ, 0, []), 0)
@example((QQ, 4, QUARTER), 2)
@example((GF(2), 2, TALL), 3)
@example((GF(5), 12, WIDE), 1)
def test_reduce_against_matches_dense(case, cut):
    f, width, rows = case
    space = span(f, LabeledBasis(tuple(range(width))), rows[:cut])
    dense_rows, pivots = as_dense(f, space)
    for vec in rows[cut:] or [{}]:
        coeffs, rem = reduce_against(f, space, vec)
        want_coeffs, want_rem = ref_reduce_against(f, dense_rows, pivots, vec)
        assert list(coeffs) == sorted(coeffs)
        assert coeffs == nonzero(f, want_coeffs)
        assert rem == want_rem


def _combination(f, rows, picks):
    """Sum of ``rows[i]`` scaled by ``c`` for each ``(i, c)`` in ``picks``."""
    out = {}
    for i, c in picks:
        for k, x in rows[i % len(rows)].items():
            out[k] = f.add(out.get(k, f.zero), f.mul(c, x))
    return {k: x for k, x in out.items() if not f.is_zero(x)}


@settings(max_examples=150, deadline=None)
@given(
    matrices(),
    st.integers(0, 20),
    st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=4), max_size=6),
)
@example((QQ, 4, QUARTER), 2, [[(0, 1)], [(1, 2), (2, -1)]])
@example((GF(2), 2, TALL), 3, [[(0, 1), (3, 1)]])
@example((GF(5), 12, WIDE), 1, [[(0, 2)], [(1, 1)]])
def test_reduce_against_matches_sparse_reference(case, cut, combos):
    # members are combinations of the first ``cut`` rows; the other rows
    # and each combination plus a later row may lie outside the span
    f, width, rows = case
    space = span(f, LabeledBasis(tuple(range(width))), rows[:cut])
    inside = [_combination(f, rows[:cut], picks) for picks in combos if rows[:cut]]
    outside = [_combination(f, rows, picks + [(cut, 1)]) for picks in combos if rows[cut:]]
    for vec in inside + outside + rows[cut:]:
        coeffs, rem = reduce_against(f, space, vec)
        want_coeffs, want_rem = ref_reduce_against_sparse(f, space, vec)
        assert list(coeffs.items()) == list(want_coeffs.items())
        assert list(rem.items()) == list(want_rem.items())
    assert all(not reduce_against(f, space, vec)[1] for vec in inside)


@settings(max_examples=150, deadline=None)
@given(
    matrices(),
    st.integers(0, 20),
    st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=4), max_size=6),
)
@example((QQ, 4, QUARTER), 2, [[(0, 1)], [(1, 2), (2, -1)]])
@example((GF(2), 2, TALL), 3, [[(0, 1), (3, 1)]])
@example((GF(5), 12, WIDE), 1, [[(0, 2)], [(1, 1)]])
def test_project_matches_dense(case, cut, combos):
    # total is spanned by all rows, sub by the first ``cut``; each combo of
    # the rows lies in total and is projected by both views
    f, width, rows = case
    basis = LabeledBasis(tuple(range(width)))
    total = span(f, basis, rows)
    sub = span(f, basis, rows[:cut])
    view, ref = QuotientView(f, total, sub), RefQuotientView(f, total, sub)
    assert view.rep_indices == ref.rep_indices
    vectors = [_combination(f, rows, picks) for picks in combos if rows]
    for vec in vectors + total.row_vectors():
        coords = view.project(vec)
        assert list(coords) == sorted(coords)
        assert coords == nonzero(f, ref.project(vec))
    # a unit vector off the pivots of total never lies in total
    for i in [i for i in range(width) if i not in total.pivot_index][:1]:
        with pytest.raises(ContainmentError):
            view.project({i: f.one})
        with pytest.raises(ContainmentError):
            ref.project({i: f.one})


def _project_or_raise(project, vec):
    """``project(vec)`` as its item list, or ``ContainmentError`` if it raises."""
    try:
        return list(project(vec).items())
    except ContainmentError:
        return ContainmentError


# row 0 of total is {0: 1} at the pivot of sub's row {0: 1, 1: 2}: its class
# is read off the fold, as minus two times the class of {1: 1}
FOLDED_UNIT_ROW = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}]
# total is one row {0: 1, 2: 2}: the vector {0: c} is not in it
UNIT_ON_LONG_ROW = [{0: 1, 2: 2}, {1: 1}]
# total's pivots are 0 and 1: the unit vectors at 2 and 3 are not in it
UNITS_OFF_PIVOTS = [{0: 1, 2: 3}, {1: 4, 3: 1}]


@settings(max_examples=200, deadline=None)
@given(
    matrices(),
    st.integers(0, 20),
    st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=4), max_size=6),
    st.integers(1, 4),
)
@example((QQ, 2, FOLDED_UNIT_ROW), 1, [[(0, 3)], [(1, -1)]], 1)
@example((GF(3), 3, UNIT_ON_LONG_ROW), 1, [[(0, 1)]], 2)
@example((GF(5), 4, UNITS_OFF_PIVOTS), 1, [[(1, 2)]], 3)
@example((GF(2), 2, TALL), 3, [[(0, 1), (3, 1)]], 1)
def test_project_matches_reduced_reference(case, cut, combos, scale):
    # total is spanned by all rows, sub by the first ``cut``; every row of
    # total, every combination of the rows and every multiple of a unit
    # vector goes through both projections, members or not
    f, width, rows = case
    basis = LabeledBasis(tuple(range(width)))
    total = span(f, basis, rows)
    view = QuotientView(f, total, span(f, basis, rows[:cut]))
    c = f.mul(scale, f.one) or f.one  # nonzero in f
    units = [{i: c} for i in range(width)]
    vectors = [_combination(f, rows, picks) for picks in combos if rows]
    for vec in total.row_vectors() + vectors + units:
        assert _project_or_raise(view.project, vec) == _project_or_raise(
            lambda v: ref_project_reduced(view, v), vec
        )
    # a multiple of a unit vector lies in total iff it sits on a one-entry row
    one_entry = {row[0][0] for row in total.rows if len(row) == 1}
    for i, vec in enumerate(units):
        if i not in one_entry:
            with pytest.raises(ContainmentError):
                view.project(vec)
