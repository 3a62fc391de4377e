"""Deterministic exact linear algebra on labeled bases.

Vectors are sparse dicts ``index -> scalar`` over a :class:`LabeledBasis`
with no zero entries.  A :class:`Subspace` is stored as the reduced row
echelon form of its spanning set: each row is a tuple of ``(column,
value)`` pairs sorted by column, whose lowest column is its pivot with
value one, and no row has an entry in another row's pivot column.  That
form is unique, so two subspaces are equal iff their stored rows are
identical, whatever order or pivot choice produced them.  Every kernel,
image, intersection, solve and rank goes through the one sparse
elimination routine :func:`_rref`; :func:`rank` counts its pivots and
builds no subspace.  Most rows it receives hold a single nonzero
entry, so it takes each such row's column as a pivot up front, deletes
those columns from the other rows and eliminates only what is left.  A
restricted kernel is a kernel of label columns, renumbered in place.

Coordinates are sparse too.  Because the stored rows are reduced
echelon, the coefficient of a member vector along a row is its entry at
that row's pivot, so :func:`reduce_against` visits only the pivots that
occur in the vector and returns ``{row index: coefficient}``, and
:meth:`QuotientView.project` reduces once against the total space and
returns ``{representative position: coefficient}``; neither has a zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ContainmentError, ShapeError
from .fields import FieldSpec


@dataclass(frozen=True)
class LabeledBasis:
    """Ordered tuple of distinct hashable labels with index lookup."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")

    @cached_property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)


def accumulate(field: FieldSpec, out: dict, key, c) -> None:
    """Add the scalar ``c`` to ``out[key]`` in place; a sum of zero is removed."""
    s = field.add(out.get(key, 0), c)
    if field.is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


def _rref(field: FieldSpec, rows) -> dict:
    """Reduced row echelon form of sparse rows as ``{pivot column: row dict}``.

    A presolve first sets aside every row with exactly one nonzero entry:
    its column ``u`` is a pivot whose reduced row is ``{u: one}``, so no
    other row of the result has an entry there.  The other nonzero rows are
    copied with every such unit column deleted and then eliminated one by
    one: each is reduced against the pivots found so far, its lowest
    remaining column becomes a new pivot (scaled to one), and that column
    is cleared from the earlier rows.  A row whose new pivot is already one
    is neither inverted nor rescaled, which over the rationals keeps a row
    of integers on machine integers.  The unit rows join the result last.
    The result depends only on the span of ``rows``, and no row of it is
    one of the input dicts.
    """
    mul, neg, inv, is_zero = field.mul, field.neg, field.inv, field.is_zero
    units: set = set()
    kept = []
    for v in rows:
        if len(v) == 1:
            [(k, x)] = v.items()
            if not is_zero(x):
                units.add(k)
            continue
        r = {k: x for k, x in v.items() if not is_zero(x)}
        if len(r) == 1:
            units.update(r)
        elif r:
            kept.append(r)
    piv: dict = {}

    def axpy(r: dict, c, row: dict):
        for k, x in row.items():
            accumulate(field, r, k, mul(c, x))

    for r in kept:
        for u in [k for k in r if k in units]:
            del r[u]
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
    for u in units:
        piv[u] = {u: field.one}
    return piv


@dataclass(frozen=True)
class Subspace:
    """Canonical reduced-echelon representation of a span."""

    basis: LabeledBasis
    rows: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple:
        """Each row's first column, ascending."""
        return tuple(row[0][0] for row in self.rows)

    @cached_property
    def pivot_index(self) -> dict:
        """``{pivot column: row index}``."""
        return {p: i for i, p in enumerate(self.pivots)}

    def row_vectors(self) -> list:
        """Rows as sparse dicts."""
        return [dict(row) for row in self.rows]


def span(field: FieldSpec, basis: LabeledBasis, vectors: Sequence[dict]) -> Subspace:
    """Canonical subspace spanned by sparse vectors."""
    piv = _rref(field, vectors)
    return Subspace(basis, tuple(tuple(sorted(piv[p].items())) for p in sorted(piv)))


def rank(field: FieldSpec, rows: Sequence[dict]) -> int:
    """Dimension of the span of sparse rows."""
    return len(_rref(field, rows))


def reduce_against(field: FieldSpec, space: Subspace, vec: dict) -> tuple:
    """Split ``vec`` as ``({row index: coefficient}, remainder)``.

    Each row is one at its own pivot and zero at every other pivot, so the
    coefficient along a row is ``vec`` at its pivot and only the pivots
    present in ``vec`` are visited, in row order.  The remainder drops the
    pivot entry, which cancels exactly, and takes only the row's others, so
    a unit row costs nothing; it is empty iff ``vec`` lies in ``space``.
    """
    index = space.pivot_index
    rem = dict(vec)
    coeffs = {}
    mul, neg = field.mul, field.neg
    for p in sorted(p for p in vec if p in index):
        r, c = index[p], rem.pop(p)
        coeffs[r] = c
        for i, x in space.rows[r][1:]:
            accumulate(field, rem, i, neg(mul(c, x)))
    return coeffs, rem


def member(field: FieldSpec, space: Subspace, vec: dict) -> bool:
    _, rem = reduce_against(field, space, vec)
    return not rem


def subspace_sum(field: FieldSpec, s: Subspace, t: Subspace) -> Subspace:
    _check_same_basis(s, t)
    return span(field, s.basis, s.row_vectors() + t.row_vectors())


def intersect(field: FieldSpec, s: Subspace, t: Subspace) -> Subspace:
    """Zassenhaus: echelonize [S|S] over [T|0]; zero-left rows carry the meet."""
    _check_same_basis(s, t)
    width = len(s.basis)
    rows = [dict(r + tuple((width + i, x) for i, x in r)) for r in s.rows]
    rows += t.row_vectors()
    meet = [
        {i - width: x for i, x in row.items()}
        for p, row in _rref(field, rows).items()
        if p >= width
    ]
    return span(field, s.basis, meet)


def contains_subspace(field: FieldSpec, big: Subspace, small: Subspace) -> bool:
    return all(member(field, big, v) for v in small.row_vectors())


def _check_same_basis(s: Subspace, t: Subspace):
    if s.basis is not t.basis and s.basis != t.basis:
        raise ShapeError("subspaces live over different bases")


@dataclass(frozen=True)
class LinearMap:
    """Columns of a map between labeled bases, stored sparsely."""

    domain: LabeledBasis
    codomain: LabeledBasis
    columns: tuple  # one sparse dict per domain label

    def __post_init__(self):
        if len(self.columns) != len(self.domain):
            raise ShapeError("one column per domain label required")

    def apply(self, field: FieldSpec, vec: dict) -> dict:
        out: dict = {}
        for j, c in vec.items():
            for i, x in self.columns[j].items():
                accumulate(field, out, i, field.mul(c, x))
        return out


def _transpose(columns, height: int) -> list:
    """The nonzero rows of the matrix with these sparse columns, top to bottom."""
    rows = [{} for _ in range(height)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return [r for r in rows if r]


def image(field: FieldSpec, m: LinearMap) -> Subspace:
    return span(field, m.codomain, list(m.columns))


def null_space(field: FieldSpec, domain: LabeledBasis, rows: Sequence[dict]) -> Subspace:
    """Canonical kernel of the matrix whose sparse rows are indexed by ``domain``."""
    piv = _rref(field, rows)
    gens = {j: {j: field.one} for j in range(len(domain)) if j not in piv}
    for p, row in piv.items():
        for j, x in row.items():
            if j != p:
                gens[j][p] = field.neg(x)
    return span(field, domain, list(gens.values()))


def kernel(field: FieldSpec, m: LinearMap) -> Subspace:
    """Canonical kernel via RREF of the coefficient matrix."""
    return null_space(field, m.domain, _transpose(m.columns, len(m.codomain)))


def restricted_kernel(field: FieldSpec, m: LinearMap, columns: Sequence[int]) -> Subspace:
    """The part of ``ker m`` on the label ``columns``: the kernel of those columns
    renumbered in place, in ascending order, which keeps its rows the canonical
    reduced echelon form :func:`span` would give, so no second elimination runs."""
    cols = sorted(columns)
    sub = LinearMap(LabeledBasis(tuple(cols)), m.codomain, tuple(m.columns[j] for j in cols))
    ker = kernel(field, sub)
    return Subspace(m.domain, tuple(tuple((cols[j], x) for j, x in row) for row in ker.rows))


def solve_columns(field: FieldSpec, width: int, columns, target: dict):
    """Coefficients expressing ``target`` in ``columns`` (free parts zero),
    or None when the system is inconsistent."""
    n = len(columns)
    piv = _rref(field, _transpose(list(columns) + [target], width))
    if n in piv:
        return None
    sol = [field.zero] * n
    for p, row in piv.items():
        sol[p] = row.get(n, field.zero)
    return sol


class QuotientView:
    """Classes of ``total / sub`` with deterministic representatives.

    Both subspaces are reduced echelon in one basis, and the pivots of
    ``sub`` are pivots of ``total``.  The representatives are the rows of
    ``total`` whose pivot is not a pivot of ``sub``, so two runs (and two
    machines) pick the same basis.
    """

    def __init__(self, field: FieldSpec, total: Subspace, sub: Subspace):
        if not contains_subspace(field, total, sub):
            raise ContainmentError("subspace is not contained in the total space")
        self.field = field
        self.total = total
        self.sub = sub
        sub_pivots = set(sub.pivots)
        self.rep_indices = tuple(i for i, p in enumerate(total.pivots) if p not in sub_pivots)
        self._rep_position = {i: k for k, i in enumerate(self.rep_indices)}

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    @cached_property
    def _fold(self) -> dict:
        """``{row of total at a pivot p of sub: ((position, c), ...)}``, built on
        first use: modulo sub that row is the sum of the representatives, each
        times minus the entry of sub's row at p in the representative's pivot."""
        at, pos, neg = self.total.pivot_index, self._rep_position, self.field.neg
        subrows = zip(self.sub.pivots, self.sub.rows)
        return {at[p]: tuple((pos[at[q]], neg(x)) for q, x in r[1:] if q in at) for p, r in subrows}

    def project(self, vec: dict) -> dict:
        """Coordinates of the class of ``vec`` as ``{representative position:
        coefficient}``, ascending and without zeros, reducing once against total."""
        coeffs, rem = reduce_against(self.field, self.total, vec)
        if rem:
            raise ContainmentError("vector lies outside the total space")
        position = self._rep_position
        out = {position[i]: c for i, c in coeffs.items() if i in position}
        if len(out) == len(coeffs):
            return out
        f, fold = self.field, self._fold
        for i, c in coeffs.items():
            for k, x in fold.get(i, ()):
                accumulate(f, out, k, f.mul(c, x))
        return dict(sorted(out.items()))
