"""Differential tests: both oracles against their three earlier implementations.

The first reference is the commutant and the derivation system the
package used before both oracles were built from one commutator matrix
and one product-rule loop, kept here unchanged.  It expands the
idempotent, vertex/arrow and relation equations block by block and
builds the commutator matrix twice.

The second reference (``ref_commutators``, ``ref_oracle_center``,
``ref_add_derivative`` and ``ref_derivation_dims``) is that commutator
matrix and product-rule loop as they were before the generator product
table: every product is a fresh ``A.multiply`` call, and every
product-rule term runs over the whole basis.  All of them must give the
same (dim Der, dim InnDer) and the same canonical center basis, and the
table must hold exactly the nonzero products of a generator with a basis
path.

The third reference (``ref_product_table`` and ``ref_table_*``) is the
product table and the table walks as they were before the table was
built by index arithmetic: every table entry is an ``A.multiply`` call,
the generator-pair products are ``A.multiply`` calls too, each
product-rule term walks one q at a time through ``accumulate``, and both
dimensions are read off a :class:`Subspace` built by ``span``.  The
package's derivation system must be the same equations: the rows it
ranks equal, as a multiset, the rows this reference spans.
"""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh import oracles
from quiverhh.algebra import MonomialAlgebra, build
from quiverhh.checks import run_checks
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import LabeledBasis, LinearMap, accumulate, kernel, null_space, span
from quiverhh.quiver import Path
from quiverhh.randomgen import RandomSpec, instance_with_gluing, random_instance


def _generators(A: MonomialAlgebra):
    Q = A.quiver
    gens = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    gens += [Q.arrow_path(a) for a in range(Q.num_arrows)]
    return gens


def oracle_center(A: MonomialAlgebra):
    """(dimension, central elements as path-coefficient dicts).

    Solves z*g = g*z for every vertex idempotent and arrow generator g;
    commuting with generators is commuting with everything.
    """
    f = A.field
    basis = A.basis
    index = A.basis_index
    gens = _generators(A)
    n = len(basis)
    columns = []
    for p in basis:
        # [p, g] for every generator g, stacked generator by generator
        col: dict = {}
        for gi, gpath in enumerate(gens):
            left = A.multiply(p, gpath)
            if left is not None:
                accumulate(f, col, gi * n + index[left], f.one)
            right = A.multiply(gpath, p)
            if right is not None:
                accumulate(f, col, gi * n + index[right], f.neg(f.one))
        columns.append(col)
    domain = LabeledBasis(tuple(range(n)))
    commutators = LabeledBasis(tuple(range(len(gens) * n)))
    sol = kernel(f, LinearMap(domain, commutators, tuple(columns)))
    elements = [
        {basis[i]: c for i, c in v.items()} for v in sol.row_vectors()
    ]
    return sol.dim, elements


class _DerivationSystem:
    """Linear forms for d(p) with unknowns = generator values."""

    def __init__(self, A: MonomialAlgebra):
        self.A = A
        self.f = A.field
        self.gens = _generators(A)
        self.gen_index = {g: i for i, g in enumerate(self.gens)}
        self.dim = A.dim
        self.n_unknowns = len(self.gens) * A.dim
        self._forms: dict = {}

    def unknown(self, gen_path: Path, coord: int) -> int:
        return self.gen_index[gen_path] * self.dim + coord

    def generator_form(self, gpath: Path) -> dict:
        # d(g) is the free vector of unknowns (g, q) over all coords q.
        return {
            (q, self.unknown(gpath, qi)): self.f.one
            for qi, q in enumerate(self.A.basis)
        }

    def form_of(self, p: Path) -> dict:
        """Form of d(p) for a basis path, by splitting off the last arrow."""
        if p in self._forms:
            return self._forms[p]
        A, f = self.A, self.f
        if p.length <= 1:
            form = self.generator_form(p)
        else:
            x = A.quiver.arrow_path(p.arrows[-1])
            rest = Path(p.source, A.quiver.source(p.arrows[-1]), p.arrows[:-1])
            form = self._add(
                self._mul_right(self.form_of(x), rest),
                self._mul_left(x, self.form_of(rest)),
            )
        self._forms[p] = form
        return form

    def _mul_right(self, form: dict, y: Path) -> dict:
        out: dict = {}
        for (q, u), c in form.items():
            r = self.A.multiply(q, y)
            if r is None:
                continue
            accumulate(self.f, out, (r, u), c)
        return out

    def _mul_left(self, x: Path, form: dict) -> dict:
        out: dict = {}
        for (q, u), c in form.items():
            r = self.A.multiply(x, q)
            if r is None:
                continue
            accumulate(self.f, out, (r, u), c)
        return out

    def _add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for k, c in b.items():
            accumulate(self.f, out, k, c)
        return out

    def _scale(self, c, form: dict) -> dict:
        if self.f.is_zero(c):
            return {}
        return {k: self.f.mul(c, v) for k, v in form.items()}

    def equations(self):
        """Sparse unknown-coefficient rows whose kernel is the derivation space."""
        A, f = self.A, self.f
        Q = A.quiver
        rows = []

        def emit(form: dict):
            per_coord: dict = {}
            for (q, u), c in form.items():
                per_coord.setdefault(q, {})[u] = c
            for row in per_coord.values():
                rows.append({u: c for u, c in row.items() if not f.is_zero(c)})

        verts = [Q.trivial_path(v) for v in range(Q.num_vertices)]
        # Idempotent pairs: d(e_i)e_j + e_i d(e_j) = [i == j] d(e_i).
        for i, ei in enumerate(verts):
            for j, ej in enumerate(verts):
                form = self._add(
                    self._mul_right(self.generator_form(ei), ej),
                    self._mul_left(ei, self.generator_form(ej)),
                )
                if i == j:
                    form = self._add(form, self._scale(f.neg(f.one), self.generator_form(ei)))
                emit(form)
        # Vertex/arrow pairs in both orders.
        for a in range(Q.num_arrows):
            ap = Q.arrow_path(a)
            for i, ei in enumerate(verts):
                form = self._add(
                    self._mul_right(self.generator_form(ei), ap),
                    self._mul_left(ei, self.generator_form(ap)),
                )
                if i == Q.target(a):
                    form = self._add(form, self._scale(f.neg(f.one), self.generator_form(ap)))
                emit(form)
                form = self._add(
                    self._mul_right(self.generator_form(ap), ei),
                    self._mul_left(ap, self.generator_form(ei)),
                )
                if i == Q.source(a):
                    form = self._add(form, self._scale(f.neg(f.one), self.generator_form(ap)))
                emit(form)
        # Expanded relations must map to zero.
        for r in A.relations:
            emit(self._word_form(r))
        return rows

    def _word_form(self, r: Path) -> dict:
        """Leibniz expansion of d along the word of ``r``, evaluated in A."""
        A = self.A
        word = r.arrows
        total: dict = {}
        for i in range(len(word)):
            x = A.quiver.arrow_path(word[i])
            form = self.generator_form(x)
            # multiply by the prefix on the right, then the suffix on the left
            for j in range(i - 1, -1, -1):
                form = self._mul_right(form, A.quiver.arrow_path(word[j]))
            for j in range(i + 1, len(word)):
                form = self._mul_left(A.quiver.arrow_path(word[j]), form)
            total = self._add(total, form)
        return total


def derivation_dims(A: MonomialAlgebra):
    """(dim Der, dim InnDer) from the generator-value parametrization."""
    f = A.field
    system = _DerivationSystem(A)
    unknown_basis = LabeledBasis(tuple(range(system.n_unknowns)))
    der = null_space(f, unknown_basis, system.equations())

    inner = []
    for b in A.basis:
        vec: dict = {}
        for g in system.gens:
            left = A.multiply(b, g)
            if left is not None:
                accumulate(f, vec, system.unknown(g, A.basis_index[left]), f.one)
            right = A.multiply(g, b)
            if right is not None:
                accumulate(f, vec, system.unknown(g, A.basis_index[right]), f.neg(f.one))
        if vec:
            inner.append(vec)
    inner_space = span(f, unknown_basis, inner)
    return der.dim, inner_space.dim



def ref_commutators(A: MonomialAlgebra) -> list:
    """One column per basis path p: [p, g] at ``gi * dim A + coord``.

    Generator by generator, the column of p is the value of the inner
    derivation ad p in the unknowns of :func:`derivation_dims`.
    """
    f = A.field
    n = A.dim
    index = A.basis_index
    gens = _generators(A)
    columns = []
    for p in A.basis:
        col: dict = {}
        for gi, g in enumerate(gens):
            left = A.multiply(p, g)
            if left is not None:
                accumulate(f, col, gi * n + index[left], f.one)
            right = A.multiply(g, p)
            if right is not None:
                accumulate(f, col, gi * n + index[right], f.neg(f.one))
        columns.append(col)
    return columns


def ref_oracle_center(A: MonomialAlgebra):
    """(dimension, central elements as path-coefficient dicts).

    Solves z*g = g*z for every vertex idempotent and arrow generator g.
    """
    n = A.dim
    commutators = LabeledBasis(tuple(range(len(_generators(A)) * n)))
    m = LinearMap(LabeledBasis(tuple(range(n))), commutators, tuple(ref_commutators(A)))
    sol = kernel(A.field, m)
    elements = [{A.basis[i]: c for i, c in v.items()} for v in sol.row_vectors()]
    return sol.dim, elements


def ref_add_derivative(A: MonomialAlgebra, gen_index: dict, rows: dict, word, c) -> None:
    """Add ``c`` times d(x_k ⋯ x_1) to ``rows`` for ``word = (x_1, ..., x_k)``.

    By the product rule d(x_k ⋯ x_1) is the sum over i of
    x_k ⋯ x_{i+1} d(x_i) x_{i-1} ⋯ x_1, where d(x_i) is the sum over basis
    paths q of the unknown ``(x_i, q)`` times q; each term is evaluated in
    A.  ``rows`` maps the basis index of the product to ``{unknown: coeff}``.
    """
    f, n, index = A.field, A.dim, A.basis_index
    for i, x in enumerate(word):
        offset = gen_index[x] * n
        for qi, q in enumerate(A.basis):
            r = q
            for y in reversed(word[:i]):
                r = r if r is None else A.multiply(r, y)
            for y in word[i + 1 :]:
                r = r if r is None else A.multiply(y, r)
            if r is not None:
                accumulate(f, rows.setdefault(index[r], {}), offset + qi, c)


def ref_derivation_dims(A: MonomialAlgebra):
    """(dim Der, dim InnDer) from the generator-value parametrization."""
    f = A.field
    Q = A.quiver
    gens = _generators(A)
    gen_index = {g: i for i, g in enumerate(gens)}
    # The relations presenting A: yx = 0 or a generator for every generator
    # pair other than two arrows, and r = 0 for every relation.  A derivation
    # must respect each: d(y)x + y d(x) = d(yx) and d(r) = 0.
    words = [
        ((x, y), A.multiply(y, x)) for y in gens for x in gens if x.length + y.length < 2
    ]
    words += [(tuple(Q.arrow_path(a) for a in r.arrows), None) for r in A.relations]
    equations = []
    for word, product in words:
        rows: dict = {}
        ref_add_derivative(A, gen_index, rows, word, f.one)
        if product is not None:
            ref_add_derivative(A, gen_index, rows, (product,), f.neg(f.one))
        equations.extend(rows.values())
    unknowns = LabeledBasis(tuple(range(len(gens) * A.dim)))
    der = len(unknowns) - span(f, unknowns, equations).dim
    return der, span(f, unknowns, ref_commutators(A)).dim



def ref_product_table(A: MonomialAlgebra) -> oracles.ProductTable:
    """Every nonzero product of a generator with a basis path, both sides."""
    Q = A.quiver
    index = A.basis_index
    gens = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    gens += [Q.arrow_path(a) for a in range(Q.num_arrows)]
    left = [{} for _ in gens]
    right = [{} for _ in gens]
    for gi, g in enumerate(gens):
        for pi, p in enumerate(A.basis):
            gp = A.multiply(g, p)
            if gp is not None:
                left[gi][pi] = index[gp]
            pg = A.multiply(p, g)
            if pg is not None:
                right[gi][pi] = index[pg]
    return oracles.ProductTable(gens, left, right)


def ref_table_commutators(A: MonomialAlgebra, table) -> list:
    """One column per basis path p: [p, g] at ``gi * dim A + coord``.

    Generator by generator, the column of p is the value of the inner
    derivation ad p in the unknowns of :func:`derivation_dims`.
    """
    f, n = A.field, A.dim
    columns = [{} for _ in range(n)]
    for gi in range(len(table.gens)):
        offset = gi * n
        for pi, r in table.right[gi].items():
            accumulate(f, columns[pi], offset + r, f.one)
        for pi, r in table.left[gi].items():
            accumulate(f, columns[pi], offset + r, f.neg(f.one))
    return columns


def ref_table_add_derivative(A: MonomialAlgebra, table, rows: dict, word, c) -> None:
    """Add ``c`` times d(x_k ⋯ x_1) to ``rows`` for the generator indices
    ``word = (x_1, ..., x_k)``.

    By the product rule d(x_k ⋯ x_1) is the sum over i of
    x_k ⋯ x_{i+1} d(x_i) x_{i-1} ⋯ x_1, where d(x_i) is the sum over basis
    paths q of the unknown ``(x_i, q)`` times q.  Each term walks q through
    the table, one factor at a time, and starts from the table entries of
    the factor next to q, so a q whose first product is zero is never
    visited; only a one-letter word runs over the whole basis.  ``rows``
    maps the basis index of the product to ``{unknown: coeff}``.
    """
    f, n = A.field, A.dim
    for i, x in enumerate(word):
        offset = x * n
        steps = [table.right[y] for y in reversed(word[:i])]
        steps += [table.left[y] for y in word[i + 1 :]]
        start = steps.pop(0).items() if steps else zip(range(n), range(n))
        for qi, r in start:
            for step in steps:
                r = step.get(r)
                if r is None:
                    break
            else:
                accumulate(f, rows.setdefault(r, {}), offset + qi, c)


def ref_table_derivation_dims(A: MonomialAlgebra):
    """(dim Der, dim InnDer) from the generator-value parametrization."""
    f = A.field
    Q = A.quiver
    table = ref_product_table(A)
    gens = table.gens
    gen_index = {g: i for i, g in enumerate(gens)}
    # The relations presenting A: yx = 0 or a generator for every generator
    # pair other than two arrows, and r = 0 for every relation.  A derivation
    # must respect each: d(y)x + y d(x) = d(yx) and d(r) = 0.
    words = [
        ((xi, yi), gen_index.get(A.multiply(y, x)))
        for yi, y in enumerate(gens)
        for xi, x in enumerate(gens)
        if x.length + y.length < 2
    ]
    words += [(tuple(gen_index[Q.arrow_path(a)] for a in r.arrows), None) for r in A.relations]
    equations = []
    for word, product in words:
        rows: dict = {}
        ref_table_add_derivative(A, table, rows, word, f.one)
        if product is not None:
            ref_table_add_derivative(A, table, rows, (product,), f.neg(f.one))
        equations.extend(rows.values())
    unknowns = LabeledBasis(tuple(range(len(gens) * A.dim)))
    der = len(unknowns) - span(f, unknowns, equations).dim
    return der, span(f, unknowns, ref_table_commutators(A, table)).dim


FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def _multiset(rows) -> list:
    return sorted(sorted(r.items()) for r in rows)


def assert_oracles_match(A):
    dims = oracles.derivation_dims(A)
    center = oracles.oracle_center(A)
    assert dims == derivation_dims(A) == ref_derivation_dims(A) == ref_table_derivation_dims(A)
    assert center == oracle_center(A) == ref_oracle_center(A)
    assert_same_equations(A)


def assert_same_equations(A):
    """The package ranks exactly the rows the table reference spans: the
    derivation equations, then the commutator columns."""
    ranked, spanned = [], []
    here = sys.modules[__name__]
    real_rank, real_span = oracles.rank, span
    oracles.rank = lambda f, rows: ranked.append(rows) or real_rank(f, rows)
    here.span = lambda f, basis, rows: spanned.append(rows) or real_span(f, basis, rows)
    try:
        oracles.derivation_dims(A)
        ref_table_derivation_dims(A)
    finally:
        oracles.rank, here.span = real_rank, real_span
    assert len(ranked) == len(spanned) == 2
    assert [_multiset(rows) for rows in ranked] == [_multiset(rows) for rows in spanned]


def assert_table_is_products(A):
    """The table holds exactly the nonzero products g*p and p*g."""
    table = oracles.product_table(A)
    index = A.basis_index
    assert table.gens == _generators(A)
    # the generators are the first basis paths, so a generator's basis index
    # is its generator index
    assert table.gens == list(A.basis[: len(table.gens)])
    assert table == ref_product_table(A)
    for gi, g in enumerate(table.gens):
        for side, mul in ((table.left, lambda p: A.multiply(g, p)),
                          (table.right, lambda p: A.multiply(p, g))):
            expected = {}
            for pi, p in enumerate(A.basis):
                r = mul(p)
                if r is not None:
                    expected[pi] = index[r]
            assert side[gi] == expected
            assert list(side[gi]) == sorted(side[gi])  # walks visit q in basis order


def test_corpus_matches_reference():
    for e in EXAMPLES:
        base = parse(e.text)
        for f in FIELDS.values():
            assert_oracles_match(build(base.quiver, base.relations, f))


def test_corpus_product_tables():
    for e in EXAMPLES:
        base = parse(e.text)
        for f in FIELDS.values():
            assert_table_is_products(build(base.quiver, base.relations, f))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 32))
@example(0, "Q", 8)
@example(20260809, "F2", 32)
def test_random_instances_match_reference(seed, field, max_dim):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim)
    A = random_instance(spec)
    assert_table_is_products(A)
    assert_oracles_match(A)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 32))
@example(20260809, "Q", 32)  # the first instance of the default fuzz seed
def test_gluing_sides_match_reference(seed, field, max_dim):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim)
    A, gs = instance_with_gluing(spec)
    g = glue(A, gs.alpha, gs.beta)
    for side in (g.A, g.B):
        assert_table_is_products(side)
        assert_oracles_match(side)


@pytest.fixture(scope="module")
def w1_failing_sides(w1_gluings):
    """Both sides of the 50 W1 gluings that fail ``hh1_dim_general``: the
    counterexamples the hh1 oracle confirms, and the fuzz tail."""
    sides = []
    for _, g in w1_gluings:
        if run_checks(g, ("hh1_dim_general",))[0].failed:
            sides += [g.A, g.B]
    assert len(sides) == 100
    return sides


def test_w1_failing_sides_product_tables(w1_failing_sides):
    for side in w1_failing_sides:
        assert_table_is_products(side)


def test_w1_failing_sides_match_reference(w1_failing_sides):
    for side in w1_failing_sides:
        assert_oracles_match(side)
