"""Differential tests: both oracles against their earlier implementation.

The reference below is the commutant and the derivation system the
package used before both oracles were built from one commutator matrix
and one product-rule loop, kept here unchanged.  It expands the
idempotent, vertex/arrow and relation equations block by block and
builds the commutator matrix twice.  Both implementations must give the
same (dim Der, dim InnDer) and the same canonical center basis.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh import oracles
from quiverhh.algebra import MonomialAlgebra, build
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.linalg import LabeledBasis, LinearMap, accumulate, kernel, null_space, span
from quiverhh.quiver import Path
from quiverhh.randomgen import RandomSpec, random_instance


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



FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def assert_oracles_match(A):
    assert oracles.derivation_dims(A) == derivation_dims(A)
    assert oracles.oracle_center(A) == oracle_center(A)


def test_corpus_matches_reference():
    for e in EXAMPLES:
        base = parse(e.text)
        for f in FIELDS.values():
            assert_oracles_match(build(base.quiver, base.relations, f))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 32))
@example(0, "Q", 8)
@example(20260809, "F2", 32)
def test_random_instances_match_reference(seed, field, max_dim):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim)
    assert_oracles_match(random_instance(spec))
