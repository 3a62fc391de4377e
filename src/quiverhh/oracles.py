"""Independent cross-checks for degree-zero and degree-one cohomology.

Both oracles work on the algebra's multiplication directly, never through
the parallel-pair complex.  They read it from one generator product
table, which each oracle builds once from ``A.multiply``: for every vertex
or arrow generator g, ``left`` maps the basis index of a path p to that of
g·p and ``right`` maps it to that of p·g, and both keep only the nonzero
products.  The commutator matrix, whose column for a basis path p holds
[p, g] for every generator g, is read off the table.  The center is its
kernel, since commuting with the generators is commuting with everything,
and the inner derivations are its image.  A derivation is parametrized by
its values on the generators; the derivation space is cut out by the
product rule on every generator pair other than two arrows, plus the
vanishing of d on every relation.  Each product-rule term is a walk
through the table.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import MonomialAlgebra
from .linalg import LabeledBasis, LinearMap, accumulate, kernel, span


class ProductTable(NamedTuple):
    gens: list  # vertex idempotents, then arrows
    left: list  # left[gi]: {basis index of p: basis index of g·p}, nonzero only
    right: list  # right[gi]: {basis index of p: basis index of p·g}, nonzero only


def product_table(A: MonomialAlgebra) -> ProductTable:
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
    return ProductTable(gens, left, right)


def _commutators(A: MonomialAlgebra, table: ProductTable) -> list:
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


def oracle_center(A: MonomialAlgebra):
    """(dimension, central elements as path-coefficient dicts).

    Solves z*g = g*z for every vertex idempotent and arrow generator g.
    """
    n = A.dim
    table = product_table(A)
    commutators = LabeledBasis(tuple(range(len(table.gens) * n)))
    m = LinearMap(LabeledBasis(tuple(range(n))), commutators, tuple(_commutators(A, table)))
    sol = kernel(A.field, m)
    elements = [{A.basis[i]: c for i, c in v.items()} for v in sol.row_vectors()]
    return sol.dim, elements


def _add_derivative(A: MonomialAlgebra, table: ProductTable, rows: dict, word, c) -> None:
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


def derivation_dims(A: MonomialAlgebra):
    """(dim Der, dim InnDer) from the generator-value parametrization."""
    f = A.field
    Q = A.quiver
    table = product_table(A)
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
        _add_derivative(A, table, rows, word, f.one)
        if product is not None:
            _add_derivative(A, table, rows, (product,), f.neg(f.one))
        equations.extend(rows.values())
    unknowns = LabeledBasis(tuple(range(len(gens) * A.dim)))
    der = len(unknowns) - span(f, unknowns, equations).dim
    return der, span(f, unknowns, _commutators(A, table)).dim


def oracle_hh1_dim(A: MonomialAlgebra) -> int:
    """Derivations modulo inner derivations."""
    der, inner = derivation_dims(A)
    return der - inner
