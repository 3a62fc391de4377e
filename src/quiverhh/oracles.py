"""Independent cross-checks for degree-zero and degree-one cohomology.

Both oracles work on the algebra's multiplication directly, never through
the parallel-pair complex.  They share one matrix: the commutator matrix,
whose column for a basis path p holds [p, g] for every vertex and arrow
generator g.  The center is its kernel, since commuting with the
generators is commuting with everything, and the inner derivations are
its image.  A derivation is parametrized by its values on the generators;
the derivation space is cut out by the product rule on every generator
pair other than two arrows, plus the vanishing of d on every relation.
"""

from __future__ import annotations

from .algebra import MonomialAlgebra
from .linalg import LabeledBasis, LinearMap, accumulate, kernel, span


def _generators(A: MonomialAlgebra) -> list:
    Q = A.quiver
    gens = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    gens += [Q.arrow_path(a) for a in range(Q.num_arrows)]
    return gens


def _commutators(A: MonomialAlgebra) -> list:
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


def oracle_center(A: MonomialAlgebra):
    """(dimension, central elements as path-coefficient dicts).

    Solves z*g = g*z for every vertex idempotent and arrow generator g.
    """
    n = A.dim
    commutators = LabeledBasis(tuple(range(len(_generators(A)) * n)))
    m = LinearMap(LabeledBasis(tuple(range(n))), commutators, tuple(_commutators(A)))
    sol = kernel(A.field, m)
    elements = [{A.basis[i]: c for i, c in v.items()} for v in sol.row_vectors()]
    return sol.dim, elements


def _add_derivative(A: MonomialAlgebra, gen_index: dict, rows: dict, word, c) -> None:
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


def derivation_dims(A: MonomialAlgebra):
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
        _add_derivative(A, gen_index, rows, word, f.one)
        if product is not None:
            _add_derivative(A, gen_index, rows, (product,), f.neg(f.one))
        equations.extend(rows.values())
    unknowns = LabeledBasis(tuple(range(len(gens) * A.dim)))
    der = len(unknowns) - span(f, unknowns, equations).dim
    return der, span(f, unknowns, _commutators(A)).dim


def oracle_hh1_dim(A: MonomialAlgebra) -> int:
    """Derivations modulo inner derivations."""
    der, inner = derivation_dims(A)
    return der - inner
