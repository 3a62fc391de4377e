"""Independent cross-checks for degree-zero and degree-one cohomology.

Both oracles work on the algebra's multiplication directly, never through
the parallel-pair complex.  They read it from one generator product
table: for every vertex or arrow generator g, ``left`` maps the basis
index of a path p to that of g·p and ``right`` maps it to that of p·g, and
both keep only the nonzero products.  The table is built by index
arithmetic in one pass over the basis, one lookup per arrow that can
extend p at either end.  The commutator matrix, whose column for a basis
path p holds [p, g] for every generator g, is read off the table.  The
center is its kernel, since commuting with the generators is commuting
with everything, and the inner derivations are its image.  A derivation
is parametrized by its values on the generators; the derivation space is
cut out by the product rule on every generator pair other than two
arrows, plus the vanishing of d on every relation.  Each product-rule
term is a walk through the table.  Degree one needs only dimensions, so
the derivation equations and the commutator columns are ranked without
building a subspace.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import MonomialAlgebra
from .linalg import LabeledBasis, LinearMap, kernel, rank


class ProductTable(NamedTuple):
    gens: list  # vertex idempotents, then arrows
    left: list  # left[gi]: {basis index of p: basis index of g·p}, nonzero only
    right: list  # right[gi]: {basis index of p: basis index of p·g}, nonzero only


def product_table(A: MonomialAlgebra) -> ProductTable:
    """Every nonzero product of a generator with a basis path, both sides.

    Built by index arithmetic in one pass over the basis, with no
    ``multiply`` call: e_v·p and p·e_v are p itself when p ends or starts
    at v, and a·p or p·a is one basis lookup for each arrow a out of the
    end or into the start of p.  Each dict is filled in basis order.
    """
    Q = A.quiver
    index = A.basis_index
    V = Q.num_vertices
    gens = [Q.trivial_path(v) for v in range(V)]
    gens += [Q.arrow_path(a) for a in range(Q.num_arrows)]
    left = [{} for _ in gens]
    right = [{} for _ in gens]
    arrows, out_of, into = Q.arrows, Q.arrows_from, Q.arrows_into
    # a path hashes and compares as its (source, target, arrows) tuple, so
    # the products are looked up as plain tuples
    for pi, (s, t, word) in enumerate(A.basis):
        left[t][pi] = pi
        right[s][pi] = pi
        for a in out_of[t]:
            r = index.get((s, arrows[a][2], word + (a,)))
            if r is not None:
                left[V + a][pi] = r
        for a in into[s]:
            r = index.get((arrows[a][1], t, (a,) + word))
            if r is not None:
                right[V + a][pi] = r
    return ProductTable(gens, left, right)


def _commutators(A: MonomialAlgebra, table: ProductTable) -> list:
    """One column per basis path p: [p, g] at ``gi * dim A + coord``.

    Generator by generator, the column of p is the value of the inner
    derivation ad p in the unknowns of :func:`derivation_dims`.
    """
    f, n = A.field, A.dim
    one, minus = f.one, f.neg(f.one)
    columns = [{} for _ in range(n)]
    for gi in range(len(table.gens)):
        offset = gi * n
        for pi, r in table.right[gi].items():
            columns[pi][offset + r] = one
        for pi, r in table.left[gi].items():
            # where g·p and p·g are the same path the two terms cancel
            if columns[pi].pop(offset + r, None) is None:
                columns[pi][offset + r] = minus
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


def _derivation_system(A: MonomialAlgebra, table: ProductTable):
    """The equations that cut out the derivations, each a list of terms.

    A is presented by yx = 0 or a generator for every generator pair other
    than two arrows, and by r = 0 for every relation, and a derivation must
    respect each: d(y)x + y d(x) - d(yx) = 0 and d(r) = 0.  Here d(z) is
    the sum over basis paths q of the unknown ``(z, q)`` times q.  A term
    ``(offset, c, walk)`` adds c times the unknown ``offset + qi`` to the
    row of the basis path r for each pair (qi, r) of its walk.

    By the product rule d(x_k ⋯ x_1) is the sum over i of
    x_k ⋯ x_{i+1} d(x_i) x_{i-1} ⋯ x_1.  Term i walks q through the table
    one factor at a time, starting from the table entries of the factor
    next to q, so a q whose first product is zero is never visited.  For a
    pair each walk is one table dict: the unknowns (y, q) of d(y)x go where
    q·x is nonzero, and the unknowns (x, q) of y d(x) where y·q is.  The
    generators are the first basis paths, in the same order (the basis
    sorts by length, then arrows, then source), so the basis index of x is
    its generator index and the table's entry for y there is yx.
    """
    f, n = A.field, A.dim
    one, minus = f.one, f.neg(f.one)
    left, right = table.left, table.right
    V, g = A.quiver.num_vertices, len(table.gens)
    identity = list(enumerate(range(n)))  # the walk of d(yx) for a generator yx
    for yi in range(g):
        for xi in range(V if yi >= V else g):
            terms = [(xi * n, one, left[yi].items()), (yi * n, one, right[xi].items())]
            yx = left[yi].get(xi)
            if yx is not None:
                terms.append((yx * n, minus, identity))
            yield terms
    for rel in A.relations:
        word = tuple(V + a for a in rel.arrows)
        terms = []
        for i, x in enumerate(word):
            steps = [right[y] for y in reversed(word[:i])] + [left[y] for y in word[i + 1 :]]
            walk = steps[0].items()
            for step in steps[1:]:
                walk = [(qi, step[r]) for qi, r in walk if r in step]
            terms.append((x * n, one, walk))
        yield terms


def derivation_dims(A: MonomialAlgebra):
    """(dim Der, dim InnDer) from the generator-value parametrization: the
    number of unknowns less the rank of the derivation equations, whose
    terms are summed into sparse rows, and the rank of the commutators."""
    f, n = A.field, A.dim
    add, is_zero = f.add, f.is_zero
    table = product_table(A)
    equations = []
    for terms in _derivation_system(A, table):
        rows: dict = {}  # basis index of the product: {unknown: coeff}
        for offset, c, walk in terms:
            for qi, r in walk:
                u = offset + qi
                row = rows.get(r)
                if row is None:
                    rows[r] = {u: c}
                elif u not in row:
                    row[u] = c
                else:
                    s = add(row[u], c)
                    if is_zero(s):
                        del row[u]
                    else:
                        row[u] = s
        equations.extend(rows.values())
    return len(table.gens) * n - rank(f, equations), rank(f, _commutators(A, table))


def oracle_hh1_dim(A: MonomialAlgebra) -> int:
    """Derivations modulo inner derivations."""
    der, inner = derivation_dims(A)
    return der - inner
