"""Higher cohomology dimensions of radical-square-zero algebras by counting.

For a connected quiver that is not a crown, the degree-n dimension is the
number of (length-n path, arrow) parallel pairs minus the number of
(length-(n-1) path, vertex) parallel pairs; both counts come from powers
of the adjacency matrix in exact integer arithmetic.  Crowns fall outside
the formula and are reported as a typed unsupported status instead of a
number.  :func:`check_high_degree_gluing` compares degrees 2 to 6 across
a gluing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .algebra import MonomialAlgebra
from .errors import QuiverHHError
from .gluing import GluedAlgebra
from .quiver import Quiver, crown_order


def _product(x: list, y: list) -> list:
    size = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def parallel_counts(Q: Quiver, start: int = 1):
    """Yield (|paths of length n parallel to an arrow|, |cycles of length n-1|)
    for n = start, start + 1, ...

    Entry (i, j) of the k-th power of the adjacency matrix counts length-k
    paths from vertex j to vertex i.  The (start-1)-th power is reached by
    repeated squaring; each later step multiplies the last power by the
    adjacency matrix once.
    """
    size = Q.num_vertices
    adj = [[0] * size for _ in range(size)]
    for a in range(Q.num_arrows):
        adj[Q.target(a)][Q.source(a)] += 1
    mprev = [[int(i == j) for j in range(size)] for i in range(size)]
    square, k = adj, start - 1
    while k:
        if k & 1:
            mprev = _product(mprev, square)
        k >>= 1
        if k:
            square = _product(square, square)
    while True:
        mn = _product(mprev, adj)
        with_arrows = sum(mn[Q.target(a)][Q.source(a)] for a in range(Q.num_arrows))
        yield with_arrows, sum(mprev[i][i] for i in range(size))
        mprev = mn


@dataclass(frozen=True)
class CrownUnsupported:
    """Status value: crown quivers are outside the counting formula."""

    order: int

    def __str__(self):
        return f"unsupported: {self.order}-crown quiver (counting formula needs a non-crown)"


def hh_dims_high(A: MonomialAlgebra, start: int = 2):
    """Iterator over the cohomology dimensions in degrees start, start + 1,
    ... (start >= 2) of connected radical-square-zero input.

    Degrees 0 and 1 belong to the pair complex; a crown yields its
    :class:`CrownUnsupported` status in every degree.  The input is
    validated before the iterator is returned.
    """
    if start < 2:
        raise ValueError("use the pair complex for degrees 0 and 1")
    if not A.is_radical_square_zero():
        raise QuiverHHError("counting formula requires a radical-square-zero algebra")
    if len(A.quiver.components) != 1:
        raise QuiverHHError("counting formula requires a connected quiver")
    order = crown_order(A.quiver)
    if order is not None:
        return repeat(CrownUnsupported(order))
    counts = parallel_counts(A.quiver, start)
    return (with_arrows - cycles for with_arrows, cycles in counts)


def hh_dim_high(A: MonomialAlgebra, n: int):
    """Degree-n entry of :func:`hh_dims_high`."""
    return next(hh_dims_high(A, n))


def check_high_degree_gluing(g: GluedAlgebra) -> list:
    """One ``(dim_a, dim_b, monotone)`` triple per degree 2 to 6, each side
    read off one :func:`hh_dims_high` iterator, across a gluing of a
    connected radical-square-zero algebra A whose quiver is not a crown:
    the glued dimension ``dim_b`` (a number or a :class:`CrownUnsupported`)
    must not fall below the source one.

    Unmet preconditions raise :class:`QuiverHHError`; the ``high_degrees``
    check declares them as hypotheses instead.  The map the gluing induces
    on (length-n path, arrow) parallel pairs is injective for n >= 2, so
    it needs no test.  Only alpha and beta share an image.  Where two
    paths first differ, one takes alpha and the other beta; the next
    arrows start at e2 != e4, so they are neither alpha nor beta and their
    images differ.  With no next arrow the paths end at e2 and e4, so
    their pair arrows are alpha and beta, starting at e1 != e3, which an
    earlier shared arrow forbids.  Equal paths with distinct arrows are
    parallel to alpha and beta at once, again forbidden by e1 != e3.
    """
    dims_a = hh_dims_high(g.A)
    if crown_order(g.A.quiver) is not None:
        raise QuiverHHError("higher-degree comparison requires a source quiver that is not a crown")
    # The glued quiver is a crown only when the source is an oriented line, a
    # tree with no cycle and no path of length >= 2 parallel to an arrow, so
    # the source dimension vanishes: the inequality holds whatever B's is.
    return [
        (a, b, a == 0 if isinstance(b, CrownUnsupported) else b >= a)
        for _, a, b in zip(range(2, 7), dims_a, hh_dims_high(g.B))
    ]
