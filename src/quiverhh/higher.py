"""Higher cohomology dimensions of radical-square-zero algebras by counting.

For a connected quiver that is not a crown, the degree-n dimension is the
number of (length-n path, arrow) parallel pairs minus the number of
(length-(n-1) path, vertex) parallel pairs; both counts come from powers
of the adjacency matrix in exact integer arithmetic.  Crowns fall outside
the formula and are reported as a typed unsupported status instead of a
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

from .algebra import MonomialAlgebra
from .errors import QuiverHHError
from .gluing import GluedAlgebra
from .quiver import Quiver, connected_components, crown_order

# Transport injectivity is left undecided (None) above this many enumerated paths.
_ENUMERATION_CAP = 20000


def parallel_counts(Q: Quiver):
    """Yield (|paths of length n parallel to an arrow|, |cycles of length n-1|)
    for n = 1, 2, ...

    Entry (i, j) of the k-th power of the adjacency matrix counts length-k
    paths from vertex j to vertex i; each step multiplies the last power
    by the adjacency matrix once.
    """
    size = Q.num_vertices
    adj = [[0] * size for _ in range(size)]
    for a in range(Q.num_arrows):
        adj[Q.target(a)][Q.source(a)] += 1
    mprev = [[int(i == j) for j in range(size)] for i in range(size)]
    while True:
        mn = [
            [sum(mprev[i][k] * adj[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        with_arrows = sum(mn[Q.target(a)][Q.source(a)] for a in range(Q.num_arrows))
        yield with_arrows, sum(mprev[i][i] for i in range(size))
        mprev = mn


@dataclass(frozen=True)
class CrownUnsupported:
    """Status value: crown quivers are outside the counting formula."""

    order: int

    def __str__(self):
        return f"unsupported: {self.order}-crown quiver (counting formula needs a non-crown)"


def hh_dims_high(A: MonomialAlgebra):
    """Iterator over the cohomology dimensions in degrees 2, 3, ... of
    connected radical-square-zero input.

    Degrees 0 and 1 belong to the pair complex; a crown yields its
    :class:`CrownUnsupported` status in every degree.  The input is
    validated before the iterator is returned.
    """
    if not A.is_radical_square_zero():
        raise QuiverHHError("counting formula requires a radical-square-zero algebra")
    if len(connected_components(A.quiver)) != 1:
        raise QuiverHHError("counting formula requires a connected quiver")
    order = crown_order(A.quiver)
    if order is not None:
        return repeat(CrownUnsupported(order))
    counts = islice(parallel_counts(A.quiver), 1, None)
    return (with_arrows - cycles for with_arrows, cycles in counts)


def hh_dim_high(A: MonomialAlgebra, n: int):
    """Degree-n entry of :func:`hh_dims_high`."""
    if n < 2:
        raise ValueError("use the pair complex for degrees 0 and 1")
    return next(islice(hh_dims_high(A), n - 2, None))


def _enumerate_paths(Q: Quiver, n: int, source: int, target: int):
    """All length-n arrow words from source to target (None when over the cap)."""
    words = [((), source)]
    for _ in range(n):
        nxt = []
        for word, at in words:
            for a in Q.arrows_from[at]:
                nxt.append((word + (a,), Q.target(a)))
                if len(nxt) > _ENUMERATION_CAP:
                    return None
        words = nxt
    return [w for w, at in words if at == target]


@dataclass(frozen=True)
class HighDegreeReport:
    applicable: bool
    reason: str
    degree: int
    dim_a: object = None  # int or CrownUnsupported
    dim_b: object = None
    difference: object = None
    monotone: object = None
    injective_transport: object = None  # bool or None when skipped

    @property
    def passed(self) -> bool:
        return bool(self.applicable and self.monotone and self.injective_transport is not False)


def check_high_degree_gluing(g: GluedAlgebra, n: int) -> HighDegreeReport:
    """Compare degree-n dimensions across one gluing of a connected
    radical-square-zero algebra, and check injectivity of the induced map
    on (length-n path, arrow) parallel pairs by explicit enumeration."""
    if n < 2:
        raise ValueError("higher-degree comparison starts at degree 2")
    A, B = g.A, g.B
    if not A.is_radical_square_zero():
        return HighDegreeReport(False, "algebra is not radical square zero", n)
    if len(connected_components(A.quiver)) != 1:
        return HighDegreeReport(False, "algebra is not indecomposable", n)

    if crown_order(A.quiver) is not None:
        return HighDegreeReport(False, "source quiver is a crown", n)
    dim_a = hh_dim_high(A, n)
    if crown_order(B.quiver) is not None:
        # The glued quiver is a crown only when the source is a straight
        # line, which is hereditary, so the source dimension vanishes and
        # the inequality holds whatever the crown's dimension is.
        dim_b = CrownUnsupported(crown_order(B.quiver))
        monotone = dim_a == 0
        diff = None
    else:
        dim_b = hh_dim_high(B, n)
        diff = dim_b - dim_a
        monotone = diff >= 0

    injective = _transport_injective(g, n)
    return HighDegreeReport(True, "", n, dim_a, dim_b, diff, monotone, injective)


def _transport_injective(g: GluedAlgebra, n: int):
    """Distinct (length-n path, arrow) pairs must stay distinct in the image."""
    QA = g.A.quiver
    seen = {}
    total = 0
    for a in range(QA.num_arrows):
        words = _enumerate_paths(QA, n, QA.source(a), QA.target(a))
        if words is None:
            return None
        total += len(words)
        if total > _ENUMERATION_CAP:
            return None
        for w in words:
            key = (tuple(g.arrow_map[x] for x in w), g.arrow_map[a])
            if key in seen and seen[key] != (w, a):
                return False
            seen[key] = (w, a)
    return True
