"""Parallel-pair cochain complex computing HH0 and HH1 of a monomial algebra.

The truncated complex lives on three labeled bases: vertex/basis-path
pairs, arrow/basis-path pairs and relation/basis-path pairs (each pair
parallel).  The degree-zero differential moves a cycle pair across
incident arrows; the degree-one differential substitutes an arrow by a
parallel path inside every relation.  HH0 is the kernel in degree zero,
HH1 the kernel modulo image in degree one, and the degree-one bracket of
two arrow pairs substitutes each into the other.

The bracket [(a, γ), (b, ε)] substitutes γ for a in ε and ε for b in γ,
so it vanishes unless a occurs in ε or b occurs in γ.  Every pairwise
bracket loop (``hh1_lie`` here; the bracket checks of ``checks``) visits
only the pairs :meth:`PairComplex.interacting_pairs` keeps, and
``lie_center_dim`` eliminates only the nonzero rows of its matrix.

Both differentials are assembled by index arithmetic on the pair labels.
A product or substitution of paths parallel to an arrow (or a relation)
is a basis path iff its pair is a label, so one lookup of the pair key in
the label index both tests for zero and finds the row.  The degree-one
differential visits, for a column ``(a, γ)``, only the occurrences of
``a`` in the relations, read off a table built once per complex.  The
image of δ⁰, the kernel of δ¹ and the complex property are computed on
construction; ker δ⁰ is eliminated on its first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import MonomialAlgebra
from .errors import ShapeError
from .fields import FieldSpec
from .linalg import (
    LabeledBasis,
    LinearMap,
    QuotientView,
    Subspace,
    accumulate,
    image,
    kernel,
    null_space,
    reduce_against,
)
from .quiver import Path, path_str


def pair_str(A: MonomialAlgebra, label, kind: str) -> str:
    """Render a parallel pair as ``left || right`` with right-to-left paths.

    ``kind`` resolves the left id: "0" vertex, "1" arrow.
    """
    left, p = label
    lhs = A.quiver.vertex_names[left] if kind == "0" else A.quiver.arrow_name(left)
    return f"{lhs} || {path_str(A.quiver, p)}"


def substitute(A: MonomialAlgebra, target: Path, a: int, gamma: Path) -> list:
    """All basis paths obtained by replacing one occurrence of arrow ``a``
    in ``target`` by the parallel path ``gamma`` (with multiplicity)."""
    out = []
    word = target.arrows
    for i, arr in enumerate(word):
        if arr != a:
            continue
        p = Path(target.source, target.target, word[:i] + gamma.arrows + word[i + 1 :])
        if A.in_basis(p):
            out.append(p)
    return out


class PairComplex:
    """Matrices and canonical subspaces of the truncated complex of ``A``."""

    def __init__(self, A: MonomialAlgebra):
        self.A = A
        self.field: FieldSpec = A.field
        Q = A.quiver
        between = A.paths_between
        self.basis0 = LabeledBasis(
            tuple((v, p) for v in range(Q.num_vertices) for p in between[(v, v)])
        )
        self.basis1 = LabeledBasis(
            tuple(
                (a, p)
                for a in range(Q.num_arrows)
                for p in between[(Q.source(a), Q.target(a))]
            )
        )
        self.basisZ = LabeledBasis(
            tuple(
                (ri, p)
                for ri, r in enumerate(A.relations)
                for p in between[(r.source, r.target)]
            )
        )

        self.delta0 = self._build_delta0()
        self.delta1 = self._build_delta1()

        self.im0: Subspace = image(self.field, self.delta0)
        self.ker1: Subspace = kernel(self.field, self.delta1)
        # Raises if the image is not inside the kernel: the complex property
        # is checked on every construction.
        self.hh1_view = QuotientView(self.field, self.ker1, self.im0)

    # -- differentials -------------------------------------------------------

    def _build_delta0(self) -> LinearMap:
        """Column of a cycle ``p`` at ``v``: +1 at ``(a, a·p)`` for each arrow
        ``a`` out of ``v`` and -1 at ``(a, p·a)`` for each arrow into ``v``,
        wherever that pair is a label (the product is a basis path)."""
        Q, f = self.A.quiver, self.field
        idx1 = self.basis1.index
        one, minus_one = f.one, f.neg(f.one)
        cols = []
        for v, p in self.basis0.labels:
            col: dict = {}
            for a in Q.arrows_from[v]:
                k = idx1.get((a, Path(v, Q.target(a), p.arrows + (a,))))
                if k is not None:
                    col[k] = one
            for a in Q.arrows_into[v]:
                k = idx1.get((a, Path(Q.source(a), v, (a,) + p.arrows)))
                # a loop with a·p = p·a: the two terms cancel, also over F2
                if k is not None and col.pop(k, None) is None:
                    col[k] = minus_one
            cols.append(col)
        return LinearMap(self.basis0, self.basis1, tuple(cols))

    def _build_delta1(self) -> LinearMap:
        """Column of ``(a, γ)``: +1 at ``(r, q)`` for each occurrence of ``a``
        in a relation ``r`` that ``γ`` turns into the basis path ``q``.  Equal
        hits add up and may cancel; ``γ = a`` gives back ``r``, never a basis path."""
        A, f = self.A, self.field
        idxZ = self.basisZ.index
        one = f.one
        occurrences: dict = {}  # arrow -> (relation index, source, target, before, after)
        for ri, r in enumerate(A.relations):
            w = r.arrows
            for i, a in enumerate(w):
                occurrences.setdefault(a, []).append((ri, r.source, r.target, w[:i], w[i + 1 :]))
        cols = []
        for a, gamma in self.basis1.labels:
            col: dict = {}
            g = gamma.arrows
            if g != (a,):
                for ri, s, t, before, after in occurrences.get(a, ()):
                    k = idxZ.get((ri, Path(s, t, before + g + after)))
                    if k is not None:
                        accumulate(f, col, k, one)
            cols.append(col)
        return LinearMap(self.basis1, self.basisZ, tuple(cols))

    # -- bracket ---------------------------------------------------------------

    def bracket(self, x: dict, y: dict) -> dict:
        """Degree-one bracket, bilinear over arrow/path pair labels."""
        A, f = self.A, self.field
        labels = self.basis1.labels
        idx = self.basis1.index
        out: dict = {}
        for i, ci in x.items():
            a, gamma = labels[i]
            for j, cj in y.items():
                b, eps = labels[j]
                c = f.mul(ci, cj)
                for q in substitute(A, eps, a, gamma):
                    accumulate(f, out, idx[(b, q)], c)
                for q in substitute(A, gamma, b, eps):
                    accumulate(f, out, idx[(a, q)], f.neg(c))
        return out

    def interacting_pairs(self, vectors) -> list:
        """The sorted pairs ``i < j`` of degree-one ``vectors`` whose bracket
        can be nonzero: a left arrow of one occurs in a right-hand path of
        the other.  Every other pair brackets to ``{}``."""
        labels = self.basis1.labels
        through: dict = {}  # arrow -> vectors with a right-hand path through it
        for n, v in enumerate(vectors):
            for a in {a for k in v for a in labels[k][1].arrows}:
                through.setdefault(a, []).append(n)
        pairs = set()
        for i, v in enumerate(vectors):
            for a in {labels[k][0] for k in v}:
                for j in through.get(a, ()):
                    if i != j:
                        pairs.add((i, j) if i < j else (j, i))
        return sorted(pairs)

    # -- cohomology --------------------------------------------------------------

    @cached_property
    def hh0(self) -> Subspace:
        """HH⁰ = ker δ⁰, eliminated on first read: many callers never need it."""
        return kernel(self.field, self.delta0)


@lru_cache(maxsize=64)
def complex_data(A: MonomialAlgebra) -> PairComplex:
    return PairComplex(A)


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants of the degree-one cohomology Lie algebra, sparse.

    ``terms`` maps each pair ``i < j`` with a nonzero bracket to the
    ``(k, c)`` terms of ``[x_i, x_j] = sum c x_k``, ascending in k and with
    no zero coefficient; a pair that is absent brackets to zero.
    """

    dim: int
    basis_labels: tuple
    terms: dict  # (i, j) with i < j -> ((k, c), ...)
    field: FieldSpec

    def bracket_terms(self, i: int, j: int) -> tuple:
        """The ``(k, c)`` terms of ``[x_i, x_j]``, antisymmetric in i and j."""
        if i < j:
            return self.terms.get((i, j), ())
        neg = self.field.neg
        return tuple((k, neg(c)) for k, c in self.terms.get((j, i), ()))

    @cached_property
    def constants(self) -> dict:
        """Dense view: every pair ``i < j`` -> its coefficient tuple of length dim."""
        zero = self.field.zero
        out = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coords = [zero] * self.dim
                for k, c in self.terms.get((i, j), ()):
                    coords[k] = c
                out[(i, j)] = tuple(coords)
        return out

    def is_abelian(self) -> bool:
        return not self.terms

    def check_jacobi(self) -> bool:
        """True iff [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j] = 0.

        ``bracket_terms`` is antisymmetric by construction, so this
        Jacobiator is alternating and the triples i < j < k decide it; each
        term multiplies only nonzero structure constants.
        """
        f = self.field
        d = self.dim
        nonzero = {}
        for i, j in self.terms:
            nonzero[(i, j)] = self.bracket_terms(i, j)
            nonzero[(j, i)] = self.bracket_terms(j, i)
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    total: dict = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in nonzero.get((a, b), ()):
                            for m, y in nonzero.get((l, c), ()):
                                accumulate(f, total, m, f.mul(x, y))
                    if total:
                        return False
        return True


def lie_center_dim(pres: LieAlgebraPresentation) -> int:
    """Dimension of the center of the presented Lie algebra: the kernel of
    x -> ([x, x_k])_k, with one row per (k, m) that has a nonzero
    coefficient of x_m in some [x_i, x_k]."""
    f = pres.field
    rows: dict = {}  # (k, m) -> {i: coefficient of x_m in [x_i, x_k]}
    for (i, k), terms in pres.terms.items():
        for m, c in terms:
            rows.setdefault((k, m), {})[i] = c
            rows.setdefault((i, m), {})[k] = f.neg(c)
    return null_space(f, LabeledBasis(tuple(range(pres.dim))), list(rows.values())).dim


def hh1_lie(A: MonomialAlgebra) -> LieAlgebraPresentation:
    """Structure constants on the deterministic degree-one representatives."""
    C = complex_data(A)
    reps = C.hh1_view.representatives()
    terms = {}
    for i, j in C.interacting_pairs(reps):
        coords = C.hh1_view.project(C.bracket(reps[i], reps[j]))
        if coords:
            terms[(i, j)] = tuple(coords.items())
    pivots = [C.ker1.pivots[i] for i in C.hh1_view.rep_indices]
    labels = tuple(pair_str(A, C.basis1.labels[p], "1") for p in pivots)
    return LieAlgebraPresentation(len(reps), labels, terms, A.field)


@dataclass(frozen=True)
class CenterTable:
    """Commutative multiplication table on the degree-zero cohomology basis."""

    dim: int
    table: dict  # (i, j) -> coefficient tuple
    unit: tuple
    basis_labels: tuple


def central_mult(C: PairComplex, u: dict, v: dict) -> dict:
    """Product of two degree-zero pair vectors as central algebra elements.

    The pair (vertex, cycle) stands for the cycle itself; the product is
    expanded in the monomial basis and folded back into cycle pairs.
    """
    A, f = C.A, C.field
    labels0 = C.basis0.labels
    prod: dict = {}
    for i, cp in u.items():
        p = labels0[i][1]
        for j, cq in v.items():
            q = labels0[j][1]
            r = A.multiply(p, q)
            if r is None:
                continue
            accumulate(f, prod, r, f.mul(cp, cq))
    return {C.basis0.index[(r.source, r)]: c for r, c in prod.items()}


def center_product(A: MonomialAlgebra) -> CenterTable:
    """Multiplication table of the center in the canonical kernel basis.

    A kernel class corresponds to the central element obtained by summing
    the right-hand paths of its pairs; products are expanded in the
    monomial basis and rewritten in kernel coordinates.
    """
    C = complex_data(A)
    f = A.field
    rows = C.hh0.row_vectors()
    labels0 = C.basis0.labels
    table = {}
    d = C.hh0.dim

    def dense(coeffs: dict) -> tuple:
        return tuple(coeffs.get(k, f.zero) for k in range(d))

    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            coords, rem = reduce_against(f, C.hh0, central_mult(C, x, y))
            if rem:
                raise ShapeError("central product left the center; this is a bug")
            table[(i, j)] = dense(coords)
    unit_vec = {C.basis0.index[(v, A.quiver.trivial_path(v))]: f.one for v in range(A.quiver.num_vertices)}
    unit, rem = reduce_against(f, C.hh0, unit_vec)
    if rem:
        raise ShapeError("identity element is not central; this is a bug")
    labels = tuple(pair_str(A, labels0[p], "0") for p in C.hh0.pivots)
    return CenterTable(d, table, dense(unit), labels)
