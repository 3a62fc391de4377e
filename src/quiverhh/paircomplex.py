"""Parallel-pair cochain complex computing HH0 and HH1 of a monomial algebra.

The truncated complex lives on three labeled bases: vertex/basis-path
pairs, arrow/basis-path pairs and relation/basis-path pairs (each pair
parallel).  The degree-zero differential moves a cycle pair across
incident arrows; the degree-one differential substitutes an arrow by a
parallel path inside every relation.  HH0 is the kernel in degree zero,
HH1 the kernel modulo image in degree one, and the degree-one bracket of
two arrow pairs substitutes each into the other.

The bracket [(a, γ), (b, ε)] substitutes γ for a in ε and ε for b in γ,
so it vanishes unless a occurs in ε or b occurs in γ.  The one pair loop,
:meth:`PairComplex.brackets`, brackets only the pairs ``interacting_pairs``
keeps, and reads pairs of kernel rows off ``ker1_brackets``.  ``lie``
restricts that table to the HH¹ representatives (rows too) by
:func:`restrict_table` and projects each bracket to HH¹ classes; most
brackets are one-entry vectors at the pivot of a one-entry kernel row,
whose class ``QuotientView.project`` reads off a table without a
reduction (1604 of 1676 on the F5 fans 12 and 4).  ``lie_center_dim``
eliminates the nonzero matrix rows of the presentation.

Both differentials and the bracket are assembled by index arithmetic on
the pair labels.  A product or substitution of paths parallel to an arrow
(or a relation) is a basis path iff its pair is a label, so one lookup of
the pair key in the label index both tests for zero and finds the row.
δ¹ visits, for a column ``(a, γ)``, only the occurrences of ``a`` in the
relations, read off a table built once per complex; the bracket only
those of ``a`` in ε and of ``b`` in γ, probing the index with plain
``(source, target, arrows)`` tuples, which equal and hash as the ``Path``
labels do.  The image of δ⁰, the kernel of δ¹
and the complex property are computed on construction; ker δ⁰, the
bracket table and the Lie presentation are computed on their first read.
``unit`` and ``diagonal`` index the pairs (v, e_v) and (a, a), which δ⁰ maps between.
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
    rank,
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

    @cached_property
    def unit(self) -> tuple:
        """The index of each vertex's trivial pair ``(v, e_v)``, by vertex."""
        return tuple(i for i, (_, p) in enumerate(self.basis0.labels) if not p.arrows)

    def diagonal(self, a: int) -> int:
        """The index of the diagonal pair ``(a, a)`` of arrow ``a``."""
        return self.basis1.index[(a, self.A.quiver.arrow_path(a))]

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
        f = self.field
        labels = self.basis1.labels
        idx = self.basis1.index
        out: dict = {}
        for i, ci in x.items():
            a, (gs, gt, g) = labels[i]
            for j, cj in y.items():
                b, (es, et, e) = labels[j]
                if a in e:
                    c = f.mul(ci, cj)
                    for n, arr in enumerate(e):
                        if arr == a:
                            k = idx.get((b, (es, et, e[:n] + g + e[n + 1 :])))
                            if k is not None:
                                accumulate(f, out, k, c)
                if b in g:
                    c = f.neg(f.mul(ci, cj))
                    for n, arr in enumerate(g):
                        if arr == b:
                            k = idx.get((a, (gs, gt, g[:n] + e + g[n + 1 :])))
                            if k is not None:
                                accumulate(f, out, k, c)
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

    def brackets(self, vectors) -> dict:
        """``{(i, j): [v_i, v_j]}`` for ``i < j``, ascending and without empty
        values, over the pairs :meth:`interacting_pairs` keeps; a built
        ``ker1_brackets`` gives those of rows (item for item) in row order."""
        table = self.__dict__.get("ker1_brackets")  # None while it is built
        at = self._ker1_row_at if table else {}
        pos = [at.get(tuple(v.items()), -1) if at else -1 for v in vectors]
        out = {}
        for i, j in self.interacting_pairs(vectors):
            p, q = pos[i], pos[j]  # -1 off the kernel rows
            v = table.get((p, q)) if 0 <= p < q else self.bracket(vectors[i], vectors[j])
            if v:
                out[i, j] = v
        return out

    @cached_property
    def ker1_brackets(self) -> dict:
        """The bracket table of the rows of ker δ¹, built on first read."""
        return self.brackets(self.ker1.row_vectors())

    @cached_property
    def _ker1_row_at(self) -> dict:
        return {row: n for n, row in enumerate(self.ker1.rows)}

    # -- cohomology --------------------------------------------------------------

    @cached_property
    def hh0(self) -> Subspace:
        """HH⁰ = ker δ⁰, eliminated on first read: many callers never need it."""
        return kernel(self.field, self.delta0)

    @cached_property
    def lie(self) -> LieAlgebraPresentation:
        """HH¹ structure constants on the deterministic representatives."""
        view = self.hh1_view
        reps = view.rep_indices
        terms = restrict_table(self.ker1_brackets, reps, view.project)
        labels = tuple(pair_str(self.A, self.basis1.labels[self.ker1.pivots[i]], "1") for i in reps)
        return LieAlgebraPresentation(view.dim, labels, terms, self.field)


def restrict_table(table: dict, positions, reduce) -> dict:
    """``{(m, n): reduce(table[p_m, p_n])}`` over the ascending ``positions``
    p, ascending and without empty values; ``reduce`` is linear."""
    at = {p: m for m, p in enumerate(positions)}
    kept = ((at[i], at[j], reduce(v)) for (i, j), v in table.items() if i in at and j in at)
    return {(m, n): v for m, n, v in kept if v}


@lru_cache(maxsize=2)
def complex_data(A: MonomialAlgebra) -> PairComplex:
    """The pair complex of ``A``, cached for the gluing in use.

    Every flow reads at most one gluing's A and B, so two entries serve it.
    A deeper cache keeps dead complexes and their tables alive, and the
    garbage collector pays for them on every later gluing.
    """
    return PairComplex(A)


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants of the degree-one cohomology Lie algebra, sparse.

    ``terms`` maps each pair ``i < j`` with a nonzero bracket to the
    coordinates ``{k: c}`` of ``[x_i, x_j] = sum c x_k``, ascending in k and
    with no zero coefficient; a pair that is absent brackets to zero.
    """

    dim: int
    basis_labels: tuple
    terms: dict  # (i, j) with i < j -> {k: c}
    field: FieldSpec

    @cached_property
    def constants(self) -> dict:
        """Dense view: every pair ``i < j`` -> its coefficient tuple of length dim."""
        zero = self.field.zero
        out = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coords = [zero] * self.dim
                for k, c in self.terms.get((i, j), {}).items():
                    coords[k] = c
                out[(i, j)] = tuple(coords)
        return out

    def is_abelian(self) -> bool:
        return not self.terms

    def check_jacobi(self) -> bool:
        """True iff [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j] = 0.

        The bracket is antisymmetric by construction, so this Jacobiator
        is alternating and the triples i < j < k decide it; each term
        multiplies only nonzero structure constants.
        """
        f = self.field
        d = self.dim
        nonzero = {}
        for (i, j), v in self.terms.items():
            nonzero[(i, j)] = tuple(v.items())
            nonzero[(j, i)] = tuple((k, f.neg(c)) for k, c in v.items())
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
    """Dimension of the center of the presented Lie algebra: the nullity of
    x -> ([x, x_k])_k, with one row per (k, m) that has a nonzero
    coefficient of x_m in some [x_i, x_k]."""
    f = pres.field
    rows: dict = {}  # (k, m) -> {i: coefficient of x_m in [x_i, x_k]}
    for (i, k), terms in pres.terms.items():
        for m, c in terms.items():
            rows.setdefault((k, m), {})[i] = c
            rows.setdefault((i, m), {})[k] = f.neg(c)
    return pres.dim - rank(f, list(rows.values()))


def hh1_lie(A: MonomialAlgebra) -> LieAlgebraPresentation:
    """The HH¹ Lie presentation of ``A``, held by its pair complex."""
    return complex_data(A).lie


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
    unit, rem = reduce_against(f, C.hh0, dict.fromkeys(C.unit, f.one))
    if rem:
        raise ShapeError("identity element is not central; this is a bug")
    labels = tuple(pair_str(A, labels0[p], "0") for p in C.hh0.pivots)
    return CenterTable(d, table, dense(unit), labels)
