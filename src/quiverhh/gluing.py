"""Gluing two arrows of a monomial algebra into a subalgebra.

Identifying arrows ``alpha: e1 -> e2`` and ``beta: e3 -> e4`` (all four
endpoints distinct) merges e1 with e3 and e2 with e4 and produces a
monomial subalgebra presented on the merged quiver.  The new relations
are exactly the newly composable words of length two through a merged
vertex and of length three through the merged arrow, in both directions.
The construction also carries the induced linear maps between the
parallel-pair spaces of the two algebras and the subspaces controlling
how kernels and images of the two complexes differ.  The labels of B that
the transport maps miss are held once per gluing (``missed0``,
``missed1``); Z_sp, Z_spp and Z_nsp are read off them as plain subspaces.
The crucial paths are enumerated directly.  Per-algebra data, the HH¹ Lie
presentation included, lives on the pair complexes of ``complex_data``;
``psi1_rows`` and their bracket table ``psi1_brackets``, which reads pairs
of rows of B's kernel off B's ``ker1_brackets``, live on the gluing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import MonomialAlgebra, build
from .errors import GluingError, ParseError, QuiverHHError
from .fileformat import tokens
from .linalg import LinearMap, Subspace, member, restricted_kernel, span, subspace_sum
from .oracles import oracle_center, oracle_hh1_dim
from .quiver import Path, Quiver, is_sink_arrow, is_source_arrow
from .paircomplex import complex_data


def _unique_name(base: str, taken: set) -> str:
    name = base
    while name in taken:
        name += "*"
    taken.add(name)
    return name


def _invariant(cond: bool, message: str, *args):
    """Raise unless ``cond``.  ``message`` is formatted with ``args`` only
    on failure, so a check inside a loop over paths formats no repr."""
    if not cond:
        raise QuiverHHError("gluing invariant violated: " + message.format(*args))


@dataclass(frozen=True)
class GluingSpec:
    alpha: int
    beta: int


class GluedAlgebra:
    """Result of gluing arrows ``alpha`` and ``beta`` of ``A``.

    Everything derived from the gluing (transport maps, the labels of B
    they miss, the subspaces Z_sp, Z_spp and Z_nsp read off those labels,
    transported kernels and images, oracle dimensions) is a lazily
    computed attribute, built at most once and shared by every checker;
    each algebra's HH¹ Lie presentation is held by its pair complex.
    """

    def __init__(self, A, alpha, beta, B, vertex_map, arrow_map, gamma, z_new):
        self.A: MonomialAlgebra = A
        self.alpha: int = alpha
        self.beta: int = beta
        self.B: MonomialAlgebra = B
        self.vertex_map: tuple = vertex_map
        self.arrow_map: tuple = arrow_map
        self.gamma: int = gamma
        self.z_new: tuple = z_new

    # -- path and pair transport ----------------------------------------------

    def map_path(self, p: Path) -> Path:
        word = tuple(self.arrow_map[a] for a in p.arrows)
        return Path(self.vertex_map[p.source], self.vertex_map[p.target], word)

    @cached_property
    def path_image(self) -> dict:
        return {p: self.map_path(p) for p in self.A.basis}

    @cached_property
    def fibers(self) -> dict:
        """Basis paths of A over each basis path of B, in basis order."""
        out: dict = {}
        for p, q in self.path_image.items():
            out.setdefault(q, []).append(p)
        return out

    @cached_property
    def endpoints(self) -> tuple:
        QA = self.A.quiver
        return (
            QA.source(self.alpha),
            QA.target(self.alpha),
            QA.source(self.beta),
            QA.target(self.beta),
        )

    @cached_property
    def complexes(self) -> tuple:
        return complex_data(self.A), complex_data(self.B)

    def gamma_pair_vector(self) -> dict:
        """The merged arrow's diagonal pair as a degree-one vector of B."""
        return {self.complexes[1].diagonal(self.gamma): self.B.field.one}

    @cached_property
    def gamma_outside_im0(self) -> bool:
        """Whether the merged arrow's diagonal pair lies outside the degree-zero image of B."""
        return not member(self.B.field, self.complexes[1].im0, self.gamma_pair_vector())

    # -- induced linear maps ----------------------------------------------------

    @cached_property
    def relation_image_index(self) -> dict:
        """Index in B's relation list of each transported A-relation."""
        out = {}
        b_index = {r.arrows: i for i, r in enumerate(self.B.relations)}
        for ri, r in enumerate(self.A.relations):
            image = self.map_path(r)
            _invariant(
                image.arrows in b_index,
                "transported relation missing from the glued relation set",
            )
            out[ri] = b_index[image.arrows]
        return out

    def _psi(self, src_basis, dst_basis, left_map) -> LinearMap:
        f = self.B.field
        cols = []
        for left, p in src_basis.labels:
            lab = (left_map(left), self.path_image[p])
            cols.append({dst_basis.index[lab]: f.one})
        return LinearMap(src_basis, dst_basis, tuple(cols))

    @cached_property
    def psi0(self) -> LinearMap:
        CA, CB = self.complexes
        return self._psi(CA.basis0, CB.basis0, lambda v: self.vertex_map[v])

    @cached_property
    def psi1(self) -> LinearMap:
        CA, CB = self.complexes
        return self._psi(CA.basis1, CB.basis1, lambda a: self.arrow_map[a])

    @cached_property
    def psi2(self) -> LinearMap:
        CA, CB = self.complexes
        return self._psi(CA.basisZ, CB.basisZ, lambda ri: self.relation_image_index[ri])

    def psi_subspace(self, m: LinearMap, sub: Subspace) -> Subspace:
        f = self.B.field
        return span(f, m.codomain, [m.apply(f, v) for v in sub.row_vectors()])

    # -- gluing kind -------------------------------------------------------------

    @cached_property
    def source_sink(self) -> bool:
        QA = self.A.quiver
        return is_source_arrow(QA, self.alpha) and is_sink_arrow(QA, self.beta)

    @cached_property
    def same_block(self) -> bool:
        e1, _, e3, _ = self.endpoints
        return any(e1 in comp and e3 in comp for comp in self.A.quiver.components)

    @cached_property
    def components(self) -> tuple:
        return len(self.A.quiver.components), len(self.B.quiver.components)

    # -- derived subspaces and invariants ---------------------------------------

    @cached_property
    def missed0(self) -> list:
        """Degree-zero labels of B outside the image of psi0, ascending."""
        return _missed(self.psi0)

    @cached_property
    def missed1(self) -> list:
        """Degree-one labels of B outside the image of psi1, ascending."""
        return _missed(self.psi1)

    @cached_property
    def z_sp(self) -> Subspace:
        return special_paths(self)

    @cached_property
    def z_spp(self) -> Subspace:
        return special_pairs(self)

    @cached_property
    def z_nsp(self) -> Subspace:
        return nsp_data(self)

    @cached_property
    def assumption(self):
        """None, or the (loop, power) witness of a violated loop-power hypothesis."""
        return assumption_holds(self)

    @cached_property
    def im0_gamma(self) -> Subspace:
        """The degree-zero image of B plus the merged arrow's diagonal pair."""
        f, CB = self.B.field, self.complexes[1]
        return subspace_sum(f, CB.im0, span(f, CB.basis1, [self.gamma_pair_vector()]))

    @cached_property
    def psi1_im0(self) -> Subspace:
        return self.psi_subspace(self.psi1, self.complexes[0].im0)

    @cached_property
    def psi1_rows(self) -> list:
        """ψ¹ of the rows of A's ker δ¹, in row order."""
        f = self.B.field
        return [self.psi1.apply(f, r) for r in self.complexes[0].ker1.row_vectors()]

    @cached_property
    def psi1_brackets(self) -> dict:
        """The bracket table of ``psi1_rows`` in B, after B's ``ker1_brackets``:
        a pair of images that are rows of ker δ¹_B is read off that."""
        CB = self.complexes[1]
        CB.ker1_brackets
        return CB.brackets(self.psi1_rows)

    @cached_property
    def psi1_ker1(self) -> Subspace:
        return span(self.B.field, self.psi1.codomain, self.psi1_rows)

    @cached_property
    def ker0_positive(self) -> tuple:
        """Degree-zero kernels on cycles of length >= 1, of A and of B: the
        rows of HH⁰ with no trivial-pair pivot, as δ⁰ sends those pairs and
        the longer cycles to disjoint labels."""
        return tuple(
            Subspace(C.basis0, tuple(r for r in C.hh0.rows if r[0][0] not in C.unit))
            for C in self.complexes
        )

    @cached_property
    def psi0_ker0_positive(self) -> Subspace:
        return self.psi_subspace(self.psi0, self.ker0_positive[0])

    @cached_property
    def oracle_hh1_dims(self) -> tuple:
        return oracle_hh1_dim(self.A), oracle_hh1_dim(self.B)

    @cached_property
    def oracle_center_dims(self) -> tuple:
        return oracle_center(self.A)[0], oracle_center(self.B)[0]


def glue(A: MonomialAlgebra, alpha: int, beta: int, gamma_name: str = "gamma*") -> GluedAlgebra:
    """Glue arrows ``alpha`` and ``beta`` of ``A`` into a subalgebra.

    Raises :class:`GluingError` when an arrow is a loop, the arrows agree,
    the four endpoint vertices are not pairwise distinct, or ``gamma_name``
    is not one token of the file format (:func:`fileformat.tokens`).  The
    merged vertices are named ``f1``/``f2`` and the merged arrow
    ``gamma_name``, each with ``*`` appended until it differs from every
    kept name; everything else keeps its name.
    """
    try:
        one_token = tokens(gamma_name) == [(gamma_name, 1)]
    except ParseError:
        one_token = False
    if not one_token:
        raise GluingError(
            f"merged arrow name must be one token of the file format, got {gamma_name!r}"
        )
    QA = A.quiver
    if alpha == beta:
        raise GluingError("cannot glue an arrow with itself")
    e1, e2 = QA.source(alpha), QA.target(alpha)
    e3, e4 = QA.source(beta), QA.target(beta)
    for a in (alpha, beta):
        if QA.source(a) == QA.target(a):
            raise GluingError(f"arrow {QA.arrow_name(a)} is a loop; gluing is undefined for loops")
    if len({e1, e2, e3, e4}) != 4:
        raise GluingError(
            "the four endpoint vertices must be pairwise distinct; "
            f"got {[QA.vertex_names[v] for v in (e1, e2, e3, e4)]}"
        )

    # Merged quiver: keep A's vertex order, dropping the two merged-away
    # vertices; keep A's arrow order, dropping beta.
    vertex_map = [0] * QA.num_vertices
    new_names: list = []
    taken = {name for v, name in enumerate(QA.vertex_names) if v not in (e1, e2, e3, e4)}
    merged_names = {e1: _unique_name("f1", taken), e2: _unique_name("f2", taken)}
    for v in range(QA.num_vertices):
        if v in (e3, e4):
            continue
        vertex_map[v] = len(new_names)
        new_names.append(merged_names.get(v, QA.vertex_names[v]))
    vertex_map[e3] = vertex_map[e1]
    vertex_map[e4] = vertex_map[e2]

    arrow_map = [0] * QA.num_arrows
    new_arrows: list = []
    taken_arrows = {arr[0] for a, arr in enumerate(QA.arrows) if a not in (alpha, beta)}
    gamma = -1
    for a in range(QA.num_arrows):
        if a == beta:
            continue
        if a == alpha:
            name = _unique_name(gamma_name, taken_arrows)
            gamma = len(new_arrows)
        else:
            name = QA.arrow_name(a)
        arrow_map[a] = len(new_arrows)
        new_arrows.append((name, vertex_map[QA.source(a)], vertex_map[QA.target(a)]))
    arrow_map[beta] = gamma
    QB = Quiver(tuple(new_names), tuple(new_arrows))

    # Newly formed words of length 2 through a merged vertex and of
    # length 3 through the merged arrow, in both directions.
    def new_words(into_merged, out_merged, out_excl, into_other, into_excl, out_far):
        words = []
        for eta in into_merged:
            for lam in out_merged:
                if lam == out_excl:
                    continue
                words.append((eta, lam))
        for mu in into_other:
            if mu == into_excl:
                continue
            for xi in out_far:
                words.append((mu, xi))
        for eta in into_merged:
            for xi in out_far:
                words.append((eta, alpha, xi))
        return words

    QA_from, QA_into = QA.arrows_from, QA.arrows_into
    raw = new_words(QA_into[e1], QA_from[e3], beta, QA_into[e2], alpha, QA_from[e4])
    raw += new_words(QA_into[e3], QA_from[e1], alpha, QA_into[e4], beta, QA_from[e2])
    z_new = sorted({QB.path(arrow_map[a] for a in word) for word in raw}, key=Path.sort_key)

    transported = []
    for r in A.relations:
        word = tuple(arrow_map[a] for a in r.arrows)
        transported.append(QB.path(word))
    B = build(QB, transported + z_new, A.field, minimalize=True)

    g = GluedAlgebra(A, alpha, beta, B, tuple(vertex_map), tuple(arrow_map), gamma, tuple(z_new))

    _invariant(B.dim == A.dim - 3, "dim B = {} but dim A - 3 = {}", B.dim, A.dim - 3)
    for q in g.fibers:
        _invariant(B.in_basis(q), "image of a basis path is not relation-free: {}", q)
    _invariant(len(g.fibers) == B.dim, "induced path map is not surjective")
    for q, pre in g.fibers.items():
        # Fibers of size two occur exactly at the merged arrow and vertices.
        doubled = q.arrows == (gamma,) or (
            q.length == 0 and q.source in (vertex_map[e1], vertex_map[e2])
        )
        expected = 2 if doubled else 1
        _invariant(
            len(pre) == expected, "fiber of {} has size {}, expected {}", q, len(pre), expected
        )
    long_a = sum(1 for p in A.basis if p.length >= 2)
    long_b = sum(1 for q in B.basis if q.length >= 2)
    _invariant(long_a == long_b, "gluing must preserve the span of length->=2 basis paths")
    return g


# -- the pairs the transport misses --------------------------------------------


def _missed(m: LinearMap) -> list:
    """Codomain indices that no column of ``m`` touches, ascending."""
    hit = set()
    for col in m.columns:
        hit.update(col)
    return [i for i in range(len(m.codomain)) if i not in hit]


def special_paths(g: GluedAlgebra) -> Subspace:
    """Z_sp: the image under delta0 of B of the vertex/cycle pairs that
    ``psi0`` misses.  The special paths are the preimages of those cycles
    whose pair delta0 does not send to zero."""
    CB = g.complexes[1]
    return span(g.B.field, CB.basis1, [CB.delta0.columns[i] for i in g.missed0])


def crucial_paths(g: GluedAlgebra) -> tuple:
    """Basis paths p from t(alpha) to s(beta) with beta.p.alpha relation-free.

    Only ``ker_delta1_structure`` reads them, on source-sink gluings.
    """
    A = g.A
    e1, e2, e3, e4 = g.endpoints
    return tuple(
        p
        for p in A.paths_between[(e2, e3)]
        if A.in_basis(Path(e1, e4, (g.alpha,) + p.arrows + (g.beta,)))
    )


def special_pairs(g: GluedAlgebra) -> Subspace:
    """Z_spp: the part of ker delta1 of B spanned by the arrow/path pairs
    that ``psi1`` misses, the special pairs.

    Every preimage of a special pair is a non-parallel pair of A, since a
    parallel one would map onto it.  A loop l at a glued vertex v with
    partner u gives the non-parallel pair (l, e_u), but its label
    (l*, e_f) is the image of (l, e_v), so it is not a special pair; on a
    cocycle of B that coordinate times the power m of l's relation equals
    the one at (l*^m, l*^(m-1)), so it vanishes when the characteristic
    does not divide m.
    """
    return restricted_kernel(g.B.field, g.complexes[1].delta1, g.missed1)


def nsp_data(g: GluedAlgebra) -> Subspace:
    """Z_nsp: the part of ker delta0 of B spanned by the vertex/cycle pairs
    that ``psi0`` misses; it controls the center."""
    return restricted_kernel(g.B.field, g.complexes[1].delta0, g.missed0)


def assumption_holds(g: GluedAlgebra):
    """Characteristic condition on loop powers at the four glued vertices.

    Returns None when it holds, else the witness (loop arrow id, power)
    for the first loop at a glued endpoint whose unique pure-power
    relation length is divisible by the characteristic.
    """
    A = g.A
    QA = A.quiver
    f = A.field
    for v in g.endpoints:
        for a in QA.arrows_from[v]:
            if QA.target(a) != v:
                continue
            m = next((r.length for r in A.relations if set(r.arrows) == {a}), None)
            _invariant(m is not None, "loop without a pure power relation in a finite-dimensional algebra")
            if f.divides_char(m):
                return a, m
    return None
