"""Differential tests: basis lookups against the relation scans they replaced.

Before a path was tested for zero by looking it up in the basis, ideal
membership scanned every relation for a contiguous occurrence in the path,
and the basis paths between two vertices were found by filtering the whole
basis.  Those forms are kept below unchanged apart from taking the algebra
or gluing as an argument: ``ref_in_ideal``, ``ref_multiply``,
``ref_substitute``, ``ref_is_node_arrow``, ``ref_path_set``, the three
label comprehensions of the pair complex (``ref_pair_labels``),
``ref_crucial_paths``, ``ref_special_pairs``, which scans the whole basis
for every arrow at a glued vertex, and ``ref_glued_pair_paths``, the paths
of A joining each glued vertex pair in basis order.  Two references are
built on the last: ``ref_special_paths`` keeps the paths whose degree-zero
image is nonzero and spans those images, and ``ref_nsp_data`` intersects
the span of their pairs with the degree-zero kernel.  The inputs are every
composable word up to two arrows longer than the longest basis path, so
words that are not basis paths are covered.  Two have changed since:
``ref_multiply`` concatenates the paths itself, as ``multiply`` does, and
``ref_crucial_paths`` lists the paths on every gluing, source-sink or not.

The differentials of the pair complex were built by calling ``multiply``
for every cycle and incident arrow, and ``substitute`` for every pair and
every relation, before they became lookups of pair keys driven by a table
of arrow occurrences: ``ref_delta0`` and ``ref_delta1`` keep those bodies
unchanged apart from taking the complex as an argument, and are compared
column for column on the corpus, on random instances and on both sides of
the 1000 gluings of the fuzz corpus.

The degree-one bracket called ``substitute`` for both of its terms, which
listed the basis paths by ``in_basis`` and then looked each pair up again,
before it too became a lookup of pair keys.  ``substitute`` is kept here,
compared with ``ref_substitute`` on every word, and ``ref_bracket`` is the
bracket built on it, unchanged apart from taking the complex as an
argument.  ``PairComplex.bracket`` must equal it on every interacting pair
of kernel rows and of HH^1 representatives, both ways round, on both sides
of every corpus gluing over every field, of ``fan(2..6)`` and of random
and source-sink gluings, and on random vectors with non-unit coefficients
over small algebras.

The program reads Z_sp, Z_spp and Z_nsp off the pairs of B outside the
image of the transport and keeps only those subspaces.  The earlier forms
also listed the special paths per glued vertex pair and the preimages in A
of the special pairs, inside three dataclasses: ``ref_missed_special_paths``,
``ref_missed_special_pairs`` and ``ref_missed_nsp_data`` keep those bodies
unchanged, with the dataclasses, and the gluing's subspaces must equal
their ``z_*`` fields on the corpus over every field, on random gluings and
on the 1000 gluings of the fuzz corpus.  Their listings are compared with
the scans: for degree zero the missed pairs are exactly the images of the
glued-pair paths.  In degree one the scan also lists (loop at a glued
vertex v, trivial path at v's partner), whose label the transport hits;
those are the only pairs it drops, and the kernel part is unchanged
wherever the loop-power hypothesis holds.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh.algebra import build
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from dataclasses import dataclass

from quiverhh.gluing import GluedAlgebra, crucial_paths, glue
from quiverhh.linalg import (
    LinearMap,
    Subspace,
    accumulate,
    contains_subspace,
    intersect,
    span,
)
from quiverhh.paircomplex import PairComplex
from quiverhh.quiver import Path, is_sink_arrow, is_source_arrow
from quiverhh.randomgen import (
    RandomSpec,
    instance_with_gluing,
    random_gluing,
    random_instance,
    source_sink_instance,
)
from test_linalg_reference import ref_restricted_kernel, representatives

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def parallel(p, q):
    """``p`` and ``q`` share source and target."""
    return p[:2] == q[:2]


def _is_subword(needle, haystack):
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def ref_word_in_ideal(A, word):
    return any(_is_subword(r.arrows, word) for r in A.relations)


def ref_in_ideal(A, p):
    """True iff some relation occurs as a contiguous subpath of ``p``."""
    return ref_word_in_ideal(A, p.arrows)


def ref_multiply(A, later, earlier):
    if later.source != earlier.target:
        return None
    prod = Path(earlier.source, later.target, earlier.arrows + later.arrows)
    return None if ref_in_ideal(A, prod) else prod


def ref_substitute(A, target, a, gamma):
    out = []
    word = target.arrows
    for i, arr in enumerate(word):
        if arr != a:
            continue
        new_word = word[:i] + gamma.arrows + word[i + 1 :]
        if ref_word_in_ideal(A, new_word):
            continue
        out.append(Path(target.source, target.target, new_word))
    return out


def substitute(A, target, a, gamma):
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


def ref_bracket(C, x, y):
    """Degree-one bracket of the pair complex ``C``, bilinear over arrow/path
    pair labels."""
    A, f = C.A, C.field
    labels = C.basis1.labels
    idx = C.basis1.index
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


def ref_is_node_arrow(A, a):
    Q = A.quiver
    if is_source_arrow(Q, a) or is_sink_arrow(Q, a):
        return False
    for x in Q.arrows_into[Q.source(a)]:
        for y in Q.arrows_from[Q.target(a)]:
            if not ref_word_in_ideal(A, (x, a, y)):
                return False
    return True


def ref_path_set(A, i, j):
    """Basis paths of length >= 1 from vertex ``j`` to vertex ``i``."""
    return [p for p in A.basis if p.length >= 1 and p.source == j and p.target == i]


def ref_delta0(C):
    A, Q, f = C.A, C.A.quiver, C.field
    idx1 = C.basis1.index
    cols = []
    for v, p in C.basis0.labels:
        col: dict = {}
        for a in Q.arrows_from[v]:
            q = A.multiply(Q.arrow_path(a), p)
            if q is not None:
                accumulate(f, col, idx1[(a, q)], f.one)
        for a in Q.arrows_into[v]:
            q = A.multiply(p, Q.arrow_path(a))
            if q is not None:
                accumulate(f, col, idx1[(a, q)], f.neg(f.one))
        cols.append(col)
    return LinearMap(C.basis0, C.basis1, tuple(cols))


def ref_delta1(C):
    A, f = C.A, C.field
    idxZ = C.basisZ.index
    cols = []
    for a, gamma in C.basis1.labels:
        col: dict = {}
        for ri, r in enumerate(A.relations):
            for q in substitute(A, r, a, gamma):
                accumulate(f, col, idxZ[(ri, q)], f.one)
        cols.append(col)
    return LinearMap(C.basis1, C.basisZ, tuple(cols))


def assert_differentials_match(C):
    """Compare both differentials of ``C`` with the references, column for
    column; returns the number of nonzero entries compared."""
    nonzero = 0
    for got, want in ((C.delta0, ref_delta0(C)), (C.delta1, ref_delta1(C))):
        assert (got.domain, got.codomain) == (want.domain, want.codomain)
        assert len(got.columns) == len(want.columns)
        for label, g, w in zip(got.domain.labels, got.columns, want.columns):
            assert g == w, label
            nonzero += len(g)
    return nonzero


def ref_pair_labels(A):
    Q = A.quiver
    labels0 = [
        (v, p)
        for v in range(Q.num_vertices)
        for p in A.basis
        if p.source == v and p.target == v
    ]
    labels1 = [
        (a, p)
        for a in range(Q.num_arrows)
        for p in A.basis
        if p.source == Q.source(a) and p.target == Q.target(a)
    ]
    labelsZ = [
        (ri, p)
        for ri, r in enumerate(A.relations)
        for p in A.basis
        if parallel(r, p)
    ]
    return tuple(labels0), tuple(labels1), tuple(labelsZ)


def ref_glued_pair_paths(g):
    e1, e2, e3, e4 = g.endpoints
    out = []
    for u, v in ((e1, e3), (e2, e4)):
        paths = (p for p in g.A.basis if p.length >= 1 and {p.source, p.target} == {u, v})
        out.append((g.vertex_map[u], tuple(paths)))
    return tuple(out)


def ref_crucial_paths(g):
    A = g.A
    e1, e2, e3, e4 = g.endpoints
    out = []
    for p in A.basis:
        if p.length < 1 or p.source != e2 or p.target != e3:
            continue
        word = (g.alpha,) + p.arrows + (g.beta,)
        if not ref_word_in_ideal(A, word):
            out.append(p)
    return tuple(out)


def _missed(m: LinearMap) -> list:
    """Codomain indices that no column of ``m`` touches, ascending."""
    hit = set()
    for col in m.columns:
        hit.update(col)
    return [i for i in range(len(m.codomain)) if i not in hit]


@dataclass(frozen=True)
class SpecialPathData:
    between_first: tuple  # basis paths joining the first merged vertex pair
    between_second: tuple
    z_sp: Subspace
    sp: int


def ref_missed_special_paths(g: GluedAlgebra) -> SpecialPathData:
    """Paths between the glued vertex pairs with nonzero degree-zero image.

    The degree-zero labels of B that no column of ``psi0`` touches are the
    cycles at a merged vertex whose one preimage joins its two glued
    vertices.  Z_sp is the span of their images under delta0 of B; the
    preimages with a nonzero image are listed per merged vertex in the
    basis order of A.
    """
    CB = g.complexes[1]
    columns = {i: CB.delta0.columns[i] for i in _missed(g.psi0)}
    first_merged = g.vertex_map[g.endpoints[0]]
    found = ([], [])
    for i, col in columns.items():
        if col:
            merged, q = CB.basis0.labels[i]
            found[merged != first_merged].extend(g.fibers[q])
    first, second = (tuple(sorted(paths, key=g.A.basis_index.get)) for paths in found)
    z_sp = span(g.B.field, CB.basis1, list(columns.values()))
    return SpecialPathData(first, second, z_sp, z_sp.dim)


@dataclass(frozen=True)
class SpecialPairData:
    pairs: tuple  # (arrow id, basis path) in A
    z_spp: Subspace  # inside the degree-one pair space of B
    kspp: int


def ref_missed_special_pairs(g: GluedAlgebra) -> SpecialPairData:
    """The arrow/path pairs of B that no pair of A maps to, and their
    kernel part.

    A label of B's degree-one pair space outside the image of ``psi1`` is
    a pair the gluing made parallel; ``pairs`` lists its preimages in A,
    ordered by arrow and then by basis path.  Every preimage of such a
    label is a non-parallel pair of A, since a parallel one would map
    onto it.  A loop l at a glued vertex v with partner u gives the
    non-parallel pair (l, e_u), but its label (l*, e_f) is the image of
    (l, e_v), so it is not listed; on a cocycle of B that coordinate times
    the power m of l's relation equals the one at (l*^m, l*^(m-1)), so it
    vanishes when the characteristic does not divide m.
    """
    CB = g.complexes[1]
    f = g.B.field
    labels = _missed(g.psi1)
    arrows_over: dict = {}
    for a, b in enumerate(g.arrow_map):
        arrows_over.setdefault(b, []).append(a)
    pairs = [
        (a, p)
        for b, q in (CB.basis1.labels[i] for i in labels)
        for a in arrows_over[b]
        for p in g.fibers[q]
    ]
    pairs.sort(key=lambda pair: (pair[0], g.A.basis_index[pair[1]]))
    z_spp = ref_restricted_kernel(f, CB.delta1, [{i: f.one} for i in labels])
    return SpecialPairData(tuple(pairs), z_spp, z_spp.dim)


@dataclass(frozen=True)
class NspData:
    z_nsp: Subspace  # inside the degree-zero pair space of B
    nsp: int


def ref_missed_nsp_data(g: GluedAlgebra) -> NspData:
    """The vertex/cycle pairs of B that no pair of A maps to (the cycles at
    a merged vertex whose preimage joins its two glued vertices), and their
    kernel part, controlling the center."""
    CB = g.complexes[1]
    f = g.B.field
    z_nsp = ref_restricted_kernel(f, CB.delta0, [{i: f.one} for i in _missed(g.psi0)])
    return NspData(z_nsp, z_nsp.dim)


def ref_special_pairs(g):
    A, B = g.A, g.B
    QA = A.quiver
    CB = g.complexes[1]
    f = B.field
    e1, e2, e3, e4 = g.endpoints
    four = {e1, e2, e3, e4}
    alpha_path = QA.arrow_path(g.alpha)
    beta_path = QA.arrow_path(g.beta)

    pairs = []
    labels = set()
    for a in range(QA.num_arrows):
        if not ({QA.source(a), QA.target(a)} & four):
            continue
        a_path = QA.arrow_path(a)
        a_star = g.arrow_map[a]
        for p in A.basis:
            if parallel(a_path, p):
                continue
            p_star = g.path_image[p]
            if not (
                B.quiver.source(a_star) == p_star.source
                and B.quiver.target(a_star) == p_star.target
            ):
                continue
            if a_star == g.gamma and p_star.arrows == (g.gamma,):
                continue
            if a == g.alpha and parallel(p, beta_path):
                continue
            if a == g.beta and parallel(p, alpha_path):
                continue
            if p == alpha_path and parallel(a_path, beta_path):
                continue
            if p == beta_path and parallel(a_path, alpha_path):
                continue
            pairs.append((a, p))
            labels.add(CB.basis1.index[(a_star, p_star)])

    spp_span = span(f, CB.basis1, [{i: f.one} for i in sorted(labels)])
    z_spp = intersect(f, spp_span, CB.ker1)
    return SpecialPairData(tuple(pairs), z_spp, z_spp.dim)


def ref_special_paths(g):
    CB = g.complexes[1]
    found = []  # (path, nonzero image column) per glued vertex pair
    for merged, paths in ref_glued_pair_paths(g):
        survivors = []
        for p in paths:
            col = CB.delta0.columns[CB.basis0.index[(merged, g.path_image[p])]]
            if col:
                survivors.append((p, col))
        found.append(survivors)
    first, second = found
    z_sp = span(g.B.field, CB.basis1, [col for _, col in first + second])
    return SpecialPathData(tuple(p for p, _ in first), tuple(p for p, _ in second), z_sp, z_sp.dim)


def ref_nsp_data(g):
    CB = g.complexes[1]
    f = g.B.field
    labels = {
        CB.basis0.index[(merged, g.path_image[p])]
        for merged, paths in ref_glued_pair_paths(g)
        for p in paths
    }
    nsp_span = span(f, CB.basis0, [{i: f.one} for i in sorted(labels)])
    z_nsp = intersect(f, nsp_span, CB.hh0)
    return NspData(z_nsp, z_nsp.dim)


def assert_special_pairs_match(g):
    """Compare the listing of the pairs the transport misses with the scan;
    returns the number of scanned pairs it drops."""
    got, want = ref_missed_special_pairs(g), ref_special_pairs(g)
    CB = g.complexes[1]
    hit = {i for col in g.psi1.columns for i in col}

    def label(a, p):
        return CB.basis1.index[(g.arrow_map[a], g.path_image[p])]

    assert got.pairs == tuple(pair for pair in want.pairs if label(*pair) not in hit)
    dropped = [pair for pair in want.pairs if label(*pair) in hit]
    QA = g.A.quiver
    e1, e2, e3, e4 = g.endpoints
    partner = {e1: e3, e3: e1, e2: e4, e4: e2}
    for a, p in dropped:
        v = QA.source(a)
        assert QA.target(a) == v and v in partner, (a, p)
        assert p == QA.trivial_path(partner[v]), (a, p)
    if g.assumption is None:
        assert got.z_spp == want.z_spp
    else:
        assert contains_subspace(g.B.field, want.z_spp, got.z_spp)
    assert got.kspp == got.z_spp.dim
    return len(dropped)


def assert_subspaces_match(g):
    """The gluing's Z_sp, Z_spp and Z_nsp equal the listing references'."""
    assert g.z_sp == ref_missed_special_paths(g).z_sp
    assert g.z_spp == ref_missed_special_pairs(g).z_spp
    assert g.z_nsp == ref_missed_nsp_data(g).z_nsp


def composable_words(A):
    """Every path of ``A``'s quiver (trivial ones included) of length at most
    two more than the longest basis path."""
    Q = A.quiver
    longest = max(p.length for p in A.basis)
    layer = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    words = list(layer)
    for _ in range(longest + 2):
        layer = [
            Path(p.source, Q.target(a), p.arrows + (a,))
            for p in layer
            for a in Q.arrows_from[p.target]
        ]
        words += layer
    return words


def assert_algebra_matches(A):
    """Compare every basis lookup of ``A`` with its scanning reference;
    returns the number of words that are not basis paths."""
    Q = A.quiver
    words = composable_words(A)
    zero = 0
    for w in words:
        in_ideal = ref_in_ideal(A, w)
        assert A.in_basis(w) == (not in_ideal), w
        zero += in_ideal
        # every split of the word into a later and an earlier part
        for i in range(w.length + 1):
            at = Q.source(w.arrows[i]) if i < w.length else w.target
            earlier = Path(w.source, at, w.arrows[:i])
            later = Path(at, w.target, w.arrows[i:])
            assert A.multiply(later, earlier) == ref_multiply(A, later, earlier)
    for p in A.basis:
        for q in A.basis:
            assert A.multiply(p, q) == ref_multiply(A, p, q)
    for a in range(Q.num_arrows):
        assert A.is_node_arrow(a) == ref_is_node_arrow(A, a)
        targets = [t for t in list(A.relations) + words if a in t.arrows]
        for gamma in A.paths_between[(Q.source(a), Q.target(a))]:
            for target in targets:
                assert substitute(A, target, a, gamma) == ref_substitute(A, target, a, gamma)
    for i in range(Q.num_vertices):
        for j in range(Q.num_vertices):
            between = A.paths_between[(j, i)]
            assert [p for p in between if p.length >= 1] == ref_path_set(A, i, j)
            assert list(between) == [p for p in A.basis if p.source == j and p.target == i]
    C = PairComplex(A)
    assert (C.basis0.labels, C.basis1.labels, C.basisZ.labels) == ref_pair_labels(A)
    assert_differentials_match(C)
    return zero


def assert_gluing_matches(g):
    """Compare the gluing's path and pair data and both algebras with their
    references; returns the number of crucial paths, of zero words and of
    scanned special pairs the transport hits."""
    assert ref_missed_special_paths(g) == ref_special_paths(g)
    dropped = assert_special_pairs_match(g)
    assert ref_missed_nsp_data(g) == ref_nsp_data(g)
    assert_subspaces_match(g)
    crucial = crucial_paths(g)
    assert crucial == ref_crucial_paths(g)
    zero = assert_algebra_matches(g.A) + assert_algebra_matches(g.B)
    return len(crucial), zero, dropped


def test_corpus_matches_reference():
    totals = [0, 0, 0]
    for ex in EXAMPLES:
        A = parse(ex.text)
        Q = A.quiver
        alpha, beta = Q.arrow_index["alpha"], Q.arrow_index["beta"]
        for f in FIELDS.values():
            counts = assert_gluing_matches(glue(build(Q, A.relations, f), alpha, beta))
            totals = [t + c for t, c in zip(totals, counts)]
    assert all(totals)


def test_glued_pair_paths_both_ways_in_basis_order():
    # paths run both ways between e1 and e3; listing e1 -> e3 first would
    # put x before y, against the basis order
    A = parse(
        "field Q\nvertex e1\nvertex e2\nvertex e3\nvertex e4\n"
        "arrow alpha e1 e2\narrow y e3 e1\narrow x e1 e3\narrow beta e3 e4\n"
        "rel x y\nrel y x\n"
    )
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    assert [p.arrows for p in ref_glued_pair_paths(g)[0][1]] == [(1,), (2,)]
    assert ref_missed_special_paths(g).between_first == ref_glued_pair_paths(g)[0][1]
    assert assert_gluing_matches(g)[1] > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 40))
@example(0, "Q", 40)
@example(20260809, "F5", 32)
def test_random_instances_match_reference(seed, field, max_dim):
    A = random_instance(RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim))
    gs = random_gluing(A, seed)
    if gs is None:
        assert_algebra_matches(A)
    else:
        assert_gluing_matches(glue(A, gs.alpha, gs.beta))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
@example(0, "F2")
def test_source_sink_instances_match_reference(seed, field):
    A, gs = source_sink_instance(RandomSpec(seed=seed, field=FIELDS[field]))
    assert_gluing_matches(glue(A, gs.alpha, gs.beta))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
@example(20260809, "Q")
@example(20260810, "F2")
@example(20260811, "F3")
@example(20260812, "F5")
def test_special_pairs_match_basis_scan(seed, field):
    A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field], max_dim=32))
    g = glue(A, gs.alpha, gs.beta)
    assert_special_pairs_match(g)
    assert ref_missed_special_paths(g) == ref_special_paths(g)
    assert ref_missed_nsp_data(g) == ref_nsp_data(g)
    assert_subspaces_match(g)


def test_dropped_loop_pair_leaves_kernel_when_loop_power_fails():
    # a loop squared to zero at a glued vertex over F2: its dropped pair
    # carries a cocycle coordinate, so the scan's kernel part is larger
    A, gs = instance_with_gluing(RandomSpec(seed=20260838, field=FIELDS["F2"], max_dim=32))
    g = glue(A, gs.alpha, gs.beta)
    assert g.assumption is not None
    assert assert_special_pairs_match(g) > 0
    assert g.z_spp.dim < ref_special_pairs(g).kspp


def test_w1_differentials_match_reference(w1_gluings):
    assert len(w1_gluings) == 1000
    nonzero = 0
    for spec, g in w1_gluings:
        for C in g.complexes:
            nonzero += assert_differentials_match(C)
    assert nonzero


def test_w1_subspaces_match_reference(w1_gluings):
    assert len(w1_gluings) == 1000
    nonzero = 0
    for spec, g in w1_gluings:
        assert_subspaces_match(g)
        nonzero += g.z_sp.dim + g.z_spp.dim + g.z_nsp.dim
    assert nonzero


def assert_brackets_match(C):
    """Compare ``PairComplex.bracket`` with ``ref_bracket`` in both orders on
    every interacting pair of kernel rows and of HH^1 representatives;
    returns the number of nonzero brackets compared."""
    nonzero = 0
    for vectors in (C.ker1.row_vectors(), representatives(C.hh1_view)):
        for i, j in C.interacting_pairs(vectors):
            for x, y in ((vectors[i], vectors[j]), (vectors[j], vectors[i])):
                got = C.bracket(x, y)
                assert got == ref_bracket(C, x, y), (x, y)
                nonzero += bool(got)
    return nonzero


def test_brackets_match_reference_on_corpus_and_fans():
    gluings = []
    for ex in EXAMPLES:
        A = parse(ex.text)
        Q = A.quiver
        alpha, beta = Q.arrow_index["alpha"], Q.arrow_index["beta"]
        gluings += [glue(build(Q, A.relations, f), alpha, beta) for f in FIELDS.values()]
    for m in range(2, 7):
        A = parse(fan(m))
        gluings.append(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]))
    counts = [assert_brackets_match(C) for g in gluings for C in g.complexes]
    assert all(counts[-10:])  # both sides of every fan
    assert sum(counts[:-10])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.booleans())
@example(20260809, "Q", False)
@example(0, "F2", True)
def test_brackets_match_reference_on_random_gluings(seed, field, source_sink):
    if source_sink:
        A, gs = source_sink_instance(RandomSpec(seed=seed, field=FIELDS[field]))
    else:
        A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field], max_dim=32))
    g = glue(A, gs.alpha, gs.beta)
    for C in g.complexes:
        assert_brackets_match(C)


# label indices into each algebra's degree-one basis are taken modulo its size
SMALL_ALGEBRAS = {
    "loop-square": "field Q\nvertex v\narrow x v v\nrel x x\n",
    "loop-fourth": "field Q\nvertex v\narrow x v v\nrel x x x x\n",
    "two-loops": "field Q\nvertex v\narrow x v v\narrow y v v\nrel x x\nrel y y\nrel x y x\nrel y x y\n",
    "line-bound": EXAMPLES[0].text,
}
TERMS = st.lists(st.tuples(st.integers(0, 40), st.integers(-4, 4)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)), st.sampled_from(sorted(FIELDS)), TERMS, TERMS)
# [(x, e), (x, x)] = (x, e): gamma is the trivial path, so x becomes e in x
@example("loop-square", "Q", [(0, 1)], [(1, 1)])
# [(x, x), (x, x^2)] = 2 (x, x^2) - (x, x^2): both substitutions fire
@example("loop-fourth", "Q", [(1, 1)], [(2, 1)])
@example("loop-fourth", "F5", [(0, 3), (1, 2)], [(2, 4), (1, -2)])
@example("two-loops", "Q", [(1, -4), (4, 2)], [(2, 3), (3, 1)])
def test_bracket_matches_reference_on_vectors(name, field, xs, ys):
    f = FIELDS[field]
    P = parse(SMALL_ALGEBRAS[name])
    C = PairComplex(build(P.quiver, P.relations, f))
    n = len(C.basis1)

    def vector(terms):
        out: dict = {}
        for i, c in terms:
            accumulate(f, out, i % n, c % f.char if f.char else Fraction(c, 3))
        return out

    x, y = vector(xs), vector(ys)
    assert C.bracket(x, y) == ref_bracket(C, x, y)
