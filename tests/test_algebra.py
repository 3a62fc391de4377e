import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import algebra, path_of, vertex_id
from quiverhh.algebra import build, minimal_relations
from quiverhh.errors import AdmissibilityError, DimensionalityError, MinimalityError
from quiverhh.fields import QQ
from quiverhh.quiver import Path, Quiver
from quiverhh.randomgen import RandomSpec, random_instance


def line4():
    return Quiver(("e1", "e2", "e3", "e4"), (("alpha", 0, 1), ("eta", 1, 2), ("beta", 2, 3)))


def test_build_hereditary_line():
    A = build(line4(), [], QQ)
    assert A.dim == 10  # 4 vertices, 3 arrows, eta.alpha, beta.eta, beta.eta.alpha


def test_build_loop_square():
    Q = Quiver(("e",), (("xi", 0, 0),))
    A = build(Q, [Q.path((0, 0))], QQ)
    assert A.dim == 2
    assert [p.arrows for p in A.basis] == [(), (0,)]


def test_build_infinite_dimensional():
    Q = Quiver(("e",), (("xi", 0, 0),))
    with pytest.raises(DimensionalityError) as err:
        build(Q, [], QQ)
    assert err.value.cycle == [0]


def test_build_infinite_through_long_memory():
    # xi^3 kills nothing short; the three-step suffix automaton still
    # certifies finiteness exactly
    Q = Quiver(("e",), (("xi", 0, 0),))
    A = build(Q, [Q.path((0, 0, 0))], QQ)
    assert A.dim == 3
    Q2 = Quiver(("u", "v"), (("x", 0, 1), ("y", 1, 0)))
    with pytest.raises(DimensionalityError):
        build(Q2, [], QQ)
    A2 = build(Q2, [Q2.path((0, 1, 0))], QQ)
    # vertices, arrows, the two 2-cycles, and yxy (only xyx dies)
    assert A2.dim == 2 + 2 + 2 + 1


def test_admissibility():
    Q = line4()
    with pytest.raises(AdmissibilityError):
        build(Q, [Q.arrow_path(0)], QQ)


def test_minimality_strict_and_repair():
    Q = Quiver(("e",), (("xi", 0, 0),))
    rels = [Q.path((0, 0)), Q.path((0, 0, 0))]
    with pytest.raises(MinimalityError) as err:
        build(Q, rels, QQ)
    assert err.value.contained.arrows == (0, 0)
    A = build(Q, rels, QQ, minimalize=True)
    assert [r.arrows for r in A.relations] == [(0, 0)]


def test_in_ideal():
    # a path lies in the ideal exactly when it is not a basis path
    A = algebra("line-bound")
    assert not A.in_basis(path_of(A, "alpha", "eta"))
    assert A.in_basis(A.quiver.trivial_path(0))
    free = algebra("line-free")
    assert free.in_basis(path_of(free, "alpha", "eta", "beta"))


def test_multiply():
    A = algebra("line-bound")
    eta = A.quiver.arrow_path(A.quiver.arrow_index["eta"])
    alpha = A.quiver.arrow_path(A.quiver.arrow_index["alpha"])
    assert A.multiply(eta, alpha) is None
    free = algebra("line-free")
    beta = free.quiver.arrow_path(free.quiver.arrow_index["beta"])
    ea = path_of(free, "alpha", "eta")
    assert free.multiply(beta, ea).arrows == (0, 1, 2)
    assert free.multiply(free.quiver.trivial_path(ea.target), ea) == ea


def test_multiply_associative_exhaustive():
    A = algebra("double-braid")
    for p in A.basis:
        for q in A.basis:
            pq = A.multiply(p, q)
            for r in A.basis:
                qr = A.multiply(q, r)
                left = A.multiply(pq, r) if pq is not None else None
                right = A.multiply(p, qr) if qr is not None else None
                assert left == right


def test_radical_square_zero():
    assert algebra("twin-pairs-rad2").is_radical_square_zero()
    assert not algebra("line-free").is_radical_square_zero()
    assert build(Quiver(("v",), ()), [], QQ).is_radical_square_zero()


def test_path_set():
    A = algebra("double-braid")
    Q = A.quiver
    e1, e3 = vertex_id(Q, "e1"), vertex_id(Q, "e3")
    e2, e4 = vertex_id(Q, "e2"), vertex_id(Q, "e4")
    got = {p.arrows for p in A.paths_between[(e3, e1)]}
    assert got == {
        path_of(A, "a", "xi").arrows,
        path_of(A, "beta", "b", "a", "xi").arrows,
    }
    assert A.paths_between[(e1, e3)] == ()
    assert A.paths_between[(e2, e4)] == ()
    got24 = {p.arrows for p in A.paths_between[(e4, e2)]}
    assert got24 == {
        path_of(A, "b", "a").arrows,
        path_of(A, "b", "a", "xi", "alpha").arrows,
    }


def test_node_arrow():
    A = algebra("line-free")
    assert not A.is_node_arrow(A.quiver.arrow_index["alpha"])  # a source arrow
    # glued two-cycle: both arrows become node arrows
    bound = algebra("line-bound")
    from quiverhh.gluing import glue

    g = glue(bound, 0, 2)
    B = g.B
    assert B.is_node_arrow(g.gamma)
    assert B.is_node_arrow(B.quiver.arrow_index["eta"])


def test_basis_closed_under_subpaths():
    A = algebra("bypass")
    for p in A.basis:
        for ln in range(p.length):
            for i in range(p.length - ln):
                q = A.quiver.path(p.arrows[i : i + ln + 1])
                assert A.in_basis(q)


def test_in_ideal_monotone_under_extension():
    A = algebra("line-bound")
    Q = A.quiver
    bad = path_of(A, "alpha", "eta")
    longer = Q.path((0, 1, 2))
    assert not A.in_basis(bad) and not A.in_basis(longer)


def _is_subword(needle, haystack):
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def ref_check_minimal(relations):
    """The pairwise minimality scan ``build`` ran before it shared one
    first-proper-sub-relation helper with the repair path."""
    words = [r.arrows for r in relations]
    for i, w in enumerate(words):
        for j, u in enumerate(words):
            if i != j and len(u) < len(w) and _is_subword(u, w):
                raise MinimalityError(
                    f"relation set is not minimal: {u} is a proper subpath of {w}",
                    contained=relations[j],
                    container=relations[i],
                )


def ref_minimalize(relations):
    words = {r.arrows: r for r in relations}
    keep = []
    for w, r in words.items():
        if not any(u != w and len(u) < len(w) and _is_subword(u, w) for u in words):
            keep.append(r)
    return keep


def _two_vertex_words():
    Q = Quiver(("u", "v"), (("x", 0, 0), ("y", 0, 1), ("z", 1, 0)))
    layer = [(a,) for a in range(3)]
    words = []
    for _ in range(3):
        layer = [w + (a,) for w in layer for a in Q.arrows_from[Q.target(w[-1])]]
        words += layer
    return Q, words


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_two_vertex_words()[1]), max_size=7))
def test_minimality_matches_pairwise_reference(words):
    Q = _two_vertex_words()[0]
    rels = [Q.path(w) for w in words]
    deduped = list({r.arrows: r for r in rels}.values())
    try:
        ref_check_minimal(deduped)
        ref_err = None
    except MinimalityError as err:
        ref_err = err
    try:
        build(Q, rels, QQ)
        err = None
    except (MinimalityError, DimensionalityError) as caught:
        err = caught
    if ref_err is None:
        assert not isinstance(err, MinimalityError)
    else:
        assert isinstance(err, MinimalityError)
        assert (str(err), err.contained, err.container) == (
            str(ref_err),
            ref_err.contained,
            ref_err.container,
        )
    try:
        A = build(Q, rels, QQ, minimalize=True)
    except DimensionalityError:
        return
    assert A.relations == tuple(sorted(ref_minimalize(rels), key=lambda r: r.sort_key()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_two_vertex_words()[1]), max_size=7, unique=True), st.randoms())
def test_minimal_relations_sorted_whatever_the_input_order(words, rnd):
    Q = _two_vertex_words()[0]
    rels = [Q.path(w) for w in words]
    rnd.shuffle(rels)
    assert minimal_relations(rels) == sorted(ref_minimalize(rels), key=Path.sort_key)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_instances_valid(seed):
    A = random_instance(RandomSpec(seed=seed))
    # validation invariants: minimal, admissible, finite, sorted basis
    assert all(r.length >= 2 for r in A.relations)
    assert A.dim == len(set(A.basis))
    counts = {}
    for p in A.basis:
        counts[p.length] = counts.get(p.length, 0) + 1
    assert counts.get(0, 0) == A.quiver.num_vertices
