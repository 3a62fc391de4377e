from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import algebra, glued, pair0_index, pair1_index
from quiverhh.algebra import build
from quiverhh.fields import GF, QQ
from quiverhh.gluing import glue
from quiverhh.linalg import kernel, member, span
from quiverhh.quiver import Quiver
from quiverhh.randomgen import RandomSpec, random_instance
from quiverhh.paircomplex import (
    PairComplex,
    center_product,
    complex_data,
    hh1_lie,
    lie_center_dim,
    substitute,
)


def test_substitute_loop_power_counts():
    Q = Quiver(("e",), (("xi", 0, 0),))
    A = build(Q, [Q.path((0, 0))], QQ)
    r = A.relations[0]
    out = substitute(A, r, 0, Q.trivial_path(0))
    assert [p.arrows for p in out] == [(0,), (0,)]  # one survivor per occurrence


def test_substitute_absent_arrow():
    A = algebra("line-bound")
    r = A.relations[0]
    assert substitute(A, r, A.quiver.arrow_index["beta"], A.quiver.arrow_path(2)) == []


def test_substitute_result_must_stay_in_basis():
    g = glued("line-bound")
    B = g.B
    r = next(rel for rel in B.relations if rel.arrows == (1, 0))  # gamma*.eta written
    out = substitute(B, r, g.gamma, B.quiver.arrow_path(g.gamma))
    assert out == []  # replacing gamma* by itself reproduces the relation


def test_delta0_two_cycle():
    g = glued("line-bound")
    CB = complex_data(g.B)
    col = CB.delta0.columns[pair0_index(CB, "f1")]
    assert col == {
        pair1_index(CB, "gamma*", "gamma*"): Fraction(1),
        pair1_index(CB, "eta", "eta"): Fraction(-1),
    }


def test_delta0_no_arrows_zero():
    A = build(Quiver(("u", "v"), ()), [], QQ)
    C = complex_data(A)
    assert all(col == {} for col in C.delta0.columns)


def test_image_two_blocks_fork():
    A = algebra("two-blocks-deco")
    C = complex_data(A)
    v = {
        pair1_index(C, "alpha", "alpha"): Fraction(1),
        pair1_index(C, "a", "a"): Fraction(1),
    }
    w = {
        pair1_index(C, "b", "b"): Fraction(1),
        pair1_index(C, "a", "a"): Fraction(-1),
    }
    u = {pair1_index(C, "beta", "beta"): Fraction(1)}
    assert C.im0 == span(QQ, C.basis1, [v, w, u])


def test_kernel_char_split():
    # loop with square relation: the loop/vertex pair enters the kernel
    # exactly in characteristic two
    for field, dim in ((QQ, 5), (GF(2), 6), (GF(3), 5)):
        ex = algebra("loop-power")
        A = build(ex.quiver, ex.relations, field)
        C = complex_data(A)
        assert C.ker1.dim == dim
        loop_vertex = pair1_index(C, "xi")
        in_kernel = member(field, C.ker1, {loop_vertex: field.one})
        assert in_kernel == (field.char == 2)


def test_kernel_rationals_exact_generators():
    A = algebra("loop-power")
    C = complex_data(A)
    expected = span(
        QQ,
        C.basis1,
        [
            {pair1_index(C, "alpha", "alpha"): Fraction(1)},
            {pair1_index(C, "eta", "eta"): Fraction(1)},
            {pair1_index(C, "beta", "beta"): Fraction(1)},
            {pair1_index(C, "xi", "xi"): Fraction(1)},
            {pair1_index(C, "alpha", "xi", "alpha"): Fraction(1)},
        ],
    )
    assert C.ker1 == expected


def test_empty_relations_kernel_is_everything():
    A = algebra("line-free")
    C = complex_data(A)
    assert len(C.basisZ) == 0
    assert C.ker1.dim == len(C.basis1)


def test_hh0_contains_identity():
    for name in ("line-bound", "double-braid", "bypass"):
        A = algebra(name)
        C = complex_data(A)
        one = {
            pair0_index(C, A.quiver.vertex_names[v]): Fraction(1)
            for v in range(A.quiver.num_vertices)
        }
        assert member(QQ, C.hh0, one)


def test_complex_property_on_random_instances():
    for seed in range(20, 40):
        A = random_instance(RandomSpec(seed=seed, field=(QQ, GF(2), GF(3))[seed % 3]))
        C = complex_data(A)
        f = A.field
        for col in C.delta0.columns:
            assert C.delta1.apply(f, col) == {}


def test_bracket_alternating_and_ideal():
    A = algebra("twin-pairs-rad2")
    C = complex_data(A)
    f = A.field
    rows = C.ker1.row_vectors()
    for r in rows:
        assert C.bracket(r, r) == {}
    # the image is a bracket ideal of the kernel
    for z in C.im0.row_vectors():
        for x in rows:
            assert member(f, C.im0, C.bracket(x, z))


def test_hh1_dim_and_representatives():
    g = glued("line-bound")
    CB = complex_data(g.B)
    assert CB.hh1_view.dim == CB.ker1.dim - CB.im0.dim
    reps = CB.hh1_view.representatives()
    assert len(reps) == CB.hh1_view.dim
    gamma_vec = g.gamma_pair_vector()
    assert not member(QQ, CB.im0, gamma_vec)
    assert CB.hh1_view.project(gamma_vec)  # a nonzero coordinate


def test_hh1_lie_presentation_trivial_cases():
    A = algebra("line-bound")
    pres = hh1_lie(A)
    assert pres.dim == 0 and pres.constants == {}
    g = glued("line-bound")
    pres_b = hh1_lie(g.B)
    assert pres_b.dim == 1
    assert pres_b.is_abelian()
    assert pres_b.check_jacobi()


def test_hh1_lie_jacobi_loop_crowd():
    from quiverhh.examples_data import loop_crowd
    from quiverhh.fileformat import parse

    for t in (1, 2, 3):
        A = parse(loop_crowd(t))
        g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
        for X in (A, g.B):
            pres = hh1_lie(X)
            assert pres.check_jacobi()
            for (i, j), terms in pres.terms.items():
                assert terms and not any(X.field.is_zero(c) for _, c in terms)
                back = pres.bracket_terms(j, i)
                assert tuple((k, X.field.neg(c)) for k, c in back) == terms


def test_lie_center_dim_of_abelian():
    g = glued("line-bound")
    pres = hh1_lie(g.B)
    assert lie_center_dim(pres) == pres.dim


def test_center_product_unit_and_nilpotents():
    from quiverhh.examples_data import loop_crowd
    from quiverhh.fileformat import parse

    A = parse(loop_crowd(2))
    table = center_product(A)
    # radical square zero: dim Z = (number of loops) + (number of blocks);
    # this quiver has two blocks
    assert table.dim == 3 + 2
    unit = table.unit
    # unit times every basis class is itself
    d = table.dim
    for j in range(d):
        prod = [QQ.zero] * d
        for i in range(d):
            if unit[i] == 0:
                continue
            row = table.table[(i, j)]
            prod = [p + unit[i] * c for p, c in zip(prod, row)]
        expect = [QQ.one if k == j else QQ.zero for k in range(d)]
        assert prod == expect
    # commutativity and associativity on the table
    for i in range(d):
        for j in range(d):
            assert table.table[(i, j)] == table.table[(j, i)]


def test_center_rad_sq_zero_squares_vanish():
    A = algebra("twin-pairs-rad2")
    C = complex_data(A)
    table = center_product(A)
    unit = table.unit
    for i in range(table.dim):
        # subtract the unit component; the rest squares to zero
        rows = C.hh0.row_vectors()
        labels0 = C.basis0.labels
        nonunit = {
            k: c for k, c in rows[i].items() if labels0[k][1].length >= 1
        }
        from quiverhh.paircomplex import central_mult

        assert central_mult(C, nonunit, nonunit) == {}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3000))
def test_hh0_matches_center_table_dim(seed):
    A = random_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5, max_dim=18))
    C = complex_data(A)
    assert center_product(A).dim == C.hh0.dim


def _loop_power(field, m):
    """The pair complex of k[x]/(x^m) on one vertex."""
    Q = Quiver(("v",), (("x", 0, 0),))
    return PairComplex(build(Q, [Q.path((0,) * m)], field))


def test_delta1_loop_power_trivial_pair_vanishes_in_char():
    # substituting e_v for x in x^m hits (x^m, x^(m-1)) m times; a sum that
    # vanishes leaves no entry rather than a stored zero
    for field, m, expected in ((QQ, 2, {(0, (0,)): 2}), (GF(2), 2, {}), (GF(3), 3, {})):
        C = _loop_power(field, m)
        col = C.delta1.columns[pair1_index(C, "x")]
        labels = C.basisZ.labels
        assert {(labels[k][0], labels[k][1].arrows): c for k, c in col.items()} == expected


def test_delta0_loop_products_cancel():
    # at a vertex with a loop x and an arrow a out, the cycle e_v maps to
    # +(x, x) + (a, a) - (x, x): the loop's two products coincide and cancel
    Q = Quiver(("v", "w"), (("x", 0, 0), ("a", 0, 1)))
    for field in (QQ, GF(2)):
        A = build(Q, [Q.path((0, 0)), Q.path((0, 1))], field)
        C = PairComplex(A)
        assert C.delta0.columns[pair0_index(C, "v")] == {pair1_index(C, "a", "a"): field.one}
        # in k[x]/(x^3) the cycle x maps to +(x, x^2) - (x, x^2)
        C = _loop_power(field, 3)
        assert C.delta0.columns[pair0_index(C, "v", "x")] == {}


def test_ker0_is_computed_on_first_read():
    A = algebra("loop-power")
    C = PairComplex(A)
    assert "hh0" not in C.__dict__
    hh0 = C.hh0
    assert hh0 == kernel(A.field, C.delta0)
    assert C.hh0 is hh0 and C.__dict__["hh0"] is hh0
