"""Differential tests: the sparse HH^1 Lie structure against its dense form.

The references below are ``hh1_lie`` and ``lie_center_dim`` as the package
ran them while every pair ``i < j`` stored a dense coefficient tuple, with
``bracket_coords`` and the Jacobi loop from ``test_jacobi_reference``, kept
unchanged apart from taking the presentation as an argument.  They read
the dense quotient view and the dense kernel of ``test_linalg_reference``,
so no sparse reduction is shared with the code under test.  The sparse presentation must give the
same dimension, labels, dense ``constants`` view, center dimension and
verdicts on every algebra.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh.examples_data import EXAMPLES, fan, loop_crowd
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.paircomplex import complex_data, hh1_lie, lie_center_dim, pair_str
from quiverhh.randomgen import RandomSpec, instance_with_gluing
from test_jacobi_reference import bracket_coords, check_jacobi
from test_linalg_reference import RefQuotientView, ref_kernel

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def ref_hh1_lie(A):
    """(dim, labels, dense constants) on the deterministic representatives."""
    C = complex_data(A)
    view = RefQuotientView(A.field, C.ker1, C.im0)
    rows = C.ker1.row_vectors()
    reps = [rows[i] for i in view.rep_indices]
    d = len(reps)
    constants = {}
    for i in range(d):
        for j in range(i + 1, d):
            br = C.bracket(reps[i], reps[j])
            constants[(i, j)] = view.project(br)
    pivots = [C.ker1.pivots[i] for i in view.rep_indices]
    labels = tuple(pair_str(A, C.basis1.labels[p], "1") for p in pivots)
    return d, labels, constants


def ref_lie_center_dim(pres) -> int:
    f = pres.field
    d = pres.dim
    if d == 0:
        return 0
    columns = []
    for i in range(d):
        col: dict = {}
        for k in range(d):
            coords = bracket_coords(pres, i, k)
            for m, c in enumerate(coords):
                if not f.is_zero(c):
                    col[k * d + m] = c
        columns.append(col)
    return len(ref_kernel(f, d * d, columns)[0])


def assert_lie_matches(A) -> bool:
    """Compare the sparse presentation of ``A`` with the dense references;
    returns whether the algebra is non-abelian."""
    f = A.field
    pres = hh1_lie(A)
    d, labels, constants = ref_hh1_lie(A)
    assert (pres.dim, pres.basis_labels) == (d, labels)
    assert pres.constants == constants
    for (i, j), terms in pres.terms.items():
        assert i < j and terms
        assert list(terms) == sorted(terms)
        assert not any(f.is_zero(c) for c in terms.values())
    for i in range(d):
        for j in range(d):
            want = {k: c for k, c in enumerate(bracket_coords(pres, i, j)) if not f.is_zero(c)}
            if i < j:
                assert pres.terms.get((i, j), {}) == want
            else:
                back = pres.terms.get((j, i), {})
                assert {k: f.neg(c) for k, c in back.items()} == want
    abelian = all(all(f.is_zero(c) for c in v) for v in constants.values())
    assert pres.is_abelian() is abelian
    assert lie_center_dim(pres) == ref_lie_center_dim(pres)
    if d <= 8:
        assert pres.check_jacobi() is check_jacobi(pres) is True
    return not abelian


def test_corpus_matches_reference():
    algebras = []
    for e in EXAMPLES:
        A = parse(e.text)
        algebras += [A, glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]).B]
    algebras += [parse(fan(m, p)) for m in (2, 3) for p in (0, 2, 3, 5)]
    algebras += [parse(loop_crowd(t)) for t in (1, 2)]
    nonabelian = sum(assert_lie_matches(A) for A in algebras)
    assert nonabelian >= 10


def test_fan_center_matches_reference():
    # dim HH^1 = 15 over F5: the center kernel has 225 rows
    pres = hh1_lie(parse(fan(4, 5)))
    assert pres.dim == 15
    assert lie_center_dim(pres) == ref_lie_center_dim(pres)
    assert pres.constants == ref_hh1_lie(parse(fan(4, 5)))[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
@example(20260809, "Q")
@example(20260810, "F2")
@example(20260811, "F3")
@example(20260812, "F5")
def test_random_gluings_match_reference(seed, field):
    A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field], max_dim=24))
    assert_lie_matches(A)
    assert_lie_matches(glue(A, gs.alpha, gs.beta).B)
