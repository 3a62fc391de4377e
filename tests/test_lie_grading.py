"""The pair complex is graded by arrow multidegree, and the HH¹ bracket adds degrees.

The weight of an arrow/path pair (a, p) is p − a and that of a
relation/path pair (r, q) is q − r, as arrow multisets.  δ¹ substitutes a
path γ for an arrow a inside a relation, so the column of (a, γ) lies in
weight γ − a; the bracket substitutes each pair into the other, so
[x_i, x_j] lies in weight w_i + w_j.  A graded kernel has a homogeneous
canonical basis, so every HH¹ representative has one weight, and every
nonzero structure constant c^k_ij of ``lie.terms`` has w_k = w_i + w_j.
This holds whatever the bracket's signs are, and fails as soon as a
substitution is filed under the wrong arrow.
"""

from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.paircomplex import complex_data


def weight(num_arrows, plus, minus=()):
    """The arrow multiset ``plus − minus`` as a tuple of signed counts."""
    w = [0] * num_arrows
    for a in plus:
        w[a] += 1
    for a in minus:
        w[a] -= 1
    return tuple(w)


def assert_graded(A) -> int:
    """Assert that δ¹ is homogeneous and the bracket adds weights on ``A``;
    returns the number of nonzero structure constants."""
    C = complex_data(A)
    n = A.quiver.num_arrows
    w1 = [weight(n, p.arrows, (a,)) for a, p in C.basis1.labels]
    wZ = [weight(n, q.arrows, A.relations[ri].arrows) for ri, q in C.basisZ.labels]
    for j, col in enumerate(C.delta1.columns):
        assert all(wZ[k] == w1[j] for k in col), C.basis1.labels[j]
    rows = C.ker1.row_vectors()
    wx = []
    for i in C.hh1_view.rep_indices:
        (w,) = {w1[k] for k in rows[i]}
        wx.append(w)
    constants = 0
    for (i, j), terms in C.lie.terms.items():
        w = tuple(x + y for x, y in zip(wx[i], wx[j]))
        for k, c in terms.items():
            assert c and wx[k] == w, (i, j, k)
            constants += 1
    return constants


def test_examples_and_fans_are_graded():
    algebras = []
    for ex in EXAMPLES:
        A = parse(ex.text)
        algebras += [A, glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]).B]
    algebras += [parse(fan(m, p)) for m in (2, 3, 4, 6) for p in (0, 2, 3, 5)]
    # 102 constants on the 26 corpus algebras, 1169 on the fans
    assert sum(assert_graded(A) for A in algebras) == 1271


def test_w1_gluings_are_graded(w1_gluings):
    constants = sum(assert_graded(side) for _, g in w1_gluings for side in (g.A, g.B))
    assert constants == 11354  # on 1307 of the 2000 sides

