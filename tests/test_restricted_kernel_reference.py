"""Differential test: ``linalg.restricted_kernel`` against the forms it replaced.

``ref_restriction_kernel`` is the kernel of the degree-one transport
restricted to the degree-one kernel of A, as ``checks`` computed it inside
the kernel-homomorphism check; ``ref_ker0_positive`` is the degree-zero
kernel on cycle pairs of length >= 1, as ``PairComplex.ker0_positive``
computed it.  Both are kept unchanged apart from taking their inputs as
arguments.  The first must equal the general-vector helper that replaced
both, ``test_linalg_reference.ref_restricted_kernel``, and the check's
rank-nullity test must hold exactly where it is the span of the
arrow-pair difference; the second must equal ``GluedAlgebra.ker0_positive``.

The program takes two restricted kernels on label columns: Z_spp on the
degree-one labels ψ¹ misses and Z_nsp on the degree-zero labels ψ⁰ misses.
The two degree-zero kernels on the positive cycles of A and of B are no
longer eliminated: ``ker0_positive`` keeps the rows of HH⁰ whose pivot is
no trivial pair.  All four must have the rows and the pivots of
``ref_restricted_kernel`` on the unit vectors at their columns, on the
corpus, on hypothesis-drawn gluings over Q, F2, F3 and F5, and on the 1000
gluings of the fuzz corpus.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import glued
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF, QQ
from quiverhh.gluing import glue
from quiverhh.linalg import LabeledBasis, LinearMap, accumulate, kernel, member, span
from quiverhh.randomgen import RandomSpec, instance_with_gluing
from test_linalg_reference import ref_restricted_kernel

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def ref_restriction_kernel(g):
    """Kernel of the pair-space transport restricted to the degree-one kernel."""
    f = g.B.field
    CA, CB = g.complexes
    rows = CA.ker1.row_vectors()
    dom = LabeledBasis(tuple(range(len(rows))))
    cols = tuple(g.psi1.apply(f, r) for r in rows)
    coord_kernel = kernel(f, LinearMap(dom, CB.basis1, cols))
    vectors = []
    for coords in coord_kernel.row_vectors():
        vec: dict = {}
        for i, c in coords.items():
            for j, x in rows[i].items():
                accumulate(f, vec, j, f.mul(c, x))
        vectors.append(vec)
    return span(f, CA.basis1, vectors)


def ref_ker0_positive(C):
    """Kernel of the differential restricted to cycle pairs of length >= 1,
    as a subspace of the full degree-zero space."""
    pos = [i for i, (v, p) in enumerate(C.basis0.labels) if p.length >= 1]
    sub_basis = LabeledBasis(tuple(C.basis0.labels[i] for i in pos))
    restricted = LinearMap(sub_basis, C.basis1, tuple(C.delta0.columns[i] for i in pos))
    ker = kernel(C.field, restricted)
    lifted = []
    for row in ker.row_vectors():
        lifted.append({pos[i]: c for i, c in row.items()})
    return span(C.field, C.basis0, lifted)


def alpha_minus_beta(g):
    CA = g.complexes[0]
    f, QA = g.B.field, g.A.quiver
    return {
        CA.basis1.index[(g.alpha, QA.arrow_path(g.alpha))]: f.one,
        CA.basis1.index[(g.beta, QA.arrow_path(g.beta))]: f.neg(f.one),
    }


def assert_restricted_kernels_match(g):
    """The four restricted kernels of ``g`` against the general-vector
    reference, rows and pivots; returns the sum of their dimensions."""
    f = g.B.field
    CA, CB = g.complexes
    positive = [
        [i for i, (_, p) in enumerate(C.basis0.labels) if p.length >= 1] for C in g.complexes
    ]
    cases = [
        (g.z_spp, CB.delta1, g.missed1),
        (g.z_nsp, CB.delta0, g.missed0),
        (g.ker0_positive[0], CA.delta0, positive[0]),
        (g.ker0_positive[1], CB.delta0, positive[1]),
    ]
    for got, m, columns in cases:
        ref = ref_restricted_kernel(f, m, [{i: f.one} for i in columns])
        assert (got.basis, got.rows, got.pivots) == (m.domain, ref.rows, ref.pivots)
    return sum(got.dim for got, _, _ in cases)


def assert_matches_reference(g):
    f = g.B.field
    CA = g.complexes[0]
    restriction = ref_restriction_kernel(g)
    assert ref_restricted_kernel(f, g.psi1, CA.ker1.row_vectors()) == restriction
    diff = alpha_minus_beta(g)
    by_rank = member(f, CA.ker1, diff) and g.psi1_ker1.dim == CA.ker1.dim - 1
    assert by_rank == (restriction == span(f, CA.basis1, [diff]))
    assert g.ker0_positive == tuple(ref_ker0_positive(C) for C in g.complexes)
    return assert_restricted_kernels_match(g)


def test_corpus_matches_reference():
    assert sum(assert_matches_reference(glued(ex.name)) for ex in EXAMPLES) > 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 32))
@example(0, "Q", 8)
@example(20260809, "F2", 32)
def test_generated_gluings_match_reference(seed, field, max_dim):
    A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim))
    assert_matches_reference(glue(A, gs.alpha, gs.beta))


def test_w1_restricted_kernels_match_reference(w1_gluings):
    assert len(w1_gluings) == 1000
    assert sum(assert_restricted_kernels_match(g) for _, g in w1_gluings) > 0
