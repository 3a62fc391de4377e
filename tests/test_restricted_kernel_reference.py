"""Differential test: ``linalg.restricted_kernel`` against the two forms it replaced.

``ref_restriction_kernel`` is the kernel of the degree-one transport
restricted to the degree-one kernel of A, as ``checks`` computed it inside
the kernel-homomorphism check; ``ref_ker0_positive`` is the degree-zero
kernel on cycle pairs of length >= 1, as ``PairComplex.ker0_positive``
computed it.  Both are kept unchanged apart from taking their inputs as
arguments, and must give the same canonical subspaces as the shared helper.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import glued
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF, QQ
from quiverhh.gluing import glue
from quiverhh.linalg import LabeledBasis, LinearMap, accumulate, kernel, restricted_kernel, span
from quiverhh.randomgen import RandomSpec, instance_with_gluing

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


def assert_matches_reference(g):
    f = g.B.field
    CA = g.complexes[0]
    assert restricted_kernel(f, g.psi1, CA.ker1.row_vectors()) == ref_restriction_kernel(g)
    assert g.ker0_positive == tuple(ref_ker0_positive(C) for C in g.complexes)
    return g.ker0_positive[0].dim + g.ker0_positive[1].dim


def test_corpus_matches_reference():
    assert sum(assert_matches_reference(glued(ex.name)) for ex in EXAMPLES) > 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 32))
@example(0, "Q", 8)
@example(20260809, "F2", 32)
def test_generated_gluings_match_reference(seed, field, max_dim):
    A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim))
    assert_matches_reference(glue(A, gs.alpha, gs.beta))
