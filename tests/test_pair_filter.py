"""Soundness of the bracket pair filter and the work it saves.

``PairComplex.interacting_pairs`` keeps a pair of degree-one vectors when
a left arrow of one occurs in a right-hand path of the other.  Every pair
it leaves out must bracket to ``{}``, on every family of vectors that a
bracket loop reads: the degree-one kernel rows and the HH^1
representatives of A and of the glued B, and the transports of A's rows
and representatives into B.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.paircomplex import PairComplex, complex_data, hh1_lie
from quiverhh.randomgen import RandomSpec, instance_with_gluing, source_sink_instance

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def assert_sound(C, vectors) -> int:
    """Every pair the filter drops brackets to {}; returns the kept count."""
    pairs = C.interacting_pairs(vectors)
    assert pairs == sorted(set(pairs))
    assert all(i < j for i, j in pairs)
    kept = set(pairs)
    for i, j in combinations(range(len(vectors)), 2):
        if (i, j) not in kept:
            assert C.bracket(vectors[i], vectors[j]) == {}, (i, j)
    return len(pairs)


def assert_gluing_sound(g) -> int:
    f = g.B.field
    CA, CB = g.complexes
    kept = 0
    for C in (CA, CB):
        kept += assert_sound(C, C.ker1.row_vectors())
        kept += assert_sound(C, C.hh1_view.representatives())
    for vectors in (CA.ker1.row_vectors(), CA.hh1_view.representatives()):
        kept += assert_sound(CB, [g.psi1.apply(f, v) for v in vectors])
    return kept


def test_filter_sound_on_corpus_and_fans():
    cases = [(e.text, e.alpha, e.beta) for e in EXAMPLES]
    cases += [(fan(m), "alpha", "beta") for m in (2, 3, 4, 5)]
    kept = 0
    for text, alpha, beta in cases:
        A = parse(text)
        kept += assert_gluing_sound(
            glue(A, A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta])
        )
    assert kept > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.booleans())
def test_filter_sound_on_random_gluings(seed, field, source_sink):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = (source_sink_instance if source_sink else instance_with_gluing)(spec)
    assert_gluing_sound(glue(A, gs.alpha, gs.beta))


def test_hh1_lie_brackets_only_interacting_pairs(monkeypatch):
    """fan(12) over F5 has 143 representatives, so 10153 pairs, of which
    exactly 1628 have a nonzero cochain bracket; hh1_lie brackets those."""
    results = []
    bracket = PairComplex.bracket

    def counting(self, x, y):
        out = bracket(self, x, y)
        results.append(out)
        return out

    A = parse(fan(12, 5))
    complex_data(A)  # assemble outside the count
    monkeypatch.setattr(PairComplex, "bracket", counting)
    pres = hh1_lie(A)
    assert pres.dim == 143
    assert len(results) == 1628
    assert all(results)
