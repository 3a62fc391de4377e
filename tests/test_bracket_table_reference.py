"""Differential tests: the cached bracket tables against the loops they replaced.

``ref_brackets`` is ``PairComplex.brackets`` as it was while it took a
``reduce`` argument, kept unchanged apart from taking the complex as an
argument.  ``ref_lie`` is ``PairComplex.lie`` as it ran on it: it
bracketed the HH^1 representatives alone, projected each bracket to
classes and turned every projected dict into a tuple of ``(k, c)``
terms.  ``ref_hom_tables`` and ``ref_lie_iso_tables`` are the two tables
that ``check_ker_delta1_hom`` and ``check_hh1_lie_iso`` compared while
each applied ψ¹ itself and built its own table with ``ref_brackets``.

The package now brackets the rows of each ker δ¹ once
(``PairComplex.ker1_brackets``) and their ψ¹ images once
(``GluedAlgebra.psi1_brackets``), and reads the Lie terms and both
checks' tables off those with ``restrict_table``.  ``hom_tables`` and
``lie_iso_tables`` build the two checks' tables as the checks do.  Every
table must equal its reference entry for entry, with the same keys in the
same order and the same entries in the same order within each value, and
the Lie presentation must have the same dimension and labels, on both
sides of every gluing.

Once a complex holds ``ker1_brackets``, ``PairComplex.brackets`` reads a
pair of its kernel rows in row order off that table instead of
bracketing it.  The tests below hold ``brackets`` to ``ref_brackets``,
strictly, on every call shape that reaches both branches: γ's pair with
each kernel row of B in both orders, the rows in reverse order and with
their items reordered, and the ψ¹ images on the W1 gluings where some
image is not a row of B's kernel.  Each also counts the ``bracket``
calls, so the split between read and bracketed pairs is pinned.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import LabeledBasis, LinearMap, QuotientView
from quiverhh.paircomplex import LieAlgebraPresentation, PairComplex, pair_str, restrict_table
from quiverhh.randomgen import RandomSpec, instance_with_gluing, source_sink_instance
from test_linalg_reference import representatives

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def ref_brackets(C, vectors, reduce=None) -> dict:
    """``{(i, j): reduce([v_i, v_j])}`` for ``i < j``, ascending and without
    empty values, bracketing only the pairs ``interacting_pairs`` keeps;
    ``reduce`` (linear, the identity by default) never sees ``{}``."""
    out = {}
    for i, j in C.interacting_pairs(vectors):
        v = C.bracket(vectors[i], vectors[j])
        v = reduce(v) if v and reduce else v
        if v:
            out[i, j] = v
    return out


def ref_lie(C) -> LieAlgebraPresentation:
    """HH^1 structure constants on the deterministic representatives."""
    reps = representatives(C.hh1_view)
    coords = ref_brackets(C, reps, C.hh1_view.project)
    terms = {pair: tuple(v.items()) for pair, v in coords.items()}
    pivots = [C.ker1.pivots[i] for i in C.hh1_view.rep_indices]
    labels = tuple(pair_str(C.A, C.basis1.labels[p], "1") for p in pivots)
    return LieAlgebraPresentation(len(reps), labels, terms, C.field)


def ref_hom_tables(g) -> tuple:
    f = g.B.field
    CA, CB = g.complexes
    rows = CA.ker1.row_vectors()
    transported = ref_brackets(CA, rows, lambda v: g.psi1.apply(f, v))
    return transported, ref_brackets(CB, [g.psi1.apply(f, r) for r in rows])


def ref_lie_iso_tables(g, view_b) -> tuple:
    """(M applied to A's structure constants, or None where M is not
    square, and the projected B brackets of the transported representatives)."""
    f = g.B.field
    CA, CB = g.complexes
    psi_reps = [g.psi1.apply(f, r) for r in representatives(CA.hh1_view)]
    cols = [view_b.project(v) for v in psi_reps]
    want = None
    if len(cols) == view_b.dim:
        coord_basis = LabeledBasis(tuple(range(view_b.dim)))
        transported = LinearMap(coord_basis, coord_basis, tuple(cols))
        want = {k: transported.apply(f, dict(t)) for k, t in ref_lie(CA).terms.items()}
    return want, ref_brackets(CB, psi_reps, view_b.project)


def hom_tables(g) -> tuple:
    CA = g.complexes[0]
    psi1 = partial(g.psi1.apply, g.B.field)
    return restrict_table(CA.ker1_brackets, range(CA.ker1.dim), psi1), g.psi1_brackets


def lie_iso_tables(g, view_b) -> tuple:
    f = g.B.field
    CA = g.complexes[0]
    reps = CA.hh1_view.rep_indices
    cols = [view_b.project(g.psi1_rows[i]) for i in reps]
    want = None
    if len(cols) == view_b.dim:
        coord_basis = LabeledBasis(tuple(range(view_b.dim)))
        transported = LinearMap(coord_basis, coord_basis, tuple(cols))
        want = {k: transported.apply(f, t) for k, t in CA.lie.terms.items()}
    return want, restrict_table(g.psi1_brackets, reps, view_b.project)


def ordered(table) -> list:
    """A table as a list of (key, entries), keeping both orders."""
    if table is None:
        return None
    return [(k, list(v.items()) if isinstance(v, dict) else list(v)) for k, v in table.items()]


def assert_gluing_matches(g) -> int:
    """Compare every table of ``g`` with its reference; returns the number
    of nonzero entries compared."""
    entries = 0
    for C in g.complexes:
        pres, ref = C.lie, ref_lie(C)
        assert (pres.dim, pres.basis_labels) == (ref.dim, ref.basis_labels)
        assert ordered(pres.terms) == ordered(ref.terms)
        entries += len(pres.terms)
    for new, ref in zip(hom_tables(g), ref_hom_tables(g)):
        assert ordered(new) == ordered(ref)
        entries += len(new)
    if g.source_sink:  # elsewhere ψ¹ may leave ker δ¹ of B, and the check never runs
        view_b = QuotientView(g.B.field, g.complexes[1].ker1, g.im0_gamma)
        for new, ref in zip(lie_iso_tables(g, view_b), ref_lie_iso_tables(g, view_b)):
            assert ordered(new) == ordered(ref)
            entries += len(new or ())
    return entries


def test_corpus_and_fans_match_reference():
    cases = [(e.text, "alpha", "beta") for e in EXAMPLES]
    cases += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    entries = 0
    for text, alpha, beta in cases:
        A = parse(text)
        entries += assert_gluing_matches(
            glue(A, A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta])
        )
    assert entries > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.booleans())
def test_random_gluings_match_reference(seed, field, source_sink):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = (source_sink_instance if source_sink else instance_with_gluing)(spec)
    assert_gluing_matches(glue(A, gs.alpha, gs.beta))


# -- pairs of kernel rows read off ker1_brackets -----------------------------------

# The number of W1 gluings (those of ``run_fuzz(20260809, 1000,
# spec_kwargs={"max_dim": 32})``) with a ψ¹ image that is not a row of B's
# kernel: 126 have an image that is no row even as a dict (mostly outside
# ker δ¹_B), and three more an image that is a row with its items in another
# order.
W1_NON_ROW_IMAGES = 129


@pytest.fixture
def bracket_calls(monkeypatch) -> list:
    calls = []
    bracket = PairComplex.bracket

    def counting(self, x, y):
        calls.append(None)
        return bracket(self, x, y)

    monkeypatch.setattr(PairComplex, "bracket", counting)
    return calls


def readable(C, vectors) -> int:
    """The number of pairs ``brackets`` reads off ``C.ker1_brackets``."""
    at = {r: n for n, r in enumerate(C.ker1.rows)}
    pos = [at.get(tuple(v.items())) for v in vectors]
    pairs = C.interacting_pairs(vectors)
    return sum(pos[i] is not None and pos[j] is not None and pos[i] < pos[j] for i, j in pairs)


def assert_brackets_match(C, vectors, calls) -> tuple:
    """``C.brackets`` equals ``ref_brackets`` strictly and brackets every pair
    it does not read; returns (pairs read, pairs bracketed)."""
    reads = readable(C, vectors)
    before = len(calls)
    new = C.brackets(vectors)
    computed = len(calls) - before
    assert computed == len(C.interacting_pairs(vectors)) - reads
    assert ordered(new) == ordered(ref_brackets(C, vectors))
    return reads, computed


def reference_gluings() -> list:
    cases = [(e.text, "alpha", "beta") for e in EXAMPLES]
    cases += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4, 6) for p in (0, 2, 3, 5)]
    out = []
    for text, alpha, beta in cases:
        A = parse(text)
        out.append(glue(A, A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]))
    for seed, field in enumerate(sorted(FIELDS) * 10):
        spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
        A, gs = source_sink_instance(spec)
        out.append(glue(A, gs.alpha, gs.beta))
    return out


def test_gamma_brackets_read_b_table(bracket_calls):
    """``hh1_central_summand``'s calls, γ's pair with each kernel row of B,
    and the same pairs in the other order."""
    totals = [0, 0]
    for g in reference_gluings():
        CB = g.complexes[1]
        CB.ker1_brackets
        gamma = g.gamma_pair_vector()
        for r in CB.ker1.row_vectors():
            for vectors in ([gamma, r], [r, gamma]):
                for n, k in enumerate(assert_brackets_match(CB, vectors, bracket_calls)):
                    totals[n] += k
    assert totals[0] > 0 and totals[1] > 0


def test_rows_out_of_order_are_bracketed(bracket_calls):
    """Rows in reverse order, or with their items reordered, are not read."""
    computed = [0, 0]
    for g in reference_gluings():
        for C in g.complexes:
            C.ker1_brackets
            rows = C.ker1.row_vectors()
            reads, n = assert_brackets_match(C, rows[::-1], bracket_calls)
            assert reads == 0
            computed[0] += n
            reordered = [dict(reversed(r.items())) for r in rows]
            computed[1] += assert_brackets_match(C, reordered, bracket_calls)[1]
    assert computed[0] > 0 and computed[1] > 0


def test_psi1_images_off_b_rows_match_reference(w1_gluings, bracket_calls):
    """On every W1 gluing with a ψ¹ image that is not a row of B's kernel,
    ``psi1_brackets`` equals ``ref_brackets`` and both branches run."""
    totals, pinned = [0, 0], 0
    for _, g in w1_gluings:
        CB = g.complexes[1]
        rows = set(CB.ker1.rows)
        if all(tuple(v.items()) in rows for v in g.psi1_rows):
            continue
        pinned += 1
        CB.ker1_brackets
        for n, k in enumerate(assert_brackets_match(CB, g.psi1_rows, bracket_calls)):
            totals[n] += k
        assert ordered(g.psi1_brackets) == ordered(ref_brackets(CB, g.psi1_rows))
    assert pinned == W1_NON_ROW_IMAGES
    assert totals[0] > 0 and totals[1] > 0
