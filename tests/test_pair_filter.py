"""Soundness of the bracket pair filter and the work it saves.

``PairComplex.interacting_pairs`` keeps a pair of degree-one vectors when
a left arrow of one occurs in a right-hand path of the other.  Every pair
it leaves out must bracket to ``{}``, on every family of vectors that the
bracket loop ``PairComplex.brackets`` reads: the degree-one kernel rows
and the HH^1 representatives of A and of the glued B, and the transports
of A's rows and representatives into B.  ``brackets`` must build the same
table as bracketing every pair, and so must each table read off its two
cached tables through ``restrict_table``: ``ker1_brackets`` of a complex
feeds the Lie terms and the transported A table, ``psi1_brackets`` of a
gluing the B side of both bracket checks.  Each table is built once, so
the checks on ``glue(fan(6))`` bracket no pair of A's kernel rows twice,
and no pair of B's kernel rows in row order twice: ``brackets`` reads a
pair of B's rows off B's table.
"""

from functools import partial
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.checks import run_checks
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import QuotientView
from quiverhh.paircomplex import PairComplex, complex_data, hh1_lie, restrict_table
from quiverhh.randomgen import RandomSpec, instance_with_gluing, source_sink_instance
from test_linalg_reference import representatives

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
        kept += assert_sound(C, representatives(C.hh1_view))
    for vectors in (CA.ker1.row_vectors(), representatives(CA.hh1_view)):
        kept += assert_sound(CB, [g.psi1.apply(f, v) for v in vectors])
    return kept


def test_filter_sound_on_corpus_and_fans():
    cases = [(e.text, "alpha", "beta") for e in EXAMPLES]
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
    """fan(12) over F5 has 143 representatives among its kernel rows.
    hh1_lie reads the bracket table of all the kernel rows: exactly their
    1650 interacting pairs, each with a nonzero cochain bracket."""
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
    assert len(results) == 1650
    assert all(results)


def assert_table_matches_all_pairs(C, vectors, table, reduce=None) -> int:
    """``table`` equals the table read off every pair of ``vectors`` in
    ``C``, each bracket reduced by ``reduce``: the same keys in the same
    order, the same values with their entries in the same order, and no
    empty value.  Returns the number of entries."""
    want = {}
    for i, j in combinations(range(len(vectors)), 2):
        v = C.bracket(vectors[i], vectors[j])
        v = v if reduce is None else reduce(v)
        if v:
            want[(i, j)] = v
    assert all(table.values())
    assert [(k, list(v.items())) for k, v in table.items()] == [
        (k, list(v.items())) for k, v in want.items()
    ]
    return len(table)


def assert_gluing_brackets_match(g) -> int:
    f = g.B.field
    CA, CB = g.complexes
    entries = 0
    for C in (CA, CB):
        rows, view = C.ker1.row_vectors(), C.hh1_view
        entries += assert_table_matches_all_pairs(C, rows, C.brackets(rows))
        entries += assert_table_matches_all_pairs(C, rows, C.ker1_brackets)
        reps = representatives(view)
        entries += assert_table_matches_all_pairs(C, reps, C.lie.terms, view.project)
    rows = CA.ker1.row_vectors()
    psi = partial(g.psi1.apply, f)
    assert g.psi1_rows == [psi(r) for r in rows]
    transported = restrict_table(CA.ker1_brackets, range(len(rows)), psi)
    entries += assert_table_matches_all_pairs(CA, rows, transported, psi)
    entries += assert_table_matches_all_pairs(CB, g.psi1_rows, g.psi1_brackets)
    if g.source_sink:
        view_b = QuotientView(f, CB.ker1, g.im0_gamma)
        reps = CA.hh1_view.rep_indices
        table = restrict_table(g.psi1_brackets, reps, view_b.project)
        psi_reps = [g.psi1_rows[i] for i in reps]
        entries += assert_table_matches_all_pairs(CB, psi_reps, table, view_b.project)
    return entries


def test_brackets_match_all_pairs_on_corpus_and_fans():
    cases = [(e.text, "alpha", "beta") for e in EXAMPLES]
    cases += [(fan(m), "alpha", "beta") for m in (2, 3, 4, 5)]
    entries = 0
    for text, alpha, beta in cases:
        A = parse(text)
        entries += assert_gluing_brackets_match(
            glue(A, A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta])
        )
    assert entries > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.booleans())
def test_brackets_match_all_pairs_on_random_gluings(seed, field, source_sink):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = (source_sink_instance if source_sink else instance_with_gluing)(spec)
    assert_gluing_brackets_match(glue(A, gs.alpha, gs.beta))


def _count_brackets(monkeypatch) -> list:
    calls = []
    bracket = PairComplex.bracket

    def counting(self, x, y):
        calls.append(None)
        return bracket(self, x, y)

    monkeypatch.setattr(PairComplex, "bracket", counting)
    return calls


def test_hh1_lie_is_computed_once_per_complex(monkeypatch):
    A = parse(fan(4, 5))
    calls = _count_brackets(monkeypatch)
    pres = hh1_lie(A)
    assert calls
    del calls[:]
    C = complex_data(A)
    assert hh1_lie(A) is pres is C.lie
    assert C.ker1_brackets is C.ker1_brackets
    assert not calls


def test_fan6_checks_bracket_392_times(monkeypatch):
    """Each side brackets its kernel rows once, in ``ker1_brackets``.  The
    ψ¹ images of A's rows are rows of B's kernel, so ``psi1_brackets``
    reads them off B's table and brackets only the one pair of equal
    images; γ's pair with each row of B is read there too, but for γ's
    pair with itself.  The Lie presentations and the checks restrict
    those tables."""
    complex_data.cache_clear()  # an earlier test may hold the complexes and their tables
    A = parse(fan(6))
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    calls = _count_brackets(monkeypatch)
    reports = run_checks(g)
    assert not any(r.failed for r in reports)
    assert len(calls) == 392


def test_fan6_checks_bracket_each_a_kernel_row_pair_once(monkeypatch):
    complex_data.cache_clear()  # an earlier test may hold the complexes and their tables
    A = parse(fan(6))
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    CA = g.complexes[0]
    row_index = {tuple(r): i for i, r in enumerate(CA.ker1.rows)}
    pairs = []
    bracket = PairComplex.bracket

    def recording(self, x, y):
        if self is CA:
            pairs.append((row_index[tuple(x.items())], row_index[tuple(y.items())]))
        return bracket(self, x, y)

    monkeypatch.setattr(PairComplex, "bracket", recording)
    assert not any(r.failed for r in run_checks(g))
    assert pairs and len(pairs) == len(set(pairs))


def test_fan6_checks_bracket_each_b_kernel_row_pair_once(monkeypatch):
    """B's twin: every vector B brackets is a row of its kernel, no pair of
    rows in row order is bracketed twice, and the only other brackets are
    of γ's pair with itself, once for the equal ψ¹ images of α's and β's
    pairs and once in ``hh1_central_summand``."""
    complex_data.cache_clear()  # an earlier test may hold the complexes and their tables
    A = parse(fan(6))
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    CB = g.complexes[1]
    row_index = {tuple(r): i for i, r in enumerate(CB.ker1.rows)}
    pairs = []
    bracket = PairComplex.bracket

    def recording(self, x, y):
        if self is CB:
            pairs.append((row_index[tuple(x.items())], row_index[tuple(y.items())]))
        return bracket(self, x, y)

    monkeypatch.setattr(PairComplex, "bracket", recording)
    assert not any(r.failed for r in run_checks(g))
    in_order = [(p, q) for p, q in pairs if p < q]
    assert in_order and len(in_order) == len(set(in_order))
    gamma = row_index[tuple(g.gamma_pair_vector().items())]
    assert [pq for pq in pairs if pq[0] >= pq[1]] == [(gamma, gamma)] * 2
