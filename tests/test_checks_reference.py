"""Differential tests: the HH^1 bracket checks against their earlier forms.

The reference below is ``check_hh1_lie_iso`` as the package ran it before
the check read A's structure constants from ``hh1_lie``: for every basis
pair it solves for the preimage of the projected B bracket with a fresh
elimination and compares it with A's projected bracket.  It is kept
unchanged apart from reading its inputs from a small context object.  Both
forms must agree on status, compared values and reason, also when the B
bracket is perturbed so that the structure constants differ.  Its
quotient coordinates come from the dense ``RefQuotientView`` of
``test_linalg_reference``, as they did when ``project`` returned tuples.

The reference ``ref_check_ker_delta1_hom`` is ``check_ker_delta1_hom`` as
it ran before the check compared the tables that ``PairComplex.brackets``
builds on either side, each over the pairs its own filter keeps: it
brackets every pair of kernel rows. No corpus gluing fails that check, so
the pair it reports is compared under perturbations: B's bracket scaled by
2 or 3 or made symmetric (``_SymmetricBracket``), and a transport that
drops every B pair with one given left arrow. Under the symmetric bracket
some mismatched pairs are kept only by B's side of the filter, under the
dropping transport some only by A's side. ``ref_hh1_central_summand_body``
is the body of ``check_hh1_central_summand`` before it bracketed only the
kernel rows that meet the merged arrow's pair.

``check_hh1_lie_iso`` compares the transported nonzero A structure
constants with the projected B brackets of the pairs B's filter keeps, and
reports the least pair where the two tables differ.  A bracket that
forgets one arrow (``_ForgetfulBracket``) on A's side or on B's side
makes some pairs nonzero on the other side only, so a pair missing from
either table must still be reported as the reference reports it.  The
test doubles take the package's ``brackets`` loop and its cached
``ker1_brackets`` table, so no table cached on the wrapped complex skips a
double's ``bracket``, and a forgetful A side carries its own Lie
presentation as ``lie``.

The check reads the kernel of the transport on A's degree-one kernel by
rank-nullity, where the reference takes it with ``ref_restricted_kernel``.
No corpus or fuzz gluing makes that comparison false, so its false branch
is forged: the transport of a gluing that is not source-sink, whose check
passes, is replaced by one that kills the diagonal pair of a third arrow
(``_kill_diagonal``).  Containment still holds, and both forms must fail.

``ref_center_embedding`` is ``checks._center_embedding`` before it read
A's unit on one vertex of each glued pair: it pushed all of A's trivial
pairs through ψ⁰ and then subtracted the scalar part again on B's two
merged vertices.  Both forms must send every HH⁰ row of A, and every
central product of two rows, to the same vector (or both to None), on the
connected gluings of the fuzz corpus, on random source-sink gluings, on
the corpus and on the two forged ψ⁰ of ``test_checks._doubled_cycles``.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from conftest import glued
from quiverhh.checks import (
    LOOP_POWER,
    CheckReport,
    _center_embedding,
    check_hh1_central_summand,
    check_hh1_lie_iso,
    check_ker_delta1_hom,
)
from quiverhh.errors import ContainmentError
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import (
    LabeledBasis,
    LinearMap,
    accumulate,
    contains_subspace,
    member,
    solve_columns,
    span,
    subspace_sum,
)
from quiverhh.paircomplex import LieAlgebraPresentation, PairComplex, central_mult
from quiverhh.randomgen import RandomSpec, source_sink_instance
from test_basis_lookup_reference import substitute
from test_checks import CENTRAL_LOOP, CENTRAL_LOOPS_TWO_BLOCKS, _doubled_cycles
from test_linalg_reference import RefQuotientView, ref_restricted_kernel, representatives
from test_restricted_kernel_reference import alpha_minus_beta

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


class _Context:
    """The data of one gluing that the reference checker reads."""

    def __init__(self, g):
        self.g = g
        self.f = g.B.field
        self.CA, self.CB = g.complexes
        self.gamma_span = span(self.f, self.CB.basis1, [g.gamma_pair_vector()])
        self.view_a = RefQuotientView(self.f, self.CA.ker1, self.CA.im0)


def _na(check, reason):
    return CheckReport(check, "not-applicable", reason=reason)


def _verdict(check, ok, lhs=None, rhs=None, reason=""):
    return CheckReport(check, "pass" if ok else "fail", lhs=lhs, rhs=rhs, reason=reason)


def _quotient_view_b(ctx):
    f = ctx.f
    y = subspace_sum(f, ctx.CB.im0, ctx.gamma_span)
    return RefQuotientView(f, ctx.CB.ker1, y)


def ref_check_hh1_lie_iso(ctx):
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        return _na("hh1_lie_iso", "requires a source-sink gluing")
    view_b = _quotient_view_b(ctx)
    reps_a = representatives(ctx.CA.hh1_view)
    cols = []
    for r in reps_a:
        coords = view_b.project(g.psi1.apply(f, r))
        cols.append({i: c for i, c in enumerate(coords) if not f.is_zero(c)})
    dim_target = view_b.dim
    ok = len(reps_a) == dim_target
    coord_basis = LabeledBasis(tuple(range(dim_target))) if dim_target else LabeledBasis(())
    rank = span(f, coord_basis, cols).dim if dim_target else 0
    ok = ok and rank == dim_target
    detail = ""
    if ok:
        for i in range(len(reps_a)):
            for j in range(i + 1, len(reps_a)):
                want = ctx.view_a.project(ctx.CA.bracket(reps_a[i], reps_a[j]))
                got_vec = view_b.project(
                    ctx.CB.bracket(g.psi1.apply(f, reps_a[i]), g.psi1.apply(f, reps_a[j]))
                )
                sol = solve_columns(
                    f, dim_target, cols, {k: c for k, c in enumerate(got_vec) if not f.is_zero(c)}
                )
                if sol is None or tuple(sol) != tuple(want):
                    ok = False
                    detail = f"structure constants differ at basis pair ({i}, {j})"
                    break
            if detail:
                break
    return _verdict("hh1_lie_iso", ok, ctx.CA.hh1_view.dim, dim_target, reason=detail)


class _ScaledBracket:
    """B's pair complex with its degree-one bracket multiplied by ``c``.

    ``brackets`` is the package's own pair loop and ``ker1_brackets`` its
    table of the kernel rows, rebound here so that they call this double's
    ``bracket`` and ``interacting_pairs``."""

    brackets = PairComplex.brackets
    ker1_brackets = PairComplex.ker1_brackets

    def __init__(self, C, c):
        self._C = C
        self._c = c

    def __getattr__(self, name):
        return getattr(self._C, name)

    def bracket(self, x, y):
        f = self._C.field
        out = {k: f.mul(self._c, v) for k, v in self._C.bracket(x, y).items()}
        return {k: v for k, v in out.items() if not f.is_zero(v)}


class _SymmetricBracket(_ScaledBracket):
    """B's pair complex whose bracket adds the two substitutions of the
    degree-one bracket instead of subtracting them.  It still vanishes
    unless the arrows of the two pairs meet."""

    def __init__(self, C):
        super().__init__(C, 1)

    def bracket(self, x, y):
        C = self._C
        f, labels, idx = C.field, C.basis1.labels, C.basis1.index
        out: dict = {}
        for i, ci in x.items():
            a, gamma = labels[i]
            for j, cj in y.items():
                b, eps = labels[j]
                c = f.mul(ci, cj)
                for q in substitute(C.A, eps, a, gamma):
                    accumulate(f, out, idx[(b, q)], c)
                for q in substitute(C.A, gamma, b, eps):
                    accumulate(f, out, idx[(a, q)], c)
        return out


def _glued(A, alpha, beta, scale=None):
    """The gluing with B's bracket scaled by ``scale``, or made symmetric."""
    g = glue(A, alpha, beta)
    if scale is not None:
        CA, CB = g.complexes
        wrapped = _SymmetricBracket(CB) if scale == "symmetric" else _ScaledBracket(CB, scale)
        g.complexes = (CA, wrapped)
    return g


SCALES = (None, 2, 3, "symmetric")


def _outcomes(A, alpha, beta, scale=None):
    new = check_hh1_lie_iso(_glued(A, alpha, beta, scale))
    ref = ref_check_hh1_lie_iso(_Context(_glued(A, alpha, beta, scale)))
    return [(r.status, r.lhs, r.rhs, r.reason) for r in (new, ref)]


def test_corpus_matches_reference():
    texts = [(e.text, "alpha", "beta") for e in EXAMPLES]
    texts += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    fails = 0
    for text, alpha, beta in texts:
        A = parse(text)
        ids = A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]
        for scale in SCALES:
            new, ref = _outcomes(A, *ids, scale)
            assert new == ref, (text, scale)
            fails += new[0] == "fail"
    assert fails >= 10  # the perturbed brackets exercise the fail path


def test_fan_perturbed_bracket_fails_at_first_pair():
    A = parse(fan(3))
    new, ref = _outcomes(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"], 2)
    assert new == ref
    assert new[0] == "fail"
    assert new[3].startswith("structure constants differ at basis pair (")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(SCALES),
)
# under the symmetric bracket a pair past the first difference leaves ker δ¹_B
@example(seed=14626, field="F3", scale="symmetric")
@example(seed=983166, field="F5", scale="symmetric")
def test_source_sink_instances_match_reference(seed, field, scale):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = source_sink_instance(spec)
    new, ref = _outcomes(A, gs.alpha, gs.beta, scale)
    assert new == ref


class _ForgetfulBracket(_ScaledBracket):
    """A pair complex whose bracket and pair filter ignore every component
    with left arrow ``arrow``, as if the vectors had none.  Its bracket
    still vanishes on every pair its filter drops."""

    def __init__(self, C, arrow):
        super().__init__(C, 1)
        self._arrow = arrow

    def _drop(self, v):
        labels = self._C.basis1.labels
        return {k: x for k, x in v.items() if labels[k][0] != self._arrow}

    def bracket(self, x, y):
        return self._C.bracket(self._drop(x), self._drop(y))

    def interacting_pairs(self, vectors):
        return self._C.interacting_pairs([self._drop(v) for v in vectors])


def _all_pairs_lie(C):
    """The structure constants of ``C``'s bracket on its HH^1
    representatives, read off every pair."""
    reps = representatives(C.hh1_view)
    terms = {}
    for i, j in combinations(range(len(reps)), 2):
        coords = C.hh1_view.project(C.bracket(reps[i], reps[j]))
        if coords:
            terms[(i, j)] = coords
    return LieAlgebraPresentation(len(reps), (), terms, C.field)


def _forgetful_glued(A, alpha, beta, side, arrow):
    """The gluing with A's (``side`` "A") or B's bracket forgetting ``arrow``.

    Forgetting changes the brackets of that side only, so some pairs then
    bracket to zero on one side and not on the other.  It leaves the
    transport, and with it the rank condition of ``hh1_lie_iso``, unchanged.
    """
    g = glue(A, alpha, beta)
    CA, CB = g.complexes
    if side == "A":
        g.complexes = (_ForgetfulBracket(CA, arrow), CB)
        g.complexes[0].lie = _all_pairs_lie(g.complexes[0])
    else:
        g.complexes = (CA, _ForgetfulBracket(CB, arrow))
    return g


def _forgetful_outcomes(A, alpha, beta, side, arrow):
    """The report of the check and of its reference on the forgetful gluing.

    Forgetting an arrow can take a bracket of cocycles out of ker δ¹, and
    then no structure constants exist: projecting raises, and the outcome is
    the error, which both sides must then raise alike.
    """

    def outcome(check):
        try:
            r = check()
        except ContainmentError as err:
            return ("ContainmentError", None, None, str(err))
        return (r.status, r.lhs, r.rhs, r.reason)

    return [
        outcome(lambda: check_hh1_lie_iso(_forgetful_glued(A, alpha, beta, side, arrow))),
        outcome(
            lambda: ref_check_hh1_lie_iso(_Context(_forgetful_glued(A, alpha, beta, side, arrow)))
        ),
    ]


def test_forgetful_bracket_corpus_matches_reference():
    # pins both halves of the pair union in hh1_lie_iso: each side's
    # forgetting makes pairs nonzero on the other side only
    texts = [(e.text, "alpha", "beta") for e in EXAMPLES]
    texts += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    reported = set()
    for text, alpha, beta in texts:
        A = parse(text)
        ids = A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]
        for side, arrows in (("A", A.quiver.num_arrows), ("B", A.quiver.num_arrows - 1)):
            for arrow in range(arrows):
                new, ref = _forgetful_outcomes(A, *ids, side, arrow)
                assert new == ref, (text, side, arrow)
                if new[3].startswith("structure constants differ"):
                    reported.add(side)
    assert reported == {"A", "B"}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from("AB"),
    st.integers(0, 10),
)
# forgetting a4 takes brackets out of ker δ¹ on either side
@example(seed=159173, field="F2", side="A", arrow=4)
@example(seed=159173, field="Q", side="B", arrow=4)
def test_forgetful_bracket_source_sink_instances_match_reference(seed, field, side, arrow):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = source_sink_instance(spec)
    arrow %= A.quiver.num_arrows - (side == "B")
    new, ref = _forgetful_outcomes(A, gs.alpha, gs.beta, side, arrow)
    assert new == ref


def ref_check_ker_delta1_hom(g):
    if not LOOP_POWER.holds(g):
        return CheckReport("ker_delta1_hom", LOOP_POWER.status, reason=LOOP_POWER.reason)
    f = g.B.field
    CA, CB = g.complexes
    ok = contains_subspace(f, CB.ker1, g.psi1_ker1)
    QA = g.A.quiver
    alpha_minus_beta = {
        CA.basis1.index[(g.alpha, QA.arrow_path(g.alpha))]: f.one,
        CA.basis1.index[(g.beta, QA.arrow_path(g.beta))]: f.neg(f.one),
    }
    ok = ok and ref_restricted_kernel(f, g.psi1, CA.ker1.row_vectors()) == span(
        f, CA.basis1, [alpha_minus_beta]
    )
    detail = ""
    if g.source_sink:
        rows = CA.ker1.row_vectors()
        psi = [g.psi1.apply(f, r) for r in rows]
        for i, j in combinations(range(len(rows)), 2):
            if g.psi1.apply(f, CA.bracket(rows[i], rows[j])) != CB.bracket(psi[i], psi[j]):
                ok = False
                detail = f"bracket mismatch on kernel rows {(i, j)}"
                break
    return _verdict("ker_delta1_hom", ok, reason=detail)


def _forget_arrow(g, c):
    """Make ``g.psi1`` drop every B pair whose left arrow is ``c``."""
    psi = g.psi1
    labels = psi.codomain.labels
    cols = tuple({k: x for k, x in col.items() if labels[k][0] != c} for col in psi.columns)
    g.psi1 = LinearMap(psi.domain, psi.codomain, cols)
    return g


def _hom_outcomes(A, alpha, beta, perturbation):
    """(status, reason) of the check and of the reference, under
    ``perturbation``: one of ``SCALES`` (see ``_glued``), or
    ``("forget", c)`` for an arrow c of B whose pairs the transport drops."""

    def glued():
        if isinstance(perturbation, tuple):
            return _forget_arrow(glue(A, alpha, beta), perturbation[1])
        return _glued(A, alpha, beta, perturbation)

    return [
        (r.status, r.reason)
        for r in (check_ker_delta1_hom(glued()), ref_check_ker_delta1_hom(glued()))
    ]


def test_ker_delta1_hom_corpus_matches_reference():
    texts = [(e.text, "alpha", "beta") for e in EXAMPLES]
    texts += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    reported = set()
    for text, alpha, beta in texts:
        A = parse(text)
        ids = A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]
        forget = [("forget", c) for c in range(A.quiver.num_arrows - 1)]  # B has one fewer
        for perturbation in list(SCALES) + forget:
            new, ref = _hom_outcomes(A, *ids, perturbation)
            assert new == ref, (text, perturbation)
            if new[1].startswith("bracket mismatch"):
                reported.add(perturbation if perturbation in SCALES else "forget")
    assert reported == {2, 3, "symmetric", "forget"}  # each exercises the reported pair


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(SCALES + ("forget",)),
    st.integers(0, 10),
)
def test_ker_delta1_hom_source_sink_instances_match_reference(seed, field, perturbation, arrow):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = source_sink_instance(spec)
    if perturbation == "forget":
        perturbation = ("forget", arrow % (A.quiver.num_arrows - 1))
    new, ref = _hom_outcomes(A, gs.alpha, gs.beta, perturbation)
    assert new == ref


def _kill_diagonal(g, c):
    """Put into ``g`` a transport whose column at A's pair (c, c) is empty."""
    psi = g.psi1
    cols = list(psi.columns)
    cols[g.complexes[0].basis1.index[(c, g.A.quiver.arrow_path(c))]] = {}
    g.__dict__["psi1"] = LinearMap(psi.domain, psi.codomain, tuple(cols))
    return g


# every corpus gluing that is not source-sink and passes the check unforged;
# biline is not source-sink either, but fails unforged
KILLABLE = [
    "bypass",
    "double-braid",
    "loop-crowd-2",
    "loop-power",
    "twin-pairs-rad2",
    "two-blocks-deco",
    "zigzag-6",
]


@pytest.mark.parametrize("name", KILLABLE)
def test_ker_delta1_hom_fails_when_the_restriction_kernel_grows(name):
    g = glued(name)
    assert not g.source_sink
    assert check_ker_delta1_hom(g).status == "pass"
    thirds = [c for c in range(g.A.quiver.num_arrows) if c not in (g.alpha, g.beta)]
    assert thirds
    for c in thirds:
        g = _kill_diagonal(glued(name), c)
        f = g.B.field
        CA, CB = g.complexes
        diff = alpha_minus_beta(g)
        assert contains_subspace(f, CB.ker1, g.psi1_ker1)
        assert member(f, CA.ker1, diff)
        assert g.psi1_ker1.dim < CA.ker1.dim - 1
        restriction = ref_restricted_kernel(f, g.psi1, CA.ker1.row_vectors())
        assert restriction != span(f, CA.basis1, [diff])
        assert check_ker_delta1_hom(g).status == "fail"
        assert ref_check_ker_delta1_hom(_kill_diagonal(glued(name), c)).status == "fail"


def ref_hh1_central_summand_body(g):
    """``check_hh1_central_summand``'s body before it bracketed only the
    kernel rows that meet the merged arrow's pair."""
    f = g.B.field
    CA, CB = g.complexes
    gamma_vec = g.gamma_pair_vector()
    ok = all(member(f, CB.im0, CB.bracket(gamma_vec, w)) for w in CB.ker1.row_vectors())
    lhs = CB.hh1_view.dim
    rhs = CA.hh1_view.dim + 1
    ok = ok and lhs == rhs
    return _verdict("hh1_central_summand", ok, lhs, rhs)


def _central_outcomes(A, alpha, beta, scale):
    """Status and values of the checker body and of the reference, or None
    where a hypothesis of the check fails."""
    g = _glued(A, alpha, beta, scale)
    if not all(h.holds(g) for h in check_hh1_central_summand.hypotheses):
        return None
    new = check_hh1_central_summand.__wrapped__(g)
    ref = ref_hh1_central_summand_body(_glued(A, alpha, beta, scale))
    return [(r.status, r.lhs, r.rhs) for r in (new, ref)]


def test_hh1_central_summand_matches_reference():
    texts = [(e.text, "alpha", "beta") for e in EXAMPLES]
    texts += [(fan(m), "alpha", "beta") for m in (2, 3, 4, 5)]
    statuses = set()
    for text, alpha, beta in texts:
        A = parse(text)
        ids = A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]
        for scale in SCALES:
            out = _central_outcomes(A, *ids, scale)
            if out is not None:
                assert out[0] == out[1], (text, scale)
                statuses.add((scale, out[0][0]))
    assert ("symmetric", "fail") in statuses and (None, "pass") in statuses


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(SCALES))
def test_hh1_central_summand_random_matches_reference(seed, scale):
    spec = RandomSpec(seed=seed, field=QQ, max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = source_sink_instance(spec)
    out = _central_outcomes(A, gs.alpha, gs.beta, scale)
    assert out is None or out[0] == out[1]


def ref_center_embedding(g):
    f = g.B.field
    CA, CB = g.complexes
    QA, QB = g.A.quiver, g.B.quiver
    triv_a = [CA.basis0.index[(v, QA.trivial_path(v))] for v in range(QA.num_vertices)]
    merged = [
        CB.basis0.index[(m, QB.trivial_path(m))]
        for m in (g.vertex_map[g.endpoints[0]], g.vertex_map[g.endpoints[1]])
    ]

    def mu(vec: dict):
        c = vec.get(triv_a[0], f.zero)
        if any(vec.get(i, f.zero) != c for i in triv_a):
            return None  # degree-zero part not scalar: unexpected
        out = g.psi0.apply(f, vec)
        for i in merged:
            accumulate(f, out, i, f.neg(c))
        return out

    return mu


def assert_same_embedding(g) -> int:
    """Compare both embeddings on A's HH⁰ rows and their pairwise central
    products; return the number of vectors compared."""
    CA = g.complexes[0]
    rows = CA.hh0.row_vectors()
    vectors = rows + [central_mult(CA, x, y) for x in rows for y in rows]
    new, ref = _center_embedding(g), ref_center_embedding(g)
    for v in vectors:
        assert new(v) == ref(v), v
    return len(vectors)


def test_center_embedding_matches_reference_on_fuzz_corpus(w1_gluings):
    connected = [g for _, g in w1_gluings if g.components[0] == 1]
    assert sum(assert_same_embedding(g) for g in connected) == 1854
    assert len(connected) == 531
    assert sum(g.B.field.char == 2 for g in connected) == 142  # where 2c = 0


def test_center_embedding_matches_reference_on_source_sink_instances():
    fields = list(FIELDS.values())
    for seed in range(300):
        spec = RandomSpec(seed=seed, field=fields[seed % 4], max_vertices=4, max_arrows=5)
        A, gs = source_sink_instance(spec)
        assert_same_embedding(glue(A, gs.alpha, gs.beta))


def test_center_embedding_matches_reference_on_corpus_and_forgeries():
    texts = [e.text for e in EXAMPLES] + [fan(m, p) for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    for text in texts:
        A = parse(text)
        assert_same_embedding(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]))
    for text in (CENTRAL_LOOP, CENTRAL_LOOPS_TWO_BLOCKS):
        assert_same_embedding(_doubled_cycles(text))
