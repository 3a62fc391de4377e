"""Differential test: the HH^1 Lie map check against its per-pair-solve form.

The reference below is ``check_hh1_lie_iso`` as the package ran it before
the check read A's structure constants from ``hh1_lie``: for every basis
pair it solves for the preimage of the projected B bracket with a fresh
elimination and compares it with A's projected bracket.  It is kept
unchanged apart from reading its inputs from a small context object.  Both
forms must agree on status, compared values and reason, also when the B
bracket is perturbed so that the structure constants differ.  Its
quotient coordinates come from the dense ``RefQuotientView`` of
``test_linalg_reference``, as they did when ``project`` returned tuples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.checks import CheckReport, check_hh1_lie_iso
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import LabeledBasis, solve_columns, span, subspace_sum
from quiverhh.randomgen import RandomSpec, source_sink_instance
from test_linalg_reference import RefQuotientView

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
    reps_a = ctx.CA.hh1_view.representatives()
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
    """B's pair complex with its degree-one bracket multiplied by ``c``."""

    def __init__(self, C, c):
        self._C = C
        self._c = c

    def __getattr__(self, name):
        return getattr(self._C, name)

    def bracket(self, x, y):
        f = self._C.field
        out = {k: f.mul(self._c, v) for k, v in self._C.bracket(x, y).items()}
        return {k: v for k, v in out.items() if not f.is_zero(v)}


def _glued(A, alpha, beta, scale=None):
    g = glue(A, alpha, beta)
    if scale is not None:
        CA, CB = g.complexes
        g.complexes = (CA, _ScaledBracket(CB, scale))
    return g


def _outcomes(A, alpha, beta, scale=None):
    new = check_hh1_lie_iso(_glued(A, alpha, beta, scale))
    ref = ref_check_hh1_lie_iso(_Context(_glued(A, alpha, beta, scale)))
    return [(r.status, r.lhs, r.rhs, r.reason) for r in (new, ref)]


def test_corpus_matches_reference():
    texts = [(e.text, e.alpha, e.beta) for e in EXAMPLES]
    texts += [(fan(m, p), "alpha", "beta") for m in (2, 3, 4) for p in (0, 2, 3, 5)]
    fails = 0
    for text, alpha, beta in texts:
        A = parse(text)
        ids = A.quiver.arrow_index[alpha], A.quiver.arrow_index[beta]
        for scale in (None, 2, 3):
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
    st.sampled_from([None, 2, 3]),
)
def test_source_sink_instances_match_reference(seed, field, scale):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=24)
    A, gs = source_sink_instance(spec)
    new, ref = _outcomes(A, gs.alpha, gs.beta, scale)
    assert new == ref
