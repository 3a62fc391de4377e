"""Differential tests: declared hypotheses and oracles against the hand-written forms.

Before checkers were declared with ``checks.check``, each began with
hand-written guard returns for its hypotheses, and ``confirm_failure`` chose
oracles by check name.  Both are kept below as references, unchanged apart
from being lifted out of the checker bodies: ``ref_guard`` returns the
report a checker's guards produced (None when its body ran) and
``ref_confirm_failure`` is the name-prefix dispatch.  The ``high_degrees``
guards are the three gates that ``higher.check_high_degree_gluing`` once
tested for every degree.  The declared forms must agree with them on the
built-in corpus and on generated gluings.
"""

import contextlib
import io
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import glued, glued_crown4
from test_basis_lookup_reference import ref_path_set
from quiverhh.checks import CHECKS, CheckReport, check_hh1_lie_iso, confirm_failure, run_fuzz
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.quiver import crown_order
from quiverhh.randomgen import RandomSpec, instance_with_gluing, source_sink_instance

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}
GUARDED = ("not-applicable", "assumption-violated")
README = Path(__file__).resolve().parents[1] / "README.md"


def _na(check, reason):
    return CheckReport(check, "not-applicable", reason=reason)


def _violated(check, witness):
    return CheckReport(check, "assumption-violated", witness=witness,
                       reason="characteristic divides a glued-vertex loop power")


def _loop_witness(g, witness):
    a, m = witness
    return (g.A.quiver.arrow_name(a), m)


def ref_guard(name, g):
    """The guard report of checker ``name`` on ``g``, or None when its body runs."""
    f = g.B.field
    c_a, _ = g.components
    if name == "im_delta0_structure":
        if not g.source_sink:
            return _na("im_delta0_structure", "requires a source-sink gluing")
    elif name == "rad_sq_zero_im":
        if not g.source_sink:
            return _na("rad_sq_zero_im", "requires a source-sink gluing")
        if not g.A.is_radical_square_zero():
            return _na("rad_sq_zero_im", "requires a radical-square-zero algebra")
    elif name in ("ker_delta1_hom", "ker_delta1_structure"):
        if not g.source_sink:
            witness = g.assumption
            if witness is not None:
                return _violated(name, _loop_witness(g, witness))
    elif name == "hh1_lie_iso":
        if not g.source_sink:
            return _na("hh1_lie_iso", "requires a source-sink gluing")
    elif name == "hh1_central_summand":
        if not g.source_sink:
            return _na("hh1_central_summand", "requires a source-sink gluing")
        if not g.same_block:
            return _na("hh1_central_summand", "requires a same-block gluing")
        if f.char != 0:
            return _na("hh1_central_summand", "requires characteristic zero")
    elif name == "hh1_dim_general":
        witness = g.assumption
        if witness is not None:
            return _violated("hh1_dim_general", _loop_witness(g, witness))
    elif name == "rad_sq_zero_summand":
        if not g.A.is_radical_square_zero():
            return _na("rad_sq_zero_summand", "requires a radical-square-zero algebra")
        if not g.same_block:
            return _na("rad_sq_zero_summand", "requires a same-block gluing")
        if g.B.field.char != 0:
            return _na("rad_sq_zero_summand", "requires characteristic zero")
        if g.z_spp.dim != 0:
            return _na("rad_sq_zero_summand", "requires a vanishing special-pair kernel part")
    elif name == "center_indec":
        if c_a != 1:
            return _na("center_indec", "requires an indecomposable algebra")
    elif name == "center_source_sink":
        if not g.source_sink:
            return _na("center_source_sink", "requires a source-sink gluing")
        if c_a != 1:
            return _na("center_source_sink", "requires an indecomposable algebra")
        e1, e2, e3, e4 = g.endpoints
        if ref_path_set(g.A, e3, e2):
            return _na("center_source_sink", "connecting paths exist; criterion is silent here")
    elif name == "center_rad_sq_zero":
        if not g.A.is_radical_square_zero():
            return _na("center_rad_sq_zero", "requires a radical-square-zero algebra")
        if c_a != 1:
            return _na("center_rad_sq_zero", "requires an indecomposable algebra")
    elif name == "center_diff_blocks":
        if g.same_block or c_a != 2:
            return _na("center_diff_blocks", "requires gluing across exactly two blocks")
    elif name == "gamma_not_in_image":
        if not (g.source_sink and g.same_block):
            return _na("gamma_not_in_image", "requires a same-block source-sink gluing")
    elif name == "theta_diagram":
        if not (g.source_sink and g.same_block):
            return _na("theta_diagram", "requires a same-block source-sink gluing")
    elif name == "high_degrees":
        if not g.A.is_radical_square_zero():
            return _na("high_degrees", "algebra is not radical square zero")
        if len(g.A.quiver.components) != 1:
            return _na("high_degrees", "algebra is not indecomposable")
        if crown_order(g.A.quiver) is not None:
            return _na("high_degrees", "source quiver is a crown")
    return None


def ref_confirm_failure(g, report):
    CA, CB = g.complexes

    def hh1_ok():
        return g.oracle_hh1_dims == (CA.hh1_view.dim, CB.hh1_view.dim)

    def center_ok():
        return g.oracle_center_dims == (CA.hh0.dim, CB.hh0.dim)

    if report.check in ("hh1_dim_general", "ker_delta1_structure", "ker_delta1_hom"):
        return hh1_ok()
    if report.check.startswith("center"):
        return center_ok()
    if report.check == "im_delta0_dim":
        return hh1_ok() and center_ok()
    return False


def _guard_outcome(rep):
    if rep is None or rep.status not in GUARDED:
        return "ran"
    return (rep.check, rep.status, rep.reason, rep.witness, rep.lhs, rep.rhs)


def assert_guards_match(g):
    for name, checker in CHECKS.items():
        assert _guard_outcome(checker(g)) == _guard_outcome(ref_guard(name, g)), name


def test_corpus_guards_match_reference():
    statuses = set()
    for ex in EXAMPLES:
        g = glued(ex.name)
        assert_guards_match(g)
        statuses |= {CHECKS[n](g).status for n in ("hh1_dim_general", "center_diff_blocks")}
    for m, p in ((2, 0), (3, 5)):
        A = parse(fan(m, p))
        assert_guards_match(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]))
    assert_guards_match(glued_crown4())
    assert {"pass", "not-applicable", "assumption-violated"} <= statuses


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.booleans())
def test_generated_guards_match_reference(seed, field, source_sink):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=4, max_arrows=5, max_dim=20)
    A, gs = (source_sink_instance if source_sink else instance_with_gluing)(spec)
    assert_guards_match(glue(A, gs.alpha, gs.beta))


def test_declared_oracles_match_name_dispatch_on_synthetic_reports():
    """Every check name, with each oracle agreeing or not, on a stand-in gluing."""
    complexes = (
        SimpleNamespace(hh1_view=SimpleNamespace(dim=3), hh0=SimpleNamespace(dim=1)),
        SimpleNamespace(hh1_view=SimpleNamespace(dim=4), hh0=SimpleNamespace(dim=2)),
    )
    for hh1_agrees in (True, False):
        for center_agrees in (True, False):
            g = SimpleNamespace(
                complexes=complexes,
                oracle_hh1_dims=(3, 4) if hh1_agrees else (3, 5),
                oracle_center_dims=(1, 2) if center_agrees else (0, 2),
            )
            for name in CHECKS:
                rep = CheckReport(name, "fail")
                assert confirm_failure(g, rep) == ref_confirm_failure(g, rep), name


def test_declared_oracles_match_name_dispatch_on_fuzz_failures():
    seed, count = 20260809, 200
    _, failures = run_fuzz(seed, count)
    fields = (QQ, GF(2), GF(3), GF(5))
    assert len(failures) >= 5
    for inst_seed, rep, confirmed in failures:
        spec = RandomSpec(seed=inst_seed, field=fields[(inst_seed - seed) % len(fields)])
        A, gs = instance_with_gluing(spec)
        g = glue(A, gs.alpha, gs.beta)
        assert confirmed == ref_confirm_failure(g, rep)
        for name in CHECKS:
            synthetic = CheckReport(name, "fail")
            assert confirm_failure(g, synthetic) == ref_confirm_failure(g, synthetic), name


def test_direct_call_reports_unmet_hypothesis():
    gluings = (glued(ex.name) for ex in EXAMPLES)
    g = next(g for g in gluings if not g.source_sink)
    rep = check_hh1_lie_iso(g)
    assert (rep.check, rep.status, rep.reason) == (
        "hh1_lie_iso", "not-applicable", "requires a source-sink gluing"
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(4, 6))
def test_source_sink_gluings_meet_the_loop_power_hypothesis(seed, field, arrows):
    spec = RandomSpec(seed=seed, field=FIELDS[field], max_vertices=5, max_arrows=arrows)
    A, gs = source_sink_instance(spec)
    g = glue(A, gs.alpha, gs.beta)
    assert g.source_sink
    assert g.assumption is None


def _row(cells, names):
    return "| " + " | ".join(cells) + " | " + ", ".join(f"`{n}`" for n in names) + " |"


def _table_rows(readme: str, header: str) -> list:
    """The body rows of the README table whose header line is ``header``."""
    lines = readme.splitlines()
    start = lines.index(header) + 2  # skip the header and its |---| rule
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("|")), len(lines))
    return lines[start:end]


def test_readme_tables_match_the_declarations():
    readme = README.read_text(encoding="utf-8")
    by_hypothesis: dict = {}
    by_oracles: dict = {}
    for name, checker in CHECKS.items():
        for h in checker.hypotheses:
            by_hypothesis.setdefault((h.reason, h.status), []).append(name)
        by_oracles.setdefault(", ".join(checker.oracles) or "none", []).append(name)
    tables = (
        ("| Reason reported when unmet | Status | Checks |",
         [_row(key, names) for key, names in by_hypothesis.items()]),
        ("| Confirming oracles | Checks |",
         [_row((key,), names) for key, names in by_oracles.items()]),
    )
    for header, declared in tables:
        rows = _table_rows(readme, header)
        # every row once, and no row that the declarations do not produce
        assert len(rows) == len(set(rows)), header
        assert set(rows) == set(declared), header


def test_readme_library_block_runs():
    # README's only python block: its first output line is the one its
    # "# 1 1" comment states, then one "<check> <status>" line per check
    blocks = README.read_text(encoding="utf-8").split("```python\n")
    assert len(blocks) == 2
    code = blocks[1].split("```")[0]
    stated = [line.split("# ")[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    first, *rows = out.getvalue().splitlines()
    assert [first] == stated == ["1 1"]
    assert [row.split()[0] for row in rows] == list(CHECKS)
    statuses = {"pass", "fail", "not-applicable", "assumption-violated"}
    assert all(len(row.split()) == 2 and row.split()[1] in statuses for row in rows)
