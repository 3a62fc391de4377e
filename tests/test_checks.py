from conftest import glued
from quiverhh.algebra import build
from quiverhh.checks import (
    check_center_diff_blocks,
    check_center_indec,
    confirm_failure,
    run_checks,
    run_fuzz,
)
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.linalg import LinearMap
from quiverhh.oracles import oracle_hh1_dim
from quiverhh.quiver import Quiver
from quiverhh.paircomplex import complex_data


def test_corpus_statuses():
    for ex in EXAMPLES:
        A = parse(ex.text)
        g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
        for rep in run_checks(g):
            expected = ex.expect_status.get(rep.check, ("pass", "not-applicable"))
            assert rep.status in expected, (ex.name, rep.check, rep.status, rep.reason)


def test_line_bound_specific_values():
    g = glued("line-bound")
    by_name = {r.check: r for r in run_checks(g)}
    assert by_name["gamma_not_in_image"].status == "pass"
    assert by_name["pi1_rank"].status == "pass"
    assert by_name["hh1_central_summand"].lhs == 1  # one-dimensional degree-one cohomology
    assert by_name["theta_diagram"].status == "pass"


def test_twin_pairs_kernel_structure_values():
    g = glued("twin-pairs-rad2")
    by_name = {r.check: r for r in run_checks(g, ["ker_delta1_structure"])}
    rep = by_name["ker_delta1_structure"]
    assert rep.status == "pass"
    assert rep.lhs == 10 and rep.rhs == 10  # 7 - 1 + 4


def test_assumption_statuses():
    g = glued("loop-power-f2")
    by_name = {r.check: r for r in run_checks(g)}
    for name in ("ker_delta1_hom", "ker_delta1_structure", "hh1_dim_general"):
        assert by_name[name].status == "assumption-violated"
        assert by_name[name].witness == ("xi", 2)
    assert by_name["im_delta0_dim"].status == "pass"


def test_general_kernel_formula_counterexample():
    """Minimal instance where the general-arrows kernel comparison fails.

    A parallel companion of the glued arrow survives substitution into a
    new relation, so the transported pair drops out of the kernel; the
    checkers report fail and the derivation oracle confirms both
    dimensions, establishing a counterexample rather than a defect.
    """
    Q = Quiver(
        ("e1", "e2", "e3", "e4"),
        (("alpha", 0, 1), ("mu", 0, 1), ("beta", 2, 3), ("xi", 3, 0)),
    )
    A = build(Q, [], QQ)
    g = glue(A, 0, 2)
    assert not g.source_sink
    CA, CB = complex_data(A), complex_data(g.B)
    assert CA.ker1.dim == 6 and CB.ker1.dim == 8
    by_name = {r.check: r for r in run_checks(g, ["ker_delta1_structure", "hh1_dim_general"])}
    rep = by_name["ker_delta1_structure"]
    assert rep.status == "fail"
    assert (rep.lhs, rep.rhs) == (8, 9)
    assert "field Q" in rep.repro and "# glue --alpha alpha --beta beta" in rep.repro
    assert confirm_failure(g, rep)
    assert oracle_hh1_dim(A) == CA.hh1_view.dim
    assert oracle_hh1_dim(g.B) == CB.hh1_view.dim
    # the failing repro parses back to the same algebra
    body = "\n".join(l for l in rep.repro.splitlines() if not l.startswith("#"))
    assert parse(body).quiver == A.quiver


def test_source_sink_checks_never_fail_on_random():
    from quiverhh.randomgen import RandomSpec, source_sink_instance

    for seed in range(60):
        A, gs = source_sink_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5))
        g = glue(A, gs.alpha, gs.beta)
        assert g.source_sink
        for rep in run_checks(g):
            assert rep.status != "fail", (seed, rep.check, rep.lhs, rep.rhs, rep.reason)


def test_fuzz_smoke_confirms_all_failures():
    reports, failures = run_fuzz(990_000, 40)
    assert len(reports) == 40
    for inst_seed, rep, confirmed in failures:
        assert rep.check in ("ker_delta1_structure", "hh1_dim_general"), rep.check
        assert confirmed, (inst_seed, rep.check)


def test_robust_checks_never_fail_on_fuzz():
    robust = ("im_delta0_dim", "center_indec", "center_diff_blocks", "pi1_rank",
              "center_geq1")
    reports, failures = run_fuzz(77_000, 60, checks=robust)
    assert failures == []


def test_confirm_failure_runs_the_degree_one_oracle_once_per_algebra(monkeypatch):
    import sys

    from quiverhh import oracles

    original = oracles.oracle_hh1_dim
    calls = []

    def counting(A):
        calls.append(A)
        return original(A)

    for name, module in list(sys.modules.items()):
        if name.startswith("quiverhh") and getattr(module, "oracle_hh1_dim", None) is original:
            monkeypatch.setattr(module, "oracle_hh1_dim", counting)
    reports, failures = run_fuzz(20260809, 24)
    failing = sorted({inst_seed for inst_seed, _, _ in failures})
    assert len(failures) > len(failing) > 0  # some instance fails more than one check
    assert all(confirmed for _, _, confirmed in failures)
    # one call for A and one for B per failing instance, in that order
    assert len(calls) == 2 * len(failing)
    assert [A.dim - B.dim for A, B in zip(calls[::2], calls[1::2])] == [3] * len(failing)


# One block: a cube-zero loop x at v0 whose product with alpha vanishes, so
# x and x² are central.  Two blocks: a square-zero loop x and a cube-zero
# loop y, each central in its own block.
CENTRAL_LOOP = """field Q
vertex v0
vertex v1
vertex v2
vertex v3
arrow x v0 v0
arrow alpha v0 v1
arrow c v1 v2
arrow beta v2 v3
rel x x x
rel x alpha
"""

CENTRAL_LOOPS_TWO_BLOCKS = """field Q
vertex u0
vertex u1
vertex w0
vertex w1
arrow x u0 u0
arrow alpha u0 u1
arrow y w0 w0
arrow beta w0 w1
rel x x
rel x alpha
rel y y y
rel y beta
"""


def _doubled_cycles(text):
    """The alpha/beta gluing of ``text`` with ψ⁰ doubled on every pair of a
    positive-length cycle.  Over Q it still sends central elements to central
    ones, but a nonzero product of two positive parts now maps to twice, not
    four times, the product of the images."""
    A = parse(text)
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    psi, labels = g.psi0, g.psi0.domain.labels
    cols = tuple(
        {k: 2 * x for k, x in col.items()} if labels[j][1].length else col
        for j, col in enumerate(psi.columns)
    )
    g.psi0 = LinearMap(psi.domain, psi.codomain, cols)
    return g


def test_center_checks_report_the_first_unmultiplicative_pair():
    # rows are ordered by pivot, and the first failing pair squares x
    rep = check_center_indec(_doubled_cycles(CENTRAL_LOOP))
    assert rep.as_dict() == {
        "check": "center_indec",
        "status": "fail",
        "lhs": "4",
        "rhs": "4",
        "witness": None,
        "reason": "embedding is not multiplicative at (1, 1)",
    }
    rep = check_center_diff_blocks(_doubled_cycles(CENTRAL_LOOPS_TWO_BLOCKS))
    assert rep.as_dict() == {
        "check": "center_diff_blocks",
        "status": "fail",
        "lhs": "5",
        "rhs": "5",
        "witness": None,
        "reason": "positive parts are not multiplicative at (1, 1)",
    }
    for text in (CENTRAL_LOOP, CENTRAL_LOOPS_TWO_BLOCKS):  # the genuine ψ⁰ passes
        A = parse(text)
        g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
        assert {r.status for r in run_checks(g, ["center_indec", "center_diff_blocks"])} == {
            "pass",
            "not-applicable",
        }
