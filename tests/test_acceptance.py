"""Acceptance suite: one test per release criterion, exact expectations.

Each test prints a single line ``ACCEPTANCE <id>: PASS`` when its
assertions hold (run with ``-s`` to see them).  Two recorded expectations
are known to disagree with direct computation and are kept as strict
expected failures with the discrepancy documented at the assertion:
the special-pair kernel of the loop-power example, and the zero-failure
requirement for the general-arrows kernel checks under fuzzing.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import algebra, glued, pair1_index, vertex_id
from quiverhh.algebra import build
from quiverhh.checks import CHECKS, run_checks, run_fuzz
from quiverhh.examples_data import fan, loop_crowd, zigzag
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.fundgroup import theta
from quiverhh.gluing import assumption_holds, glue
from quiverhh.higher import check_high_degree_gluing, hh_dim_high
from quiverhh.linalg import member, span, subspace_sum
from quiverhh.oracles import oracle_center, oracle_hh1_dim
from quiverhh.randomgen import RandomSpec, random_instance, source_sink_instance
from quiverhh.paircomplex import complex_data
from test_basis_lookup_reference import ref_missed_special_pairs


def report(tag):
    print(f"\nACCEPTANCE {tag}: PASS")


def test_criterion_1_two_cycle_image_membership_theta():
    g = glued("line-bound")
    CB = complex_data(g.B)
    gamma_idx = pair1_index(CB, "gamma*", "gamma*")
    eta_idx = pair1_index(CB, "eta", "eta")
    expected = span(QQ, CB.basis1, [{gamma_idx: Fraction(1), eta_idx: Fraction(-1)}])
    assert CB.im0 == expected and CB.im0.dim == 1
    assert not member(QQ, CB.im0, g.gamma_pair_vector())
    assert theta(g.B, g.gamma) == g.gamma_pair_vector()
    report("1 (two-cycle image, membership, theta)")


def test_criterion_2_kernel_decomposition_dims():
    g = glued("twin-pairs-rad2")
    CA, CB = complex_data(g.A), complex_data(g.B)
    assert CA.ker1.dim == 7
    assert CB.ker1.dim == 10
    names = {
        (g.A.quiver.arrow_name(a), tuple(g.A.quiver.arrow_name(x) for x in p.arrows))
        for a, p in ref_missed_special_pairs(g).pairs
    }
    assert names == {
        ("alpha", ("eta",)),
        ("eta", ("alpha",)),
        ("beta", ("eta",)),
        ("eta", ("beta",)),
        ("b", ("eta",)),
        ("eta", ("b",)),
    }
    assert g.z_spp.dim == 4
    transported = g.psi_subspace(g.psi1, CA.ker1)
    total = subspace_sum(QQ, transported, g.z_spp)
    assert total.dim == transported.dim + g.z_spp.dim  # the sum is direct
    assert total == CB.ker1
    report("2 (kernel dimensions and direct sum)")


def test_criterion_3_loop_power_kernels_and_witness():
    A = algebra("loop-power")
    CA = complex_data(A)
    expected_q = span(
        QQ,
        CA.basis1,
        [
            {pair1_index(CA, "alpha", "alpha"): Fraction(1)},
            {pair1_index(CA, "eta", "eta"): Fraction(1)},
            {pair1_index(CA, "beta", "beta"): Fraction(1)},
            {pair1_index(CA, "xi", "xi"): Fraction(1)},
            {pair1_index(CA, "alpha", "xi", "alpha"): Fraction(1)},
        ],
    )
    assert CA.ker1 == expected_q and CA.ker1.dim == 5
    A2 = build(A.quiver, A.relations, GF(2))
    CA2 = complex_data(A2)
    f2 = GF(2)
    assert CA2.ker1.dim == 6
    assert member(f2, CA2.ker1, {pair1_index(CA2, "xi"): f2.one})
    g2 = glue(A2, 0, 3)
    assert assumption_holds(g2) == (A2.quiver.arrow_index["xi"], 2)
    g = glued("loop-power")
    assert g.z_sp.dim == 0
    assert g.z_spp.dim > 0  # strict containment of the vanishing path span
    gamma_eta = {
        pair1_index(complex_data(g.B), "gamma*", "eta"): Fraction(1)
    }
    assert member(QQ, g.z_spp, gamma_eta)
    report("3 (loop-power kernels, witness, strict containment)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "recorded expectation says the special-pair kernel part is spanned by "
        "gamma*||eta alone; direct computation adds eta||gamma*.xi, and the "
        "degree-one dimension identity 1 = 4 - 1 - kspp forces kspp = 2"
    ),
)
def test_criterion_3_loop_power_zspp_equality_as_recorded():
    g = glued("loop-power")
    CB = complex_data(g.B)
    recorded = span(
        QQ, CB.basis1, [{pair1_index(CB, "gamma*", "eta"): Fraction(1)}]
    )
    assert g.z_spp == recorded


def test_criterion_4_two_blocks_images():
    A = algebra("two-blocks-deco")
    CA = complex_data(A)
    expected_a = span(
        QQ,
        CA.basis1,
        [
            {
                pair1_index(CA, "alpha", "alpha"): Fraction(1),
                pair1_index(CA, "a", "a"): Fraction(1),
            },
            {
                pair1_index(CA, "b", "b"): Fraction(1),
                pair1_index(CA, "a", "a"): Fraction(-1),
            },
            {pair1_index(CA, "beta", "beta"): Fraction(1)},
        ],
    )
    assert CA.im0 == expected_a
    g = glued("two-blocks-deco")
    CB = complex_data(g.B)
    expected_b = span(
        QQ,
        CB.basis1,
        [
            {
                pair1_index(CB, "gamma*", "gamma*"): Fraction(1),
                pair1_index(CB, "a", "a"): Fraction(1),
            },
            {
                pair1_index(CB, "b", "b"): Fraction(1),
                pair1_index(CB, "a", "a"): Fraction(-1),
            },
        ],
    )
    assert CB.im0 == expected_b
    # the transport is injective on the degree-zero image
    f = QQ
    rows = CA.im0.row_vectors()
    images = [g.psi1.apply(f, r) for r in rows]
    assert span(f, CB.basis1, images).dim == len(rows)
    report("4 (two-block images and injective transport)")


def test_criterion_5_parameter_families_and_combinations():
    for t in range(1, 6):
        A = parse(loop_crowd(t))
        g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
        assert g.z_spp.dim == 2 * t
    g = glued("bypass")
    CB = complex_data(g.B)
    a_star = g.arrow_map[g.A.quiver.arrow_index["a"]]
    b_star = g.arrow_map[g.A.quiver.arrow_index["b"]]
    p_star = g.arrow_map[g.A.quiver.arrow_index["p"]]
    ap = g.B.quiver.path((p_star, a_star))
    pb = g.B.quiver.path((b_star, p_star))
    combo = {
        CB.basis1.index[(a_star, ap)]: Fraction(1),
        CB.basis1.index[(b_star, pb)]: Fraction(-1),
    }
    assert member(QQ, g.z_spp, combo)
    assert not member(QQ, g.z_spp, {CB.basis1.index[(a_star, ap)]: Fraction(1)})
    assert not member(QQ, g.z_spp, {CB.basis1.index[(b_star, pb)]: Fraction(1)})

    g1 = glued("line-free")
    C1 = complex_data(g1.B)
    eta_star = g1.arrow_map[g1.A.quiver.arrow_index["eta"]]
    f1v = g1.vertex_map[vertex_id(g1.A.quiver, "e1")]
    f2v = g1.vertex_map[vertex_id(g1.A.quiver, "e2")]
    gen1 = {
        C1.basis0.index[(f1v, g1.B.quiver.path((g1.gamma, eta_star)))]: Fraction(1),
        C1.basis0.index[(f2v, g1.B.quiver.path((eta_star, g1.gamma)))]: Fraction(1),
    }
    assert g1.z_nsp == span(QQ, C1.basis0, [gen1]) and g1.z_nsp.dim == 1

    g2 = glued("double-braid")
    C2 = complex_data(g2.B)
    QA2 = g2.A.quiver
    xi, a, b = (g2.arrow_map[QA2.arrow_index[n]] for n in ("xi", "a", "b"))
    f1v = g2.vertex_map[vertex_id(QA2, "e1")]
    f2v = g2.vertex_map[vertex_id(QA2, "e2")]
    gen2 = {
        C2.basis0.index[(f1v, g2.B.quiver.path((g2.gamma, b, a, xi)))]: Fraction(1),
        C2.basis0.index[(f2v, g2.B.quiver.path((b, a, xi, g2.gamma)))]: Fraction(1),
    }
    assert g2.z_nsp == span(QQ, C2.basis0, [gen2]) and g2.z_nsp.dim == 1
    report("5 (scaling family, combination generator, cycle-pair kernels)")


def test_criterion_6_new_relations_and_dimension_drop():
    expected = {
        "biline": {
            ("eta", "lambda"),
            ("eta", "b"),
            ("lambda", "xi"),
            ("mu", "xi"),
            ("eta", "gamma*", "xi"),
            ("xi", "mu"),
            ("b", "eta"),
            ("xi", "gamma*", "eta"),
        },
        "line-free": {("eta", "gamma*", "eta")},
        "two-lines": {("delta", "gamma*", "eps")},
    }
    for name, words in expected.items():
        g = glued(name)
        got = {tuple(g.B.quiver.arrow_name(a) for a in p.arrows) for p in g.z_new}
        assert got == words, name
        assert g.B.dim == g.A.dim - 3
    report("6 (new relation sets and dimension drop)")


FUZZ_SEED = 20260809
FUZZ_COUNT = 1000


@pytest.fixture(scope="module")
def fuzz_run():
    return run_fuzz(FUZZ_SEED, FUZZ_COUNT, spec_kwargs={"max_dim": 32})


def test_criterion_7_fuzz_robust_checks(fuzz_run):
    reports, failures = fuzz_run
    assert len(reports) == FUZZ_COUNT
    robust = {"im_delta0_dim", "center_indec", "center_diff_blocks", "pi1_rank"}
    robust_failures = [f for f in failures if f[1].check in robust]
    assert robust_failures == []
    # the remaining failures are all oracle-confirmed counterexamples to
    # the general-arrows kernel comparison, never artifact defects
    for inst_seed, rep, confirmed in failures:
        assert rep.check in ("ker_delta1_structure", "hh1_dim_general"), rep.check
        assert confirmed, (inst_seed, rep.check)
        assert rep.repro
    # enough statuses actually ran
    ran = sum(1 for _, reps in reports for r in reps if r.status == "pass")
    assert ran > 3000
    report("7 (fuzz: robust checks clean; kernel-check failures confirmed)")


# sha256 of the fixture's rows, recorded before ideal membership became a
# basis lookup: one sorted-keys JSON line per report, with the instance
# seed and, for a failure, whether an oracle confirmed it.
FUZZ_ROWS_SHA256 = "978a30ea9514f9582d1b89acdeb08823ef5378b3fb9f80185359ce0d343b450c"


def test_criterion_7_fuzz_rows_byte_identical(fuzz_run):
    reports, failures = fuzz_run
    confirmed = {(inst_seed, rep.check): c for inst_seed, rep, c in failures}
    digest = hashlib.sha256()
    for inst_seed, reps in reports:
        for rep in reps:
            row = rep.as_dict()
            row["seed"] = inst_seed
            row["confirmed"] = confirmed.get((inst_seed, rep.check))
            digest.update((json.dumps(row, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == FUZZ_ROWS_SHA256


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the recorded expectation wants zero failures for the general-arrows "
        "kernel checks as well; gluings whose merged arrow has a parallel "
        "companion provide oracle-confirmed counterexamples (about five percent "
        "of random instances), so the zero-failure requirement cannot hold"
    ),
)
def test_criterion_7_fuzz_zero_failures_as_recorded(fuzz_run):
    _, failures = fuzz_run
    assert failures == []


def test_criterion_8_oracle_equivalence():
    corpus = (
        "line-free",
        "line-bound",
        "two-lines",
        "twin-pairs-rad2",
        "loop-crowd-2",
        "loop-power",
        "two-blocks-deco",
        "double-braid",
        "zigzag-6",
        "midfan-2",
        "bypass",
        "biline",
    )
    fields = (QQ, GF(2), GF(3), GF(5))
    for name in corpus:
        base = algebra(name)
        for f in fields:
            A = build(base.quiver, base.relations, f)
            C = complex_data(A)
            assert oracle_center(A)[0] == C.hh0.dim, (name, f)
            assert oracle_hh1_dim(A) == C.hh1_view.dim, (name, f)
    for seed in range(200):
        base = random_instance(
            RandomSpec(seed=900_000 + seed, max_vertices=4, max_arrows=4, max_dim=10)
        )
        for f in fields:
            A = build(base.quiver, base.relations, f)
            C = complex_data(A)
            assert oracle_center(A)[0] == C.hh0.dim, (seed, f)
            assert oracle_hh1_dim(A) == C.hh1_view.dim, (seed, f)
    report("8 (oracle equivalence over four fields)")


def test_criterion_9_higher_degrees():
    A = parse(zigzag(3))
    gz = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    for n in range(2, 13):
        assert hh_dim_high(A, n) == 0
        assert hh_dim_high(gz.B, n) == 0
    for m in (2, 3):
        Am = parse(fan(m))
        gm = glue(Am, Am.quiver.arrow_index["alpha"], Am.quiver.arrow_index["beta"])
        dims = [(hh_dim_high(Am, n), hh_dim_high(gm.B, n)) for n in range(2, 10)]
        assert check_high_degree_gluing(gm) == [(a, b, b >= a) for a, b in dims[:5]]
        for n, (dim_a, dim_b) in zip(range(2, 10), dims, strict=True):
            want = 0 if n % 2 == 0 else m ** ((n + 3) // 2) - m ** ((n - 1) // 2)
            assert dim_b - dim_a == want
    dim_a, dim_b, _ = check_high_degree_gluing(glue(parse(fan(2)), 0, 3))[1]  # degree 3
    assert dim_b - dim_a == 6
    dim_a, dim_b, _ = check_high_degree_gluing(glue(parse(fan(3)), 0, 4))[3]  # degree 5
    assert dim_b - dim_a == 72
    from quiverhh.randomgen import source_sink_rad2_instance

    for seed in range(40):
        A, gs = source_sink_rad2_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5))
        g = glue(A, gs.alpha, gs.beta)
        assert CHECKS["high_degrees"](g).status in ("pass", "not-applicable"), seed
    report("9 (higher-degree values and monotonicity)")


def test_criterion_10_structural_lie_check():
    instances = []
    for name in ("line-free", "line-bound"):
        instances.append(glued(name))
    fields = (QQ, GF(2), GF(3), QQ)
    for seed in range(40):
        A, gs = source_sink_instance(
            RandomSpec(seed=7_000 + seed, max_vertices=4, max_arrows=5,
                       field=fields[seed % 4])
        )
        g = glue(A, gs.alpha, gs.beta)
        if g.same_block:
            instances.append(g)
    assert len(instances) >= 20
    centrality_checked = 0
    for g in instances:
        by_name = {r.check: r for r in run_checks(g, ["hh1_lie_iso", "hh1_central_summand"])}
        assert by_name["hh1_lie_iso"].status == "pass", by_name["hh1_lie_iso"]
        if g.B.field.char == 0:
            assert by_name["hh1_central_summand"].status == "pass"
            centrality_checked += 1
    assert centrality_checked >= 10
    report("10 (degree-one structure transported across the gluing)")


def test_criterion_11_determinism():
    from quiverhh.cli import main

    import io
    from contextlib import redirect_stdout

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    import tempfile, os

    from quiverhh.examples_data import example_by_name

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "a.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(example_by_name("double-braid").text)
        runs = [
            capture(["verify", path, "--alpha", "alpha", "--beta", "beta", "--json"])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
    # echelon canonicality: spans from shuffled generating sets coincide
    import random as _random

    g = glued("double-braid")
    CB = complex_data(g.B)
    cols = [dict(c) for c in CB.delta0.columns]
    rng = _random.Random(11)
    for _ in range(3):
        shuffled = list(cols)
        rng.shuffle(shuffled)
        assert span(QQ, CB.basis1, shuffled) == CB.im0
    # and two fuzz campaigns with one seed agree report-for-report
    r1, f1 = run_fuzz(123, 12)
    r2, f2 = run_fuzz(123, 12)
    assert [(s, [x.as_dict() for x in reps]) for s, reps in r1] == [
        (s, [x.as_dict() for x in reps]) for s, reps in r2
    ]
    report("11 (byte-identical output and canonical echelon forms)")
