"""One checker per comparison statement about a gluing, plus a runner.

Every checker takes the :class:`GluedAlgebra` and reads the data derived
from the gluing (pair complexes, transported kernels and images, the
subspaces Z_sp, Z_spp and Z_nsp, the Lie structure of A, the oracle
dimensions) from its lazily computed attributes, so each is built once per
gluing however many checkers use it.

Each checker is declared with :func:`check`, which names it, lists the
hypotheses of its statement and the oracles that can confirm a failure of
it.  An unmet hypothesis yields a not-applicable report naming it, or an
assumption-violated report carrying the loop witness, before the checker
body runs; otherwise the report is pass/fail with the compared values.  A
fail report embeds a reproduction (the serialized algebra and the glued
arrow names); on valid inputs a fail indicates either a bug or a
counterexample and is treated as release-blocking by the test suite.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .errors import QuiverHHError
from .fundgroup import check_theta_diagram, pi1_rank
from .gluing import GluedAlgebra, crucial_paths
from .higher import check_high_degree_gluing
from .linalg import (
    LabeledBasis,
    LinearMap,
    QuotientView,
    accumulate,
    contains_subspace,
    member,
    restricted_kernel,
    solve_columns,  # unused; the perfbench tracer self-test reads checks.solve_columns
    span,
    subspace_sum,
)
from .paircomplex import central_mult, lie_center_dim
from .quiver import crown_order


@dataclass
class CheckReport:
    check: str
    status: str  # pass | fail | not-applicable | assumption-violated
    lhs: object = None
    rhs: object = None
    witness: object = None
    reason: str = ""
    elapsed: float = 0.0
    repro: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        out = {"check": self.check, "status": self.status}
        out["lhs"] = None if self.lhs is None else str(self.lhs)
        out["rhs"] = None if self.rhs is None else str(self.rhs)
        out["witness"] = None if self.witness is None else str(self.witness)
        if self.reason:
            out["reason"] = self.reason
        if self.repro:
            out["repro"] = self.repro
        return out


# -- hypotheses and the check registry ------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    """A precondition of comparison statements; an unmet one yields ``status``."""

    reason: str
    holds: Callable[[GluedAlgebra], bool]
    status: str = "not-applicable"
    witness: Callable[[GluedAlgebra], object] = lambda g: None


SOURCE_SINK = Hypothesis("requires a source-sink gluing", lambda g: g.source_sink)
SAME_BLOCK = Hypothesis("requires a same-block gluing", lambda g: g.same_block)
SAME_BLOCK_SOURCE_SINK = Hypothesis(
    "requires a same-block source-sink gluing", lambda g: g.source_sink and g.same_block
)
TWO_BLOCKS = Hypothesis(
    "requires gluing across exactly two blocks",
    lambda g: not g.same_block and g.components[0] == 2,
)
CHAR_ZERO = Hypothesis("requires characteristic zero", lambda g: g.B.field.char == 0)
RAD_SQ_ZERO = Hypothesis(
    "requires a radical-square-zero algebra", lambda g: g.A.is_radical_square_zero()
)
INDECOMPOSABLE = Hypothesis("requires an indecomposable algebra", lambda g: g.components[0] == 1)
NO_CONNECTING_PATHS = Hypothesis(
    "connecting paths exist; criterion is silent here",
    lambda g: not g.A.paths_between[(g.endpoints[1], g.endpoints[2])],
)
NO_SPECIAL_PAIR_KERNEL = Hypothesis(
    "requires a vanishing special-pair kernel part", lambda g: g.z_spp.dim == 0
)
# The preconditions of the higher-degree counting formula, with its own reasons.
COUNTING_RAD_SQ_ZERO = Hypothesis("algebra is not radical square zero", RAD_SQ_ZERO.holds)
COUNTING_INDECOMPOSABLE = Hypothesis("algebra is not indecomposable", INDECOMPOSABLE.holds)
NOT_A_CROWN = Hypothesis("source quiver is a crown", lambda g: crown_order(g.A.quiver) is None)
# No glued vertex of a source-sink gluing carries a loop, so this holds there.
LOOP_POWER = Hypothesis(
    "characteristic divides a glued-vertex loop power",
    lambda g: g.assumption is None,
    status="assumption-violated",
    witness=lambda g: (g.A.quiver.arrow_name(g.assumption[0]), g.assumption[1]),
)

CHECKS: dict = {}  # name -> checker, in declaration order


def check(name: str, *hypotheses: Hypothesis, oracles: tuple = ()):
    """Declare the decorated body as the checker ``name``.

    The checker reports the first unmet hypothesis instead of running the
    body, and stamps ``name`` on the body's report.  ``oracles`` names
    the oracle comparisons ("hh1", "center") that confirm a failure of it.
    """

    def register(body):
        @functools.wraps(body)
        def checker(g: GluedAlgebra) -> CheckReport:
            for h in checker.hypotheses:
                if not h.holds(g):
                    return CheckReport(name, h.status, witness=h.witness(g), reason=h.reason)
            rep = body(g)
            rep.check = name
            return rep

        checker.hypotheses = hypotheses
        checker.oracles = oracles
        CHECKS[name] = checker
        return checker

    return register


def _verdict(ok: bool, lhs=None, rhs=None, reason: str = "") -> CheckReport:
    return CheckReport("", "pass" if ok else "fail", lhs=lhs, rhs=rhs, reason=reason)


def _first_failure(pairs, holds):
    """The first index pair ``(i, j)`` of ``pairs`` where ``holds(i, j)`` is false, or None."""
    return next(((i, j) for i, j in pairs if not holds(i, j)), None)


# -- image of the degree-zero differential ------------------------------------


@check("im_delta0_dim", oracles=("hh1", "center"))
def check_im_delta0_dim(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    c_a, c_b = g.components
    lhs = CA.im0.dim
    rhs = CB.im0.dim + 2 + c_b - c_a - g.z_sp.dim
    return _verdict(lhs == rhs, lhs, rhs)


@check("im_delta0_structure", SOURCE_SINK)
def check_im_delta0_structure(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    enlarged = g.im0_gamma
    decomposed = subspace_sum(f, g.psi1_im0, g.z_sp)
    ok = enlarged == decomposed
    ok = ok and decomposed.dim == g.psi1_im0.dim + g.z_sp.dim
    ok = ok and g.psi1_im0.dim == CA.im0.dim - 1
    if g.same_block:
        ok = ok and g.gamma_outside_im0
    else:
        ok = ok and CB.im0 == g.psi1_im0
    return _verdict(ok, enlarged.dim, decomposed.dim)


@check("rad_sq_zero_im", SOURCE_SINK, RAD_SQ_ZERO)
def check_rad_sq_zero_im(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    c_a, c_b = g.components
    ok = g.im0_gamma == g.psi1_im0
    ok = ok and CA.im0.dim == CB.im0.dim + 2 + c_b - c_a
    return _verdict(ok, CA.im0.dim, CB.im0.dim + 2 + c_b - c_a)


# -- kernel of the degree-one differential --------------------------------------


@check("ker_delta1_hom", LOOP_POWER, oracles=("hh1",))
def check_ker_delta1_hom(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    # transported kernel elements stay in the kernel
    ok = contains_subspace(f, CB.ker1, g.psi1_ker1)
    # kernel of the restriction is spanned by the arrow-pair difference
    QA = g.A.quiver
    alpha_minus_beta = {
        CA.basis1.index[(g.alpha, QA.arrow_path(g.alpha))]: f.one,
        CA.basis1.index[(g.beta, QA.arrow_path(g.beta))]: f.neg(f.one),
    }
    ok = ok and restricted_kernel(f, g.psi1, CA.ker1.row_vectors()) == span(
        f, CA.basis1, [alpha_minus_beta]
    )
    detail = ""
    if g.source_sink:
        # bracket preservation at the cochain level (source-sink only: the
        # glued arrows appear in no off-diagonal kernel pair there)
        rows = CA.ker1.row_vectors()
        psi = [g.psi1.apply(f, r) for r in rows]

        def preserved(i, j):
            return g.psi1.apply(f, CA.bracket(rows[i], rows[j])) == CB.bracket(psi[i], psi[j])

        # both sides of every other pair bracket to {}
        pairs = sorted(set(CA.interacting_pairs(rows)) | set(CB.interacting_pairs(psi)))
        bad = _first_failure(pairs, preserved)
        if bad is not None:
            ok = False
            detail = f"bracket mismatch on kernel rows {bad}"
    return _verdict(ok, reason=detail)


@check("ker_delta1_structure", LOOP_POWER, oracles=("hh1",))
def check_ker_delta1_structure(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    total = subspace_sum(f, g.psi1_ker1, g.z_spp)
    ok = total.dim == g.psi1_ker1.dim + g.z_spp.dim
    ok = ok and total == CB.ker1
    lhs = CB.ker1.dim
    rhs = CA.ker1.dim - 1 + g.z_spp.dim
    ok = ok and lhs == rhs
    if g.source_sink:
        crucial = crucial_paths(g)
        generators = []
        for p in crucial:
            word = (g.gamma,) + tuple(g.arrow_map[a] for a in p.arrows) + (g.gamma,)
            long_path = g.B.quiver.path(word)
            generators.append({CB.basis1.index[(g.gamma, long_path)]: f.one})
        stated = span(f, CB.basis1, generators)
        ok = ok and g.z_spp == stated == g.z_sp
        ok = ok and g.z_sp.dim == len(crucial)
    rep = _verdict(ok, lhs, rhs)
    rep.witness = {"ker_a": CA.ker1.dim, "ker_b": CB.ker1.dim, "kspp": g.z_spp.dim}
    return rep


# -- degree-one cohomology --------------------------------------------------------


@check("hh1_lie_iso", SOURCE_SINK)
def check_hh1_lie_iso(g: GluedAlgebra) -> CheckReport:
    """The transport induces a Lie isomorphism HH^1(A) -> ker/(im + gamma) of B.

    Once the transported matrix M (A's classes in B's quotient coordinates)
    is square of full rank, the map is a Lie homomorphism iff M applied to
    each structure-constant vector of A equals the projected B bracket of
    the transported representatives.
    """
    f = g.B.field
    CA, CB = g.complexes
    view_b = QuotientView(f, CB.ker1, g.im0_gamma)
    reps_a = CA.hh1_view.representatives()
    psi_reps = [g.psi1.apply(f, r) for r in reps_a]
    cols = [view_b.project(v) for v in psi_reps]
    dim_target = view_b.dim
    coord_basis = LabeledBasis(tuple(range(dim_target)))
    ok = len(reps_a) == dim_target
    ok = ok and span(f, coord_basis, cols).dim == dim_target
    detail = ""
    if ok:
        transported = LinearMap(coord_basis, coord_basis, tuple(cols))
        lie_a = g.lie_a

        def preserved(i, j):
            got = view_b.project(CB.bracket(psi_reps[i], psi_reps[j]))
            return transported.apply(f, dict(lie_a.bracket_terms(i, j))) == got

        # lie_a has no terms and B brackets to {} on every other pair
        pairs = sorted(set(lie_a.terms) | set(CB.interacting_pairs(psi_reps)))
        bad = _first_failure(pairs, preserved)
        if bad is not None:
            ok = False
            detail = f"structure constants differ at basis pair {bad}"
    return _verdict(ok, CA.hh1_view.dim, dim_target, reason=detail)


@check("hh1_central_summand", SOURCE_SINK, SAME_BLOCK, CHAR_ZERO)
def check_hh1_central_summand(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    vectors = [g.gamma_pair_vector()] + CB.ker1.row_vectors()
    # a row that meets no arrow of gamma's pair brackets to {}, which lies in im0
    ok = all(
        member(f, CB.im0, CB.bracket(vectors[0], vectors[j]))
        for i, j in CB.interacting_pairs(vectors)
        if i == 0
    )
    lhs = CB.hh1_view.dim
    rhs = CA.hh1_view.dim + 1
    ok = ok and lhs == rhs
    return _verdict(ok, lhs, rhs)


@check("hh1_dim_general", LOOP_POWER, oracles=("hh1",))
def check_hh1_dim_general(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    c_a, c_b = g.components
    lhs = CA.hh1_view.dim
    rhs = CB.hh1_view.dim - 1 - g.z_spp.dim + g.z_sp.dim + c_a - c_b
    return _verdict(lhs == rhs, lhs, rhs)


@check("rad_sq_zero_summand", RAD_SQ_ZERO, SAME_BLOCK, CHAR_ZERO, NO_SPECIAL_PAIR_KERNEL)
def check_rad_sq_zero_summand(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    dims_ok = CB.hh1_view.dim == CA.hh1_view.dim + 1
    # abstract one-dimensional central factor: Lie centers differ by one
    center_ok = lie_center_dim(g.lie_b) == lie_center_dim(g.lie_a) + 1
    return _verdict(dims_ok and center_ok, CB.hh1_view.dim, CA.hh1_view.dim + 1)


# -- center ---------------------------------------------------------------------


@check("center_geq1", oracles=("center",))
def check_center_geq1(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    ker_b_pos = g.ker0_positive[1]
    psi0_ker = g.psi0_ker0_positive
    total = subspace_sum(f, psi0_ker, g.z_nsp)
    ok = total.dim == psi0_ker.dim + g.z_nsp.dim
    ok = ok and total == ker_b_pos
    return _verdict(ok, ker_b_pos.dim, psi0_ker.dim + g.z_nsp.dim)


def _center_embedding(g: GluedAlgebra):
    """The unital map on degree-zero kernels: unit to unit, positive part
    transported along the quiver morphism.  Only valid for connected input.

    ψ⁰ sends A's unit to B's unit plus the trivial pairs of the two merged
    vertices, so the map is ψ⁰ minus c on those two pairs, where c is the
    scalar coefficient of the degree-zero part."""
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


@check("center_indec", INDECOMPOSABLE, oracles=("center",))
def check_center_indec(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    lhs = CB.hh0.dim
    rhs = CA.hh0.dim + g.z_nsp.dim
    ok = lhs == rhs
    mu = _center_embedding(g)
    rows = CA.hh0.row_vectors()
    images = []
    for r in rows:
        img = mu(r)
        if img is None or not member(f, CB.hh0, img):
            return _verdict(False, lhs, rhs, reason="transported central element is not central")
        images.append(img)
    ok = ok and span(f, CB.basis0, images).dim == len(rows)

    def multiplicative(i, j):
        lhs_vec = mu(central_mult(CA, rows[i], rows[j]))
        return lhs_vec is not None and lhs_vec == central_mult(CB, images[i], images[j])

    bad = _first_failure(product(range(len(rows)), repeat=2), multiplicative)
    detail = "" if bad is None else f"embedding is not multiplicative at {bad}"
    return _verdict(ok and bad is None, lhs, rhs, reason=detail)


@check("center_source_sink", SOURCE_SINK, INDECOMPOSABLE, NO_CONNECTING_PATHS,
       oracles=("center",))
def check_center_source_sink(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    ok = CA.hh0.dim == CB.hh0.dim and g.z_nsp.dim == 0
    return _verdict(ok, CA.hh0.dim, CB.hh0.dim)


@check("center_rad_sq_zero", RAD_SQ_ZERO, INDECOMPOSABLE, oracles=("center",))
def check_center_rad_sq_zero(g: GluedAlgebra) -> CheckReport:
    CA, CB = g.complexes
    e1, e2, e3, e4 = g.endpoints
    Q = g.A.quiver
    no_cross_arrows = not any(
        {Q.source(a), Q.target(a)} in ({e1, e3}, {e2, e4}) for a in range(Q.num_arrows)
    )
    iso = CA.hh0.dim == CB.hh0.dim
    return _verdict(iso == no_cross_arrows, iso, no_cross_arrows)


@check("center_diff_blocks", TWO_BLOCKS, oracles=("center",))
def check_center_diff_blocks(g: GluedAlgebra) -> CheckReport:
    f = g.B.field
    CA, CB = g.complexes
    lhs = CA.hh0.dim
    rhs = CB.hh0.dim + 1
    ok = lhs == rhs and g.z_nsp.dim == 0
    ok = ok and g.psi0_ker0_positive == g.ker0_positive[1]
    rows = g.ker0_positive[0].row_vectors()
    psi = [g.psi0.apply(f, r) for r in rows]

    def multiplicative(i, j):
        return g.psi0.apply(f, central_mult(CA, rows[i], rows[j])) == central_mult(
            CB, psi[i], psi[j]
        )

    bad = _first_failure(product(range(len(rows)), repeat=2), multiplicative)
    detail = "" if bad is None else f"positive parts are not multiplicative at {bad}"
    return _verdict(ok and bad is None, lhs, rhs, reason=detail)


# -- fundamental group and higher degrees ------------------------------------------


@check("pi1_rank")
def check_pi1_rank(g: GluedAlgebra) -> CheckReport:
    c_a, c_b = g.components
    lhs = pi1_rank(g.A)
    rhs = pi1_rank(g.B) + c_a - c_b - 1
    return _verdict(lhs == rhs, lhs, rhs)


@check("gamma_not_in_image", SAME_BLOCK_SOURCE_SINK)
def check_gamma_not_in_image(g: GluedAlgebra) -> CheckReport:
    return _verdict(g.gamma_outside_im0, g.gamma_outside_im0, True)


@check("theta_diagram", SAME_BLOCK_SOURCE_SINK)
def check_theta(g: GluedAlgebra) -> CheckReport:
    rep = check_theta_diagram(g)
    return _verdict(
        rep.commutes,
        rep.generator_results,
        (rep.new_dual_is_gamma_pair, rep.gamma_pair_outside_image),
    )


@check("high_degrees", COUNTING_RAD_SQ_ZERO, COUNTING_INDECOMPOSABLE, NOT_A_CROWN)
def check_high_degrees(g: GluedAlgebra) -> CheckReport:
    reports = [check_high_degree_gluing(g, n) for n in range(2, 7)]  # degrees 2 to 6
    ok = all(r.monotone for r in reports)
    return _verdict(ok, [str(r.dim_a) for r in reports], [str(r.dim_b) for r in reports])


def _repro_text(g: GluedAlgebra) -> str:
    from .fileformat import print_algebra

    QA = g.A.quiver
    return (
        print_algebra(g.A)
        + f"# glue --alpha {QA.arrow_name(g.alpha)} --beta {QA.arrow_name(g.beta)}\n"
    )


def run_checks(g: GluedAlgebra, names=None) -> list:
    """Run the named checks (all by default) and collect reports."""
    selected = list(CHECKS) if names is None else list(names)
    reports = []
    for name in selected:
        if name not in CHECKS:
            raise QuiverHHError(f"unknown check: {name}")
        t0 = time.perf_counter()
        try:
            rep = CHECKS[name](g)
        except QuiverHHError as err:
            rep = CheckReport(name, "fail", reason=f"checker raised: {err}")
        rep.elapsed = time.perf_counter() - t0
        if rep.failed and not rep.repro:
            rep.repro = _repro_text(g)
        reports.append(rep)
    return reports


FUZZ_CHECKS = (
    "im_delta0_dim",
    "ker_delta1_structure",
    "hh1_dim_general",
    "center_indec",
    "center_diff_blocks",
    "pi1_rank",
)


def confirm_failure(g: GluedAlgebra, report: CheckReport) -> bool:
    """Re-derive the failed comparison through the oracles declared for its
    check; True means the failure is a confirmed counterexample to the
    stated formula rather than an artifact defect, False also when no
    oracle is declared.  The oracle dimensions are attributes of ``g``,
    so every failing check of one gluing shares one oracle run."""
    CA, CB = g.complexes
    agrees = {
        "hh1": lambda: g.oracle_hh1_dims == (CA.hh1_view.dim, CB.hh1_view.dim),
        "center": lambda: g.oracle_center_dims == (CA.hh0.dim, CB.hh0.dim),
    }
    oracles = CHECKS[report.check].oracles
    return bool(oracles) and all(agrees[name]() for name in oracles)


def run_fuzz(seed: int, count: int, checks=FUZZ_CHECKS, spec_kwargs=None):
    """Seeded fuzz campaign; returns (reports per instance, failures).

    Each instance cycles through the rationals and the two/three/five
    element fields.  A failure entry is (instance seed, report,
    confirmed) where confirmed reflects the oracle cross-check.
    """
    from .fields import GF, QQ
    from .gluing import glue
    from .randomgen import RandomSpec, instance_with_gluing

    fields = (QQ, GF(2), GF(3), GF(5))
    spec_kwargs = spec_kwargs or {}
    all_reports = []
    failures = []
    for i in range(count):
        inst_seed = seed + i
        spec = RandomSpec(seed=inst_seed, field=fields[i % len(fields)], **spec_kwargs)
        A, gs = instance_with_gluing(spec)
        g = glue(A, gs.alpha, gs.beta)
        reports = run_checks(g, checks)
        all_reports.append((inst_seed, reports))
        for rep in reports:
            if rep.failed:
                failures.append((inst_seed, rep, confirm_failure(g, rep)))
    return all_reports, failures
