"""One checker per comparison statement about a gluing, plus a runner.

Every checker returns a structured report: pass/fail with the compared
values, a not-applicable status naming the unmet precondition, or an
assumption-violated status carrying the loop witness.  A fail report
embeds a reproduction (the serialized algebra and the glued arrow names);
on valid inputs a fail indicates either a bug or a counterexample and is
treated as release-blocking by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .errors import QuiverHHError
from .fundgroup import check_theta_diagram, pi1_rank
from .gluing import (
    GluedAlgebra,
    assumption_holds,
    crucial_paths,
    nsp_data,
    special_pairs,
    special_paths,
)
from .higher import check_high_degree_gluing
from .linalg import (
    LabeledBasis,
    LinearMap,
    accumulate,
    contains_subspace,
    is_direct_sum,
    kernel,
    member,
    solve_columns,
    span,
    subspace_sum,
)
from .paircomplex import central_mult, complex_data, hh1_lie, lie_center_dim


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


class GluingContext:
    """Shared lazily computed data for the checkers of one gluing."""

    def __init__(self, g: GluedAlgebra):
        self.g = g
        self.f = g.B.field

    @cached_property
    def CA(self):
        return complex_data(self.g.A)

    @cached_property
    def CB(self):
        return complex_data(self.g.B)

    @cached_property
    def sp(self):
        return special_paths(self.g)

    @cached_property
    def spp(self):
        return special_pairs(self.g)

    @cached_property
    def nsp(self):
        return nsp_data(self.g)

    @cached_property
    def assumption(self):
        return assumption_holds(self.g)

    @cached_property
    def gamma_span(self):
        return span(self.f, self.CB.basis1, [self.g.gamma_pair_vector()])

    @cached_property
    def psi1_im0(self):
        return self.g.psi_subspace(self.g.psi1, self.CA.im0)

    @cached_property
    def psi1_ker1(self):
        return self.g.psi_subspace(self.g.psi1, self.CA.ker1)

    @cached_property
    def alpha_minus_beta(self):
        g, f = self.g, self.f
        QA = g.A.quiver
        vec = {
            self.CA.basis1.index[(g.alpha, QA.arrow_path(g.alpha))]: f.one,
            self.CA.basis1.index[(g.beta, QA.arrow_path(g.beta))]: f.neg(f.one),
        }
        return vec


def _na(check: str, reason: str) -> CheckReport:
    return CheckReport(check, "not-applicable", reason=reason)


def _violated(check: str, witness) -> CheckReport:
    return CheckReport(check, "assumption-violated", witness=witness,
                       reason="characteristic divides a glued-vertex loop power")


def _verdict(check: str, ok: bool, lhs=None, rhs=None, reason: str = "") -> CheckReport:
    return CheckReport(check, "pass" if ok else "fail", lhs=lhs, rhs=rhs, reason=reason)


# -- image of the degree-zero differential ------------------------------------


def check_im_delta0_dim(ctx: GluingContext) -> CheckReport:
    g = ctx.g
    c_a, c_b = g.components
    lhs = ctx.CA.im0.dim
    rhs = ctx.CB.im0.dim + 2 + c_b - c_a - ctx.sp.sp
    return _verdict("im_delta0_dim", lhs == rhs, lhs, rhs)


def check_im_delta0_structure(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        return _na("im_delta0_structure", "requires a source-sink gluing")
    enlarged = subspace_sum(f, ctx.CB.im0, ctx.gamma_span)
    decomposed = subspace_sum(f, ctx.psi1_im0, ctx.sp.z_sp)
    ok = enlarged == decomposed
    ok = ok and is_direct_sum(f, ctx.psi1_im0, ctx.sp.z_sp)
    ok = ok and ctx.psi1_im0.dim == ctx.CA.im0.dim - 1
    if g.same_block:
        ok = ok and not member(f, ctx.CB.im0, g.gamma_pair_vector())
    else:
        ok = ok and ctx.CB.im0 == ctx.psi1_im0
    return _verdict("im_delta0_structure", ok, enlarged.dim, decomposed.dim)


def check_rad_sq_zero_im(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        return _na("rad_sq_zero_im", "requires a source-sink gluing")
    if not g.A.is_radical_square_zero():
        return _na("rad_sq_zero_im", "requires a radical-square-zero algebra")
    c_a, c_b = g.components
    enlarged = subspace_sum(f, ctx.CB.im0, ctx.gamma_span)
    ok = enlarged == ctx.psi1_im0
    ok = ok and ctx.CA.im0.dim == ctx.CB.im0.dim + 2 + c_b - c_a
    return _verdict("rad_sq_zero_im", ok, ctx.CA.im0.dim, ctx.CB.im0.dim + 2 + c_b - c_a)


# -- kernel of the degree-one differential --------------------------------------


def _restriction_kernel(ctx: GluingContext):
    """Kernel of the pair-space transport restricted to the degree-one kernel."""
    g, f = ctx.g, ctx.f
    rows = ctx.CA.ker1.row_vectors()
    dom = LabeledBasis(tuple(range(len(rows))))
    cols = tuple(g.psi1.apply(f, r) for r in rows)
    coord_kernel = kernel(f, LinearMap(dom, ctx.CB.basis1, cols))
    vectors = []
    for coords in coord_kernel.row_vectors():
        vec: dict = {}
        for i, c in coords.items():
            for j, x in rows[i].items():
                accumulate(f, vec, j, f.mul(c, x))
        vectors.append(vec)
    return span(f, ctx.CA.basis1, vectors)


def check_ker_delta1_hom(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        ok_assum, witness = ctx.assumption
        if not ok_assum:
            return _violated("ker_delta1_hom", _loop_witness(ctx, witness))
    # transported kernel elements stay in the kernel
    ok = contains_subspace(f, ctx.CB.ker1, ctx.psi1_ker1)
    # kernel of the restriction is spanned by the arrow-pair difference
    expected = span(f, ctx.CA.basis1, [ctx.alpha_minus_beta])
    ok = ok and _restriction_kernel(ctx) == expected
    detail = ""
    if g.source_sink:
        # bracket preservation at the cochain level (source-sink only: the
        # glued arrows appear in no off-diagonal kernel pair there)
        rows = ctx.CA.ker1.row_vectors()
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                lhs = g.psi1.apply(f, ctx.CA.bracket(rows[i], rows[j]))
                rhs = ctx.CB.bracket(
                    g.psi1.apply(f, rows[i]), g.psi1.apply(f, rows[j])
                )
                if lhs != rhs:
                    ok = False
                    detail = f"bracket mismatch on kernel rows ({i}, {j})"
                    break
            if detail:
                break
    return _verdict("ker_delta1_hom", ok, reason=detail)


def check_ker_delta1_structure(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        ok_assum, witness = ctx.assumption
        if not ok_assum:
            return _violated("ker_delta1_structure", _loop_witness(ctx, witness))
    ok = is_direct_sum(f, ctx.psi1_ker1, ctx.spp.z_spp)
    total = subspace_sum(f, ctx.psi1_ker1, ctx.spp.z_spp)
    ok = ok and total == ctx.CB.ker1
    lhs = ctx.CB.ker1.dim
    rhs = ctx.CA.ker1.dim - 1 + ctx.spp.kspp
    ok = ok and lhs == rhs
    if g.source_sink:
        crucial = crucial_paths(ctx.g)
        generators = []
        for p in crucial:
            word = (g.gamma,) + tuple(g.arrow_map[a] for a in p.arrows) + (g.gamma,)
            long_path = g.B.quiver.path(word)
            generators.append({ctx.CB.basis1.index[(g.gamma, long_path)]: f.one})
        stated = span(f, ctx.CB.basis1, generators)
        ok = ok and ctx.spp.z_spp == stated == ctx.sp.z_sp
        ok = ok and ctx.spp.kspp == ctx.sp.sp == len(crucial)
    rep = _verdict("ker_delta1_structure", ok, lhs, rhs)
    rep.witness = {
        "ker_a": ctx.CA.ker1.dim,
        "ker_b": ctx.CB.ker1.dim,
        "kspp": ctx.spp.kspp,
    }
    return rep


# -- degree-one cohomology --------------------------------------------------------


def _quotient_view_b(ctx: GluingContext):
    from .linalg import QuotientView

    f = ctx.f
    y = subspace_sum(f, ctx.CB.im0, ctx.gamma_span)
    return QuotientView(f, ctx.CB.ker1, y)


def check_hh1_lie_iso(ctx: GluingContext) -> CheckReport:
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
                want = ctx.CA.hh1_view.project(ctx.CA.bracket(reps_a[i], reps_a[j]))
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


def check_hh1_central_summand(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.source_sink:
        return _na("hh1_central_summand", "requires a source-sink gluing")
    if not g.same_block:
        return _na("hh1_central_summand", "requires a same-block gluing")
    if f.char != 0:
        return _na("hh1_central_summand", "requires characteristic zero")
    gamma_vec = g.gamma_pair_vector()
    ok = True
    for w in ctx.CB.ker1.row_vectors():
        if not member(f, ctx.CB.im0, ctx.CB.bracket(gamma_vec, w)):
            ok = False
            break
    lhs = ctx.CB.hh1_view.dim
    rhs = ctx.CA.hh1_view.dim + 1
    ok = ok and lhs == rhs
    return _verdict("hh1_central_summand", ok, lhs, rhs)


def check_hh1_dim_general(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    ok_assum, witness = ctx.assumption
    if not ok_assum:
        return _violated("hh1_dim_general", _loop_witness(ctx, witness))
    c_a, c_b = g.components
    lhs = ctx.CA.hh1_view.dim
    rhs = ctx.CB.hh1_view.dim - 1 - ctx.spp.kspp + ctx.sp.sp + c_a - c_b
    return _verdict("hh1_dim_general", lhs == rhs, lhs, rhs)


def check_rad_sq_zero_summand(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not g.A.is_radical_square_zero():
        return _na("rad_sq_zero_summand", "requires a radical-square-zero algebra")
    if not g.same_block:
        return _na("rad_sq_zero_summand", "requires a same-block gluing")
    if f.char != 0:
        return _na("rad_sq_zero_summand", "requires characteristic zero")
    if ctx.spp.kspp != 0:
        return _na("rad_sq_zero_summand", "requires a vanishing special-pair kernel part")
    dims_ok = ctx.CB.hh1_view.dim == ctx.CA.hh1_view.dim + 1
    # abstract one-dimensional central factor: Lie centers differ by one
    center_ok = lie_center_dim(hh1_lie(g.B)) == lie_center_dim(hh1_lie(g.A)) + 1
    return _verdict(
        "rad_sq_zero_summand",
        dims_ok and center_ok,
        ctx.CB.hh1_view.dim,
        ctx.CA.hh1_view.dim + 1,
    )


# -- center ---------------------------------------------------------------------


def check_center_geq1(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    ker_b_pos = ctx.CB.ker0_positive()
    psi0_ker = g.psi_subspace(g.psi0, ctx.CA.ker0_positive())
    ok = is_direct_sum(f, psi0_ker, ctx.nsp.z_nsp)
    ok = ok and subspace_sum(f, psi0_ker, ctx.nsp.z_nsp) == ker_b_pos
    return _verdict(
        "center_geq1", ok, ker_b_pos.dim, psi0_ker.dim + ctx.nsp.nsp
    )


def _center_embedding(ctx: GluingContext):
    """The unital map on degree-zero kernels: unit to unit, positive part
    transported along the quiver morphism.  Only valid for connected input."""
    g, f = ctx.g, ctx.f
    CA, CB = ctx.CA, ctx.CB
    n_b = g.B.quiver.num_vertices
    unit_b = {
        CB.basis0.index[(v, g.B.quiver.trivial_path(v))]: f.one for v in range(n_b)
    }
    triv_a = {
        CA.basis0.index[(v, g.A.quiver.trivial_path(v))]
        for v in range(g.A.quiver.num_vertices)
    }
    probe = next(iter(sorted(triv_a)))

    def mu(vec: dict):
        c = vec.get(probe, f.zero)
        for i in triv_a:
            if vec.get(i, f.zero) != c:
                return None  # degree-zero part not scalar: unexpected
        pos = {i: x for i, x in vec.items() if i not in triv_a}
        out = dict(g.psi0.apply(f, pos))
        for i, x in unit_b.items():
            accumulate(f, out, i, f.mul(c, x))
        return out

    return mu


def check_center_indec(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    c_a, _ = g.components
    if c_a != 1:
        return _na("center_indec", "requires an indecomposable algebra")
    lhs = ctx.CB.hh0.dim
    rhs = ctx.CA.hh0.dim + ctx.nsp.nsp
    ok = lhs == rhs
    mu = _center_embedding(ctx)
    rows = ctx.CA.hh0.row_vectors()
    images = []
    for r in rows:
        img = mu(r)
        if img is None or not member(f, ctx.CB.hh0, img):
            return _verdict("center_indec", False, lhs, rhs,
                            reason="transported central element is not central")
        images.append(img)
    ok = ok and span(f, ctx.CB.basis0, images).dim == len(rows)
    detail = ""
    for i in range(len(rows)):
        for j in range(len(rows)):
            prod_a = central_mult(ctx.CA, rows[i], rows[j])
            lhs_vec = mu(prod_a)
            rhs_vec = central_mult(ctx.CB, images[i], images[j])
            if lhs_vec is None or lhs_vec != rhs_vec:
                ok = False
                detail = f"embedding is not multiplicative at ({i}, {j})"
                break
        if detail:
            break
    return _verdict("center_indec", ok, lhs, rhs, reason=detail)


def check_center_source_sink(ctx: GluingContext) -> CheckReport:
    g = ctx.g
    if not g.source_sink:
        return _na("center_source_sink", "requires a source-sink gluing")
    c_a, _ = g.components
    if c_a != 1:
        return _na("center_source_sink", "requires an indecomposable algebra")
    e1, e2, e3, e4 = g.endpoints
    if g.A.path_set(e3, e2):
        return _na("center_source_sink", "connecting paths exist; criterion is silent here")
    ok = ctx.CA.hh0.dim == ctx.CB.hh0.dim and ctx.nsp.nsp == 0
    return _verdict("center_source_sink", ok, ctx.CA.hh0.dim, ctx.CB.hh0.dim)


def check_center_rad_sq_zero(ctx: GluingContext) -> CheckReport:
    g = ctx.g
    if not g.A.is_radical_square_zero():
        return _na("center_rad_sq_zero", "requires a radical-square-zero algebra")
    c_a, _ = g.components
    if c_a != 1:
        return _na("center_rad_sq_zero", "requires an indecomposable algebra")
    e1, e2, e3, e4 = g.endpoints
    Q = g.A.quiver
    no_cross_arrows = not any(
        {Q.source(a), Q.target(a)} in ({e1, e3}, {e2, e4}) for a in range(Q.num_arrows)
    )
    iso = ctx.CA.hh0.dim == ctx.CB.hh0.dim
    return _verdict("center_rad_sq_zero", iso == no_cross_arrows, iso, no_cross_arrows)


def check_center_diff_blocks(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    c_a, _ = g.components
    if g.same_block or c_a != 2:
        return _na("center_diff_blocks", "requires gluing across exactly two blocks")
    lhs = ctx.CA.hh0.dim
    rhs = ctx.CB.hh0.dim + 1
    ok = lhs == rhs and ctx.nsp.nsp == 0
    ker_a_pos = ctx.CA.ker0_positive()
    psi0_pos = g.psi_subspace(g.psi0, ker_a_pos)
    ok = ok and psi0_pos == ctx.CB.ker0_positive()
    detail = ""
    rows = ker_a_pos.row_vectors()
    for i in range(len(rows)):
        for j in range(len(rows)):
            lhs_vec = g.psi0.apply(f, central_mult(ctx.CA, rows[i], rows[j]))
            rhs_vec = central_mult(
                ctx.CB, g.psi0.apply(f, rows[i]), g.psi0.apply(f, rows[j])
            )
            if lhs_vec != rhs_vec:
                ok = False
                detail = f"positive parts are not multiplicative at ({i}, {j})"
                break
        if detail:
            break
    return _verdict("center_diff_blocks", ok, lhs, rhs, reason=detail)


# -- fundamental group and higher degrees ------------------------------------------


def check_pi1_rank(ctx: GluingContext) -> CheckReport:
    g = ctx.g
    c_a, c_b = g.components
    lhs = pi1_rank(g.A)
    rhs = pi1_rank(g.B) + c_a - c_b - 1
    return _verdict("pi1_rank", lhs == rhs, lhs, rhs)


def check_gamma_not_in_image(ctx: GluingContext) -> CheckReport:
    g, f = ctx.g, ctx.f
    if not (g.source_sink and g.same_block):
        return _na("gamma_not_in_image", "requires a same-block source-sink gluing")
    outside = not member(f, ctx.CB.im0, g.gamma_pair_vector())
    return _verdict("gamma_not_in_image", outside, outside, True)


def check_theta(ctx: GluingContext) -> CheckReport:
    rep = check_theta_diagram(ctx.g)
    if not rep.applicable:
        return _na("theta_diagram", rep.reason)
    return _verdict(
        "theta_diagram",
        rep.commutes,
        rep.generator_results,
        (rep.new_dual_is_gamma_pair, rep.gamma_pair_outside_image),
    )


def check_high_degrees(ctx: GluingContext, cap: int = 6) -> CheckReport:
    reports = []
    for n in range(2, cap + 1):
        r = check_high_degree_gluing(ctx.g, n)
        if not r.applicable:
            return _na("high_degrees", r.reason)
        reports.append(r)
    ok = all(r.passed for r in reports)
    return _verdict(
        "high_degrees",
        ok,
        [str(r.dim_a) for r in reports],
        [str(r.dim_b) for r in reports],
    )


def _loop_witness(ctx: GluingContext, witness):
    a, m = witness
    return (ctx.g.A.quiver.arrow_name(a), m)


CHECKS = {
    "im_delta0_dim": check_im_delta0_dim,
    "im_delta0_structure": check_im_delta0_structure,
    "rad_sq_zero_im": check_rad_sq_zero_im,
    "ker_delta1_hom": check_ker_delta1_hom,
    "ker_delta1_structure": check_ker_delta1_structure,
    "hh1_lie_iso": check_hh1_lie_iso,
    "hh1_central_summand": check_hh1_central_summand,
    "hh1_dim_general": check_hh1_dim_general,
    "rad_sq_zero_summand": check_rad_sq_zero_summand,
    "center_geq1": check_center_geq1,
    "center_indec": check_center_indec,
    "center_source_sink": check_center_source_sink,
    "center_rad_sq_zero": check_center_rad_sq_zero,
    "center_diff_blocks": check_center_diff_blocks,
    "pi1_rank": check_pi1_rank,
    "gamma_not_in_image": check_gamma_not_in_image,
    "theta_diagram": check_theta,
    "high_degrees": check_high_degrees,
}


def _repro_text(g: GluedAlgebra) -> str:
    from .fileformat import print_algebra

    QA = g.A.quiver
    return (
        print_algebra(g.A)
        + f"# glue --alpha {QA.arrow_name(g.alpha)} --beta {QA.arrow_name(g.beta)}\n"
    )


def run_checks(g: GluedAlgebra, names=None) -> list:
    """Run the named checks (all by default) and collect reports."""
    ctx = GluingContext(g)
    selected = list(CHECKS) if names is None else list(names)
    reports = []
    for name in selected:
        if name not in CHECKS:
            raise QuiverHHError(f"unknown check: {name}")
        t0 = time.perf_counter()
        try:
            rep = CHECKS[name](ctx)
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
    """Re-derive the failed comparison through the derivation/commutant
    oracles; True means the failure is a confirmed counterexample to the
    stated formula rather than an artifact defect."""
    from .oracles import oracle_center, oracle_hh1_dim

    ctx = GluingContext(g)
    if report.check in ("hh1_dim_general", "ker_delta1_structure", "ker_delta1_hom"):
        ok_a = oracle_hh1_dim(g.A) == ctx.CA.hh1_view.dim
        ok_b = oracle_hh1_dim(g.B) == ctx.CB.hh1_view.dim
        return ok_a and ok_b
    if report.check.startswith("center"):
        ok_a = oracle_center(g.A)[0] == ctx.CA.hh0.dim
        ok_b = oracle_center(g.B)[0] == ctx.CB.hh0.dim
        return ok_a and ok_b
    if report.check == "im_delta0_dim":
        ok_a = oracle_hh1_dim(g.A) == ctx.CA.hh1_view.dim
        ok_b = oracle_hh1_dim(g.B) == ctx.CB.hh1_view.dim
        ok_c = oracle_center(g.A)[0] == ctx.CA.hh0.dim
        ok_d = oracle_center(g.B)[0] == ctx.CB.hh0.dim
        return ok_a and ok_b and ok_c and ok_d
    return False


def run_fuzz(seed: int, count: int, checks=FUZZ_CHECKS, spec_kwargs=None, confirm=True):
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
                confirmed = confirm_failure(g, rep) if confirm else None
                failures.append((inst_seed, rep, confirmed))
    return all_reports, failures
