"""Differential tests: the closed-form chord-dual cocycle against the walk algebra.

Before ``fundgroup.theta`` returned the diagonal pair of its chord, it
evaluated the chord dual on every arrow conjugated back to a base point by
parade walks along the spanning forest, and ``check_theta_diagram`` pulled
B's parade back along the gluing to get A's.  The walk algebra (formerly in
``quiver``), ``parade``, the walk-based ``theta`` (``ref_theta``) and
``check_theta_diagram`` (``ref_check_theta_diagram``, with its report
``RefThetaDiagramReport``) are kept below unchanged, apart from lifting the
pulled-back parades out into ``ref_theta_parades`` so that each of A's
chords can be compared on them too.  Both forms must give the same cocycle
for every chord on every forest, and the same square on every same-block
source-sink gluing.  ``check_theta_diagram`` now returns its two
composites as plain tuples and the ``theta_diagram`` check reads γ's pair
and forms the verdict, so the square is compared with that check's report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh.algebra import MonomialAlgebra, build
from quiverhh.checks import run_checks
from quiverhh.errors import BridgeError, CompositionError, QuiverHHError
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.fundgroup import chord_duals, check_theta_diagram, theta
from quiverhh.gluing import GluedAlgebra, glue
from quiverhh.linalg import accumulate, member
from quiverhh.paircomplex import complex_data
from quiverhh.quiver import Quiver, connected_components
from quiverhh.randomgen import (
    RandomSpec,
    instance_with_gluing,
    random_gluing,
    random_instance,
    source_sink_instance,
)

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


# -- walks ---------------------------------------------------------------------

FORWARD = 1
INVERSE = -1


@dataclass(frozen=True)
class Walk:
    """Walk in the underlying graph; steps are (arrow id, direction)."""

    source: int
    target: int
    steps: tuple

    @property
    def length(self) -> int:
        return len(self.steps)


def trivial_walk(v: int) -> Walk:
    return Walk(v, v, ())


def arrow_walk(Q: Quiver, a: int, direction: int = FORWARD) -> Walk:
    if direction == FORWARD:
        return Walk(Q.source(a), Q.target(a), ((a, FORWARD),))
    return Walk(Q.target(a), Q.source(a), ((a, INVERSE),))


def walk_compose(later: Walk, earlier: Walk) -> Walk:
    if later.source != earlier.target:
        raise CompositionError("walks do not compose: endpoint mismatch")
    return Walk(earlier.source, later.target, earlier.steps + later.steps)


def walk_inverse(w: Walk) -> Walk:
    return Walk(w.target, w.source, tuple((a, -d) for a, d in reversed(w.steps)))


def walk_reduce(w: Walk) -> Walk:
    """Cancel adjacent mutually inverse steps until none remain."""
    stack: list = []
    for step in w.steps:
        if stack and stack[-1][0] == step[0] and stack[-1][1] == -step[1]:
            stack.pop()
        else:
            stack.append(step)
    return Walk(w.source, w.target, tuple(stack))


def walk_is_valid(Q: Quiver, w: Walk) -> bool:
    at = w.source
    for a, d in w.steps:
        frm, to = (Q.source(a), Q.target(a)) if d == FORWARD else (Q.target(a), Q.source(a))
        if frm != at:
            return False
        at = to
    return at == w.target


def signed_count(w: Walk, arrow: int) -> int:
    """Net signed number of times ``arrow`` is traversed by the reduced walk."""
    return sum(d for a, d in walk_reduce(w).steps if a == arrow)


# -- parades and the walk-based cocycle -------------------------------------------


def forest(Q: Quiver, avoid=None) -> tuple:
    """The spanning forest behind :func:`chord_duals`: the arrows that are not chords."""
    chords = chord_duals(Q, avoid)
    return tuple(a for a in range(Q.num_arrows) if a not in chords)


@dataclass(frozen=True)
class ParadeData:
    """A walk from a per-component base vertex to every vertex."""

    walks: tuple  # Walk per vertex id


def parade(Q: Quiver, tree, base_override=None) -> ParadeData:
    """Tree walks from each component's base (lowest vertex unless overridden)."""
    base_override = base_override or {}
    adjacency = [[] for _ in range(Q.num_vertices)]
    for a in tree:
        adjacency[Q.source(a)].append((a, FORWARD, Q.target(a)))
        adjacency[Q.target(a)].append((a, INVERSE, Q.source(a)))
    for lst in adjacency:
        lst.sort()
    walks: list = [None] * Q.num_vertices
    for comp in connected_components(Q):
        base = base_override.get(comp[0], comp[0])
        walks[base] = trivial_walk(base)
        queue = deque([base])
        while queue:
            v = queue.popleft()
            for a, direction, w in adjacency[v]:
                if walks[w] is None:
                    step = arrow_walk(Q, a, direction)
                    walks[w] = walk_compose(step, walks[v])
                    queue.append(w)
    for comp in connected_components(Q):
        for v in comp:
            if walks[v] is None:
                raise QuiverHHError("spanning forest does not reach every vertex")
    return ParadeData(tuple(walks))


def ref_theta(A: MonomialAlgebra, chord: int, walks: ParadeData) -> dict:
    """Diagonal cocycle of a chord dual, as a vector over arrow/path pairs.

    The coefficient of each diagonal arrow pair is the dual evaluated on
    the arrow conjugated back to the base point by the parade walks; the
    result is asserted to be a degree-one cocycle.
    """
    C = complex_data(A)
    f = A.field
    Q = A.quiver
    vec: dict = {}
    for a in range(Q.num_arrows):
        loop = walk_compose(
            walk_inverse(walks.walks[Q.target(a)]),
            walk_compose(arrow_walk(Q, a), walks.walks[Q.source(a)]),
        )
        c = signed_count(loop, chord)
        if c:
            vec[C.basis1.index[(a, Q.arrow_path(a))]] = f.add(f.zero, c)
    if C.delta1.apply(f, vec):
        raise QuiverHHError("chord dual cocycle failed the kernel membership assertion")
    return vec


@dataclass(frozen=True)
class RefThetaDiagramReport:
    applicable: bool
    reason: str
    generator_results: tuple  # (name, bool) per basis dual
    new_dual_is_gamma_pair: object  # bool or None
    gamma_pair_outside_image: object  # bool or None

    @property
    def commutes(self) -> bool:
        return (
            self.applicable
            and all(ok for _, ok in self.generator_results)
            and bool(self.new_dual_is_gamma_pair)
            and bool(self.gamma_pair_outside_image)
        )


def ref_theta_parades(g: GluedAlgebra):
    """B's chord duals and parade, the arrow preimage, and A's pulled-back parade.

    The parade in the glued quiver is based at the merged target vertex and
    avoids the merged arrow; it pulls back along the quiver morphism to the
    parade the construction prescribes (inverse of alpha to reach its
    source, the pulled-back connecting walk to reach the source of beta,
    and beta appended to reach its target).
    """
    A, B = g.A, g.B
    QA, QB = A.quiver, B.quiver
    e1, e2, e3, e4 = g.endpoints
    f1, f2 = g.vertex_map[e1], g.vertex_map[e2]

    duals_B = chord_duals(QB, avoid=g.gamma)
    walks_B = parade(QB, forest(QB, avoid=g.gamma), base_override={min(c): f2 for c in connected_components(QB) if f2 in c})

    preimage = {}
    for a in range(QA.num_arrows):
        if a not in (g.alpha, g.beta):
            preimage[g.arrow_map[a]] = a

    def pull_back(walk: Walk, source: int) -> Walk:
        steps = tuple((preimage[a], d) for a, d in walk.steps)
        at = source
        for a, d in steps:
            at = QA.target(a) if d == FORWARD else QA.source(a)
        out = Walk(source, at, steps)
        if not walk_is_valid(QA, out):
            raise QuiverHHError("pulled-back parade walk is not a walk; this is a bug")
        return out

    v_walk = pull_back(walks_B.walks[f1], e2)
    if v_walk.target != e3:
        raise QuiverHHError("connecting walk does not reach the merged source vertex")
    glued_comp = next(set(c) for c in connected_components(QB) if f2 in c)
    walks_A_list: list = [None] * QA.num_vertices
    walks_A_list[e1] = walk_inverse(arrow_walk(QA, g.alpha))
    walks_A_list[e2] = trivial_walk(e2)
    walks_A_list[e3] = v_walk
    walks_A_list[e4] = walk_compose(arrow_walk(QA, g.beta), v_walk)
    for v in range(QA.num_vertices):
        if walks_A_list[v] is not None:
            continue
        w_B = walks_B.walks[g.vertex_map[v]]
        if g.vertex_map[v] in glued_comp:
            src = e2
        else:
            # untouched component: its base vertex lifts uniquely
            src = next(
                u
                for u in range(QA.num_vertices)
                if g.vertex_map[u] == w_B.source and u not in (e3, e4)
            )
        walks_A_list[v] = pull_back(w_B, src)
    return duals_B, walks_B, preimage, ParadeData(tuple(walks_A_list))


def ref_check_theta_diagram(g: GluedAlgebra) -> RefThetaDiagramReport:
    """Evaluate both composites of the character-group/cohomology square.

    Requires a same-block source-sink gluing.
    """
    if not (g.source_sink and g.same_block):
        return RefThetaDiagramReport(False, "requires a same-block source-sink gluing", (), None, None)
    A, B = g.A, g.B
    QB = B.quiver
    f = B.field
    duals_B, walks_B, preimage, walks_A = ref_theta_parades(g)

    CB = g.complexes[1]
    gamma_vec = g.gamma_pair_vector()

    results = []
    new_dual_ok = None
    for c_star in duals_B:
        t_B = ref_theta(B, c_star, walks_B)
        if c_star == g.gamma:
            new_dual_ok = t_B == gamma_vec
            continue
        t_A = ref_theta(A, preimage[c_star], walks_A)
        lhs = g.psi1.apply(f, t_A)
        diff = dict(lhs)
        for i, c in t_B.items():
            accumulate(f, diff, i, f.neg(c))
        results.append((QB.arrow_name(c_star), member(f, g.im0_gamma, diff)))
    outside = not member(f, CB.im0, gamma_vec)
    return RefThetaDiagramReport(True, "", tuple(results), new_dual_ok, outside)


# -- differential tests ------------------------------------------------------------


def assert_theta_matches(A, tree, base_override=None):
    """theta equals the walk-based form on every chord of ``tree``; returns
    the number of chords compared."""
    walks = parade(A.quiver, tree, base_override)
    chords = sorted(set(range(A.quiver.num_arrows)) - set(tree))
    for chord in chords:
        assert theta(A, chord) == ref_theta(A, chord, walks)
    return len(chords)


def assert_gluing_matches(g):
    """Compare theta on both algebras' forests and, for a same-block
    source-sink gluing, on the pulled-back parades and the whole square;
    returns the number of chords and of squares compared."""
    chords = assert_theta_matches(g.A, forest(g.A.quiver))
    chords += assert_theta_matches(g.B, forest(g.B.quiver))
    squares = 0
    if g.source_sink and g.same_block:
        duals_B, walks_B, preimage, walks_A = ref_theta_parades(g)
        for c_star in duals_B:
            assert theta(g.B, c_star) == ref_theta(g.B, c_star, walks_B)
            if c_star != g.gamma:
                a = preimage[c_star]
                assert theta(g.A, a) == ref_theta(g.A, a, walks_A)
                chords += 1
        generators, new_dual_ok = check_theta_diagram(g)
        ref = ref_check_theta_diagram(g)
        assert ref.applicable
        assert (generators, new_dual_ok, g.gamma_outside_im0) == (
            ref.generator_results,
            ref.new_dual_is_gamma_pair,
            ref.gamma_pair_outside_image,
        )
        (rep,) = run_checks(g, ["theta_diagram"])
        assert (rep.status == "pass") == ref.commutes
        assert (rep.lhs, rep.rhs) == (
            ref.generator_results,
            (ref.new_dual_is_gamma_pair, ref.gamma_pair_outside_image),
        )
        squares += 1
    else:
        (rep,) = run_checks(g, ["theta_diagram"])
        assert (rep.status, rep.reason) == ("not-applicable", ref_check_theta_diagram(g).reason)
        try:
            tree_B = forest(g.B.quiver, avoid=g.gamma)
        except BridgeError:
            return chords, squares
        chords += assert_theta_matches(g.B, tree_B)
    return chords, squares


def test_corpus_matches_reference():
    # the built-in examples, and fans whose squares have m - 1 chords
    # beside the merged arrow
    cases = [(parse(ex.text), "alpha", "beta") for ex in EXAMPLES]
    cases += [(parse(fan(m)), "alpha", "beta") for m in range(2, 6)]
    totals = [0, 0]
    for A, alpha_name, beta_name in cases:
        Q = A.quiver
        alpha, beta = Q.arrow_index[alpha_name], Q.arrow_index[beta_name]
        for f in FIELDS.values():
            counts = assert_gluing_matches(glue(build(Q, A.relations, f), alpha, beta))
            totals = [t + c for t, c in zip(totals, counts)]
    assert totals[0] >= 300 and totals[1] == 4 * 7


def test_parade_walks_are_valid_and_based():
    for ex in EXAMPLES:
        Q = parse(ex.text).quiver
        walks = parade(Q, forest(Q))
        for comp in connected_components(Q):
            for v in comp:
                w = walks.walks[v]
                assert walk_is_valid(Q, w) and (w.source, w.target) == (comp[0], v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)), st.integers(8, 40))
@example(0, "Q", 40)
@example(20260809, "F5", 32)
def test_random_instances_match_reference(seed, field, max_dim):
    A = random_instance(RandomSpec(seed=seed, field=FIELDS[field], max_dim=max_dim))
    assert_theta_matches(A, forest(A.quiver))
    gs = random_gluing(A, seed)
    if gs is not None:
        assert_gluing_matches(glue(A, gs.alpha, gs.beta))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
@example(0, "F3")
def test_instances_with_gluing_match_reference(seed, field):
    A, gs = instance_with_gluing(RandomSpec(seed=seed, field=FIELDS[field]))
    assert_gluing_matches(glue(A, gs.alpha, gs.beta))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
@example(0, "F2")
@example(7, "Q")
def test_source_sink_instances_match_reference(seed, field):
    A, gs = source_sink_instance(RandomSpec(seed=seed, field=FIELDS[field]))
    assert_gluing_matches(glue(A, gs.alpha, gs.beta))
