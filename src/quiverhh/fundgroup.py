"""Betti-number rank of the bound-quiver fundamental group and the map
from its character group into degree-one cohomology.

For a monomial ideal the character group of the fundamental group has
dimension equal to the first Betti number, so chord duals of a spanning
forest realize a basis: the dual of a chord evaluates a closed walk by
the signed number of chord traversals after reduction.  The map into
cohomology sends a dual to the diagonal arrow-pair cocycle whose
coefficients evaluate the dual on base-point conjugated arrows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .algebra import MonomialAlgebra
from .errors import BridgeError, QuiverHHError
from .gluing import GluedAlgebra
from .linalg import LabeledBasis, accumulate, member, span
from .quiver import (
    FORWARD,
    INVERSE,
    Quiver,
    Walk,
    arrow_walk,
    betti,
    connected_components,
    signed_count,
    trivial_walk,
    walk_compose,
    walk_inverse,
    walk_is_valid,
)
from .paircomplex import complex_data


def pi1_rank(A: MonomialAlgebra) -> int:
    """Largest character-group dimension over admissible presentations;
    for monomial ideals this is the first Betti number of the quiver."""
    return betti(A.quiver)


@dataclass(frozen=True)
class ChordDualBasis:
    tree: tuple  # arrow ids of the spanning forest
    chords: tuple  # remaining arrow ids, canonical order


def chord_duals(Q: Quiver, avoid=None) -> ChordDualBasis:
    """Deterministic BFS spanning forest that never uses the avoided arrow.

    The forest is built on the quiver with the avoided arrow removed; if
    that removal separates the arrow's endpoints the arrow is a bridge
    and :class:`BridgeError` is raised.
    """
    incident = [[] for _ in range(Q.num_vertices)]
    for a in range(Q.num_arrows):
        if a == avoid:
            continue
        incident[Q.source(a)].append(a)
        if Q.target(a) != Q.source(a):
            incident[Q.target(a)].append(a)

    comp = [-1] * Q.num_vertices
    tree = []
    for root in range(Q.num_vertices):
        if comp[root] != -1:
            continue
        comp[root] = root
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for a in incident[v]:
                w = Q.target(a) if Q.source(a) == v else Q.source(a)
                if comp[w] == -1:
                    comp[w] = root
                    tree.append(a)
                    queue.append(w)
    if avoid is not None and comp[Q.source(avoid)] != comp[Q.target(avoid)]:
        raise BridgeError(
            f"arrow {Q.arrow_name(avoid)} is a bridge and cannot be avoided"
        )
    chords = tuple(sorted(set(range(Q.num_arrows)) - set(tree)))
    return ChordDualBasis(tuple(sorted(tree)), chords)


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


def theta(A: MonomialAlgebra, chord: int, walks: ParadeData) -> dict:
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
            vec[C.basis1.index[(a, Q.arrow_path(a))]] = f.of_int(c)
    if C.delta1.apply(f, vec):
        raise QuiverHHError("chord dual cocycle failed the kernel membership assertion")
    return vec


def theta_class_rank(A: MonomialAlgebra) -> int:
    """Rank of all chord-dual cocycles inside kernel-mod-image; equals the
    Betti number for monomial ideals (verified per instance by callers)."""
    C = complex_data(A)
    duals = chord_duals(A.quiver)
    walks = parade(A.quiver, duals.tree)
    coord_vecs = []
    for chord in duals.chords:
        coords = C.hh1_view.project(theta(A, chord, walks))
        coord_vecs.append({i: c for i, c in enumerate(coords) if not A.field.is_zero(c)})
    coord_basis = LabeledBasis(tuple(range(C.hh1_view.dim)))
    return span(A.field, coord_basis, coord_vecs).dim


@dataclass(frozen=True)
class ThetaDiagramReport:
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


def check_theta_diagram(g: GluedAlgebra) -> ThetaDiagramReport:
    """Evaluate both composites of the character-group/cohomology square.

    Requires a same-block source-sink gluing.  The parade in the glued
    quiver is based at the merged target vertex and avoids the merged
    arrow; it pulls back along the quiver morphism to the parade the
    construction prescribes (inverse of alpha to reach its source, the
    pulled-back connecting walk to reach the source of beta, and beta
    appended to reach its target).
    """
    if not (g.source_sink and g.same_block):
        return ThetaDiagramReport(False, "requires a same-block source-sink gluing", (), None, None)
    A, B = g.A, g.B
    QA, QB = A.quiver, B.quiver
    f = B.field
    e1, e2, e3, e4 = g.endpoints
    f1, f2 = g.vertex_map[e1], g.vertex_map[e2]

    duals_B = chord_duals(QB, avoid=g.gamma)
    walks_B = parade(QB, duals_B.tree, base_override={min(c): f2 for c in connected_components(QB) if f2 in c})

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
    walks_A = ParadeData(tuple(walks_A_list))

    CB = g.complexes[1]
    gamma_vec = g.gamma_pair_vector()

    results = []
    new_dual_ok = None
    for c_star in duals_B.chords:
        t_B = theta(B, c_star, walks_B)
        if c_star == g.gamma:
            new_dual_ok = t_B == gamma_vec
            continue
        t_A = theta(A, preimage[c_star], walks_A)
        lhs = g.psi1.apply(f, t_A)
        diff = dict(lhs)
        for i, c in t_B.items():
            accumulate(f, diff, i, f.neg(c))
        results.append((QB.arrow_name(c_star), member(f, g.im0_gamma, diff)))
    outside = not member(f, CB.im0, gamma_vec)
    return ThetaDiagramReport(True, "", tuple(results), new_dual_ok, outside)
