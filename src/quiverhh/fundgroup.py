"""Betti-number rank of the bound-quiver fundamental group and the map
from its character group into degree-one cohomology.

For a monomial ideal the character group of the fundamental group has
dimension equal to the first Betti number, so the duals of the chords of
a spanning forest form a basis: the dual of a chord is 1 on that chord
and 0 on every other arrow.  The map into cohomology sends a character
to the derivation scaling each arrow by its value there, so a chord dual
goes to the diagonal pair of its chord with coefficient 1.  The chords
come from :func:`quiver.spanning_forest`, the one BFS forest that also
answers components and crowns.
"""

from __future__ import annotations

from .algebra import MonomialAlgebra
from .errors import BridgeError, QuiverHHError
from .gluing import GluedAlgebra
from .linalg import accumulate, member, rank
from .quiver import Quiver, betti, spanning_forest
from .paircomplex import complex_data


def pi1_rank(A: MonomialAlgebra) -> int:
    """Largest character-group dimension over admissible presentations;
    for monomial ideals this is the first Betti number of the quiver."""
    return betti(A.quiver)


def chord_duals(Q: Quiver, avoid=None) -> tuple:
    """The chords, in ascending order, of :func:`spanning_forest` avoiding
    ``avoid``; the forest is the other arrows.  If removing the avoided
    arrow separates its endpoints, it is a bridge: :class:`BridgeError`.
    """
    root, tree = spanning_forest(Q, avoid)
    if avoid is not None and root[Q.source(avoid)] != root[Q.target(avoid)]:
        raise BridgeError(f"arrow {Q.arrow_name(avoid)} is a bridge and cannot be avoided")
    return tuple(sorted(set(range(Q.num_arrows)) - set(tree)))


def theta(A: MonomialAlgebra, chord: int) -> dict:
    """Cocycle of the dual of ``chord``, as a vector over arrow/path pairs.

    The dual is 1 on the chord and 0 on every other arrow, so its image is
    the diagonal pair of the chord with its own arrow path, coefficient 1.
    The result is asserted to be a degree-one cocycle.
    """
    C = complex_data(A)
    vec = {C.basis1.index[(chord, A.quiver.arrow_path(chord))]: A.field.one}
    if C.delta1.apply(A.field, vec):
        raise QuiverHHError("chord dual cocycle failed the kernel membership assertion")
    return vec


def theta_class_rank(A: MonomialAlgebra) -> int:
    """Rank of all chord-dual cocycles inside kernel-mod-image; equals the
    Betti number for monomial ideals.  No program path reads it: only
    ``tests/test_fundgroup.py`` compares it with :func:`quiver.betti`."""
    C = complex_data(A)
    coord_vecs = [C.hh1_view.project(theta(A, chord)) for chord in chord_duals(A.quiver)]
    return rank(A.field, coord_vecs)


def check_theta_diagram(g: GluedAlgebra) -> tuple:
    """Evaluate both composites of the character-group/cohomology square.

    Meant for a same-block source-sink gluing.  The chords of B are taken
    from a spanning forest avoiding the merged arrow, whose dual must map
    to the merged arrow's diagonal pair (the ``theta_diagram`` check adds
    that it lies outside the degree-zero image).  Every other chord of B
    is the image of exactly one arrow of A, whose dual is carried across
    by the degree-one pair map; the two results must agree modulo the
    image plus the merged pair.  Returns a ``(name, agrees)`` pair per
    such chord and whether the merged dual is the merged pair.
    """
    A, B = g.A, g.B
    QB = B.quiver
    f = B.field
    preimage = {b: a for a, b in enumerate(g.arrow_map) if b != g.gamma}

    results = []
    for c_star in chord_duals(QB, avoid=g.gamma):
        if c_star == g.gamma:
            continue
        diff = g.psi1.apply(f, theta(A, preimage[c_star]))
        for i, c in theta(B, c_star).items():
            accumulate(f, diff, i, f.neg(c))
        results.append((QB.arrow_name(c_star), member(f, g.im0_gamma, diff)))
    return tuple(results), theta(B, g.gamma) == g.gamma_pair_vector()
