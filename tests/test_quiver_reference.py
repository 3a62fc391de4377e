"""Differential tests: one BFS spanning forest against the walks it replaced.

``quiver.spanning_forest`` answers every graph question of the program.
Before, ``connected_components`` ran its own union-find, ``chord_duals``
ran the BFS that ``spanning_forest`` now is, ``crown_order`` followed the
successor of each vertex around the cycle, and ``is_source_arrow`` and
``is_sink_arrow`` each spelled out three conditions.  Those bodies are
kept below unchanged as ``ref_*``.  Both forms must give the same
components, the same chords (or the same ``BridgeError``) for every
avoided arrow, the same crown order and the same source and sink arrows
on hypothesis quivers, loops, multiple arrows and the empty quiver
included, and on both sides of every fuzz-corpus gluing.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh.errors import BridgeError
from quiverhh.fundgroup import chord_duals
from quiverhh.quiver import (
    Quiver,
    connected_components,
    crown_order,
    is_sink_arrow,
    is_source_arrow,
)


def ref_connected_components(Q: Quiver) -> list:
    """Partition of vertex ids by underlying-graph connectivity, each sorted."""
    parent = list(range(Q.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, s, t in Q.arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt)] = min(rs, rt)
    groups: dict = {}
    for v in range(Q.num_vertices):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for _, g in sorted(groups.items())]


def ref_chord_duals(Q: Quiver, avoid=None) -> tuple:
    """The chords, in ascending order, of a deterministic BFS spanning
    forest that never uses the avoided arrow; the forest is the other
    arrows.

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
    return tuple(sorted(set(range(Q.num_arrows)) - set(tree)))


def ref_is_source_arrow(Q: Quiver, a: int) -> bool:
    s, t = Q.source(a), Q.target(a)
    if Q.arrows_into[s]:
        return False
    if any(b != a for b in Q.arrows_from[s]):
        return False
    if any(b != a for b in Q.arrows_into[t]):
        return False
    return True


def ref_is_sink_arrow(Q: Quiver, a: int) -> bool:
    s, t = Q.source(a), Q.target(a)
    if Q.arrows_from[t]:
        return False
    if any(b != a for b in Q.arrows_into[t]):
        return False
    if any(b != a for b in Q.arrows_from[s]):
        return False
    return True


def ref_crown_order(Q: Quiver):
    """n if the quiver is a cyclically oriented n-cycle, else None."""
    n = Q.num_vertices
    if n == 0 or Q.num_arrows != n:
        return None
    succ = {}
    for _, s, t in Q.arrows:
        if s in succ:
            return None
        succ[s] = t
    seen = set()
    v = 0
    for _ in range(n):
        if v in seen or v not in succ:
            return None
        seen.add(v)
        v = succ[v]
    return n if v == 0 and len(seen) == n else None


def chords_or_bridge(duals, Q, avoid):
    try:
        return duals(Q, avoid)
    except BridgeError as err:
        return ("bridge", str(err))


def assert_same_graph_answers(Q: Quiver):
    assert connected_components(Q) == ref_connected_components(Q)
    for avoid in [None, *range(Q.num_arrows)]:
        assert chords_or_bridge(chord_duals, Q, avoid) == chords_or_bridge(ref_chord_duals, Q, avoid)
    assert crown_order(Q) == ref_crown_order(Q)
    for a in range(Q.num_arrows):
        assert is_source_arrow(Q, a) == ref_is_source_arrow(Q, a)
        assert is_sink_arrow(Q, a) == ref_is_sink_arrow(Q, a)


def quiver_of(n: int, arrows) -> Quiver:
    return Quiver(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"a{i}", s, t) for i, (s, t) in enumerate(arrows)),
    )


@st.composite
def quivers(draw):
    """Up to 9 vertices and 12 arrows, loops and multiple arrows included."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return quiver_of(0, ())
    return quiver_of(n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)))


# a 4-cycle on which a depth-first search takes another forest than BFS
SQUARE = quiver_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# two disjoint 2-cycles: every vertex has one arrow out and one in, no crown
TWO_CYCLES = quiver_of(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
# a second arrow into a0's target: a0 is no source arrow, though its source side is
SHARED_TARGET = quiver_of(3, [(0, 1), (2, 1)])


@settings(max_examples=400, deadline=None)
@given(quivers())
@example(quiver_of(0, ()))
@example(SQUARE)
@example(TWO_CYCLES)
@example(SHARED_TARGET)
@example(quiver_of(1, [(0, 0)]))
@example(quiver_of(3, [(0, 1), (1, 2), (2, 0)]))
@example(quiver_of(2, [(0, 1), (0, 1), (1, 1)]))
def test_graph_answers_match_reference(Q):
    assert_same_graph_answers(Q)


def test_w1_graph_answers_match_reference(w1_gluings):
    assert len(w1_gluings) == 1000
    for _, g in w1_gluings:
        assert_same_graph_answers(g.A.quiver)
        assert_same_graph_answers(g.B.quiver)


@pytest.mark.parametrize("n", range(1, 6))
def test_crowns_match_reference(n):
    Q = quiver_of(n, [(i, (i + 1) % n) for i in range(n)])
    assert crown_order(Q) == ref_crown_order(Q) == n
