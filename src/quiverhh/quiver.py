"""Finite quivers and paths.

Vertices and arrows are identified by their position in the defining
tuples; display names are metadata.  A path is a named tuple
``(source, target, arrows)``: it compares, hashes, orders and prints as
those three fields, so path keys run on the built-in tuple operations.  Its
arrows are stored in traversal order (first-traversed first).  The
conventional right-to-left product notation is only used when rendering,
see :func:`path_str`.  One BFS spanning forest (:func:`spanning_forest`)
answers the graph questions: components, chords and crowns.  The
component partition is computed once per quiver and cached on it as
:attr:`Quiver.components`, which every component question reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import CompositionError


@dataclass(frozen=True)
class Quiver:
    vertex_names: tuple
    arrows: tuple  # (name, source vertex id, target vertex id)

    def __post_init__(self):
        n = len(self.vertex_names)
        if len(set(self.vertex_names)) != n:
            raise ValueError("vertex names must be unique")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for name, s, t in self.arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"arrow {name} has an invalid endpoint")

    # -- accessors -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def num_arrows(self) -> int:
        return len(self.arrows)

    def source(self, a: int) -> int:
        return self.arrows[a][1]

    def target(self, a: int) -> int:
        return self.arrows[a][2]

    def arrow_name(self, a: int) -> str:
        return self.arrows[a][0]

    @cached_property
    def arrow_index(self) -> dict:
        return {arr[0]: i for i, arr in enumerate(self.arrows)}

    @cached_property
    def arrows_from(self) -> tuple:
        out = [[] for _ in self.vertex_names]
        for i, (_, s, _) in enumerate(self.arrows):
            out[s].append(i)
        return tuple(tuple(x) for x in out)

    @cached_property
    def arrows_into(self) -> tuple:
        inc = [[] for _ in self.vertex_names]
        for i, (_, _, t) in enumerate(self.arrows):
            inc[t].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def components(self) -> tuple:
        """Partition of vertex ids by underlying-graph connectivity, as
        sorted vertex tuples ordered by least vertex."""
        groups: dict = {}
        for v, r in enumerate(spanning_forest(self)[0]):
            groups.setdefault(r, []).append(v)
        return tuple(map(tuple, groups.values()))

    # -- path construction ---------------------------------------------------

    def trivial_path(self, v: int) -> "Path":
        return Path(v, v, ())

    def path(self, arrow_ids) -> "Path":
        ids = tuple(arrow_ids)
        if not ids:
            raise CompositionError("a nontrivial path needs at least one arrow")
        for prev, nxt in zip(ids, ids[1:]):
            if self.target(prev) != self.source(nxt):
                raise CompositionError(
                    f"arrow {self.arrow_name(nxt)} does not continue {self.arrow_name(prev)}"
                )
        return Path(self.source(ids[0]), self.target(ids[-1]), ids)

    def arrow_path(self, a: int) -> "Path":
        return Path(self.source(a), self.target(a), (a,))


class Path(NamedTuple):
    """Oriented path; ``arrows`` is empty exactly for the trivial path.

    A named tuple of its ``(source, target, arrows)`` fields: it equals,
    hashes and orders as the plain tuple of them, and prints them by name,
    as in ``Path(source=0, target=1, arrows=(2,))``.
    """

    source: int
    target: int
    arrows: tuple

    @property
    def length(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.arrows, self.source)


def compose(later: Path, earlier: Path) -> Path:
    """Concatenation realizing the right-to-left product ``later * earlier``."""
    if later.source != earlier.target:
        raise CompositionError("paths do not compose: endpoint mismatch")
    return Path(earlier.source, later.target, earlier.arrows + later.arrows)


def parallel(p: Path, q: Path) -> bool:
    return p.source == q.source and p.target == q.target


def path_str(Q: Quiver, p: Path) -> str:
    """Right-to-left rendering; trivial paths show as ``(vertex)``."""
    if not p.arrows:
        return f"({Q.vertex_names[p.source]})"
    return ".".join(Q.arrow_name(a) for a in reversed(p.arrows))


# -- connectivity ------------------------------------------------------------


def spanning_forest(Q: Quiver, avoid=None) -> tuple:
    """Deterministic BFS spanning forest of the underlying graph that never
    uses the avoided arrow, as ``(root, tree)``.

    ``root[v]`` is the least vertex of v's component once the avoided arrow
    is removed, and ``tree`` lists the forest arrows in the order the
    search takes them.
    """
    incident = [[] for _ in range(Q.num_vertices)]
    for a in range(Q.num_arrows):
        if a == avoid:
            continue
        incident[Q.source(a)].append(a)
        if Q.target(a) != Q.source(a):
            incident[Q.target(a)].append(a)

    root = [-1] * Q.num_vertices
    tree = []
    for r in range(Q.num_vertices):
        if root[r] != -1:
            continue
        root[r] = r
        queue = deque([r])
        while queue:
            v = queue.popleft()
            for a in incident[v]:
                w = Q.target(a) if Q.source(a) == v else Q.source(a)
                if root[w] == -1:
                    root[w] = r
                    tree.append(a)
                    queue.append(w)
    return root, tree


def betti(Q: Quiver) -> int:
    """First Betti number of the underlying graph: arrows - vertices + components."""
    return Q.num_arrows - Q.num_vertices + len(Q.components)


# -- arrow classifications ----------------------------------------------------


def _sole_arrow(Q: Quiver, a: int) -> bool:
    """``a`` is the only arrow out of its source and the only arrow into its target."""
    return Q.arrows_from[Q.source(a)] == (a,) and Q.arrows_into[Q.target(a)] == (a,)


def is_source_arrow(Q: Quiver, a: int) -> bool:
    return _sole_arrow(Q, a) and not Q.arrows_into[Q.source(a)]


def is_sink_arrow(Q: Quiver, a: int) -> bool:
    return _sole_arrow(Q, a) and not Q.arrows_from[Q.target(a)]


def crown_order(Q: Quiver):
    """n if the quiver is a cyclically oriented n-cycle, else None: n >= 1
    vertices, one arrow out of and one arrow into every vertex, and one
    component."""
    n = Q.num_vertices
    regular = all(len(Q.arrows_from[v]) == 1 == len(Q.arrows_into[v]) for v in range(n))
    return n if n and regular and len(Q.components) == 1 else None
