"""Finite-dimensional monomial path-algebra quotients.

An algebra is a quiver together with a minimal set of relation paths of
length at least two generating an admissible ideal.  The monomial basis
consists of all paths containing no relation as a contiguous subpath.
``build`` walks the suffix automaton of relation-free words once: the
algebra is finite-dimensional exactly when it is acyclic, and then its
walks from the empty-word states are the basis.  ``add_relation`` cuts
one more relation into a kept automaton; the states a cut strands stay,
and neither the witness search nor the basis reads them.  Since the basis
holds every relation-free path, a path is zero in the algebra iff it is
not a basis path: ``multiply`` and every other zero test is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import AdmissibilityError, DimensionalityError, MinimalityError
from .fields import FieldSpec, QQ
from .quiver import Path, Quiver, is_sink_arrow, is_source_arrow


def _is_subword(needle: tuple, haystack: tuple) -> bool:
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


@dataclass(frozen=True)
class MonomialAlgebra:
    quiver: Quiver
    relations: tuple  # Paths, canonically sorted
    field: FieldSpec
    basis: tuple = field(compare=False, default=())  # Paths, canonically sorted

    # -- derived lookups ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_index(self) -> dict:
        return {p: i for i, p in enumerate(self.basis)}

    @cached_property
    def paths_between(self) -> dict:
        """(source, target) -> the basis paths with those endpoints, in basis order."""
        n = self.quiver.num_vertices
        out = {(s, t): [] for s in range(n) for t in range(n)}
        for p in self.basis:
            out[(p.source, p.target)].append(p)
        return {key: tuple(paths) for key, paths in out.items()}

    def in_basis(self, p: Path) -> bool:
        """True iff ``p`` is relation-free, that is nonzero in the algebra."""
        return p in self.basis_index

    # -- operations ----------------------------------------------------------

    def multiply(self, later: Path, earlier: Path):
        """Basis product realizing ``later * earlier``; None encodes zero, which
        is exactly when the concatenation is not a basis path."""
        if later.source != earlier.target:
            return None
        prod = Path(earlier.source, later.target, earlier.arrows + later.arrows)
        return prod if self.in_basis(prod) else None

    def is_radical_square_zero(self) -> bool:
        return all(p.length < 2 for p in self.basis)

    def is_node_arrow(self, a: int) -> bool:
        """Non-source, non-sink arrow all of whose middle-position length-3
        extensions are zero."""
        Q = self.quiver
        if is_source_arrow(Q, a) or is_sink_arrow(Q, a):
            return False
        for x in Q.arrows_into[Q.source(a)]:
            for y in Q.arrows_from[Q.target(a)]:
                if self.in_basis(Path(Q.source(x), Q.target(y), (x, a, y))):
                    return False
        return True


def _proper_subrelation(r: Path, relations):
    """The first of ``relations`` that is a proper contiguous subpath of ``r``, else None."""
    w = r.arrows
    return next((u for u in relations if len(u.arrows) < len(w) and _is_subword(u.arrows, w)), None)


def minimal_relations(rels) -> list:
    """The ``rels`` with no other of ``rels`` as a proper contiguous subpath, sorted."""
    return sorted((r for r in rels if _proper_subrelation(r, rels) is None), key=Path.sort_key)


def _memory(rels) -> int:
    """The arrows a state remembers: the longest relation's length less one."""
    return max((r.length for r in rels), default=1) - 1


def state_graph(Q: Quiver, rels) -> dict:
    """The reachable suffix automaton of the words free of ``rels``: each
    state (vertex, last ``_memory(rels)`` arrows of such a word), from the
    empty-word states ``(v, ())`` on, maps to its ``(arrow, next state)``
    edges in ``arrows_from`` order.  No relation is longer than the memory
    plus one, so its walks from the ``(v, ())`` states spell the
    relation-free paths."""
    words = tuple(r.arrows for r in rels)
    memory = _memory(rels)
    adj: dict = {}
    queue = [(v, ()) for v in range(Q.num_vertices)]
    while queue:
        state = queue.pop()
        if state in adj:
            continue
        v, suffix = state
        edges = adj[state] = []
        for a in Q.arrows_from[v]:
            new = suffix + (a,)
            if not any(new[-len(w) :] == w for w in words):
                edges.append((a, (Q.target(a), new[-memory:] if memory else ())))
        queue.extend(nxt for _, nxt in edges if nxt not in adj)
    return adj


def add_relation(Q: Quiver, rels: list, adj: dict, word: tuple):
    """The sorted minimal relations and their state graph once the
    relation-free ``word`` joins the sorted minimal ``rels``, whose state
    graph is ``adj``.

    Minimalization drops the relations that contain ``word``.  When that
    changes the memory, the graph is built afresh.  Otherwise ``adj`` is cut
    in place: the ``word[-1]``-edges out of every state whose suffix ends in
    ``word[:-1]`` go.  A dropped relation forbade only edges that the cut
    removes or that leave a state whose suffix holds ``word``, so the part
    reachable from the ``(v, ())`` states is the graph ``state_graph``
    builds.  The stranded rest stays: each walk from a stranded ``(v, s)``
    also runs from ``(v, ())``, so ``_find_free_cycle`` starts at the same
    empty-word state and finds the same witness, and ``_basis`` reads only
    the walks from the ``(v, ())`` states.
    """
    new = minimal_relations(rels + [Q.path(word)])
    if _memory(new) != _memory(rels):
        return new, state_graph(Q, new)
    head, last = word[:-1], word[-1]
    at = Q.target(head[-1])
    for (v, suffix), edges in adj.items():
        if v == at and suffix[-len(head) :] == head:
            edges[:] = [e for e in edges if e[0] != last]
    return new, adj


def _find_free_cycle(adj: dict):
    """The arrow list of one cycle of the state graph ``adj``, else None.

    A cycle certifies that relation-free paths grow without bound.
    """
    # Strip states with no outgoing edge until only cycle-sustaining ones remain.
    preds: dict = {s: [] for s in adj}
    for s, edges in adj.items():
        for _, nxt in edges:
            preds[nxt].append(s)
    alive = {s: len(edges) for s, edges in adj.items()}
    stack = [s for s, d in alive.items() if d == 0]
    while stack:
        dead = stack.pop()
        for p in preds[dead]:
            alive[p] -= 1
            if alive[p] == 0:
                stack.append(p)
    # alive[s] counts the edges from s into live states, so each live state
    # has a live successor.
    residual = {s for s, d in alive.items() if d > 0}
    if not residual:
        return None

    # Step forward inside the residual graph until a state repeats.
    state = min(residual)
    order = {state: 0}  # state -> number of arrows walked before reaching it
    trail: list = []
    while True:
        a, state = next((a, n) for a, n in adj[state] if n in residual)
        trail.append(a)
        if state in order:
            return trail[order[state] :]
        order[state] = len(trail)


def _basis(Q: Quiver, adj: dict) -> list:
    """The relation-free paths, read breadth-first off the acyclic ``adj``."""
    basis = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    frontier = [(p, (p.source, ())) for p in basis]
    while frontier:
        frontier = [
            (Path(p.source, Q.target(a), p.arrows + (a,)), nxt)
            for p, state in frontier
            for a, nxt in adj[state]
        ]
        basis.extend(p for p, _ in frontier)
    basis.sort(key=Path.sort_key)
    return basis


def build(
    quiver: Quiver,
    relations,
    field: FieldSpec = QQ,
    minimalize: bool = False,
) -> MonomialAlgebra:
    """Validate and construct a finite-dimensional monomial algebra.

    Relations must have length >= 2 and form a minimal set (no relation a
    proper subpath of another); ``minimalize=True`` instead drops the
    offending longer paths.  Rejects input whose relation-free paths are
    infinite in number, reporting a witness cycle.
    """
    rels = list(dict.fromkeys(relations))
    for r in rels:
        if r.length < 2:
            raise AdmissibilityError(
                f"relation of length {r.length} violates admissibility (need length >= 2)"
            )
    if minimalize:
        rels = minimal_relations(rels)
    else:
        for r in rels:
            u = _proper_subrelation(r, rels)
            if u is not None:
                raise MinimalityError(
                    "relation set is not minimal: "
                    f"{u.arrows} is a proper subpath of {r.arrows}",
                    contained=u,
                    container=r,
                )
        rels.sort(key=Path.sort_key)
    return algebra_on_graph(quiver, rels, field, state_graph(quiver, rels))


def algebra_on_graph(quiver: Quiver, rels, field: FieldSpec, adj: dict) -> MonomialAlgebra:
    """The algebra of the sorted minimal ``rels``, read off their state graph
    ``adj``; raises ``DimensionalityError`` with a witness cycle of ``adj``
    when its relation-free paths are infinite in number."""
    cycle = _find_free_cycle(adj)
    if cycle is not None:
        names = [quiver.arrow_name(a) for a in cycle]
        raise DimensionalityError(
            "algebra is infinite-dimensional: relation-free cycle "
            + " -> ".join(names),
            cycle=cycle,
        )
    return MonomialAlgebra(quiver, tuple(rels), field, tuple(_basis(quiver, adj)))
