"""Finite-dimensional monomial path-algebra quotients.

An algebra is a quiver together with a minimal set of relation paths of
length at least two generating an admissible ideal.  The monomial basis
consists of all paths containing no relation as a contiguous subpath;
finite-dimensionality is decided exactly by checking that the suffix
automaton of relation-free words is acyclic.  Since the basis holds every
relation-free path, a path is zero in the algebra iff it is not a basis
path: ``multiply`` and every other zero test is one basis lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import AdmissibilityError, DimensionalityError, MinimalityError
from .fields import FieldSpec, QQ
from .quiver import Path, Quiver, compose, is_sink_arrow, is_source_arrow


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
        prod = compose(later, earlier)
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


def _ends_with_relation(word: tuple, words) -> bool:
    """True iff one of the relation ``words`` is a suffix of ``word``."""
    return any(word[-len(w) :] == w for w in words)


def _find_free_cycle(Q: Quiver, words, memory: int):
    """A cycle in the suffix automaton of relation-free words, if any.

    States are (vertex, last ``memory`` arrows of a relation-free word);
    a reachable cycle certifies that relation-free paths grow without
    bound.  Returns the arrow list of one such cycle, else None.
    """

    def extensions(state):
        v, suffix = state
        for a in Q.arrows_from[v]:
            new = suffix + (a,)
            if _ends_with_relation(new, words):
                continue
            yield a, (Q.target(a), new[-memory:] if memory else ())

    # Reachable state graph.
    start = [(v, ()) for v in range(Q.num_vertices)]
    adj: dict = {}
    queue = list(start)
    while queue:
        state = queue.pop()
        if state in adj:
            continue
        adj[state] = list(extensions(state))
        for _, nxt in adj[state]:
            if nxt not in adj:
                queue.append(nxt)

    # Strip states with no outgoing edge until only cycle-sustaining ones remain.
    out_deg = {s: len(edges) for s, edges in adj.items()}
    preds: dict = {s: [] for s in adj}
    for s, edges in adj.items():
        for _, nxt in edges:
            preds[nxt].append(s)
    stack = [s for s, d in out_deg.items() if d == 0]
    alive = dict(out_deg)
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
    order = {state: 0}
    trail_states = [state]
    trail_arrows: list = []
    while True:
        a, nxt = next((a, n) for a, n in adj[state] if n in residual)
        trail_arrows.append(a)
        if nxt in order:
            return trail_arrows[order[nxt] :]
        order[nxt] = len(trail_states)
        trail_states.append(nxt)
        state = nxt


def _enumerate_basis(Q: Quiver, words) -> list:
    basis = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for p in frontier:
            for a in Q.arrows_from[p.target]:
                word = p.arrows + (a,)
                if not _ends_with_relation(word, words):
                    nxt.append(Path(p.source, Q.target(a), word))
        basis.extend(nxt)
        frontier = nxt
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
        rels = [r for r in rels if _proper_subrelation(r, rels) is None]
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
    words = tuple(r.arrows for r in rels)
    memory = max((len(w) for w in words), default=1) - 1
    cycle = _find_free_cycle(quiver, words, memory)
    if cycle is not None:
        names = [quiver.arrow_name(a) for a in cycle]
        raise DimensionalityError(
            "algebra is infinite-dimensional: relation-free cycle "
            + " -> ".join(names),
            cycle=cycle,
        )
    basis = tuple(_enumerate_basis(quiver, words))
    return MonomialAlgebra(quiver, tuple(rels), field, basis)
