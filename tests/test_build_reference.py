"""Differential tests: ``build`` against the two walks it replaced.

Before ``build`` read the basis off its state graph, it walked the
relation-free words twice: ``_find_free_cycle`` built the reachable
suffix automaton and discarded it, and ``_enumerate_basis`` extended every
basis path by every arrow and tested each extension against every relation
with ``_ends_with_relation``.  Those three functions and the ``build`` that
called them are kept below unchanged apart from their ``ref_`` names.  The
inputs are small random quivers (loops and parallel arrows allowed) with
random composable relation words in random order, so infinite-dimensional,
non-minimal, non-admissible and ``minimalize=True`` cases are all drawn;
the two must agree on the basis and relations, or on the exception type,
message, witness cycle and minimality pair.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.algebra import MonomialAlgebra, _proper_subrelation, build
from quiverhh.errors import AdmissibilityError, DimensionalityError, MinimalityError, QuiverHHError
from quiverhh.fields import QQ
from quiverhh.quiver import Path, Quiver
from quiverhh.randomgen import random_instance, RandomSpec


def ref_ends_with_relation(word, words):
    """True iff one of the relation ``words`` is a suffix of ``word``."""
    return any(word[-len(w) :] == w for w in words)


def ref_find_free_cycle(Q, words, memory):
    """A cycle in the suffix automaton of relation-free words, if any.

    States are (vertex, last ``memory`` arrows of a relation-free word);
    a reachable cycle certifies that relation-free paths grow without
    bound.  Returns the arrow list of one such cycle, else None.
    """

    def extensions(state):
        v, suffix = state
        for a in Q.arrows_from[v]:
            new = suffix + (a,)
            if ref_ends_with_relation(new, words):
                continue
            yield a, (Q.target(a), new[-memory:] if memory else ())

    # Reachable state graph.
    start = [(v, ()) for v in range(Q.num_vertices)]
    adj = {}
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
    preds = {s: [] for s in adj}
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
    trail_arrows = []
    while True:
        a, nxt = next((a, n) for a, n in adj[state] if n in residual)
        trail_arrows.append(a)
        if nxt in order:
            return trail_arrows[order[nxt] :]
        order[nxt] = len(trail_states)
        trail_states.append(nxt)
        state = nxt


def ref_enumerate_basis(Q, words):
    basis = [Q.trivial_path(v) for v in range(Q.num_vertices)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for p in frontier:
            for a in Q.arrows_from[p.target]:
                word = p.arrows + (a,)
                if not ref_ends_with_relation(word, words):
                    nxt.append(Path(p.source, Q.target(a), word))
        basis.extend(nxt)
        frontier = nxt
    basis.sort(key=Path.sort_key)
    return basis


def ref_build(quiver, relations, field=QQ, minimalize=False):
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
    cycle = ref_find_free_cycle(quiver, words, memory)
    if cycle is not None:
        names = [quiver.arrow_name(a) for a in cycle]
        raise DimensionalityError(
            "algebra is infinite-dimensional: relation-free cycle "
            + " -> ".join(names),
            cycle=cycle,
        )
    basis = tuple(ref_enumerate_basis(quiver, words))
    return MonomialAlgebra(quiver, tuple(rels), field, basis)


def random_case(rng):
    """A quiver on 1-3 vertices with 1-5 arrows and up to six composable
    words of one to four arrows, in random order (a word stops early at a
    vertex with no outgoing arrow, so a length-one relation can occur)."""
    n = rng.randint(1, 3)
    arrows = tuple((f"a{i}", rng.randrange(n), rng.randrange(n)) for i in range(rng.randint(1, 5)))
    Q = Quiver(tuple(f"v{i}" for i in range(n)), arrows)
    rels = []
    for _ in range(rng.randint(0, 6)):
        word = [rng.randrange(len(arrows))]
        for _ in range(rng.randint(1, 3)):
            nxt = Q.arrows_from[Q.target(word[-1])]
            if not nxt:
                break
            word.append(rng.choice(nxt))
        rels.append(Q.path(tuple(word)))
    return Q, rels


def outcome(build_fn, Q, rels, minimalize):
    """Everything ``build`` reports: the algebra's relations and basis, or
    the exception with its witness fields."""
    try:
        A = build_fn(Q, rels, QQ, minimalize=minimalize)
    except QuiverHHError as err:
        return (
            type(err),
            str(err),
            getattr(err, "cycle", None),
            getattr(err, "contained", None),
            getattr(err, "container", None),
        )
    return A.relations, A.basis


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_build_matches_reference(rng, minimalize):
    Q, rels = random_case(rng)
    assert outcome(build, Q, rels, minimalize) == outcome(ref_build, Q, rels, minimalize)


def test_random_cases_reach_every_outcome():
    """The case generator draws every kind of outcome, in both modes."""
    kinds = set()
    rng = random.Random(0)
    for _ in range(400):
        Q, rels = random_case(rng)
        for minimalize in (False, True):
            got = outcome(build, Q, rels, minimalize)
            kind = got[0].__name__ if isinstance(got[0], type) else "algebra"
            kinds.add((kind, minimalize))
    assert kinds >= {
        ("algebra", False),
        ("algebra", True),
        ("DimensionalityError", False),
        ("DimensionalityError", True),
        ("MinimalityError", False),
        ("AdmissibilityError", False),
    }


def test_witness_cycle_entered_through_a_tail():
    """The witness walk starts at the least live state and reports the cycle
    rotated to where its tail enters it.  Without relations the least live
    state is (v0, ()), the tail is ``a`` and the witness c -> d -> b, not
    b -> c -> d.  The relation d.c.a kills that tail, so the walk starts at
    (v1, ()), and its states remember two arrows: b and c lead only to
    (v3, (b, c)), where the cycle d -> b -> c closes.  ``randomgen`` cuts at
    the witness's first two arrows, so this rotation fixes every fuzz
    instance."""
    Q = Quiver(
        ("v0", "v1", "v2", "v3"),
        (("a", 0, 2), ("b", 1, 2), ("c", 2, 3), ("d", 3, 1)),
    )
    for rels, names, cycle in (
        ([], "c -> d -> b", [2, 3, 1]),
        ([Q.path((0, 2, 3))], "d -> b -> c", [3, 1, 2]),
    ):
        new = outcome(build, Q, rels, False)
        assert new == outcome(ref_build, Q, rels, False)
        assert new[:3] == (
            DimensionalityError,
            "algebra is infinite-dimensional: relation-free cycle " + names,
            cycle,
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_instances_match_reference(seed):
    A = random_instance(RandomSpec(seed=seed))
    B = ref_build(A.quiver, A.relations, A.field)
    assert (A.relations, A.basis) == (B.relations, B.basis)
