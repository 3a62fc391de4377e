"""Seeded random monomial algebras and gluable arrow pairs.

Generation is reproducible: one ``random.Random`` stream per call, all
candidate collections iterated in canonical order.  Relation sampling is
followed by a repair loop that cuts any remaining relation-free cycle, so
every returned algebra passes build validation.  The loop keeps one state
graph of the relation-free words and cuts each new relation into it,
rebuilding it only when minimalization changes its memory (the longest
relation length less one); the algebra is read off the kept graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .algebra import (
    MonomialAlgebra,
    add_relation,
    algebra_on_graph,
    build,
    minimal_relations,
    state_graph,
)
from .errors import DimensionalityError, QuiverHHError
from .fields import FieldSpec, QQ
from .gluing import GluingSpec
from .quiver import Quiver

# Relations are sampled as round(RELATION_DENSITY * arrows) composable words of
# 2 to MAX_RELATION_LENGTH arrows.
MAX_RELATION_LENGTH = 3
RELATION_DENSITY = 0.5


@dataclass(frozen=True)
class RandomSpec:
    seed: int
    max_vertices: int = 5
    max_arrows: int = 6
    field: FieldSpec = QQ
    max_dim: int = 40

    def __post_init__(self):
        for name, least in (("max_vertices", 1), ("max_arrows", 0)):
            value = getattr(self, name)
            if value < least:
                raise QuiverHHError(f"RandomSpec: {name} must be at least {least}, got {value}")


def _least_vertices(spec: RandomSpec) -> int:
    """Vertex count of the smallest quiver ``_random_quiver`` draws."""
    return min(4, spec.max_vertices)


def _tries(spec: RandomSpec, planted: int) -> int:
    """Quivers to draw: 256, or none when no algebra fits ``spec.max_dim``,
    since each vertex is a basis element and the smallest quiver drawn has
    ``_least_vertices`` vertices plus ``planted``."""
    return 256 if spec.max_dim >= _least_vertices(spec) + planted else 0


def _random_quiver(rng: random.Random, spec: RandomSpec) -> Quiver:
    lo_v = _least_vertices(spec)
    n = rng.randint(lo_v, spec.max_vertices)
    lo_a = min(2, spec.max_arrows)
    m = rng.randint(lo_a, spec.max_arrows)
    names = tuple(f"v{i}" for i in range(n))
    arrows = tuple((f"a{i}", rng.randrange(n), rng.randrange(n)) for i in range(m))
    return Quiver(names, arrows)


def _random_composable_word(rng: random.Random, Q: Quiver, length: int):
    if not Q.num_arrows:
        return None
    word = [rng.choice(range(Q.num_arrows))]
    while len(word) < length:
        nxt = Q.arrows_from[Q.target(word[-1])]
        if not nxt:
            break
        word.append(rng.choice(nxt))
    return tuple(word) if len(word) >= 2 else None


def _sample_words(rng: random.Random, Q: Quiver) -> set:
    """The sampled relation words on ``Q``; all of generation's draws."""
    n_rel = int(round(RELATION_DENSITY * Q.num_arrows))
    words = set()
    for _ in range(n_rel):
        length = rng.randint(2, MAX_RELATION_LENGTH)
        w = _random_composable_word(rng, Q, length)
        if w is not None:
            words.add(w)
    return words


def _repair(Q: Quiver, words: set, spec: RandomSpec):
    """The algebra of ``words`` on ``Q``, once its relation-free cycles are cut.

    Each cut makes the first two arrows of the witness cycle a relation and
    is added to ``words``.  One state graph is kept across the cuts and
    rebuilt only when minimalization changes its memory; the states a cut
    strands stay in it, unread (see ``add_relation``).  Returns None when a
    cut is already a relation, when 64 tries leave a cycle, or when the
    algebra exceeds ``spec.max_dim``.
    """
    rels = minimal_relations([Q.path(w) for w in words])
    adj = state_graph(Q, rels)
    for _ in range(64):
        try:
            A = algebra_on_graph(Q, rels, spec.field, adj)
        except DimensionalityError as err:
            cut = tuple((err.cycle * 2)[:2])  # a one-arrow cycle is cut at its square
            if cut in words:
                return None
            words.add(cut)
            rels, adj = add_relation(Q, rels, adj, cut)
            continue
        return A if A.dim <= spec.max_dim else None
    return None


def _sample_algebra(rng: random.Random, Q: Quiver, spec: RandomSpec):
    """Sample relations on ``Q``, then cut relation-free cycles until it builds.

    The cuts go into one kept state graph, rebuilt only when minimalization
    changes its memory; see ``_repair``.  Returns None when a cycle survives
    all its cuts or the algebra exceeds ``spec.max_dim``.  Only the sampling
    draws from ``rng``.
    """
    return _repair(Q, _sample_words(rng, Q), spec)


def random_instance(spec: RandomSpec) -> MonomialAlgebra:
    """Reproducible monomial algebra; always passes build validation."""
    rng = random.Random(spec.seed)
    for _ in range(_tries(spec, 0)):
        A = _sample_algebra(rng, _random_quiver(rng, spec), spec)
        if A is not None:
            return A
    raise QuiverHHError("random generation failed to produce a valid algebra")


def gluable_pairs(A: MonomialAlgebra) -> list:
    """All (alpha, beta) with distinct arrows, no loops, four distinct vertices."""
    ends = [(a, {s, t}) for a, (_, s, t) in enumerate(A.quiver.arrows) if s != t]
    return [(a, b) for a, ea in ends for b, eb in ends if ea.isdisjoint(eb)]


def random_gluing(A: MonomialAlgebra, seed: int):
    """A uniformly chosen valid gluing spec, or None when none exists."""
    pairs = gluable_pairs(A)
    if not pairs:
        return None
    rng = random.Random(seed)
    alpha, beta = rng.choice(pairs)
    return GluingSpec(alpha, beta)


def instance_with_gluing(spec: RandomSpec):
    """(algebra, gluing) pair, re-seeding until a gluable instance appears."""
    sub = spec
    for bump in range(64):
        A = random_instance(sub)
        gs = random_gluing(A, sub.seed ^ 0x9E3779B9)
        if gs is not None:
            return A, gs
        sub = replace(sub, seed=sub.seed + 1_000_003)
    raise QuiverHHError("no gluable instance found")


def _planted_quiver(rng: random.Random, spec: RandomSpec):
    """A random quiver with a planted source arrow and sink arrow.

    A fresh source arrow ``alpha: s1 -> s2`` is hung off a random vertex
    by ``con_a: s2 -> w_in``, and dually a fresh sink arrow ``beta: t1 ->
    t2`` by ``con_b: w_out -> t1``.  Returns the quiver and the gluing of
    the planted pair.
    """
    base = _random_quiver(rng, spec)
    n = base.num_vertices
    w_in = rng.randrange(n)
    w_out = rng.randrange(n)
    s1, s2, t1, t2 = n, n + 1, n + 2, n + 3
    Q = Quiver(
        base.vertex_names + ("s1", "s2", "t1", "t2"),
        base.arrows
        + (
            ("alpha", s1, s2),
            ("con_a", s2, w_in),
            ("con_b", w_out, t1),
            ("beta", t1, t2),
        ),
    )
    return Q, GluingSpec(Q.arrow_index["alpha"], Q.arrow_index["beta"])


def source_sink_rad2_instance(spec: RandomSpec):
    """Radical-square-zero algebra with a planted source/sink arrow pair.

    Every composable length-2 word is a relation, so the instance always
    builds; the planted pair is glueable by construction.
    """
    Q, gs = _planted_quiver(random.Random(spec.seed), spec)
    rels = [Q.path((a, b)) for a in range(Q.num_arrows) for b in Q.arrows_from[Q.target(a)]]
    return build(Q, rels, spec.field), gs


def source_sink_instance(spec: RandomSpec):
    """(algebra, gluing) whose pair is a planted source arrow and sink arrow;
    relations are sampled as usual on the planted quiver."""
    rng = random.Random(spec.seed)
    for _ in range(_tries(spec, 4)):
        Q, gs = _planted_quiver(rng, spec)
        A = _sample_algebra(rng, Q, spec)
        if A is not None:
            return A, gs
    raise QuiverHHError("random generation failed to produce a source-sink instance")
