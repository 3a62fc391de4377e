"""Differential tests: the random generator's repair loop against the loop it replaced.

Before the repair loop kept one state graph across its cycle cuts,
``_sample_algebra`` sampled the relation words and then called ``build``
afresh after every cut.  That function is kept below as
``ref_sample_algebra``, its body split unchanged between
``ref_sample_words`` (every draw) and ``ref_repair`` (the loop), so that a
test can read the final word set, which records the whole cut sequence.

``compared_sampling`` runs the reference next to every sampling call of
the generators and asserts the same algebra and basis (or None), the same
final word set and the same random state afterwards.  It also asserts that
the part of every cut graph reachable from the ``(v, ())`` states is exactly
the state graph ``state_graph`` builds afresh, that the stranded rest leaves
``_find_free_cycle`` its witness, and that ``build`` gives every generated
algebra back unchanged.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh import randomgen
from quiverhh.algebra import _find_free_cycle, add_relation, build, state_graph
from quiverhh.errors import DimensionalityError
from quiverhh.fields import GF, QQ
from quiverhh.quiver import Quiver
from quiverhh.randomgen import (
    MAX_RELATION_LENGTH,
    RELATION_DENSITY,
    RandomSpec,
    _planted_quiver,
    _random_composable_word,
    _random_quiver,
    instance_with_gluing,
    source_sink_instance,
)

FIELDS = (QQ, GF(2), GF(3), GF(5))


def ref_sample_words(rng, Q):
    n_rel = int(round(RELATION_DENSITY * Q.num_arrows))
    words = set()
    for _ in range(n_rel):
        length = rng.randint(2, MAX_RELATION_LENGTH)
        w = _random_composable_word(rng, Q, length)
        if w is not None:
            words.add(w)
    return words


def ref_repair(Q, words, spec):
    for _ in range(64):
        rels = [Q.path(w) for w in sorted(words)]
        try:
            A = build(Q, rels, spec.field, minimalize=True)
        except DimensionalityError as err:
            cut = tuple((err.cycle * 2)[:2])  # a one-arrow cycle is cut at its square
            if cut in words:
                return None
            words.add(cut)
            continue
        return A if A.dim <= spec.max_dim else None
    return None


def ref_sample_algebra(rng, Q, spec):
    """Sample relations on ``Q``, then cut relation-free cycles until it builds.

    Returns None when a cycle survives all its cuts or the algebra exceeds
    ``spec.max_dim``.  Only the sampling draws from ``rng``.
    """
    return ref_repair(Q, ref_sample_words(rng, Q), spec)


def outcome(A):
    return None if A is None else (A.quiver, A.relations, A.field, A.basis)


def assert_cut_as_fresh(Q, new, out):
    """The cut graph ``out`` of the relations ``new`` holds the fresh graph
    as its reachable part and gives the fresh graph's witness cycle."""
    fresh = state_graph(Q, new)
    assert {s: out[s] for s in fresh} == fresh
    assert _find_free_cycle(out) == _find_free_cycle(fresh)


@contextmanager
def compared_sampling():
    """Compare every ``_sample_algebra`` call with the reference (see the
    module docstring).  Yields counts of the samples, the cuts and the cuts
    that rebuilt the state graph."""
    counts = {"samples": 0, "cuts": 0, "rebuilds": 0}
    sample_algebra, repair = randomgen._sample_algebra, randomgen._repair
    final_words = []

    def recording_repair(Q, words, spec):
        final_words.append(words)  # the loop adds its cuts to this set
        return repair(Q, words, spec)

    def checked_cut(Q, rels, adj, word):
        new, out = add_relation(Q, rels, adj, word)
        assert_cut_as_fresh(Q, new, out)
        counts["cuts"] += 1
        counts["rebuilds"] += out is not adj
        return new, out

    def compared(rng, Q, spec):
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        ref_words = ref_sample_words(ref_rng, Q)
        ref = ref_repair(Q, ref_words, spec)
        final_words.clear()
        A = sample_algebra(rng, Q, spec)
        assert final_words == [ref_words]
        assert rng.getstate() == ref_rng.getstate()
        assert outcome(A) == outcome(ref)
        if A is not None:
            assert outcome(build(A.quiver, A.relations, A.field)) == outcome(A)
        counts["samples"] += 1
        return A

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomgen, "_sample_algebra", compared)
        mp.setattr(randomgen, "_repair", recording_repair)
        mp.setattr(randomgen, "add_relation", checked_cut)
        yield counts


def test_w1_generation_matches_reference():
    with compared_sampling() as counts:
        for i in range(1000):
            instance_with_gluing(RandomSpec(seed=20260809 + i, field=FIELDS[i % 4], max_dim=32))
    # 2031 sampled relation sets, of which 338 rebuild their state graph
    # once; no cut calls build
    assert counts == {"samples": 2031, "cuts": 1781, "rebuilds": 338}


def test_source_sink_generation_matches_reference():
    with compared_sampling() as counts:
        for seed in range(200):
            source_sink_instance(RandomSpec(seed=seed, field=FIELDS[seed % 4]))
    assert counts["samples"] >= 200 and counts["cuts"] > 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.integers(0, 9),
    st.integers(0, 60),
    st.sampled_from(FIELDS),
)
def test_random_specs_match_reference(seed, max_vertices, max_arrows, max_dim, field):
    # four plain and four planted quivers drawn as the generators draw them;
    # a spec that cannot generate would otherwise compare 256 samples
    spec = RandomSpec(seed, max_vertices, max_arrows, field, max_dim)
    rng = random.Random(seed)
    with compared_sampling() as counts:
        for _ in range(4):
            randomgen._sample_algebra(rng, _random_quiver(rng, spec), spec)
            randomgen._sample_algebra(rng, _planted_quiver(rng, spec)[0], spec)
    assert counts["samples"] == 8


def repair_with_cuts(Q, words):
    """The repaired algebra, its final word set and each cut with whether it
    rebuilt the state graph; asserts the reference gives the same."""
    spec = RandomSpec(seed=0)
    ref_words = set(words)
    ref = ref_repair(Q, ref_words, spec)
    cuts = []

    def logged_cut(Q, rels, adj, word):
        new, out = add_relation(Q, rels, adj, word)
        assert_cut_as_fresh(Q, new, out)
        cuts.append((tuple(Q.arrow_name(a) for a in word), out is not adj))
        return new, out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomgen, "add_relation", logged_cut)
        A = randomgen._repair(Q, words, spec)
    assert outcome(A) == outcome(ref) and words == ref_words
    return A, cuts


def loops(*names):
    return Quiver(("v",), tuple((n, 0, 0) for n in names))


def test_first_cut_of_relation_free_quiver_rebuilds():
    # no relations: memory 0, so the cut x x raises the memory to 1
    A, cuts = repair_with_cuts(loops("x"), set())
    assert cuts == [(("x", "x"), True)]
    assert [p.arrows for p in A.basis] == [(), (0,)]


def test_cut_dropping_the_only_length_three_relation_rebuilds():
    # a b a: a a is cut in place, then b a drops a b a, memory 2 -> 1
    A, cuts = repair_with_cuts(loops("a", "b"), {(0, 1, 0)})
    assert cuts == [(("a", "a"), False), (("b", "a"), True), (("b", "b"), False)]
    assert [r.arrows for r in A.relations] == [(0, 0), (1, 0), (1, 1)]


def test_stranded_state_stays_unread():
    # y y y keeps the memory at 2.  Cutting x x strands the state (v, (x, x)),
    # whose y-edge still leads into the cycles through x y and y x; the cut
    # keeps it, and the next witness is read from (v, ()) as before.
    Q = loops("x", "y")
    stranded = (0, (0, 0))
    before = state_graph(Q, [Q.path((1, 1, 1))])
    assert (1, (0, (0, 1))) in before[stranded]
    rels, cut = add_relation(Q, [Q.path((1, 1, 1))], before, (0, 0))
    assert stranded in cut and stranded not in state_graph(Q, rels)
    A, cuts = repair_with_cuts(Q, {(1, 1, 1)})
    assert cuts == [(("x", "x"), False), (("x", "y"), False)]
    assert [p.arrows for p in A.basis] == [(), (0,), (1,), (1, 0), (1, 1), (1, 1, 0)]
