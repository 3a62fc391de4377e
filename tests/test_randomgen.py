import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh import randomgen
from quiverhh.algebra import build
from quiverhh.cli import main
from quiverhh.errors import QuiverHHError
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import print_algebra
from quiverhh.gluing import GluingSpec
from quiverhh.quiver import Quiver
from quiverhh.randomgen import (
    RandomSpec,
    _random_quiver,
    gluable_pairs,
    instance_with_gluing,
    random_gluing,
    random_instance,
    source_sink_instance,
    source_sink_rad2_instance,
)

from test_randomgen_reference import ref_sample_algebra


def test_determinism():
    spec = RandomSpec(seed=42)
    a1 = random_instance(spec)
    a2 = random_instance(spec)
    assert a1 == a2
    assert a1.basis == a2.basis
    g1 = random_gluing(a1, 42)
    g2 = random_gluing(a2, 42)
    assert g1 == g2


def test_seeds_differ():
    assert random_instance(RandomSpec(seed=1)) != random_instance(RandomSpec(seed=2))


def test_field_respected():
    A = random_instance(RandomSpec(seed=7, field=GF(3)))
    assert A.field == GF(3)


def test_no_gluing_possible():
    Q = Quiver(("u", "v"), (("x", 0, 1),))
    A = build(Q, [], QQ)
    assert gluable_pairs(A) == []
    assert random_gluing(A, 5) is None


def test_gluable_pairs_rule():
    Q = Quiver(
        ("e1", "e2", "e3", "e4"),
        (("a", 0, 1), ("b", 2, 3), ("l", 3, 3), ("c", 1, 2)),
    )
    A = build(Q, [Q.path((2, 2))], QQ)
    pairs = gluable_pairs(A)
    assert (0, 1) in pairs and (1, 0) in pairs
    assert all(2 not in p for p in pairs)  # loops never participate
    assert (0, 3) not in pairs  # shares vertices


def ref_gluable_pairs(A) -> list:
    """The quadratic loop ``gluable_pairs`` used before it compared endpoint sets."""
    Q = A.quiver
    out = []
    for a in range(Q.num_arrows):
        if Q.source(a) == Q.target(a):
            continue
        for b in range(Q.num_arrows):
            if b == a or Q.source(b) == Q.target(b):
                continue
            if len({Q.source(a), Q.target(a), Q.source(b), Q.target(b)}) == 4:
                out.append((a, b))
    return out


@st.composite
def quivers(draw):
    """Any quiver on at most seven vertices, loops and parallel arrows included."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    arrows = tuple((f"a{i}", s, t) for i, (s, t) in enumerate(ends))
    return Quiver(tuple(f"v{i}" for i in range(n)), arrows)


@settings(max_examples=200, deadline=None)
@given(quivers())
def test_gluable_pairs_match_reference(Q):
    # with every path of length two a relation, any quiver gives a finite algebra
    rels = [Q.path((a, b)) for a in range(Q.num_arrows) for b in Q.arrows_from[Q.target(a)]]
    A = build(Q, rels, QQ)
    assert gluable_pairs(A) == ref_gluable_pairs(A)


def test_random_instances_gluable_pairs_match_reference():
    for seed in range(300):
        A = random_instance(RandomSpec(seed=seed, field=QQ, max_dim=32))
        assert gluable_pairs(A) == ref_gluable_pairs(A)


def test_instance_with_gluing_valid():
    for seed in (0, 5, 9):
        A, gs = instance_with_gluing(RandomSpec(seed=seed))
        Q = A.quiver
        ends = {
            Q.source(gs.alpha),
            Q.target(gs.alpha),
            Q.source(gs.beta),
            Q.target(gs.beta),
        }
        assert len(ends) == 4


def test_source_sink_instance_kind():
    from quiverhh.quiver import is_sink_arrow, is_source_arrow

    A, gs = source_sink_instance(RandomSpec(seed=3))
    assert is_source_arrow(A.quiver, gs.alpha)
    assert is_sink_arrow(A.quiver, gs.beta)


# Reference: the two planted-pair generators as they were before the planted
# quiver moved into one helper.  Same seed, same instance.


def ref_source_sink_rad2_instance(spec: RandomSpec):
    rng = random.Random(spec.seed)
    base = _random_quiver(rng, spec)
    n = base.num_vertices
    w_in = rng.randrange(n)
    w_out = rng.randrange(n)
    names = base.vertex_names + ("s1", "s2", "t1", "t2")
    s1, t1 = n, n + 2
    arrows = base.arrows + (
        ("alpha", s1, n + 1),
        ("con_a", n + 1, w_in),
        ("con_b", w_out, t1),
        ("beta", t1, n + 3),
    )
    Q = Quiver(names, arrows)
    rels = []
    for a in range(Q.num_arrows):
        for b in Q.arrows_from[Q.target(a)]:
            rels.append(Q.path((a, b)))
    A = build(Q, rels, spec.field)
    return A, GluingSpec(Q.arrow_index["alpha"], Q.arrow_index["beta"])


def ref_source_sink_instance(spec: RandomSpec):
    rng = random.Random(spec.seed)
    for _ in range(256):
        base = _random_quiver(rng, spec)
        n = base.num_vertices
        w_in = rng.randrange(n)
        w_out = rng.randrange(n)
        names = base.vertex_names + ("s1", "s2", "t1", "t2")
        s1, s2, t1, t2 = n, n + 1, n + 2, n + 3
        arrows = base.arrows + (
            ("alpha", s1, s2),
            ("con_a", s2, w_in),
            ("con_b", w_out, t1),
            ("beta", t1, t2),
        )
        Q = Quiver(names, arrows)
        A = ref_sample_algebra(rng, Q, spec)
        if A is None:
            continue
        alpha = Q.arrow_index["alpha"]
        beta = Q.arrow_index["beta"]
        return A, GluingSpec(alpha, beta)
    raise RuntimeError("random generation failed to produce a source-sink instance")


def test_planted_instances_match_reference():
    fields = (QQ, GF(2), GF(3), GF(5))
    for seed in range(200):
        for kwargs in ({}, {"max_vertices": 4, "max_arrows": 5, "max_dim": 18}):
            spec = RandomSpec(seed=seed, field=fields[seed % 4], **kwargs)
            for new, ref in (
                (source_sink_instance, ref_source_sink_instance),
                (source_sink_rad2_instance, ref_source_sink_rad2_instance),
            ):
                A, gs = new(spec)
                A_ref, gs_ref = ref(spec)
                assert gs == gs_ref
                assert A == A_ref
                assert A.basis == A_ref.basis  # equality ignores the basis
                assert print_algebra(A) == print_algebra(A_ref)


@pytest.mark.parametrize(
    "generate, spec, message",
    [
        (random_instance, {"max_dim": 0}, "failed to produce a valid algebra"),
        (source_sink_instance, {"max_dim": 0}, "failed to produce a source-sink"),
        (instance_with_gluing, {"max_dim": 0}, "failed to produce a valid algebra"),
        (
            instance_with_gluing,
            {"max_vertices": 1, "max_arrows": 1},
            "no gluable instance found",
        ),
    ]
    + [
        (generate, spec, message)
        for generate in (
            random_instance,
            instance_with_gluing,
            source_sink_instance,
            source_sink_rad2_instance,
        )
        for spec, message in (
            ({"max_vertices": 0}, "RandomSpec: max_vertices must be at least 1, got 0"),
            ({"max_vertices": -1}, "RandomSpec: max_vertices must be at least 1, got -1"),
            ({"max_arrows": -1}, "RandomSpec: max_arrows must be at least 0, got -1"),
        )
    ],
)
def test_generation_failure_is_a_package_error(generate, spec, message):
    # the spec is made inside the test: an out-of-range one raises on construction
    with pytest.raises(QuiverHHError, match=message):
        generate(RandomSpec(seed=0, **spec))


@pytest.fixture
def quiver_draws(monkeypatch):
    """Counts the calls of ``_random_quiver`` and ``_planted_quiver``."""
    calls = {"_random_quiver": 0, "_planted_quiver": 0}
    for name in calls:
        original = getattr(randomgen, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(randomgen, name, counted)
    return calls


@pytest.mark.parametrize(
    "generate, spec, message",
    [
        (random_instance, RandomSpec(1, 6, 9, QQ, 0), "failed to produce a valid algebra"),
        (random_instance, RandomSpec(1, 6, 9, QQ, 3), "failed to produce a valid algebra"),
        (random_instance, RandomSpec(1, 1, 0, QQ, 0), "failed to produce a valid algebra"),
        (instance_with_gluing, RandomSpec(1, 6, 9, QQ, 3), "failed to produce a valid algebra"),
        (source_sink_instance, RandomSpec(1, 6, 9, QQ, 0), "failed to produce a source-sink"),
        (source_sink_instance, RandomSpec(1, 6, 9, QQ, 7), "failed to produce a source-sink"),
        (source_sink_instance, RandomSpec(1, 1, 0, QQ, 4), "failed to produce a source-sink"),
    ],
)
def test_impossible_spec_draws_no_quiver(quiver_draws, generate, spec, message):
    # an algebra has at least one basis element per vertex, and the smallest
    # quiver drawn has min(4, max_vertices) vertices, 4 more when planted
    with pytest.raises(QuiverHHError, match=message):
        generate(spec)
    assert quiver_draws == {"_random_quiver": 0, "_planted_quiver": 0}


def test_spec_at_the_vertex_bound_still_draws(quiver_draws):
    # a single vertex without arrows is an algebra of dimension 1
    A = random_instance(RandomSpec(1, 1, 0, QQ, 1))
    assert A.dim == 1
    assert quiver_draws == {"_random_quiver": 1, "_planted_quiver": 0}
    # five vertices and four arrows never fit in 5 dimensions, but are drawn
    with pytest.raises(QuiverHHError, match="failed to produce a source-sink"):
        source_sink_instance(RandomSpec(1, 1, 0, QQ, 5))
    assert quiver_draws == {"_random_quiver": 257, "_planted_quiver": 256}


def test_generation_failure_exits_2_with_one_line(capsys, monkeypatch):
    # fuzz draws its instances through instance_with_gluing; one that cannot
    # be generated is a usage-level error, not a traceback
    original = randomgen.instance_with_gluing

    def without_room(spec):
        return original(RandomSpec(seed=spec.seed, field=spec.field, max_dim=0))

    monkeypatch.setattr(randomgen, "instance_with_gluing", without_room)
    assert main(["fuzz", "--seed", "0", "--count", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: random generation failed to produce a valid algebra\n"
