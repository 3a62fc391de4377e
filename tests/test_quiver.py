import pytest

from quiverhh.errors import CompositionError
from quiverhh.quiver import (
    Quiver,
    betti,
    compose,
    crown_order,
    is_sink_arrow,
    is_source_arrow,
    parallel,
    path_str,
)
from test_theta_reference import (
    FORWARD,
    Walk,
    signed_count,
    trivial_walk,
    walk_compose,
    walk_inverse,
    walk_reduce,
)


def walk_of_path(p):
    return Walk(p.source, p.target, tuple((a, FORWARD) for a in p.arrows))


def line4():
    return Quiver(("e1", "e2", "e3", "e4"), (("alpha", 0, 1), ("eta", 1, 2), ("beta", 2, 3)))


def test_compose_identity_and_lengths():
    Q = line4()
    a = Q.arrow_path(0)
    assert compose(a, Q.trivial_path(0)) == a
    assert compose(Q.trivial_path(1), a) == a
    two = compose(Q.arrow_path(1), a)
    assert two.length == 2 and two.source == 0 and two.target == 2
    assert path_str(Q, two) == "eta.alpha"


def test_compose_mismatch():
    Q = line4()
    with pytest.raises(CompositionError):
        compose(Q.arrow_path(0), Q.arrow_path(1))


def test_compose_length_additive_on_chain():
    Q = line4()
    p = compose(Q.arrow_path(2), compose(Q.arrow_path(1), Q.arrow_path(0)))
    assert p.length == 3 and (p.source, p.target) == (0, 3)


def test_parallel():
    Q = line4()
    assert parallel(Q.trivial_path(0), Q.trivial_path(0))
    assert not parallel(Q.arrow_path(0), Q.arrow_path(2))
    loopq = Quiver(("e1",), (("xi", 0, 0),))
    assert parallel(loopq.arrow_path(0), loopq.trivial_path(0))


def test_components_and_betti():
    single = Quiver(("v",), ())
    assert single.components == ((0,),)
    assert betti(single) == 0
    # two blocks, six vertices, four arrows
    two_lines = Quiver(
        tuple(f"e{i}" for i in range(1, 7)),
        (("alpha", 0, 1), ("eps", 1, 2), ("delta", 3, 4), ("beta", 4, 5)),
    )
    assert two_lines.components == ((0, 1, 2), (3, 4, 5))
    assert betti(two_lines) == 0
    two_cycle = Quiver(("f1", "f2"), (("g", 0, 1), ("h", 1, 0)))
    assert betti(two_cycle) == 1


def test_betti_relabel_invariant():
    Q1 = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 2, 0)))
    Q2 = Quiver(("c", "a", "b"), (("z", 1, 2), ("x", 2, 0), ("y", 0, 1)))
    assert betti(Q1) == betti(Q2) == 1


def test_source_sink_arrows():
    Q = line4()
    assert is_source_arrow(Q, 0)
    assert is_sink_arrow(Q, 2)
    assert not is_source_arrow(Q, 1) and not is_sink_arrow(Q, 1)
    # a second arrow into the target spoils the source condition
    Q2 = Quiver(("e1", "e2", "e3"), (("alpha", 0, 1), ("b", 2, 1)))
    assert not is_source_arrow(Q2, 0)


def test_crown_order():
    assert crown_order(Quiver(("v",), (("l", 0, 0),))) == 1
    assert crown_order(Quiver(("f1", "f2"), (("g", 0, 1), ("h", 1, 0)))) == 2
    assert crown_order(line4()) is None
    three = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 2, 0)))
    assert crown_order(three) == 3
    # crown implies betti one and regular degrees
    assert betti(three) == 1


def test_walks():
    Q = line4()
    w = walk_of_path(compose(Q.arrow_path(1), Q.arrow_path(0)))
    assert w.source == 0 and w.target == 2
    back = walk_inverse(w)
    loop = walk_compose(back, w)
    assert walk_reduce(loop).steps == ()
    assert signed_count(loop, 0) == 0
    assert signed_count(w, 1) == 1
    assert signed_count(back, 1) == -1
    tw = trivial_walk(2)
    assert walk_compose(tw, w).steps == w.steps
