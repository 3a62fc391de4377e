import pytest

from conftest import algebra, glued
from quiverhh.algebra import build
from quiverhh.checks import run_checks
from quiverhh.errors import BridgeError
from quiverhh.examples_data import example_by_name, fan
from quiverhh.fields import QQ
from quiverhh.fileformat import parse
from quiverhh.fundgroup import (
    chord_duals,
    check_theta_diagram,
    pi1_rank,
    theta,
    theta_class_rank,
)
from quiverhh.gluing import glue
from quiverhh.quiver import Quiver, betti
from quiverhh.randomgen import RandomSpec, instance_with_gluing
from test_theta_reference import forest, parade, walk_is_valid


def test_pi1_rank_golden():
    assert pi1_rank(algebra("line-bound")) == 0
    g = glued("line-bound")
    assert pi1_rank(g.B) == 1
    assert pi1_rank(algebra("two-lines")) == 0


def test_pi1_rank_gluing_relation_random():
    for seed in range(100, 130):
        A, gs = instance_with_gluing(RandomSpec(seed=seed))
        g = glue(A, gs.alpha, gs.beta)
        c_a, c_b = g.components
        assert pi1_rank(g.A) == pi1_rank(g.B) + c_a - c_b - 1


def test_chord_duals_tree_and_bridge():
    Q = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2)))
    assert chord_duals(Q) == ()
    with pytest.raises(BridgeError):
        chord_duals(Q, avoid=0)
    g = glued("line-bound")
    assert chord_duals(g.B.quiver, avoid=g.gamma) == (g.gamma,)
    crown2 = Quiver(("f1", "f2"), (("g", 0, 1), ("h", 1, 0)))
    assert len(chord_duals(crown2)) == 1


def test_parade_walks_reach_everything():
    Q = Quiver(("a", "b", "c", "d"), (("x", 0, 1), ("y", 2, 1), ("z", 2, 3)))
    walks = parade(Q, forest(Q))
    for v in range(4):
        w = walks.walks[v]
        assert w is not None and walk_is_valid(Q, w) and w.target == v


def test_theta_on_two_cycle():
    g = glued("line-bound")
    vec = theta(g.B, g.gamma)
    assert vec == g.gamma_pair_vector()


def test_theta_rank_equals_betti():
    for name in ("line-bound", "line-free", "double-braid"):
        g = glued(name)
        assert theta_class_rank(g.B) == betti(g.B.quiver)
    for seed in range(300, 315):
        A, gs = instance_with_gluing(RandomSpec(seed=seed))
        g = glue(A, gs.alpha, gs.beta)
        assert theta_class_rank(g.B) == betti(g.B.quiver)


def commutes(g):
    """The ``theta_diagram`` verdict: every chord agrees, and γ's pair is
    the merged dual and lies outside the degree-zero image."""
    generators, new_dual_ok = check_theta_diagram(g)
    return all(ok for _, ok in generators) and new_dual_ok and g.gamma_outside_im0


def test_theta_diagram_golden():
    g = glued("line-bound")
    generators, new_dual_ok = check_theta_diagram(g)
    assert all(ok for _, ok in generators)
    assert new_dual_ok and g.gamma_outside_im0
    assert commutes(glued("line-free"))
    # not applicable across blocks
    (rep3,) = run_checks(glued("two-lines"), ["theta_diagram"])
    assert rep3.status == "not-applicable"


def test_theta_diagram_with_extra_chords():
    Q = Quiver(
        ("e1", "e2", "e3", "e4"),
        (("alpha", 0, 1), ("eta", 1, 2), ("zeta", 1, 2), ("beta", 2, 3)),
    )
    A = build(Q, [], QQ)
    g = glue(A, 0, 3)
    assert commutes(g)
    generators, _ = check_theta_diagram(g)
    assert len(generators) == 1  # one chord beyond the merged arrow


def test_theta_diagram_random_source_sink():
    from quiverhh.randomgen import source_sink_instance

    checked = 0
    for seed in range(40):
        A, gs = source_sink_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5))
        g = glue(A, gs.alpha, gs.beta)
        (rep,) = run_checks(g, ["theta_diagram"])
        if rep.status != "not-applicable":
            checked += 1
            assert rep.status == "pass", f"seed {seed}"
    assert checked >= 25


def _fail_row(g, name):
    (rep,) = run_checks(g, [name])
    row = rep.as_dict()
    row.pop("repro")
    return row


@pytest.mark.parametrize(
    "text, lhs",
    [
        (example_by_name("line-bound").text, "()"),
        (fan(6), str(tuple((f"d{i}", True) for i in range(2, 7)))),
    ],
    ids=["line-bound", "fan6"],
)
def test_theta_diagram_fail_row(text, lhs):
    # only γ's pair can fail the square; forcing it into the image pins the row
    A = parse(text)
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    g.__dict__["gamma_outside_im0"] = False
    assert _fail_row(g, "theta_diagram") == {
        "check": "theta_diagram",
        "status": "fail",
        "lhs": lhs,
        "rhs": "(True, False)",
        "witness": None,
    }
