"""Differential test: one pass of adjacency powers against one pass per degree.

``ref_parallel_counts`` and ``ref_hh_dim_high`` are the per-degree forms
that multiplied the adjacency matrix up to the n-th power from scratch for
every degree n, kept unchanged.  ``hh_dims_high`` walks the powers once;
both must give the same dimension (or the same unsupported status or
error) in every degree, and ``quiverhh hh --degrees`` must print the same
lines as a per-degree loop over the reference.

``ref_transport_injective`` is the enumeration that the higher-degree
comparison once ran for every degree: it lists the (length-n path, arrow)
parallel pairs of A, up to a cap, and tests that the gluing keeps them
distinct.  ``check_high_degree_gluing`` now relies on the proof in its
docstring instead; the property test below confirms that the enumeration
never finds a collision.

``ref_high_degrees`` composes the ``high_degrees`` report degree by degree
from ``ref_hh_dim_high``, as the check did while it compared one degree
per call; ``check_high_degree_gluing`` now takes the range of degrees and
walks each side's adjacency powers once, returning one
``(dim_a, dim_b, monotone)`` triple per degree.
"""

from itertools import islice
from types import SimpleNamespace

import pytest

from conftest import glued, glued_crown4
from quiverhh.algebra import build
from quiverhh.checks import CHECKS
from quiverhh.cli import main
from quiverhh.errors import QuiverHHError
from quiverhh.examples_data import EXAMPLES, example_by_name, fan, zigzag
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.higher import CrownUnsupported, check_high_degree_gluing, hh_dim_high, hh_dims_high
from quiverhh.paircomplex import complex_data
from quiverhh.quiver import Quiver, crown_order
from quiverhh.randomgen import RandomSpec, random_gluing, random_instance, source_sink_rad2_instance

DEGREES = range(2, 41)


def ref_parallel_counts(Q, n):
    if n < 1:
        raise ValueError("degree must be at least 1")
    size = Q.num_vertices
    adj = [[0] * size for _ in range(size)]
    for a in range(Q.num_arrows):
        adj[Q.target(a)][Q.source(a)] += 1
    mprev, mn = None, [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(n):
        mprev, mn = mn, [
            [sum(mn[i][k] * adj[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
    with_arrows = sum(mn[Q.target(a)][Q.source(a)] for a in range(Q.num_arrows))
    cycles = sum(mprev[i][i] for i in range(size))
    return with_arrows, cycles


def ref_hh_dim_high(A, n):
    if n < 2:
        raise ValueError("use the pair complex for degrees 0 and 1")
    if not A.is_radical_square_zero():
        raise QuiverHHError("counting formula requires a radical-square-zero algebra")
    if len(A.quiver.components) != 1:
        raise QuiverHHError("counting formula requires a connected quiver")
    order = crown_order(A.quiver)
    if order is not None:
        return CrownUnsupported(order)
    with_arrows, cycles = ref_parallel_counts(A.quiver, n)
    return with_arrows - cycles


def ref_line(A, n):
    try:
        return f"HH^{n}: {ref_hh_dim_high(A, n)}"
    except QuiverHHError as err:
        return f"HH^{n}: unsupported ({err})"


def rad2_corpus():
    """Connected radical-square-zero algebras of the corpus and their gluings."""
    out = []
    for ex in EXAMPLES:
        g = glued(ex.name)
        out += [A for A in (g.A, g.B) if A.is_radical_square_zero()]
    for text in (fan(2), fan(3), zigzag(3)):
        A = parse(text)
        out += [A, glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]).B]
    return [A for A in out if len(A.quiver.components) == 1]


def test_rad2_corpus_matches_per_degree_reference():
    corpus = rad2_corpus()
    kinds = set()
    for A in corpus:
        expected = [ref_hh_dim_high(A, n) for n in DEGREES]
        assert list(islice(hh_dims_high(A), len(DEGREES))) == expected
        spot = (2, 3, 17, 40)
        assert [hh_dim_high(A, n) for n in spot] == [expected[n - 2] for n in spot]
        kinds.add(type(expected[0]))
    assert kinds == {int, CrownUnsupported}
    assert any(ref_hh_dim_high(A, 40) > 0 for A in corpus if crown_order(A.quiver) is None)


@pytest.mark.parametrize("name", ["bypass", "two-blocks-deco"])
def test_unsupported_inputs_raise_the_reference_error(name):
    A = parse(example_by_name(name).text)
    with pytest.raises(QuiverHHError) as ref_err:
        ref_hh_dim_high(A, 2)
    with pytest.raises(QuiverHHError) as err:
        hh_dims_high(A)
    assert str(err.value) == str(ref_err.value)


@pytest.mark.parametrize("degrees", ["0..40", "0..1", "2", "5..9", "40..40"])
def test_cli_degrees_match_per_degree_reference(capsys, tmp_path, degrees):
    lo, _, hi = degrees.partition("..")
    lo, hi = int(lo), int(hi or lo)
    for ex in EXAMPLES:
        path = tmp_path / f"{ex.name}.qa"
        path.write_text(ex.text)
        assert main(["hh", str(path), "--degrees", degrees]) == 0
        A = parse(ex.text)
        C = complex_data(A)
        lines = {0: f"HH^0: {C.hh0.dim}", 1: f"HH^1: {C.hh1_view.dim}"}
        expected = [lines[n] if n < 2 else ref_line(A, n) for n in range(lo, hi + 1)]
        assert capsys.readouterr().out.splitlines() == expected, ex.name


# -- the high_degrees check, degree by degree ------------------------------------

HIGH_DEGREES = range(2, 7)


def ref_high_degrees(g) -> tuple:
    """(status, lhs, rhs) of ``high_degrees`` on an applicable gluing, one
    degree at a time: a crown B passes exactly where A's dimension is 0."""
    dims = [(ref_hh_dim_high(g.A, n), ref_hh_dim_high(g.B, n)) for n in HIGH_DEGREES]
    ok = all(a == 0 if isinstance(b, CrownUnsupported) else b >= a for a, b in dims)
    return "pass" if ok else "fail", [str(a) for a, _ in dims], [str(b) for _, b in dims]


def high_degree_gluings() -> list:
    """The corpus gluings and 200 planted source-sink radical-square-zero ones."""
    out = [glued(ex.name) for ex in EXAMPLES] + [glued_crown4()]
    for text in (fan(2), fan(3), zigzag(3)):
        A = parse(text)
        out.append(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]))
    for seed in range(200):
        A, gs = source_sink_rad2_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5))
        out.append(glue(A, gs.alpha, gs.beta))
    return out


def test_high_degrees_match_per_degree_reference():
    applicable = crown_b = 0
    for g in high_degree_gluings():
        rep = CHECKS["high_degrees"](g)
        if rep.status == "not-applicable":
            continue
        applicable += 1
        assert (rep.status, rep.lhs, rep.rhs) == ref_high_degrees(g)
        dims = check_high_degree_gluing(g, HIGH_DEGREES)
        for n, (dim_a, dim_b, _) in zip(HIGH_DEGREES, dims, strict=True):
            assert (dim_a, dim_b) == (ref_hh_dim_high(g.A, n), ref_hh_dim_high(g.B, n))
        crown_b += isinstance(dims[0][1], CrownUnsupported)
    assert applicable >= 60 and crown_b > 0


def test_high_degree_ranges_agree_with_single_degrees():
    g = glued("line-bound")  # its glued quiver is the 2-crown
    whole = check_high_degree_gluing(g, range(2, 12))
    assert whole == [check_high_degree_gluing(g, range(n, n + 1))[0] for n in range(2, 12)]
    assert check_high_degree_gluing(g, range(5, 5)) == []
    with pytest.raises(ValueError):
        check_high_degree_gluing(g, range(2, 12, 2))
    with pytest.raises(ValueError):
        check_high_degree_gluing(g, range(1, 3))


# -- transport injectivity by enumeration --------------------------------------

REF_ENUMERATION_CAP = 20000


def ref_enumerate_paths(Q, n, source, target):
    """All length-n arrow words from source to target (None when over the cap)."""
    words = [((), source)]
    for _ in range(n):
        nxt = []
        for word, at in words:
            for a in Q.arrows_from[at]:
                nxt.append((word + (a,), Q.target(a)))
                if len(nxt) > REF_ENUMERATION_CAP:
                    return None
        words = nxt
    return [w for w, at in words if at == target]


def ref_transport_injective(g, n):
    """Distinct (length-n path, arrow) pairs must stay distinct in the image."""
    QA = g.A.quiver
    seen = {}
    total = 0
    for a in range(QA.num_arrows):
        words = ref_enumerate_paths(QA, n, QA.source(a), QA.target(a))
        if words is None:
            return None
        total += len(words)
        if total > REF_ENUMERATION_CAP:
            return None
        for w in words:
            key = (tuple(g.arrow_map[x] for x in w), g.arrow_map[a])
            if key in seen and seen[key] != (w, a):
                return False
            seen[key] = (w, a)
    return True


def _rad2(A):
    """The radical-square-zero algebra on the quiver of ``A``."""
    Q = A.quiver
    rels = [Q.path((a, b)) for a in range(Q.num_arrows) for b in Q.arrows_from[Q.target(a)]]
    return build(Q, rels, A.field)


def injectivity_gluings():
    """The corpus gluings, then random radical-square-zero gluings: 200
    planted source-sink ones and the gluable ones of 200 random quivers."""
    out = [glued(ex.name) for ex in EXAMPLES]
    for text in (fan(2), fan(3), zigzag(3)):
        A = parse(text)
        out.append(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]))
    for seed in range(200):
        A, gs = source_sink_rad2_instance(RandomSpec(seed=seed, max_vertices=4, max_arrows=5))
        out.append(glue(A, gs.alpha, gs.beta))
        spec = RandomSpec(seed=10_000 + seed, max_vertices=5, max_arrows=7)
        A = _rad2(random_instance(spec))
        gs = random_gluing(A, seed)
        if gs is not None:
            out.append(glue(A, gs.alpha, gs.beta))
    return out


def test_enumeration_never_finds_a_collision():
    gluings = injectivity_gluings()
    assert len(gluings) >= 300
    outcomes = [ref_transport_injective(g, n) for g in gluings for n in range(2, 7)]
    assert False not in outcomes
    assert outcomes.count(True) >= 0.9 * len(outcomes)


def test_enumeration_finds_a_planted_collision():
    # x.y and x.w are both parallel to z; merging y with w collides them
    Q = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("w", 1, 2), ("z", 0, 2)))
    collapse = SimpleNamespace(A=SimpleNamespace(quiver=Q), arrow_map=[0, 1, 1, 2])
    assert ref_transport_injective(collapse, 2) is False
