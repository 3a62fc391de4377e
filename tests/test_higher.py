from itertools import islice

import pytest

from conftest import glued, glued_crown4
from quiverhh import higher
from quiverhh.algebra import build
from quiverhh.checks import CHECKS, run_checks
from quiverhh.errors import QuiverHHError
from quiverhh.examples_data import fan, zigzag
from quiverhh.fields import QQ
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.higher import (
    CrownUnsupported,
    check_high_degree_gluing,
    hh_dim_high,
    parallel_counts,
)
from quiverhh.quiver import Quiver
from quiverhh.randomgen import RandomSpec, source_sink_rad2_instance


def _words(Q, n):
    words = [((), v, v) for v in range(Q.num_vertices)]
    for _ in range(n):
        words = [
            (w + (a,), src, Q.target(a))
            for w, src, at in words
            for a in Q.arrows_from[at]
        ]
    return words


def brute_force_counts(Q, n):
    """(length-n words parallel to an arrow, length-(n-1) cycles), by listing."""
    with_arrow = 0
    for _, src, at in _words(Q, n):
        for a in range(Q.num_arrows):
            if Q.source(a) == src and Q.target(a) == at:
                with_arrow += 1
    cycles = sum(1 for _, src, at in _words(Q, n - 1) if src == at)
    return with_arrow, cycles


def test_counting_identity_small_degrees():
    quivers = [
        Quiver(("f1", "f2"), (("g", 0, 1), ("h", 1, 0), ("k", 1, 0))),
        Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 2, 0), ("w", 0, 1))),
        Quiver(("v",), (("l", 0, 0), ("m", 0, 0))),
    ]
    for Q in quivers:
        counts = list(islice(parallel_counts(Q), 4))
        assert counts == [brute_force_counts(Q, n) for n in range(1, 5)]


def test_parallel_counts_from_any_start():
    Q = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 2, 0), ("w", 0, 1)))
    steps = list(islice(parallel_counts(Q), 40))
    for start in range(1, 36):
        assert list(islice(parallel_counts(Q, start), 5)) == steps[start - 1 : start + 4]


def test_fan_parity_formula():
    for m in (2, 3):
        A = parse(fan(m))
        g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
        for n in range(2, 10):
            ra = hh_dim_high(A, n)
            rb = hh_dim_high(g.B, n)
            assert ra == 0
            if n % 2 == 0:
                assert rb == 0
            else:
                assert rb == m ** ((n + 3) // 2) - m ** ((n - 1) // 2)
    A2 = parse(fan(2))
    g2 = glue(A2, A2.quiver.arrow_index["alpha"], A2.quiver.arrow_index["beta"])
    assert hh_dim_high(g2.B, 3) == 6
    A3 = parse(fan(3))
    g3 = glue(A3, A3.quiver.arrow_index["alpha"], A3.quiver.arrow_index["beta"])
    assert hh_dim_high(g3.B, 5) == 72


def test_zigzag_vanishes():
    A = parse(zigzag(3))
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])
    for n in range(2, 13):
        assert hh_dim_high(A, n) == 0
        assert hh_dim_high(g.B, n) == 0
    assert check_high_degree_gluing(g) == [(0, 0, True)] * 5


def test_crown_status():
    crown = Quiver(("f1", "f2"), (("g", 0, 1), ("h", 1, 0)))
    A = build(crown, [crown.path((0, 1)), crown.path((1, 0))], QQ)
    out = hh_dim_high(A, 3)
    assert isinstance(out, CrownUnsupported) and out.order == 2
    g = glued("line-bound")  # its glued quiver is the 2-crown
    dim_a, dim_b, monotone = check_high_degree_gluing(g)[2]  # degree 4
    assert monotone
    assert isinstance(dim_b, CrownUnsupported) and dim_a == 0


def test_crown_source_is_not_applicable():
    g = glued_crown4()
    assert isinstance(hh_dim_high(g.A, 2), CrownUnsupported)
    assert hh_dim_high(g.B, 3) == 6
    rep = CHECKS["high_degrees"](g)
    assert (rep.status, rep.reason) == ("not-applicable", "source quiver is a crown")
    with pytest.raises(QuiverHHError):
        check_high_degree_gluing(g)  # a precondition, not a verdict


def test_high_degrees_fail_row(monkeypatch):
    # no valid gluing lowers a dimension, so B's counting iterator is lowered instead
    g = glue(parse(fan(3)), 0, 4)
    real = higher.hh_dims_high

    def lowered(A, start=2):
        dims = real(A, start)
        return (d - 1000 for d in dims) if A is g.B else dims

    monkeypatch.setattr(higher, "hh_dims_high", lowered)
    (rep,) = run_checks(g, ["high_degrees"])
    row = rep.as_dict()
    row.pop("repro")
    assert row == {
        "check": "high_degrees",
        "status": "fail",
        "lhs": str(["0"] * 5),
        "rhs": str(["-1000", "-976", "-1000", "-928", "-1000"]),
        "witness": None,
    }


def test_applicability_errors():
    A = parse(zigzag(2))
    with pytest.raises(ValueError):
        hh_dim_high(A, 1)
    free = build(
        Quiver(("e1", "e2", "e3"), (("x", 0, 1), ("y", 1, 2))), [], QQ
    )
    with pytest.raises(QuiverHHError):
        hh_dim_high(free, 2)  # not radical square zero
    two = Quiver(("u", "v"), ())
    with pytest.raises(QuiverHHError):
        hh_dim_high(build(two, [], QQ), 2)  # disconnected


def test_monotonicity_on_random_source_sink():
    checked = 0
    for seed in range(50):
        A, gs = source_sink_rad2_instance(
            RandomSpec(seed=seed, max_vertices=4, max_arrows=5)
        )
        assert A.is_radical_square_zero()
        g = glue(A, gs.alpha, gs.beta)
        status = CHECKS["high_degrees"](g).status
        assert status in ("pass", "not-applicable"), f"seed {seed}"
        if status == "pass":
            dims = check_high_degree_gluing(g)
            for n, (_, _, monotone) in zip(range(2, 7), dims, strict=True):
                checked += 1
                assert monotone, f"seed {seed} degree {n}"
    assert checked >= 70


# -- independent bar-complex oracle -------------------------------------------
#
# The counting formula is cross-checked against the full Hochschild
# cochain complex Hom(A^{x n}, A) with exact mod-p ranks.  The formula is
# characteristic-free, so any prime works.

import numpy as np

BAR_P = 101


def _modp_rank(M, p):
    M = M % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = (M[r] * pow(int(M[r, c]), p - 2, p)) % p
        mask = M[:, c] != 0
        mask[r] = False
        if mask.any():
            M[mask] = (M[mask] - np.outer(M[mask, c], M[r])) % p
        r += 1
        if r == rows:
            break
    return r


def bar_hh_dim(A, n, p=BAR_P):
    """Degree-n Hochschild cohomology dimension from the bar complex."""
    basis = A.basis
    d = len(basis)
    idx = A.basis_index
    mult = [
        [
            (idx[prod] if (prod := A.multiply(x, y)) is not None else -1)
            for y in basis
        ]
        for x in basis
    ]

    def flat(tup, coord):
        out = 0
        for t in tup:
            out = out * d + t
        return out * d + coord

    from itertools import product as iproduct

    def differential(k):
        ncols = d ** k * d
        nrows = d ** (k + 1) * d
        M = np.zeros((nrows, ncols), dtype=np.int64)
        for t in iproduct(range(d), repeat=k):
            for c in range(d):
                col = flat(t, c)
                for a1 in range(d):
                    pr = mult[a1][c]
                    if pr >= 0:
                        M[flat((a1,) + t, pr), col] += 1
                for i in range(1, k + 1):
                    sign = -1 if i % 2 else 1
                    target = t[i - 1]
                    for x in range(d):
                        row_m = mult[x]
                        for y in range(d):
                            if row_m[y] == target:
                                M[flat(t[: i - 1] + (x, y) + t[i:], c), col] += sign
                sign = -1 if (k + 1) % 2 else 1
                for ak in range(d):
                    pr = mult[c][ak]
                    if pr >= 0:
                        M[flat(t + (ak,), pr), col] += sign
        return M

    rank_n = _modp_rank(differential(n), p)
    rank_prev = _modp_rank(differential(n - 1), p)
    return (d ** n * d - rank_n) - rank_prev


def test_bar_complex_agrees_with_counting():
    # triangle with a chord composite killed: nonzero degree two
    tri = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 0, 2)))
    A = build(tri, [tri.path((0, 1))], QQ)
    assert A.is_radical_square_zero()
    assert hh_dim_high(A, 2) == 1
    assert bar_hh_dim(A, 2) == 1
    # no compositions at all: everything vanishes
    Z = parse(zigzag(2))
    assert hh_dim_high(Z, 2) == 0 and bar_hh_dim(Z, 2) == 0
    # the glued two-fan: zero in even degrees, six in degree three
    g = glued("midfan-2")
    B = g.B
    assert hh_dim_high(B, 2) == 0 and bar_hh_dim(B, 2) == 0
    assert hh_dim_high(B, 3) == 6 and bar_hh_dim(B, 3) == 6


def test_bar_complex_agrees_in_low_degrees_too():
    # degree one from the bar complex matches the pair complex (the
    # degree-zero differential is the commutator map, covered by the
    # same general construction)
    from quiverhh.paircomplex import complex_data

    tri = Quiver(("a", "b", "c"), (("x", 0, 1), ("y", 1, 2), ("z", 0, 2)))
    A = build(tri, [tri.path((0, 1))], QQ)
    assert bar_hh_dim(A, 1) == complex_data(A).hh1_view.dim
    g = glued("midfan-2")
    assert bar_hh_dim(g.B, 1) == complex_data(g.B).hh1_view.dim
