"""Oracle agreement, and a brute-force product-rule check of the oracle itself."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import algebra
from quiverhh.algebra import build
from quiverhh.fields import GF, QQ
from quiverhh.linalg import LabeledBasis, LinearMap, kernel
from quiverhh.oracles import derivation_dims, oracle_center, oracle_hh1_dim
from quiverhh.quiver import Quiver
from quiverhh.randomgen import RandomSpec, random_instance
from quiverhh.paircomplex import complex_data

FIELDS = (QQ, GF(2), GF(3), GF(5))


def brute_force_der_dim(A):
    """Derivation space via the full product rule on all basis pairs.

    Unknowns are all matrix entries of the map; this is presentation-free
    and slow, and exists to pin down the generator-value solver.
    """
    f = A.field
    n = A.dim
    basis = A.basis
    index = A.basis_index
    unknowns = LabeledBasis(tuple((i, j) for i in range(n) for j in range(n)))
    rows = []
    for i, p in enumerate(basis):
        for j, q in enumerate(basis):
            pq = A.multiply(p, q)
            per_coord = {}
            if pq is not None:
                for k in range(n):
                    per_coord.setdefault(k, {})[(index[pq], k)] = f.one
            # minus d(p) q
            for k, r in enumerate(basis):
                rq = A.multiply(r, q)
                if rq is not None:
                    d = per_coord.setdefault(index[rq], {})
                    key = (i, k)
                    d[key] = f.add(d.get(key, f.zero), f.neg(f.one))
                pr = A.multiply(p, r)
                if pr is not None:
                    d = per_coord.setdefault(index[pr], {})
                    key = (j, k)
                    d[key] = f.add(d.get(key, f.zero), f.neg(f.one))
            for row in per_coord.values():
                flat = {
                    unknowns.index[key]: c for key, c in row.items() if not f.is_zero(c)
                }
                if flat:
                    rows.append(flat)
    columns = [dict() for _ in range(len(unknowns))]
    for r_id, row in enumerate(rows):
        for u, c in row.items():
            columns[u][r_id] = c
    eqs = LabeledBasis(tuple(range(len(rows))))
    return kernel(f, LinearMap(unknowns, eqs, tuple(columns))).dim


def test_generator_solver_matches_brute_force():
    Q1 = Quiver(("e",), (("x", 0, 0),))
    Q2 = Quiver(("u", "v"), (("x", 0, 1), ("y", 1, 0)))
    Q3 = Quiver(("u", "v", "w"), (("x", 0, 1), ("y", 1, 2)))
    cases = [
        build(Q1, [Q1.path((0, 0, 0))], QQ),
        build(Q2, [Q2.path((0, 1)), Q2.path((1, 0))], QQ),
        build(Q3, [], QQ),
    ]
    for A in cases:
        for field in (QQ, GF(2), GF(3)):
            Af = build(A.quiver, A.relations, field)
            assert derivation_dims(Af)[0] == brute_force_der_dim(Af)


def test_oracles_on_corpus():
    for name in (
        "line-free",
        "line-bound",
        "twin-pairs-rad2",
        "loop-power",
        "two-blocks-deco",
        "double-braid",
    ):
        base = algebra(name)
        for field in FIELDS:
            A = build(base.quiver, base.relations, field)
            C = complex_data(A)
            assert oracle_center(A)[0] == C.hh0.dim
            assert oracle_hh1_dim(A) == C.hh1_view.dim


def test_oracles_on_w1_gluings(w1_gluings):
    """On both sides of all 1000 W1 gluings, passing and failing alike, the
    Der/Inn oracle gives dim HH¹ of the pair complex and the center oracle
    gives its dim HH⁰."""
    assert len(w1_gluings) == 1000
    for spec, g in w1_gluings:
        for side, C in zip((g.A, g.B), g.complexes):
            assert oracle_hh1_dim(side) == C.hh1_view.dim, spec.seed
            assert oracle_center(side)[0] == C.hh0.dim, spec.seed


def test_oracle_center_elements_commute():
    A = algebra("double-braid")
    dim, elements = oracle_center(A)
    gens = [A.quiver.trivial_path(v) for v in range(A.quiver.num_vertices)]
    gens += [A.quiver.arrow_path(a) for a in range(A.quiver.num_arrows)]
    f = A.field
    for z in elements:
        for gpath in gens:
            left = {}
            for p, c in z.items():
                r = A.multiply(p, gpath)
                if r is not None:
                    left[r] = f.add(left.get(r, f.zero), c)
            right = {}
            for p, c in z.items():
                r = A.multiply(gpath, p)
                if r is not None:
                    right[r] = f.add(right.get(r, f.zero), c)
            assert {k: v for k, v in left.items() if v != 0} == {
                k: v for k, v in right.items() if v != 0
            }


def test_semisimple_has_no_outer_derivations():
    A = build(Quiver(("u", "v", "w"), ()), [], QQ)
    assert oracle_hh1_dim(A) == 0
    assert oracle_center(A)[0] == 3


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 5000))
def test_oracle_agreement_random(seed):
    spec = RandomSpec(seed=seed, max_vertices=4, max_arrows=4, max_dim=12,
                      field=FIELDS[seed % 4])
    A = random_instance(spec)
    C = complex_data(A)
    assert oracle_center(A)[0] == C.hh0.dim
    assert oracle_hh1_dim(A) == C.hh1_view.dim
