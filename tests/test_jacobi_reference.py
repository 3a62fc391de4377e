"""Differential tests: the Jacobi check against its earlier five-fold loop.

The reference below is ``LieAlgebraPresentation.check_jacobi`` as it was
before it iterated only over i < j < k and nonzero structure constants,
kept here unchanged as a function of the presentation, together with the
dense ``bracket_coords`` it read, which now reads the dense ``constants``
view.  It checks every coordinate of every ordered triple, so the two must
give the same verdict on every presentation, whether or not it satisfies
Jacobi.
"""

import random
from fractions import Fraction

from quiverhh.examples_data import fan
from quiverhh.fields import GF, QQ
from quiverhh.fileformat import parse
from quiverhh.paircomplex import LieAlgebraPresentation, hh1_lie


def bracket_coords(self, i: int, j: int) -> tuple:
    f = self.field
    if i == j:
        return tuple(f.zero for _ in range(self.dim))
    if i < j:
        return self.constants[(i, j)]
    return tuple(f.neg(c) for c in self.constants[(j, i)])


def check_jacobi(self) -> bool:
    f = self.field
    d = self.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    total = f.zero
                    for cyc in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = bracket_coords(self, cyc[0], cyc[1])
                        for l in range(d):
                            if f.is_zero(inner[l]):
                                continue
                            total = f.add(
                                total, f.mul(inner[l], bracket_coords(self, l, cyc[2])[m])
                            )
                    if not f.is_zero(total):
                        return False
    return True


FIELDS = (QQ, GF(2), GF(3), GF(5))


def presentation(field, d, coords) -> LieAlgebraPresentation:
    """Presentation with ``coords[(i, j)]`` as the sparse bracket of i < j."""
    terms = {}
    for (i, j), vec in coords.items():
        nonzero = {m: c for m, c in sorted(vec.items()) if not field.is_zero(c)}
        if nonzero:
            terms[(i, j)] = nonzero
    labels = tuple(f"x{i}" for i in range(d))
    return LieAlgebraPresentation(d, labels, terms, field)


def random_presentation(rng: random.Random) -> LieAlgebraPresentation:
    field = rng.choice(FIELDS)
    d = rng.randint(0, 5)
    density = rng.choice((0.1, 0.25, 0.5))
    coords = {}
    for i in range(d):
        for j in range(i + 1, d):
            coords[(i, j)] = {
                m: field.add(field.zero, rng.choice((-2, -1, 1, 2, 3)))
                for m in range(d)
                if rng.random() < density
            }
    return presentation(field, d, coords)


# e, f, h with [e, f] = h, [h, e] = 2e, [h, f] = -2f
SL2 = presentation(
    QQ, 3, {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(-2)}, (1, 2): {1: Fraction(2)}}
)
# [x0, x1] = x2 and [x2, x0] = x0, so the Jacobiator of (x0, x1, x2) is x2
BROKEN = presentation(GF(5), 3, {(0, 1): {2: 1}, (0, 2): {0: 4}})


def test_fan_lie_algebra_matches_reference():
    pres = hh1_lie(parse(fan(4, 5)))
    assert pres.dim >= 3 and not pres.is_abelian()
    assert pres.check_jacobi() is check_jacobi(pres) is True


def test_known_verdicts():
    assert SL2.check_jacobi() is check_jacobi(SL2) is True
    assert BROKEN.check_jacobi() is check_jacobi(BROKEN) is False


def test_random_presentations_match_reference():
    rng = random.Random(20260809)
    verdicts = []
    for _ in range(300):
        pres = random_presentation(rng)
        verdicts.append(check_jacobi(pres))
        assert pres.check_jacobi() is verdicts[-1]
    # both verdicts occur, so the early return is exercised too
    assert verdicts.count(False) > 50 and verdicts.count(True) > 50

