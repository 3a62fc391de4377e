"""``complex_data`` keeps two pair complexes: the A and B of the gluing in use.

Every flow reads at most the complexes of one gluing, so two entries
serve every call a deeper cache would, and a complex is dropped once its
gluing is.  Each case starts from a cleared cache.
"""

import gc
import weakref

import pytest

from quiverhh.checks import CHECKS, run_checks, run_fuzz
from quiverhh.examples_data import EXAMPLES, fan
from quiverhh.fileformat import parse
from quiverhh.fundgroup import theta_class_rank
from quiverhh.gluing import glue
from quiverhh.paircomplex import PairComplex, center_product, complex_data, hh1_lie

TEXTS = {**{e.name: e.text for e in EXAMPLES}, "fan6": fan(6)}


def _glued(text):
    A = parse(text)
    return glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_all_checks_build_two_complexes(name):
    g = _glued(TEXTS[name])
    complex_data.cache_clear()
    reports = run_checks(g)
    assert [r.check for r in reports] == list(CHECKS)
    assert complex_data.cache_info().misses == 2


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_one_algebra_builds_one_complex(name):
    A = _glued(TEXTS[name]).A
    complex_data.cache_clear()
    C = complex_data(A)
    assert hh1_lie(A) is C.lie
    center_product(A)
    theta_class_rank(A)
    assert complex_data.cache_info().misses == 1


def test_fuzz_keeps_at_most_two_complexes_alive(monkeypatch):
    complex_data.cache_clear()
    built = []
    init = PairComplex.__init__

    def recording(self, A):
        built.append(weakref.ref(self))
        init(self, A)

    monkeypatch.setattr(PairComplex, "__init__", recording)
    run_fuzz(20260809, 200)
    gc.collect()
    alive = [ref for ref in built if ref() is not None]
    assert len(alive) <= 2 < len(built)
