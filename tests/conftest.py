import pytest

from quiverhh.examples_data import example_by_name
from quiverhh.fileformat import parse
from quiverhh.fields import GF, QQ
from quiverhh.gluing import glue
from quiverhh.randomgen import RandomSpec, instance_with_gluing


def algebra(name):
    return parse(example_by_name(name).text)


def glued(name):
    A = algebra(name)
    return glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"])


CROWN4 = """field Q
vertex v0
vertex v1
vertex v2
vertex v3
arrow a0 v0 v1
arrow a1 v1 v2
arrow a2 v2 v3
arrow a3 v3 v0
rel a0 a1
rel a1 a2
rel a2 a3
rel a3 a0
"""


def glued_crown4():
    """The radical-square-zero 4-crown v0 -> v1 -> v2 -> v3 -> v0 with a0 glued to a2."""
    A = parse(CROWN4)
    return glue(A, A.quiver.arrow_index["a0"], A.quiver.arrow_index["a2"])


def vertex_id(Q, name):
    """Id of the vertex named ``name`` in quiver ``Q``."""
    return Q.vertex_names.index(name)


def path_of(A, *arrow_names):
    Q = A.quiver
    return Q.path([Q.arrow_index[n] for n in arrow_names])


def pair1_index(C, arrow_name, *path_arrow_names):
    """Index of an arrow/path pair in the degree-one basis, by names.

    An empty path spec means the trivial path at the arrow's source.
    """
    A = C.A
    Q = A.quiver
    a = Q.arrow_index[arrow_name]
    if path_arrow_names:
        p = path_of(A, *path_arrow_names)
    else:
        p = Q.trivial_path(Q.source(a))
    return C.basis1.index[(a, p)]


def pair0_index(C, vertex_name, *path_arrow_names):
    A = C.A
    Q = A.quiver
    v = vertex_id(Q, vertex_name)
    p = path_of(A, *path_arrow_names) if path_arrow_names else Q.trivial_path(v)
    return C.basis0.index[(v, p)]


@pytest.fixture
def line_bound():
    return algebra("line-bound")


@pytest.fixture
def line_free():
    return algebra("line-free")


@pytest.fixture(scope="session")
def w1_gluings():
    """The 1000 gluings of the fuzz corpus ``run_fuzz(20260809, 1000,
    spec_kwargs={"max_dim": 32})`` as ``(spec, gluing)`` pairs, fields
    cycling Q, F2, F3, F5; built once per session."""
    fields = (QQ, GF(2), GF(3), GF(5))
    out = []
    for i in range(1000):
        spec = RandomSpec(seed=20260809 + i, field=fields[i % 4], max_dim=32)
        A, gs = instance_with_gluing(spec)
        out.append((spec, glue(A, gs.alpha, gs.beta)))
    return out
