"""Differential tests: ``Path`` against the frozen dataclass it replaced.

``quiver.Path`` is a named tuple of ``(source, target, arrows)``.  Before,
it was the frozen dataclass ``Path`` kept below unchanged (its class name
is part of its ``repr``, so it keeps it here too).  Every printed
line and every set or dict order of the program goes through a path's
``repr``/``str``, ``hash``, equality or ``sort_key``, so these must agree
with the dataclass on every path.  The inputs are drawn paths, trivial and
long ones included, and the bases and relations that ``build`` returns
for random quivers over Q/F2/F3/F5.

Two behaviours are new and pinned here: a path equals the plain tuple of
its fields, and paths are ordered like those tuples.
"""

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh import quiver
from quiverhh.fields import GF, QQ
from quiverhh.randomgen import RandomSpec, random_instance

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


@dataclass(frozen=True)
class Path:
    """Oriented path; ``arrows`` is empty exactly for the trivial path."""

    source: int
    target: int
    arrows: tuple

    @property
    def length(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.arrows, self.source)


def ref(p: quiver.Path) -> Path:
    return Path(p.source, p.target, p.arrows)


def assert_same_path(p: quiver.Path):
    r = ref(p)
    assert repr(p) == repr(r)
    assert str(p) == str(r)
    assert f"{p}" == f"{r}"
    assert hash(p) == hash(r)
    assert p.length == r.length
    assert p.sort_key() == r.sort_key()


def assert_same_relations(paths):
    refs = [ref(p) for p in paths]
    for p, rp in zip(paths, refs):
        assert_same_path(p)
        for q, rq in zip(paths, refs):
            assert (p == q) == (rp == rq)
            assert (p != q) == (rp != rq)
    # equal hashes and equalities give equal set and dict orders
    assert [ref(p) for p in set(paths)] == list(set(refs))
    assert [ref(p) for p in dict.fromkeys(paths)] == list(dict.fromkeys(refs))
    by_key = sorted(paths, key=quiver.Path.sort_key)
    assert [ref(p) for p in by_key] == sorted(refs, key=Path.sort_key)


vertices = st.integers(0, 12)
words = st.lists(st.integers(0, 20), max_size=12).map(tuple)
paths = st.builds(quiver.Path, vertices, vertices, words)


@settings(max_examples=200, deadline=None)
@given(paths)
@example(quiver.Path(0, 0, ()))
@example(quiver.Path(3, 3, ()))
@example(quiver.Path(2, 5, tuple(range(40))))
@example(quiver.Path(1, 1, (7,) * 30))
def test_path_matches_dataclass(p):
    assert_same_path(p)


@settings(max_examples=100, deadline=None)
@given(st.lists(paths, max_size=12))
@example([quiver.Path(0, 0, ()), quiver.Path(0, 0, ()), quiver.Path(0, 1, ())])
@example([quiver.Path(0, 1, (2,)), quiver.Path(1, 0, (2,)), quiver.Path(0, 1, (2, 3))])
def test_path_equality_and_orders_match_dataclass(ps):
    assert_same_relations(ps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(FIELDS)))
def test_built_bases_match_dataclass(seed, field):
    A = random_instance(RandomSpec(seed=seed, field=FIELDS[field], max_dim=40))
    assert_same_relations(list(A.basis) + list(A.relations))


def test_path_is_its_field_tuple():
    p = quiver.Path(0, 1, (2,))
    assert p == (0, 1, (2,)) and hash(p) == hash((0, 1, (2,)))
    assert Path(0, 1, (2,)) != (0, 1, (2,))
    assert sorted([quiver.Path(1, 0, ()), p, quiver.Path(0, 0, ())]) == [
        (0, 0, ()),
        (0, 1, (2,)),
        (1, 0, ()),
    ]
