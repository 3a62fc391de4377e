import pytest

from quiverhh.errors import ParseError
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF
from quiverhh.fileformat import parse, print_algebra


def test_round_trip_corpus():
    for ex in EXAMPLES:
        A = parse(ex.text)
        text = print_algebra(A)
        B = parse(text)
        assert A == B
        assert print_algebra(B) == text


def test_parse_prime_field():
    A = parse("field F 5\nvertex v\narrow x v v\nrel x x\n")
    assert A.field == GF(5)


def test_parse_default_field_and_comments():
    A = parse("# header\nvertex v  # trailing\nvertex w\narrow x v w\n")
    assert A.field.char == 0
    assert A.dim == 3


def err(text):
    with pytest.raises(ParseError) as e:
        parse(text)
    return e.value


def test_unknown_directive_position():
    e = err("vertex v\nfoo bar\n")
    assert (e.line, e.column) == (2, 1)


def test_duplicate_vertex():
    e = err("vertex v\nvertex v\n")
    assert e.line == 2 and e.column == 8


def test_unknown_vertex_in_arrow():
    e = err("vertex v\narrow x v w\n")
    assert e.line == 2 and e.column == 11


def test_short_relation_rejected():
    e = err("vertex v\narrow x v v\nrel x\n")
    assert e.line == 3
    assert "admissibility" in str(e)


def test_noncomposable_relation():
    e = err("vertex u\nvertex v\narrow x u v\nrel x x\n")
    assert e.line == 4


def test_bad_field():
    e = err("field F 6\n")
    assert e.line == 1


def test_infinite_dimensional_reported():
    e = err("vertex v\narrow x v v\n")
    assert "infinite-dimensional" in str(e)



def test_non_minimal_relations_named_at_their_line():
    text = (
        "vertex u\nvertex v\nvertex w\nvertex t\n"
        "arrow x u v\narrow y v w\narrow z w t\n"
        "rel x y\n"  # line 8
        "rel x y z\n"  # line 9
        "\n# the relation set ends above\n"  # line 11
    )
    e = err(text)
    assert (e.line, e.column) == (9, 1)
    assert "'rel x y' (line 8) is a proper subpath of 'rel x y z'" in str(e)
