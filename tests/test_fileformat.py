from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh.errors import ParseError
from quiverhh.examples_data import EXAMPLES
from quiverhh.fields import GF
from quiverhh.fileformat import parse, print_algebra, tokens


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


@pytest.mark.parametrize("boundary", ["\f", "\x85", "\u2028"])
def test_unicode_line_boundary_stays_inside_its_line(boundary):
    """``str.splitlines`` also ends lines at these; a file read in text mode
    does not, so they move no later line number."""
    e = err(f"field Q\n{boundary}vertex a\nbogus\n")
    assert (e.line, e.column) == (3, 1)
    assert str(e) == "line 3, column 1: unknown directive bogus"
    e = err(f"field Q\nvertex a{boundary}\nvertex b\nvertex a\n")
    assert (e.line, e.column) == (4, 8)


@pytest.mark.parametrize("space", ["\f", "\x85", "\u2028"])
def test_token_column_skips_whitespace_before_it(space):
    """A token's column is that of its first non-space character, not that of
    the space-separated chunk holding it; whitespace inside a chunk splits it
    in two, as ``str.split()`` does."""
    assert str(err(f"vertex v\nvertex {space}v\n")) == "line 2, column 9: duplicate vertex name v"
    assert err(f"vertex v\nvertex v{space}\n").column == 8
    assert err(f"vertex v\nvertex {space} v\n").column == 10
    e = err(f"vertex a{space}b\nvertex a{space}b\n")
    assert str(e) == "line 1, column 1: expected 'vertex <name>'"
    assert tokens(f"vertex a{space}b") == [("vertex", 1), ("a", 8), ("b", 10)]


@pytest.mark.parametrize("char", ["\x00", "\x7f", "\x9f", "\xad", "\u200b", "\ufeff", "\udc85"])
def test_unprintable_token_is_an_error_at_its_column(char):
    """A token must be printable; the message shows it as ``repr`` does, so it
    stays on one line."""
    e = err(f"vertex v\narrow x v a{char}b # {char}\n")
    assert (e.line, e.column) == (2, 11)
    assert str(e) == f"line 2, column 11: unprintable token {f'a{char}b'!r}"
    assert len(str(e).splitlines()) == 1 and str(e).isprintable()
    # a comment is not tokenized
    assert parse(f"vertex v # {char}\n").dim == 1


def ref_tokens(line: str):
    """The tokenizer before the shared token rule: split at spaces only, the
    caller having turned tabs into spaces."""
    code = line.split("#", 1)[0]
    out = []
    col = 1
    for raw in code.split(" "):
        if raw.strip():
            out.append((raw.strip(), col + len(raw) - len(raw.lstrip())))
        col += len(raw) + 1
    return out


def test_tokens_match_reference_on_corpus():
    for ex in EXAMPLES:
        for line in ex.text.splitlines():
            assert tokens(line) == ref_tokens(line.replace("\t", " "))


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t"), max_size=40))
@example("\tvertex  a\t\tb # c")
@example("  #vertex a")
def test_tokens_match_reference_on_printable_ascii(line):
    assert tokens(line) == ref_tokens(line.replace("\t", " "))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_cr_line_ends_keep_positions(end):
    e = err(end.join(["field Q", "vertex a", "  bogus", ""]))
    assert (e.line, e.column) == (3, 3)
    e = err(end.join(["vertex v", "vertex v", ""]))
    assert (e.line, e.column) == (2, 8)


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


def test_field_zero_is_not_the_rationals():
    e = err("field F 0\nvertex a\nvertex b\narrow x a b\n")
    assert (e.line, e.column) == (1, 9)
    assert "field characteristic must be prime, got 0" in str(e)
    with pytest.raises(ValueError):
        GF(0)


def test_infinite_dimensional_reported():
    e = err("vertex v\narrow x v v\n")
    assert "infinite-dimensional" in str(e)


def test_infinite_dimensional_reported_at_first_cycle_arrow():
    e = err("vertex v\narrow x v v\n\n# comment\n")
    assert (e.line, e.column) == (2, 1)
    assert str(e) == "line 2, column 1: algebra is infinite-dimensional: relation-free cycle x"
    # the witness b -> c starts at the indented arrow line 4
    e = err("vertex u\nvertex v\narrow a u v\n  arrow b v u\narrow c u v\nrel a b\n")
    assert (e.line, e.column) == (4, 3)
    assert str(e).endswith("relation-free cycle b -> c")


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


# Tokens of the built-in examples plus a few that no example uses.
CORPUS_TOKENS = sorted(
    {tok for ex in EXAMPLES for tok in ex.text.split()}
    | {"0", "1", "-1", "6", "18446744073709551629", "#", "x", "F", "Q"}
)
MUTATIONS = ("delete", "duplicate", "truncate", "replace", "insert")


def mutate(text: str, i: int, op: str, pos: int, token: str) -> str:
    """Apply one mutation to line ``i`` (from 0) of ``text``."""
    lines = text.splitlines()
    toks = lines[i].split(" ")
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "truncate":
        lines[i] = lines[i][: pos % (len(lines[i]) + 1)]
    elif op == "replace":
        toks[pos % len(toks)] = token
        lines[i] = " ".join(toks)
    else:
        toks.insert(pos % (len(toks) + 1), token)
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(st.sampled_from(MUTATIONS), st.integers(0, 40), st.sampled_from(CORPUS_TOKENS))
@example("replace", 2, "x")  # field F x
@example("insert", 1, "F")  # field F Q
def test_mutated_examples_raise_only_parse_errors(op, pos, token):
    """One mutation, applied to each line of each built-in example in turn."""
    for ex in EXAMPLES:
        for i in range(len(ex.text.splitlines())):
            try:
                parse(mutate(ex.text, i, op, pos, token))
            except ParseError:
                pass
