"""Differential test: one pass of adjacency powers against one pass per degree.

``ref_parallel_counts`` and ``ref_hh_dim_high`` are the per-degree forms
that multiplied the adjacency matrix up to the n-th power from scratch for
every degree n, kept unchanged.  ``hh_dims_high`` walks the powers once;
both must give the same dimension (or the same unsupported status or
error) in every degree, and ``quiverhh hh --degrees`` must print the same
lines as a per-degree loop over the reference.
"""

from itertools import islice

import pytest

from conftest import glued
from quiverhh.cli import main
from quiverhh.errors import QuiverHHError
from quiverhh.examples_data import EXAMPLES, example_by_name, fan, zigzag
from quiverhh.fileformat import parse
from quiverhh.gluing import glue
from quiverhh.higher import CrownUnsupported, hh_dim_high, hh_dims_high
from quiverhh.paircomplex import complex_data
from quiverhh.quiver import connected_components, crown_order

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
    if len(connected_components(A.quiver)) != 1:
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
    return [A for A in out if len(connected_components(A.quiver)) == 1]


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
