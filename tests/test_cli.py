import ast
import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverhh import checks
from quiverhh.checks import CHECKS
from quiverhh.cli import main
from quiverhh.examples_data import EXAMPLES, example_by_name, fan
from quiverhh.fileformat import parse, print_algebra
from quiverhh.gluing import glue


@pytest.fixture
def line_free_file(tmp_path):
    p = tmp_path / "line_free.alg"
    p.write_text(example_by_name("line-free").text)
    return str(p)


@pytest.fixture
def line_bound_file(tmp_path):
    p = tmp_path / "line_bound.alg"
    p.write_text(example_by_name("line-bound").text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys, line_bound_file):
    code, out, _ = run(capsys, "info", line_bound_file)
    assert code == 0
    assert "dimension: 7" in out
    assert "source arrows: alpha" in out
    assert "node arrows: eta" in out


def test_glue_prints_exact_relation_block(capsys, line_free_file):
    code, out, err = run(capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "beta")
    assert code == 0
    assert "rel eta gamma* eta" in out
    assert "# dim: 10 -> 7" in err


def test_glue_out_file_round_trips(capsys, tmp_path, line_free_file):
    out_path = tmp_path / "b.alg"
    code, _, _ = run(
        capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "beta",
        "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "info", str(out_path))
    assert code == 0 and "dimension: 7" in out


def test_invalid_gluing_exit_code(capsys, line_free_file):
    code, _, err = run(capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "eta")
    assert code == 2
    assert "pairwise distinct" in err


def test_hh_degrees(capsys, line_bound_file):
    code, out, _ = run(capsys, "hh", line_bound_file, "--degrees", "0..3")
    assert code == 0
    assert out.splitlines() == ["HH^0: 1", "HH^1: 0", "HH^2: 0", "HH^3: 0"]


@pytest.mark.parametrize("spec", ["abc", "-1..0", "3..1", "1..x"])
def test_hh_bad_degrees_exit_code(capsys, line_bound_file, spec):
    code, out, err = run(capsys, "hh", line_bound_file, f"--degrees={spec}")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: --degrees expects N or N..M with 0 <= N <= M, got {spec!r}"
    ]


@pytest.mark.parametrize("spec", ["99999999999999999999", "0..99999999999999999999"])
def test_hh_huge_degree_exit_code(capsys, tmp_path, spec):
    # radical square zero, so every degree above one is computed
    p = tmp_path / "rsz.alg"
    p.write_text("field Q\nvertex a\nvertex b\narrow x a b\n")
    code, out, err = run(capsys, "hh", str(p), f"--degrees={spec}")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: --degrees: degree 99999999999999999999 is larger than {sys.maxsize}"
    ]


@pytest.mark.parametrize("source", ["line", "midfan-2"])
def test_hh_largest_degree_is_reached_directly(capsys, tmp_path, source):
    # the degree-N entry reads two adjacency-matrix powers, which repeated
    # squaring reaches without visiting the degrees below N
    p = tmp_path / "rsz.alg"
    text = "field Q\nvertex a\nvertex b\narrow x a b\n"
    p.write_text(text if source == "line" else example_by_name(source).text)
    code, out, _ = run(capsys, "hh", str(p), f"--degrees={sys.maxsize}")
    assert code == 0
    assert out == f"HH^{sys.maxsize}: 0\n"


# one vertex, loops x and y, every length-2 word a relation: radical square
# zero with dim HH^n = 3 * 2^(n - 1) for n >= 2, which has 4215 digits at
# n = 14000 and first exceeds 4300 digits at n = 14284
TWO_LOOPS = "field Q\nvertex v\narrow x v v\narrow y v v\nrel x x\nrel x y\nrel y x\nrel y y\n"

# radical square zero, so both parse: every composable pair of arrows is a relation
CROWN3 = (
    "field Q\nvertex v0\nvertex v1\nvertex v2\n"
    "arrow a0 v0 v1\narrow a1 v1 v2\narrow a2 v2 v0\nrel a0 a1\nrel a1 a2\nrel a2 a0\n"
)
TWO_CYCLES = (
    "field Q\nvertex u0\nvertex u1\nvertex w0\nvertex w1\n"
    "arrow x u0 u1\narrow y u1 u0\narrow z w0 w1\narrow t w1 w0\nrel x y\nrel y x\nrel z t\nrel t z\n"
)

INFO_KEYS = (
    "field", "vertices", "arrows", "relations", "dimension", "basis by length", "components",
    "betti", "radical square zero", "crown", "source arrows", "sink arrows", "node arrows",
)
# the complete ``quiverhh info`` output, one value per line of INFO_KEYS
INFO_PINS = {
    "biline": ("Q", 4, 7, 17, 21, "0:4, 1:7, 2:10", 1, 4, False, "no", "-", "-", "mu, alpha, eta, lambda, beta, b, xi"),
    "line-free": ("Q", 4, 3, 0, 10, "0:4, 1:3, 2:2, 3:1", 1, 0, False, "no", "alpha", "beta", "-"),
    "two-lines": ("Q", 6, 4, 0, 12, "0:6, 1:4, 2:2", 2, 0, False, "no", "alpha, delta", "eps, beta", "-"),
    "line-bound": ("Q", 4, 3, 2, 7, "0:4, 1:3", 1, 0, True, "no", "alpha", "beta", "eta"),
    "twin-pairs-rad2": ("Q", 4, 5, 3, 9, "0:4, 1:5", 1, 2, True, "no", "-", "-", "alpha, a, eta, beta, b"),
    "loop-crowd-2": ("Q", 4, 5, 8, 9, "0:4, 1:5", 2, 3, True, "no", "-", "-", "alpha, a1, a2, p, beta"),
    "bypass": ("Q", 6, 6, 0, 26, "0:6, 1:6, 2:7, 3:5, 4:2", 1, 1, False, "no", "b", "-", "beta, a"),
    "loop-power": ("Q", 4, 4, 1, 9, "0:4, 1:4, 2:1", 1, 1, False, "no", "-", "-", "alpha, xi, eta, beta"),
    "loop-power-f2": ("F2", 4, 4, 1, 9, "0:4, 1:4, 2:1", 1, 1, False, "no", "-", "-", "alpha, xi, eta, beta"),
    "two-blocks-deco": ("Q", 5, 4, 1, 9, "0:5, 1:4", 2, 1, True, "no", "beta", "beta", "a, alpha, b"),
    "double-braid": ("Q", 4, 5, 2, 23, "0:4, 1:5, 2:6, 3:5, 4:2, 5:1", 1, 2, False, "no", "-", "-", "alpha, beta"),
    "zigzag-6": ("Q", 6, 5, 0, 11, "0:6, 1:5", 1, 0, True, "no", "-", "-", "alpha, u1, v1, u2, beta"),
    "midfan-2": ("Q", 4, 4, 4, 8, "0:4, 1:4", 1, 1, True, "no", "alpha", "beta", "d1, d2"),
    "crown-3": ("Q", 3, 3, 3, 6, "0:3, 1:3", 1, 1, True, 3, "-", "-", "a0, a1, a2"),
    "two-2-cycles": ("Q", 4, 4, 4, 8, "0:4, 1:4", 2, 2, True, "no", "-", "-", "x, y, z, t"),
    "two-loops": ("Q", 1, 2, 4, 3, "0:1, 1:2", 1, 2, True, "no", "-", "-", "x, y"),
}
INFO_TEXTS = {
    **{e.name: e.text for e in EXAMPLES}, "crown-3": CROWN3, "two-2-cycles": TWO_CYCLES, "two-loops": TWO_LOOPS,
}


@pytest.mark.parametrize("name", INFO_TEXTS)
def test_info_output_pinned(capsys, tmp_path, name):
    p = tmp_path / "a.alg"
    p.write_text(INFO_TEXTS[name])
    code, out, _ = run(capsys, "info", str(p))
    assert code == 0
    assert out == "".join(f"{k}: {v}\n" for k, v in zip(INFO_KEYS, INFO_PINS[name]))


@pytest.fixture
def digit_limit():
    """Python's integer-to-string digit limit, set to its default of 4300."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length to strings")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_hh_degree_too_long_to_print_exit_code(capsys, tmp_path, digit_limit):
    p = tmp_path / "two_loops.alg"
    p.write_text(TWO_LOOPS)
    code, out, err = run(capsys, "hh", str(p), "--degrees", "14000")
    assert code == 0 and err == ""
    assert out == f"HH^14000: {3 * 2**13999}\n"
    message = "error: --degrees: dim HH^{} has too many digits to print"
    code, out, err = run(capsys, "hh", str(p), "--degrees", "15000")
    assert code == 2 and out == ""
    assert err.splitlines() == [message.format(15000)]
    # the degrees below the first one that cannot print are printed first
    code, out, err = run(capsys, "hh", str(p), "--degrees", "14280..15000")
    assert code == 2
    assert out.splitlines() == [f"HH^{n}: {3 * 2 ** (n - 1)}" for n in range(14280, 14284)]
    assert err.splitlines() == [message.format(14284)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuzz", "--seed", "abc", "--count", "1"], "fuzz: argument --seed: invalid int value: 'abc'"),
        (["verify", "a.alg", "--beta", "beta"], "verify: the following arguments are required: --alpha"),
        (["fuzz", "--seed", "1", "--count", "0", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: cmd"),
    ],
)
def test_usage_error_is_one_line(capsys, argv, message):
    # argparse's own errors print no usage block, like the program's errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.splitlines() == [f"error: {message}"]


def test_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: quiverhh fuzz [-h] --seed SEED --count COUNT")
    assert "print reproduction files for failures" in out.out  # the full help block


def test_examples_unknown_name_exit_code(capsys):
    code, out, err = run(capsys, "examples", "--show", "nope")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --show: no example named 'nope'"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--run", "--show", "biline"], "--show cannot be combined with --run"),
        (["--show", "biline", "--run", "--json"], "--show cannot be combined with --run"),
        (["--json"], "--json applies only to --run"),
        (["--show", "biline", "--json"], "--json applies only to --run"),
        (["--show", ""], "--show: no example named ''"),
        (["--show", "", "--run"], "--show cannot be combined with --run"),
    ],
)
def test_examples_conflicting_flags_exit_code(capsys, argv, message):
    code, out, err = run(capsys, "examples", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("count", ["-3", "-1"])
def test_fuzz_negative_count_exit_code(capsys, count):
    code, out, err = run(capsys, "fuzz", "--seed", "1", f"--count={count}")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --count expects a non-negative integer, got {count}"]


def test_fuzz_json_repro_exit_code(capsys):
    # JSON fail rows carry their repro already; rejected before any instance is generated
    code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "3", "--json", "--repro")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --repro cannot be combined with --json"]


BAD_CHECKS = [
    ("nope", "unknown check 'nope'"),
    ("pi1_rank,nope", "unknown check 'nope'"),
    (",pi1_rank", "empty entry in ',pi1_rank'"),
    ("pi1_rank,", "empty entry in 'pi1_rank,'"),
    ("", "empty entry in ''"),
    ("im_delta0_dim,im_delta0_dim", "check 'im_delta0_dim' is listed twice"),
    ("pi1_rank, im_delta0_dim ,pi1_rank", "check 'pi1_rank' is listed twice"),
]


@pytest.mark.parametrize("spec, message", BAD_CHECKS)
def test_fuzz_bad_checks_exit_code(capsys, spec, message):
    # rejected before any instance is generated, even with --count 0
    code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "0", f"--checks={spec}")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --checks: {message}"]


@pytest.mark.parametrize("spec, message", BAD_CHECKS)
def test_verify_bad_checks_exit_code(capsys, tmp_path, spec, message):
    # rejected before the file is read: this one does not exist
    missing = str(tmp_path / "missing.alg")
    code, out, err = run(
        capsys, "verify", missing, "--alpha", "alpha", "--beta", "beta", f"--checks={spec}"
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --checks: {message}"]


def test_center_and_pi1(capsys, line_bound_file):
    code, out, _ = run(capsys, "center", line_bound_file)
    assert code == 0 and "dim Z: 1" in out
    code, out, _ = run(capsys, "pi1-rank", line_bound_file)
    assert code == 0 and out.strip() == "0"


def test_verify_json_schema(capsys, line_bound_file):
    code, out, _ = run(
        capsys, "verify", line_bound_file, "--alpha", "alpha", "--beta", "beta", "--json"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert all({"check", "status", "lhs", "rhs", "witness"} <= set(obj) for obj in lines)
    assert {obj["check"] for obj in lines} >= {"im_delta0_dim", "pi1_rank"}


def test_verify_selected_checks(capsys, line_bound_file):
    code, out, _ = run(
        capsys, "verify", line_bound_file, "--alpha", "alpha", "--beta", "beta",
        "--checks", "pi1_rank,gamma_not_in_image",
    )
    assert code == 0
    assert out.count("\n") == 2


def test_verify_fail_exit_code(capsys, tmp_path):
    # documented counterexample instance: two parallel arrows feeding a
    # back arrow; the general kernel comparison fails and exit code is 1
    text = (
        "field Q\nvertex e1\nvertex e2\nvertex e3\nvertex e4\n"
        "arrow alpha e1 e2\narrow mu e1 e2\narrow beta e3 e4\narrow xi e4 e1\n"
    )
    p = tmp_path / "ce.alg"
    p.write_text(text)
    code, out, _ = run(
        capsys, "verify", str(p), "--alpha", "alpha", "--beta", "beta",
        "--checks", "hh1_dim_general",
    )
    assert code == 1
    assert "fail" in out


def test_examples_run_and_show(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0 and "line-free" in out
    code, out, _ = run(capsys, "examples", "--show", "line-free")
    assert code == 0 and out == example_by_name("line-free").text
    code, out, _ = run(capsys, "examples", "--run")
    assert code == 0
    assert all(line.split()[-1] == "ok" for line in out.strip().splitlines())


# sha256 of the output of ``quiverhh examples --run --json``: every check
# report of every built-in example.  A refactor must leave it byte-identical.
EXAMPLES_RUN_JSON_SHA256 = "d6b36485965e5a6121b544ef5c2e0df6c7d7581a212ee528817bbe8c9780a758"


def test_examples_run_json_byte_identical(capsys):
    code, out, _ = run(capsys, "examples", "--run", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLES_RUN_JSON_SHA256


# sha256 of ``quiverhh verify <fan(6)> --alpha alpha --beta beta --json``:
# all checks on a same-block source-sink gluing whose theta square has
# five chords beside the merged arrow.
VERIFY_FAN6_JSON_SHA256 = "6d229cb550317aa131f7c46bb2f833fdb9199cd9fb4f5b60114df9a5f439a48a"


def test_verify_fan6_json_byte_identical(capsys, tmp_path):
    p = tmp_path / "fan6.alg"
    p.write_text(fan(6))
    code, out, _ = run(capsys, "verify", str(p), "--alpha", "alpha", "--beta", "beta", "--json")
    assert code == 0
    rows = {row["check"]: row for row in map(json.loads, out.splitlines())}
    assert rows["theta_diagram"]["status"] == "pass"
    assert rows["theta_diagram"]["lhs"].count("True") == 5  # one per chord
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAN6_JSON_SHA256


# sha256 of ``quiverhh verify <fan(8)> --alpha alpha --beta beta --json``:
# all checks on the gluing of the W2 workload, where the ψ¹ images of A's
# kernel rows are rows of B's kernel and their brackets are read off B's table.
VERIFY_FAN8_JSON_SHA256 = "f97642ec44c6302ac5351d295d541e60e625617b509abcac747314df71efb05a"


def test_verify_fan8_json_byte_identical(capsys, tmp_path):
    p = tmp_path / "fan8.alg"
    p.write_text(fan(8))
    code, out, _ = run(capsys, "verify", str(p), "--alpha", "alpha", "--beta", "beta", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAN8_JSON_SHA256


# sha256 of ``quiverhh hh <fan(5)> --degrees 0..1 --lie``: the 24 basis
# labels and every nonzero structure constant of a non-abelian HH^1 over Q.
HH_FAN5_LIE_SHA256 = "0bc6bc71f81d9018cf1d03c1507ba65b90e01b500a0a7c3dc5086d2f23f025ab"


def test_hh_fan5_lie_byte_identical(capsys, tmp_path):
    p = tmp_path / "fan5.alg"
    p.write_text(fan(5))
    code, out, _ = run(capsys, "hh", str(p), "--degrees", "0..1", "--lie")
    assert code == 0
    assert "HH^1: 24" in out and "[x0, x5] = -1*x0" in out
    assert hashlib.sha256(out.encode()).hexdigest() == HH_FAN5_LIE_SHA256


# sha256 of ``quiverhh hh <fan(12, 5)> --lie`` (143 classes over F5) and of
# ``quiverhh hh <B> --lie`` (36 classes over Q) for the algebra B that glues
# alpha to beta in fan(6): labels and structure constants.
HH_LIE_SHA256 = {
    "fan12-5": "a59c44c13edff5d396068a339147766b949c5e8c6cd734b0e707796df267e5fc",
    "glued-fan6": "8030c53767c324ddfdc6b97ec39e4fcb56c74d5754bda1bfea0a01500b7534c2",
}


def _lie_pin_text(name):
    if name == "fan12-5":
        return fan(12, 5)
    A = parse(fan(6))
    return print_algebra(glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"]).B)


@pytest.mark.parametrize("name", sorted(HH_LIE_SHA256))
def test_hh_lie_byte_identical(capsys, tmp_path, name):
    p = tmp_path / f"{name}.alg"
    p.write_text(_lie_pin_text(name))
    code, out, _ = run(capsys, "hh", str(p), "--lie")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HH_LIE_SHA256[name]


# sha256 of ``quiverhh fuzz --seed 1 --count 300 --checks all --json``: every
# check on arbitrary gluings, with 57 failures that the oracles confirm.
FUZZ_ALL_CHECKS_JSON_SHA256 = "f3308cd07a0b8b145277ea0f6a4b7a8c258ed7d18b543738918e476caa9681f6"


def test_fuzz_all_checks_json_byte_identical(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "1", "--count", "300", "--checks", "all", "--json")
    assert code == 1
    summary = {"instances": 300, "fails": 57, "confirmed": 57, "unconfirmed": 0}
    assert json.loads(out.splitlines()[-1]) == {"summary": summary}
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_ALL_CHECKS_JSON_SHA256


# sha256 of ``quiverhh fuzz --seed 7 --count 1000 --checks <RESTRICTED_KERNEL_CHECKS>
# --json``: the checks that read restricted kernels, with 126 failures that
# the oracles confirm.
RESTRICTED_KERNEL_CHECKS = (
    "ker_delta1_hom,ker_delta1_structure,center_geq1,center_indec,center_diff_blocks"
)
FUZZ_SEED7_KERNEL_CHECKS_JSON_SHA256 = (
    "60d6b32a2682c793069834ba6016f88518a7fd3e7e264db68759d111e55ae44b"
)


def test_fuzz_seed7_kernel_checks_json_byte_identical(capsys):
    args = ("fuzz", "--seed", "7", "--count", "1000", "--checks", RESTRICTED_KERNEL_CHECKS)
    code, out, _ = run(capsys, *args, "--json")
    assert code == 1
    summary = {"instances": 1000, "fails": 126, "confirmed": 126, "unconfirmed": 0}
    assert json.loads(out.splitlines()[-1]) == {"summary": summary}
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_SEED7_KERNEL_CHECKS_JSON_SHA256


# sha256 of ``quiverhh fuzz --seed 20260809 --count 1000 --checks
# theta_diagram,high_degrees --json``: the two checks that apply only to
# source-sink and radical-square-zero gluings, 10 and 36 passes.
FUZZ_THETA_HIGH_JSON_SHA256 = "aa9fe370b22c1177a987d15a2d495cba3e74abcc42d64883f665c6a35d872d6d"


def test_fuzz_theta_high_checks_json_byte_identical(capsys):
    args = ("fuzz", "--seed", "20260809", "--count", "1000", "--checks", "theta_diagram,high_degrees")
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = {"instances": 1000, "fails": 0, "confirmed": 0, "unconfirmed": 0}
    assert rows[-1] == {"summary": summary}
    passes = [row["check"] for row in rows[:-1] if row["status"] == "pass"]
    assert (passes.count("theta_diagram"), passes.count("high_degrees")) == (10, 36)
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_THETA_HIGH_JSON_SHA256


# sha256 of ``quiverhh center <example>``: the basis of Z(A), each element
# with its pivot, and the multiplication table in that basis.
CENTER_SHA256 = {
    "biline": (9, "edf42b43dc30a8544a35c77abf5350f729dc8b3171ba70f89c39be3da443c477"),
    "loop-crowd-2": (5, "a3314cbd6ce180ec75a3d75b351572301019779f9869007b90416b92c191169d"),
}


@pytest.mark.parametrize("name", sorted(CENTER_SHA256))
def test_center_table_byte_identical(capsys, tmp_path, name):
    p = tmp_path / f"{name}.alg"
    p.write_text(example_by_name(name).text)
    code, out, _ = run(capsys, "center", str(p))
    dim, digest = CENTER_SHA256[name]
    assert code == 0 and out.splitlines()[0] == f"dim Z: {dim}"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fuzz_cli(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "5000", "--count", "6",
                       "--checks", "pi1_rank,im_delta0_dim")
    assert code == 0
    assert "instances: 6" in out


def test_fuzz_checks_all_runs_every_check(capsys):
    argv = ("fuzz", "--seed", "5000", "--count", "4", "--json")
    code, out, _ = run(capsys, *argv, "--checks=all")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["check"] for row in rows[:-1]] == list(CHECKS) * 4
    assert (code, out) == run(capsys, *argv, f"--checks={','.join(CHECKS)}")[:2]


def test_fuzz_json_marks_confirmed_failures(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "20260809", "--count", "24", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    failed = [row for row in rows[:-1] if row["status"] == "fail"]
    assert code == 1 and failed
    assert all(row["confirmed"] is True for row in failed)
    assert all("confirmed" not in row for row in rows[:-1] if row["status"] != "fail")
    n = len(failed)
    assert rows[-1] == {"summary": {"instances": 24, "fails": n, "confirmed": n, "unconfirmed": 0}}
    # the CI fuzz step greps the last line for exactly this text
    assert out.splitlines()[-1].endswith('"unconfirmed": 0}}')


def test_fuzz_unconfirmed_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(checks, "confirm_failure", lambda g, report: False)
    code, out, _ = run(capsys, "fuzz", "--seed", "20260809", "--count", "24", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    failed = [row for row in rows[:-1] if row["status"] == "fail"]
    assert code == 3 and failed
    assert all(row["confirmed"] is False for row in failed)
    assert rows[-1]["summary"]["unconfirmed"] == rows[-1]["summary"]["fails"] == len(failed)
    code, out, _ = run(capsys, "fuzz", "--seed", "20260809", "--count", "24")
    assert code == 3 and "[UNCONFIRMED]" in out


def test_determinism_byte_identical(capsys, line_bound_file):
    _, out1, _ = run(capsys, "verify", line_bound_file, "--alpha", "alpha", "--beta", "beta", "--json")
    _, out2, _ = run(capsys, "verify", line_bound_file, "--alpha", "alpha", "--beta", "beta", "--json")
    assert out1 == out2
    _, oa, _ = run(capsys, "hh", line_bound_file, "--degrees", "0..6")
    _, ob, _ = run(capsys, "hh", line_bound_file, "--degrees", "0..6")
    assert oa == ob


@pytest.mark.parametrize("p", [10**18 + 1, 2**64 + 13])
def test_field_characteristic_exit_code(capsys, tmp_path, p):
    path = tmp_path / "big.alg"
    path.write_text(f"field F {p}\nvertex v\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert err.startswith("error: line 1, column 9: field characteristic must be")


def test_large_prime_field_parses(capsys, tmp_path):
    path = tmp_path / "prime.alg"
    path.write_text("field F 1000000000000000003\nvertex v\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and out.startswith("field: F1000000000000000003\n")


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("vertex v\nfrobnicate\n")
    code, _, err = run(capsys, "info", str(p))
    assert code == 2
    assert "line 2" in err


def test_field_zero_exit_code(capsys, tmp_path):
    path = tmp_path / "zero.alg"
    path.write_text("field F 0\nvertex a\nvertex b\narrow x a b\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1, column 9: field characteristic must be prime, got 0\n"


@pytest.mark.parametrize("name", ["g h", "", "g#h", "g\th", "g\fh", "g\x85h", "g\u200bh"])
def test_glue_rejects_names_the_file_format_cannot_hold(capsys, tmp_path, line_free_file, name):
    out_path = tmp_path / "b.alg"
    code, out, err = run(
        capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "beta",
        "--name", name, "--out", str(out_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: merged arrow name must be one token") and err.count("\n") == 1
    assert not out_path.exists()


def test_glue_custom_name_round_trips(capsys, line_free_file):
    from quiverhh.fileformat import parse, print_algebra
    from quiverhh.gluing import glue

    code, out, _ = run(capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "beta",
                       "--name", "merged")
    assert code == 0 and "rel eta merged eta" in out
    A = parse(example_by_name("line-free").text)
    g = glue(A, A.quiver.arrow_index["alpha"], A.quiver.arrow_index["beta"], "merged")
    assert parse(print_algebra(g.B)) == g.B
    assert parse(out) == g.B


def test_glue_name_collision_renames_only_the_merged_arrow(capsys, line_free_file):
    code, out, _ = run(capsys, "glue", line_free_file, "--alpha", "alpha", "--beta", "beta",
                       "--name", "eta")
    assert code == 0
    assert "arrow eta* f1 f2\narrow eta f2 f1\nrel eta eta* eta\n" in out


def test_non_utf8_input_exit_code(capsys, tmp_path):
    path = tmp_path / "binary.alg"
    path.write_bytes(b"\xff\xfe vertex\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        # a form feed used to stay inside the token and split the message in two
        ("field Q\nvertex e2\nvertex e3\narro\fw b e3 e2\n", "line 4, column 1: unknown directive arro"),
        # a terminal that swallows \x85 used to show "unknown directive vertex"
        ("field Q\nve\x85rtex a\n", "line 2, column 1: unknown directive ve"),
    ],
)
def test_echoed_token_holds_no_whitespace(capsys, tmp_path, text, message):
    path = tmp_path / "a.alg"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_arrow_option_is_echoed_on_one_line(capsys, line_free_file):
    code, out, err = run(capsys, "verify", line_free_file, "--alpha", "a\fb", "--beta", "beta")
    assert code == 2 and out == ""
    assert err == "error: no arrow named 'a\\x0cb'\n"


def test_glue_name_that_is_not_utf8_is_refused(capsys, tmp_path, line_free_file):
    """A byte that is not UTF-8 reaches ``sys.argv`` as a lone surrogate; it
    used to pass the name check and fail in the write, with a traceback."""
    out_path = tmp_path / "out.txt"
    argv = ["glue", line_free_file, "--alpha", "alpha", "--beta", "beta", "--name", "g\udc85h"]
    for extra in (["--out", str(out_path)], []):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err == "error: merged arrow name must be one token of the file format, got 'g\\udc85h'\n"
    assert not out_path.exists()


def test_usage_error_escapes_unprintable_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", "a.alg", "x\fy"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err == "error: unrecognized arguments: x\\x0cy\n"


def test_non_utf8_input_path_is_echoed_on_one_line(capsys, tmp_path):
    path = tmp_path / "a\fb.alg"
    path.write_bytes(b"\xff vertex\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {str(path)!r}: not UTF-8 text (byte 0)\n"


# -- the error contract on edited examples -------------------------------------

CONTRACT_TEXTS = [e.text for e in EXAMPLES if len(e.text) < 400]
CONTRACT_CHARS = (
    "\f", "\v", "\x85", "\x1c", "\t", "\r", "\n", "\u2028", "\u2029", "\u200b", "\ufeff",
    "#", "0", "7", "\u00e9", "\u03b2", "\u0436",
)
CONTRACT_COMMANDS = (["info"], ["hh", "--degrees", "0..3"], ["center"], ["pi1-rank"])
# errors that name a token: the text at their position starts with it
NAMED_TOKEN = re.compile(
    r"error: line (\d+), column (\d+): (unknown directive|duplicate vertex name|unknown vertex"
    r"|duplicate arrow name|unknown arrow|unprintable token) (.+)$"
)


@st.composite
def edited_examples(draw):
    """A small built-in example with 1-3 one-character inserts, deletes or
    replacements."""
    text = draw(st.sampled_from(CONTRACT_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        i = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(CONTRACT_CHARS))
        text = text[:i] + (char if op != "delete" else "") + text[i + (op != "insert"):]
    return text


@pytest.fixture(scope="module")
def contract_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "edited.alg"


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(edited_examples())
@example("field Q\n\fvertex a\nbogus\n")  # line numbers counted by str.splitlines()
@example("vertex v\nvertex \fv\n")  # columns counted per space-separated chunk
@example("field Q\nvertex e2\nvertex e3\narro\fw b e3 e2\n")  # whitespace inside a token
def test_error_contract_on_edited_examples(contract_file, text):
    """Exit 0, 1 or 2; exit 2 prints one ``error:`` line; an error that names
    a token points at it (lines split at CR LF, CR and LF)."""
    contract_file.write_bytes(text.encode("utf-8"))
    lines = re.split(r"\r\n|\r|\n", text)
    for command in CONTRACT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], str(contract_file), *command[1:]])
        assert code in (0, 1, 2)
        if code != 2:
            assert err.getvalue() == ""
            continue
        (message,) = err.getvalue().splitlines()
        assert message.startswith("error: ")
        m = NAMED_TOKEN.match(message)
        if m:
            line, column, kind, token = m.groups()
            if kind == "unprintable token":
                token = ast.literal_eval(token)
            assert lines[int(line) - 1][int(column) - 1 :].startswith(token)
