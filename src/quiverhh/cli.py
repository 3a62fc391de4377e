"""Command-line interface.

Subcommands: ``info``, ``hh``, ``center``, ``pi1-rank``, ``glue``,
``verify``, ``examples``, ``fuzz``.  Output is deterministic for fixed
input and flags; ``--json`` switches reports to one JSON object per line
with fields check/status/lhs/rhs/witness.  ``fuzz --json`` also marks each
failed row ``confirmed`` by the oracles or not, and ends with one summary
object.  Exit codes: 0 clean, 1 a fail report was produced (every fuzz
failure oracle-confirmed), 2 usage, parse or validation errors, 3 a fuzz
failure the oracles do not confirm.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat

from .algebra import MonomialAlgebra
from .checks import FUZZ_CHECKS, CHECKS, run_checks, run_fuzz
from .errors import QuiverHHError
from .examples_data import EXAMPLES, example_by_name
from .fileformat import parse, print_algebra
from .fundgroup import pi1_rank
from .gluing import glue
from .higher import hh_dims_high
from .quiver import betti, crown_order, is_sink_arrow, is_source_arrow, path_str
from .paircomplex import center_product, complex_data, hh1_lie


def _load(path: str) -> MonomialAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise QuiverHHError(f"{path}: not UTF-8 text (byte {err.start})") from None
    return parse(text)


def _arrow_id(A: MonomialAlgebra, name: str) -> int:
    if name not in A.quiver.arrow_index:
        raise QuiverHHError(f"no arrow named {name}")
    return A.quiver.arrow_index[name]


def cmd_info(args) -> int:
    A = _load(args.file)
    Q = A.quiver
    print(f"field: {A.field}")
    print(f"vertices: {Q.num_vertices}")
    print(f"arrows: {Q.num_arrows}")
    print(f"relations: {len(A.relations)}")
    print(f"dimension: {A.dim}")
    by_len: dict = {}
    for p in A.basis:
        by_len[p.length] = by_len.get(p.length, 0) + 1
    print("basis by length: " + ", ".join(f"{k}:{v}" for k, v in sorted(by_len.items())))
    print(f"components: {len(Q.components)}")
    print(f"betti: {betti(Q)}")
    print(f"radical square zero: {A.is_radical_square_zero()}")
    order = crown_order(Q)
    print(f"crown: {order if order is not None else 'no'}")
    sources = [Q.arrow_name(a) for a in range(Q.num_arrows) if is_source_arrow(Q, a)]
    sinks = [Q.arrow_name(a) for a in range(Q.num_arrows) if is_sink_arrow(Q, a)]
    nodes = [Q.arrow_name(a) for a in range(Q.num_arrows) if A.is_node_arrow(a)]
    print(f"source arrows: {', '.join(sources) if sources else '-'}")
    print(f"sink arrows: {', '.join(sinks) if sinks else '-'}")
    print(f"node arrows: {', '.join(nodes) if nodes else '-'}")
    return 0


def _parse_degrees(spec: str):
    lo, sep, hi = spec.partition("..")
    try:
        degrees = (int(lo), int(hi) if sep else int(lo))
    except ValueError:
        degrees = None
    if degrees is None or not 0 <= degrees[0] <= degrees[1]:
        raise QuiverHHError(f"--degrees expects N or N..M with 0 <= N <= M, got {spec!r}")
    if degrees[1] > sys.maxsize:
        raise QuiverHHError(f"--degrees: degree {degrees[1]} is larger than {sys.maxsize}")
    return degrees


def cmd_hh(args) -> int:
    lo, hi = _parse_degrees(args.degrees)
    A = _load(args.file)
    C = complex_data(A)
    try:
        high = hh_dims_high(A, max(lo, 2))
    except QuiverHHError as err:
        high = repeat(f"unsupported ({err})")
    for n in range(lo, hi + 1):
        if n == 0:
            print(f"HH^0: {C.hh0.dim}")
        elif n == 1:
            print(f"HH^1: {C.hh1_view.dim}")
        else:
            dim = next(high)
            try:
                print(f"HH^{n}: {dim}")
            except ValueError:  # more digits than Python converts to a string
                raise QuiverHHError(f"--degrees: dim HH^{n} has too many digits to print") from None
    if args.lie and C.hh1_view.dim:
        pres = hh1_lie(A)
        print("HH^1 basis: " + "; ".join(pres.basis_labels))
        if pres.is_abelian():
            print("bracket: abelian")
        else:
            for (i, j), terms in sorted(pres.terms.items()):
                txt = " + ".join(f"{c}*x{k}" for k, c in terms.items())
                print(f"[x{i}, x{j}] = {txt}")
    return 0


def cmd_center(args) -> int:
    A = _load(args.file)
    table = center_product(A)
    print(f"dim Z: {table.dim}")
    for i, lab in enumerate(table.basis_labels):
        print(f"z{i}: pivot {lab}")
    print(f"unit coordinates: {tuple(str(c) for c in table.unit)}")
    for (i, j), coords in sorted(table.table.items()):
        if i <= j:
            txt = " + ".join(f"{c}*z{k}" for k, c in enumerate(coords) if c != 0)
            print(f"z{i} * z{j} = {txt if txt else '0'}")
    return 0


def cmd_pi1_rank(args) -> int:
    A = _load(args.file)
    print(pi1_rank(A))
    return 0


def cmd_glue(args) -> int:
    A = _load(args.file)
    g = glue(A, _arrow_id(A, args.alpha), _arrow_id(A, args.beta), args.name)
    text = print_algebra(g.B)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# dim: {A.dim} -> {g.B.dim}", file=sys.stderr)
    print(f"# source-sink: {g.source_sink}, same block: {g.same_block}", file=sys.stderr)
    new = ", ".join(path_str(g.B.quiver, p) for p in g.z_new)
    print(f"# new relations: {new if new else '-'}", file=sys.stderr)
    return 0


def _json_row(rep, **extra) -> None:
    """Print one report as a JSON line, with ``extra`` keys beside its own."""
    print(json.dumps({**rep.as_dict(), **extra}, sort_keys=True))


def _emit_reports(reports, as_json: bool) -> int:
    worst = 0
    for rep in reports:
        if as_json:
            _json_row(rep)
        else:
            extra = ""
            if rep.lhs is not None or rep.rhs is not None:
                extra = f"  lhs={rep.lhs} rhs={rep.rhs}"
            if rep.witness is not None:
                extra += f"  witness={rep.witness}"
            if rep.reason:
                extra += f"  ({rep.reason})"
            print(f"{rep.check:24s} {rep.status}{extra}")
        if rep.failed:
            worst = 1
    return worst


def _check_names(spec: str) -> tuple:
    """The names of a ``--checks`` comma list, each a known check listed once."""
    names = tuple(c.strip() for c in spec.split(","))
    for i, name in enumerate(names):
        if not name:
            raise QuiverHHError(f"--checks: empty entry in {spec!r}")
        if name not in CHECKS:
            raise QuiverHHError(f"--checks: unknown check {name!r}")
        if name in names[:i]:
            raise QuiverHHError(f"--checks: check {name!r} is listed twice")
    return names


def cmd_verify(args) -> int:
    names = None if args.checks == "all" else _check_names(args.checks)
    A = _load(args.file)
    g = glue(A, _arrow_id(A, args.alpha), _arrow_id(A, args.beta))
    reports = run_checks(g, names)
    return _emit_reports(reports, args.json)


def cmd_examples(args) -> int:
    if args.show is not None and args.run:
        raise QuiverHHError("--show cannot be combined with --run")
    if args.json and not args.run:
        raise QuiverHHError("--json applies only to --run")
    if args.show is not None:
        try:
            entry = example_by_name(args.show)
        except KeyError:
            raise QuiverHHError(f"--show: no example named {args.show!r}") from None
        sys.stdout.write(entry.text)
        return 0
    if not args.run:
        for e in EXAMPLES:
            print(f"{e.name:18s} {e.title}")
        return 0
    worst = 0
    for e in EXAMPLES:
        A = parse(e.text)
        g = glue(A, _arrow_id(A, "alpha"), _arrow_id(A, "beta"))
        reports = run_checks(g)
        mismatches = []
        for rep in reports:
            expected = e.expect_status.get(rep.check, ("pass", "not-applicable"))
            if rep.status not in expected:
                mismatches.append(rep)
        verdict = "ok" if not mismatches else "UNEXPECTED"
        if mismatches:
            worst = 1
        print(f"{e.name:18s} {verdict}")
        if args.json:
            for rep in reports:
                _json_row(rep, example=e.name)
        for rep in mismatches:
            print(f"  {rep.check}: got {rep.status} ({rep.reason or rep.lhs})")
    return worst


def cmd_fuzz(args) -> int:
    if args.json and args.repro:
        raise QuiverHHError("--repro cannot be combined with --json")
    if args.count < 0:
        raise QuiverHHError(f"--count expects a non-negative integer, got {args.count}")
    named = {"default": FUZZ_CHECKS, "all": tuple(CHECKS)}
    checks = named[args.checks] if args.checks in named else _check_names(args.checks)
    reports, failures = run_fuzz(args.seed, args.count, checks)
    confirmations = {(inst_seed, rep.check): c for inst_seed, rep, c in failures}
    statuses: dict = {}
    for _, reps in reports:
        for rep in reps:
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
    if args.json:
        for inst_seed, reps in reports:
            for rep in reps:
                extra = {"confirmed": confirmations[(inst_seed, rep.check)]} if rep.failed else {}
                _json_row(rep, seed=inst_seed, **extra)
        n_confirmed = sum(confirmations.values())
        summary = {
            "instances": args.count,
            "fails": len(failures),
            "confirmed": n_confirmed,
            "unconfirmed": len(failures) - n_confirmed,
        }
        print(json.dumps({"summary": summary}))
    else:
        print(f"instances: {args.count}")
        for k in sorted(statuses):
            print(f"{k}: {statuses[k]}")
        for inst_seed, rep, confirmed in failures:
            tag = "confirmed counterexample" if confirmed else "UNCONFIRMED"
            print(f"fail @ seed {inst_seed}: {rep.check} lhs={rep.lhs} rhs={rep.rhs} [{tag}]")
            if args.repro:
                sys.stdout.write(rep.repro)
    if not all(confirmations.values()):
        return 3
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, led by the subcommand's name."""

    def error(self, message):
        cmd = self.prog.partition(" ")[2]
        self.exit(2, f"error: {cmd + ': ' if cmd else ''}{message}\n")


def main(argv=None) -> int:
    ap = _Parser(
        prog="quiverhh",
        description="Exact cohomology invariants of monomial quiver algebras and arrow gluings",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("info", help="summarize an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("hh", help="cohomology dimensions")
    p.add_argument("file")
    p.add_argument("--degrees", default="0..1", help="N or N..M (default 0..1)")
    p.add_argument("--lie", action="store_true", help="print degree-one structure constants")
    p.set_defaults(fn=cmd_hh)

    p = sub.add_parser("center", help="center dimension and multiplication table")
    p.add_argument("file")
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("pi1-rank", help="first Betti number rank of the character group")
    p.add_argument("file")
    p.set_defaults(fn=cmd_pi1_rank)

    p = sub.add_parser("glue", help="glue two arrows and print the resulting algebra")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--out")
    p.add_argument("--name", default="gamma*", help="name for the merged arrow")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("verify", help="run comparison checks for a gluing")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--checks", default="all", help=f"comma list from: {', '.join(CHECKS)}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("examples", help="list, show or run the built-in examples")
    p.add_argument("--run", action="store_true")
    p.add_argument("--show", metavar="NAME")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("fuzz", help="random instances through the comparison checks")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--checks",
        default="default",
        help=f"'default' ({', '.join(FUZZ_CHECKS)}), 'all', or a comma list from: "
        f"{', '.join(CHECKS)}",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--repro", action="store_true", help="print reproduction files for failures (text output only)"
    )
    p.set_defaults(fn=cmd_fuzz)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (QuiverHHError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
