"""Workload inputs, timed passes and canonical outputs for the quiverhh benchmark.

The benchmark hands the program only algebra-file text and arrow names.  Each
timed pass re-parses that text after clearing the pair-complex cache, as a
command-line user pays for every run.  A pass returns its raw results; the
canonical text and the correctness verdict are derived after the clock stops.
Between items, outside the timed work, a pass samples the machine's speed
(``speed.py``) so that each item's time can be given in reference seconds.

Canonical output comes in two forms.  ``full`` is every reported byte for the
default seed, whose sha256 is recorded in ``expected.json``.  ``invariants``
keeps only what an isomorphic relabelling of the input preserves (check
statuses, dimensions, verdicts), so its sha256 is the same for every seed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from speed import SAMPLE_EVERY_S, Speedometer

DEFAULT_SEED = 20260809
FUZZ_COUNT = 1000
FUZZ_MAX_DIM = 32
VERIFY_FAN = 6
LIE_FAN = (12, 5)
JACOBI_FAN = (4, 5)

MODULES = (
    "algebra", "checks", "examples_data", "fields", "fileformat", "fundgroup",
    "gluing", "higher", "linalg", "oracles", "paircomplex", "randomgen",
)


def load_program() -> SimpleNamespace:
    """Import quiverhh afresh (dropping any earlier import) and return its modules."""
    for key in [k for k in sys.modules if k == "quiverhh" or k.startswith("quiverhh.")]:
        del sys.modules[key]
    importlib.import_module("quiverhh")
    prog = SimpleNamespace(**{m: importlib.import_module(f"quiverhh.{m}") for m in MODULES})
    # held before any tracer rebinds the name, for cache_clear / cache_info
    prog.complex_cache = prog.paircomplex.complex_data
    return prog


def relabel(text: str, rng: random.Random) -> str:
    """Shuffle vertex, arrow and relation declarations: an isomorphic algebra."""
    lines = text.splitlines()
    out = [ln for ln in lines if ln.startswith("field ")]
    for head in ("vertex ", "arrow ", "rel "):
        group = [ln for ln in lines if ln.startswith(head)]
        rng.shuffle(group)
        out += group
    return "\n".join(out) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Canonical:
    full: list  # one line per reported row
    invariants: list
    ops: int  # operations attempted: check runs, or Lie computations
    errors: int  # raised, or failed without oracle confirmation
    summary: dict = field(default_factory=dict)

    @property
    def digests(self) -> tuple:
        return sha256("\n".join(self.full)), sha256("\n".join(self.invariants))


@dataclass
class PassResult:
    wall: float  # seconds of timed work, speed samples excluded
    instance_times: list  # seconds per instance, in input order
    instance_scales: list  # reference seconds per second, per instance
    raw: list  # workload-specific results, consumed by canonical()
    complex_misses: int  # pair complexes built during the pass
    check_seconds: dict = field(default_factory=dict)  # CheckReport.elapsed sums

    @property
    def ref_instance_times(self) -> list:
        return [t * s for t, s in zip(self.instance_times, self.instance_scales)]

    @property
    def ref_wall(self) -> float:
        """The pass's timed work in reference seconds (see speed.py)."""
        return sum(self.ref_instance_times)


def _timed_pass(prog, items, run_one, speed: Speedometer) -> PassResult:
    """Time ``run_one`` on each item, with a speed sample every SAMPLE_EVERY_S."""
    prog.complex_cache.cache_clear()
    gc.collect()
    times, scales, raw = [], [], []
    clock = time.perf_counter
    before = speed.sample()
    since = 0.0  # timed work since the last speed sample
    sampling = 0.0
    start = clock()
    for n, item in enumerate(items, 1):
        t0 = clock()
        raw.append(run_one(item))
        dt = clock() - t0
        times.append(dt)
        since += dt
        if since >= SAMPLE_EVERY_S or n == len(items):
            t1 = clock()
            after = speed.sample()
            sampling += clock() - t1
            # the items timed since the last sample share this bracket's scale
            scales += [speed.scale(before, after)] * (len(times) - len(scales))
            before, since = after, 0.0
    wall = clock() - start - sampling
    return PassResult(wall, times, scales, raw, prog.complex_cache.cache_info().misses)


def _sum_check_seconds(result: PassResult, reports_of):
    sums: dict = {}
    for entry in result.raw:
        for rep in reports_of(entry):
            sums[rep.check] = sums.get(rep.check, 0.0) + rep.elapsed
    result.check_seconds = sums


def _arrow_ids(A, alpha: str, beta: str):
    index = A.quiver.arrow_index
    return index[alpha], index[beta]


# -- fuzz ----------------------------------------------------------------------


class Fuzz:
    """Random gluings through the fuzz checks, failures confirmed by oracles."""

    name = "fuzz"
    per_instance_latency = True  # each random gluing is an instance

    def __init__(self, count: int = FUZZ_COUNT):
        self.count = count

    def make_inputs(self, prog, seed: int) -> list:
        fields = (prog.fields.QQ, prog.fields.GF(2), prog.fields.GF(3), prog.fields.GF(5))
        items = []
        for i in range(self.count):
            inst_seed = DEFAULT_SEED + i
            spec = prog.randomgen.RandomSpec(
                seed=inst_seed, field=fields[i % len(fields)], max_dim=FUZZ_MAX_DIM
            )
            A, gs = prog.randomgen.instance_with_gluing(spec)
            text = prog.fileformat.print_algebra(A)
            if seed != DEFAULT_SEED:
                text = relabel(text, random.Random(f"{seed}/{i}"))
            names = (A.quiver.arrow_name(gs.alpha), A.quiver.arrow_name(gs.beta))
            items.append((inst_seed, text) + names)
        return items

    def run_pass(self, prog, items, speed: Speedometer) -> PassResult:
        parse, glue = prog.fileformat, prog.gluing
        checks = prog.checks
        names = checks.FUZZ_CHECKS

        def run_one(item):
            inst_seed, text, alpha, beta = item
            A = parse.parse(text)
            g = glue.glue(A, *_arrow_ids(A, alpha, beta))
            reports = checks.run_checks(g, names)
            confirmed = [checks.confirm_failure(g, r) if r.failed else None for r in reports]
            return inst_seed, reports, confirmed

        result = _timed_pass(prog, items, run_one, speed)
        _sum_check_seconds(result, lambda entry: entry[1])
        return result

    def canonical(self, result: PassResult):
        full, inv = [], []
        errors = 0
        fails = fail_instances = raised = 0
        for inst_seed, reports, confirmed in result.raw:
            failed_here = False
            for rep, conf in zip(reports, confirmed):
                obj = rep.as_dict()
                obj["seed"] = inst_seed
                if rep.failed:
                    obj["confirmed"] = conf
                    fails += 1
                    failed_here = True
                full.append(json.dumps(obj, sort_keys=True))
                inv.append(json.dumps(
                    [inst_seed, rep.check, rep.status, obj["lhs"], obj["rhs"], conf]
                ))
                if rep.reason.startswith("checker raised"):
                    raised += 1
                    errors += 1
                elif rep.failed and not conf:
                    errors += 1
            fail_instances += failed_here
        summary = {"fails": fails, "fail_instances": fail_instances, "raised": raised}
        return Canonical(full, inv, len(full), errors, summary)


# -- verify-fan ------------------------------------------------------------------


class VerifyFan:
    """All checks on one large source-sink gluing over Q, no oracles."""

    name = "verify-fan"
    per_instance_latency = False  # the whole pass is the one instance

    def make_inputs(self, prog, seed: int) -> list:
        text = prog.examples_data.fan(VERIFY_FAN)
        if seed != DEFAULT_SEED:
            text = relabel(text, random.Random(seed))
        return [(text, "alpha", "beta")]

    def run_pass(self, prog, items, speed: Speedometer) -> PassResult:
        parse, glue, checks = prog.fileformat, prog.gluing, prog.checks

        def run_one(item):
            text, alpha, beta = item
            A = parse.parse(text)
            g = glue.glue(A, *_arrow_ids(A, alpha, beta))
            return checks.run_checks(g)

        result = _timed_pass(prog, items, run_one, speed)
        _sum_check_seconds(result, lambda reports: reports)
        return result

    def canonical(self, result: PassResult):
        full, inv = [], []
        errors = 0
        for reports in result.raw:
            for rep in reports:
                full.append(json.dumps(rep.as_dict(), sort_keys=True))
                dims = [x if isinstance(x, int) else None for x in (rep.lhs, rep.rhs)]
                inv.append(json.dumps([rep.check, rep.status] + dims))
                errors += rep.failed  # no oracle runs here: every fail is unconfirmed
        return Canonical(full, inv, len(full), errors)


# -- lie-fp ------------------------------------------------------------------------


class LieFp:
    """HH^1 Lie structure and its center over F_p, plus the Jacobi loop."""

    name = "lie-fp"
    per_instance_latency = False

    def make_inputs(self, prog, seed: int) -> list:
        texts = [prog.examples_data.fan(*LIE_FAN), prog.examples_data.fan(*JACOBI_FAN)]
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            texts = [relabel(t, rng) for t in texts]
        return [("center", texts[0]), ("jacobi", texts[1])]

    def run_pass(self, prog, items, speed: Speedometer) -> PassResult:
        parse, pc = prog.fileformat, prog.paircomplex

        def run_one(item):
            kind, text = item
            pres = pc.hh1_lie(parse.parse(text))
            if kind == "center":
                return kind, pres, pc.lie_center_dim(pres)
            return kind, pres, pres.check_jacobi()

        return _timed_pass(prog, items, run_one, speed)

    def canonical(self, result: PassResult):
        full, inv = [], []
        for kind, pres, verdict in result.raw:
            constants = {
                f"{i},{j}": [[k, str(c)] for k, c in enumerate(coords) if c]
                for (i, j), coords in sorted(pres.constants.items())
            }
            full.append(json.dumps(
                {"kind": kind, "dim": pres.dim, "labels": list(pres.basis_labels),
                 "constants": constants, "verdict": verdict},
                sort_keys=True,
            ))
            inv.append(json.dumps([kind, pres.dim, verdict]))
        return Canonical(full, inv, len(full), 0)


WORKLOADS = {w.name: w for w in (Fuzz(), VerifyFan(), LieFp())}
