"""Out-of-program tracer for quiverhh: spans around the package's entry points.

The tracer replaces each entry point listed in ``ENTRY_POINTS`` by a wrapper
that records one span (id, parent id, name, start, end) per call.  A function
is rebound in every ``quiverhh`` module that imported it by name, because a
module that did ``from .linalg import kernel`` holds its own reference; a
method is replaced on its class.  ``install`` checks afterwards that no module
still holds an unwrapped original, so a missed binding cannot silently hide
time from a layer.

Spans are kept in memory in a flat integer array and reduced to per-layer
calls and self time (duration minus the time covered by child spans) when a
pass ends.  Nothing is written out and the program's own code is unchanged.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

# (module, qualified name) of every wrapped entry point.
ENTRY_POINTS = (
    ("fileformat", "parse"),
    ("algebra", "build"),
    ("algebra", "MonomialAlgebra.multiply"),
    ("gluing", "glue"),
    ("gluing", "special_paths"),
    ("gluing", "special_pairs"),
    ("gluing", "nsp_data"),
    ("gluing", "assumption_holds"),
    ("paircomplex", "complex_data"),
    ("paircomplex", "PairComplex.bracket"),
    ("paircomplex", "hh1_lie"),
    ("paircomplex", "lie_center_dim"),
    ("paircomplex", "LieAlgebraPresentation.check_jacobi"),
    ("paircomplex", "center_product"),
    ("linalg", "span"),
    ("linalg", "kernel"),
    ("linalg", "intersect"),
    ("linalg", "solve_columns"),
    ("linalg", "reduce_against"),
    ("linalg", "QuotientView.project"),
    ("checks", "run_checks"),
    ("checks", "confirm_failure"),
    ("oracles", "oracle_hh1_dim"),
    ("oracles", "oracle_center"),
    ("higher", "hh_dim_high"),
    ("higher", "check_high_degree_gluing"),
    ("fundgroup", "pi1_rank"),
    ("fundgroup", "theta_class_rank"),
    ("fundgroup", "check_theta_diagram"),
)

SPAN_FIELDS = 5  # id, parent id, name index, start ns, end ns


def _nnz_dense(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _elim_span(args):
    basis, vectors = args[1], args[2]
    return len(vectors), len(basis), sum(len(v) for v in vectors)


def _elim_kernel(args):
    m = args[1]
    return len(m.codomain), len(m.domain), sum(len(c) for c in m.columns)


def _elim_intersect(args):
    s, t = args[1], args[2]
    # Zassenhaus stacks [S | S] over [T | 0]
    return s.dim + t.dim, 2 * len(s.basis), 2 * _nnz_dense(s.rows) + _nnz_dense(t.rows)


def _elim_solve_columns(args):
    width, columns, target = args[1], args[2], args[3]
    return width, len(columns) + 1, sum(len(c) for c in columns) + len(target)


# Shape (rows, cols, nonzeros) of the matrix each linalg entry point eliminates,
# computed from its arguments.
ELIMINATIONS = {
    "linalg.span": _elim_span,
    "linalg.kernel": _elim_kernel,
    "linalg.intersect": _elim_intersect,
    "linalg.solve_columns": _elim_solve_columns,
}

ORACLES = ("oracles.oracle_hh1_dim", "oracles.oracle_center")

PACKAGE = "quiverhh"


class Tracer:
    """Wraps the entry points of an imported ``quiverhh`` and records spans."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in ENTRY_POINTS]
        self._restore = []  # (owner, attribute, original)
        self._originals = set()  # ids of wrapped originals
        self._wrappers = set()  # ids of installed wrappers
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self):
        self._ids = itertools.count()
        self._stack = []
        self._spans = array("q")
        self.elim = [0, 0]  # cells (rows x cols) and nonzeros eliminated
        self.oracle_args = set()  # (oracle, algebra) pairs seen

    def _wrapper(self, name: str, fn):
        name_id = self.names.index(name)
        elim = ELIMINATIONS.get(name)
        is_oracle = name in ORACLES
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            if elim is not None:
                rows, cols, nnz = elim(args)
                tracer.elim[0] += rows * cols
                tracer.elim[1] += nnz
            if is_oracle:
                tracer.oracle_args.add((name_id, args[0]))
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._spans.extend((sid, parent, name_id, t0, t1))

        self._originals.add(id(fn))
        self._wrappers.add(id(wrapper))
        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self):
        """Wrap every entry point and rebind every by-name import of it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for (mod, qual), name in zip(ENTRY_POINTS, self.names):
            home = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(home, qual)
            wrapper = self._wrapper(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        self.verify()

    def verify(self):
        """Raise unless every binding of every entry point is its wrapper."""
        stale = []
        for m in self._modules():
            for attr, value in vars(m).items():
                if id(value) in self._originals:
                    stale.append(f"{m.__name__}.{attr}")
        for mod, qual in ENTRY_POINTS:
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            bound = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(bound) not in self._wrappers:
                stale.append(f"{mod}.{qual}")
        if stale:
            raise RuntimeError("unwrapped entry-point bindings: " + ", ".join(sorted(stale)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._originals.clear()
        self._wrappers.clear()

    # -- reduction -----------------------------------------------------------

    def layer_stats(self):
        """(calls, self ns, total ns) per entry point, and top-level ns."""
        spans = self._spans
        n = len(spans) // SPAN_FIELDS
        child = [0] * n
        for k in range(0, len(spans), SPAN_FIELDS):
            parent = spans[k + 1]
            if parent >= 0:
                child[parent] += spans[k + 4] - spans[k + 3]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        top_ns = 0
        for k in range(0, len(spans), SPAN_FIELDS):
            sid, parent, name_id, t0, t1 = spans[k:k + SPAN_FIELDS]
            dur = t1 - t0
            calls[name_id] += 1
            self_ns[name_id] += dur - child[sid]
            total_ns[name_id] += dur
            if parent < 0:
                top_ns += dur
        stats = {
            name: (calls[i], self_ns[i], total_ns[i]) for i, name in enumerate(self.names)
        }
        return stats, top_ns
