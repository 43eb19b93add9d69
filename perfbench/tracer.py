"""Span tracer that wraps batchdesign's public functions from outside the package.

The tracer replaces every binding of a traced function in the loaded
``batchdesign`` modules (``solvers`` imports ``project_capped_simplex`` and
friends by name, so patching only their home module would miss the inner
loop) and the traced ``AtomSet`` methods on the class.  Spans are kept in
memory and written out by the caller; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    job: str | None
    extra: dict | None = None


def _weighted_sum_bytes(args, kwargs, result):
    atoms, w = args[0], args[1]
    n_atoms = len(atoms)
    # mirrors AtomSet.weighted_sum: sparse weights reduce over their support only
    nnz = int((w != 0).sum())
    rows = nnz if nnz < 0.5 * n_atoms else n_atoms
    return {"bytes": rows * atoms.data[0].nbytes}


def _quad_forms_bytes(args, kwargs, result):
    return {"bytes": args[0].data.nbytes}


def _solve_counts(args, kwargs, result):
    return {"boost": int(result.iterations["boost"]), "outer": int(result.iterations["refine"]),
            "inner": int(result.inner_iterations)}


def _file_bytes(args, kwargs, result):
    return {"file_bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (module, attribute, span name, extra-recorder).  _greedy_linear_max is the
# one private name: the roadmap names the steepest-gradient sort as a layer.
TARGETS = (
    ("atoms", "AtomSet.weighted_sum", "atoms.weighted_sum", _weighted_sum_bytes),
    ("atoms", "AtomSet.quad_forms", "atoms.quad_forms", _quad_forms_bytes),
    ("criteria", "info_state_from_m", "criteria.info_state_from_m", None),
    ("criteria", "phi_p_scores", "criteria.phi_p_scores", None),
    ("measures", "_greedy_linear_max", "measures.greedy_linear_max", None),
    ("measures", "project_capped_simplex", "measures.project_capped_simplex", None),
    ("measures", "psg_measure", "measures.psg_measure", None),
    ("measures", "round_to_sample", "measures.round_to_sample", None),
    ("solvers", "solve_hybrid", "solvers.solve_hybrid", _solve_counts),
    ("solvers", "efficiency_bounds", "solvers.efficiency_bounds", None),
    ("models", "cumlink_atoms", "models.cumlink_atoms", None),
    ("models", "logistic_atoms", "models.logistic_atoms", None),
    ("fitting", "fit_logistic", "fitting.fit_logistic", None),
    ("pipeline", "two_stage_select", "pipeline.two_stage_select", None),
    ("pipeline", "bootstrap_evaluate", "pipeline.bootstrap_evaluate", None),
    ("data_io", "read_dataset", "data_io.read_dataset", _file_bytes),
    ("data_io", "write_weights_csv", "data_io.write_weights_csv", None),
    ("reports", "make_report", "reports.make_report", None),
    ("reports", "write_report", "reports.write_report", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records one span per call of each traced function.

    A span's parent is the innermost open span of the same thread.  A span
    opened on a thread with no open span (a worker of bootstrap_evaluate's
    thread pool) takes the innermost open span of the thread that created
    the tracer, which is the call that started the pool.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.job: str | None = None
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, extra=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            self.spans.append(Span(sid, name, start, time.perf_counter(), parent,
                                   self.workload, self.job))
            raise
        end = time.perf_counter()
        stack.pop()
        info = extra(args, kwargs, result) if extra is not None else None
        self.spans.append(Span(sid, name, start, end, parent, self.workload, self.job, info))
        return result

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)
        return traced

    def install(self, also=()) -> None:
        """Patch every binding of each target in the loaded batchdesign modules.

        ``also`` lists further modules that imported targets by name, such as
        the benchmark's own.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "batchdesign" or n.startswith("batchdesign."))]
        loaded += list(also)
        for module, attr, name, extra in TARGETS:
            home = sys.modules.get(f"batchdesign.{module}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, extra))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, extra)
            for mod in loaded:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapped)

    def restore(self) -> None:
        """Put back every original function; safe to call twice."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def adopt(self, spans: list[Span], job: str) -> None:
        """Add spans a child process recorded, under the innermost open span.

        Their ids are shifted past every id this tracer hands out.
        """
        offset = next(self._ids) * 10**9
        parent = self._home[-1] if self._home else None
        for s in spans:
            s.id += offset
            s.parent = parent if s.parent is None else s.parent + offset
            s.workload, s.job = self.workload, job
            self.spans.append(s)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def load_spans(path) -> list[Span]:
    """Read spans written by Tracer.dump."""
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh]


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children on other threads can overlap each other; their union is what
    counts as covered.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed extras."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += selfs[s.id]
        for key, value in (s.extra or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called name that have a span called ancestor above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count
