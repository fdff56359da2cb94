"""Spans around calls into condgrad's modules, recorded from outside.

install() replaces module and class attributes with wrappers that record a
span (name, start, end, parent) per call and puts the originals back on
exit, so the library code is unchanged and untraced solves pay nothing.
Spans stay in memory; write_spans() writes them out once the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import defaultdict

from condgrad import core, eigen, matcomp, sdpfeas, solver
from condgrad.domains import matrices, vectors

# (owner, attribute, span name).  Order matters: an attribute that re-exports
# an already wrapped function (sdpfeas.fw_run is solver.fw_run) wraps the
# traced version, so its span nests around the inner one.
PATCHES = [
    (solver, "fw_run", "solver.fw_run"),
    (core.IterateLedger, "step", "core.ledger_step"),
    (core.RunTrace, "append", "core.trace_append"),
    (vectors.SimplexDomain, "lmo", "vectors.lmo"),
    (matrices, "spect_lmo", "matrices.spect_lmo"),
    (matrices, "hazan_run", "matrices.hazan_run"),
    (eigen, "approx_largest_ev", "eigen.solve"),
    (eigen.SymmetricOperator, "__call__", "eigen.matvec"),
    (eigen.SymmetricOperator, "from_dense", "eigen.from_dense"),
    (matcomp.PredictionStore, "update", "matcomp.store_update"),
    (matcomp, "closed_form_alpha", "matcomp.line_search"),
    (matcomp, "metrics", "matcomp.metrics"),
    (matcomp, "complete", "matcomp.complete"),
    (matcomp, "extract_factorization", "transforms.extract_factorization"),
    (sdpfeas, "softmax_eval_grad", "sdpfeas.softmax"),
    (sdpfeas, "curvature_estimate", "sdpfeas.curvature"),
    (sdpfeas, "fw_run", "sdpfeas.phase_feasible"),
    (sdpfeas, "gap_certified_run", "sdpfeas.phase_certify"),
]

ROOT = "solve"


class Tracer:
    """Span recorder.  spans[i] = [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def reset(self):
        spans = self.spans
        self.spans = []
        self._stack.clear()
        return spans


@contextlib.contextmanager
def install(tracer, extra=()):
    """Trace every PATCHES entry plus `extra` (owner, attribute, name)
    triples, e.g. the callables of an oracle the benchmark built."""
    saved = []
    traced_of = {}
    try:
        for owner, attr, name in list(PATCHES) + list(extra):
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = tracer.wrap(name, traced_of.get(fn, fn))
            traced_of[fn] = wrapped
            saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict:
    """name -> {"calls", "s" (inclusive), "self_s"} over one solve's spans."""
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += own
    return out


def per_layer(spans, summary) -> dict:
    """The per-layer metrics of one traced solve (see BENCHMARK.json)."""
    tot = layer_totals(spans)
    g = lambda name, key: tot[name][key] if name in tot else 0
    fw_ids = {i for i, s in enumerate(spans) if s[0] == "solver.fw_run"}
    solves = g("eigen.solve", "calls")
    root = g(ROOT, "s")
    unattributed = g(ROOT, "self_s")
    return {
        "solver.fw_run.self_s": g("solver.fw_run", "self_s"),
        "solver.iters": sum(1 for s in spans
                            if s[0] == "core.trace_append" and s[3] in fw_ids),
        "core.ledger_step.calls": g("core.ledger_step", "calls"),
        "core.ledger_step.s": g("core.ledger_step", "s"),
        "core.ledger_atom_bytes": summary.get("ledger_atom_bytes", 0),
        "core.trace_append.s": g("core.trace_append", "s"),
        "objectives.eval.calls": g("objectives.eval", "calls"),
        "objectives.eval.s": g("objectives.eval", "s"),
        "objectives.grad.calls": g("objectives.grad", "calls"),
        "objectives.grad.s": g("objectives.grad", "s"),
        "vectors.lmo.calls": g("vectors.lmo", "calls"),
        "vectors.lmo.s": g("vectors.lmo", "s"),
        "matrices.spect_lmo.calls": g("matrices.spect_lmo", "calls"),
        "matrices.spect_lmo.self_s": g("matrices.spect_lmo", "self_s"),
        "matrices.hazan_run.self_s": g("matrices.hazan_run", "self_s"),
        "eigen.solve.calls": solves,
        "eigen.solve.self_s": g("eigen.solve", "self_s"),
        "eigen.matvec.calls": g("eigen.matvec", "calls"),
        "eigen.matvec.s": g("eigen.matvec", "s"),
        "eigen.matvecs_per_solve": g("eigen.matvec", "calls") / solves if solves else 0.0,
        "eigen.from_dense.calls": g("eigen.from_dense", "calls"),
        "eigen.from_dense.s": g("eigen.from_dense", "s"),
        "matcomp.store_update.s": g("matcomp.store_update", "s"),
        "matcomp.line_search.s": g("matcomp.line_search", "s"),
        "matcomp.metrics.s": g("matcomp.metrics", "s"),
        "matcomp.complete.self_s": g("matcomp.complete", "self_s"),
        "sdpfeas.softmax.calls": g("sdpfeas.softmax", "calls"),
        "sdpfeas.softmax.s": g("sdpfeas.softmax", "s"),
        "sdpfeas.curvature.s": g("sdpfeas.curvature", "s"),
        "sdpfeas.phase_feasible.s": g("sdpfeas.phase_feasible", "s"),
        "sdpfeas.phase_certify.s": g("sdpfeas.phase_certify", "s"),
        "sdpfeas.matvecs_reported": summary.get("matvecs_reported", 0),
        "transforms.extract_factorization.s": g("transforms.extract_factorization", "s"),
        "trace.spans": len(spans),
        "trace.solve_s": root,
        "trace.attributed_s": root - unattributed,
        "trace.unattributed_s": unattributed,
        "answer.cert_gap": summary.get("cert_gap", 0.0),
        "answer.rmse_test": summary.get("rmse_test", 0.0),
        "answer.f_lower": summary.get("f_lower", 0.0),
    }


def write_spans(path, spans):
    """One `name,start,end,parent` line per span, gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start!r},{end!r},{parent}\n")
