"""Spans and counters recorded around phardy's layer entry points.

The tracer replaces a public function with a timing wrapper in the module
namespace where its callers look it up (``cli.random_test_functions``,
``functionals.sides_for``, ...), so phardy itself is not edited.  Each
call becomes a span with a name, start, end and parent; an observer turns
the call's result into counters and a per-call record that keeps the
numerical answer beside its time.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "weights.check_s": "s",
    "weights.check_calls": "count",
    "weights.bumps": "count",
    "weights.us_per_bump": "us",
    "testfunctions.gen_s": "s",
    "testfunctions.funcs": "count",
    "functionals.sides_s": "s",
    "functionals.sides_calls": "count",
    "functionals.us_per_side": "us",
    "optimize.p2_s": "s",
    "optimize.p2_solves": "count",
    "optimize.p2_iters": "count",
    "optimize.p2_ns_per_node_iter": "ns",
    "optimize.genp_s": "s",
    "optimize.genp_iters": "count",
    "optimize.genp_converged": "share",
    "optimize.genp_max_iter_hits": "count",
    "eigen.solve_s": "s",
    "eigen.iters": "count",
    "eigen.residual_max": "1",
    "capacity.classify_s": "s",
    "capacity.capacity_calls": "count",
    "cli.emit_s": "s",
    "cli.self_s": "s",
}

# layer time metrics whose share of a traced pass is reported
SHARE_OF = {
    "weights": ("weights.check_s",),
    "margins": ("testfunctions.gen_s", "functionals.sides_s"),
    "optimize.p2": ("optimize.p2_s",),
    "optimize.genp": ("optimize.genp_s",),
    "eigen": ("eigen.solve_s",),
    "capacity": ("capacity.classify_s",),
    "cli.emit": ("cli.emit_s",),
    "cli.self": ("cli.self_s",),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the pass's span list, -1 for a root

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, counters and per-call records of one pass at a time."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.calls: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, module, attr: str, name: str, observe=None):
        """Time every call of ``module.attr`` as a span called ``name``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            self.counts[name] += 1
            if observe is not None:
                record = observe(self.counts, args, kwargs, result)
                if record is not None:
                    self.calls.append({"span": name, "seconds": sp.seconds, **record})
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    @contextmanager
    def installed(self):
        """Wrap phardy's layer entry points for the duration of the block."""
        install_layers(self)
        try:
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    def span_records(self) -> list[dict]:
        """The pass's spans, each with its self time: its duration minus
        that of its children."""
        children = _child_seconds(self.spans)
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": s.seconds - children[i]}
            for i, s in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# observers: counters and per-call records from each layer's return value

def _observe_check(counts, args, kwargs, res):
    counts["weights.bumps"] += res.n_bumps
    return {"weight": getattr(args[0], "name", "samples"), "n": args[1].n,
            "n_bumps": res.n_bumps, "worst_value": res.worst_value, "passed": res.passed}


def _observe_funcs(counts, args, kwargs, funcs):
    counts["testfunctions.funcs"] += len(funcs)


def _observe_p2(counts, args, kwargs, res):
    n = args[1].n
    counts["optimize.p2_iters"] += res.iterations
    counts["optimize.p2_node_iters"] += n * res.iterations
    return {"case": args[0].case_id, "n": n, "quotient": res.quotient,
            "iterations": res.iterations, "converged": res.converged}


def _observe_genp(counts, args, kwargs, res):
    max_iter = kwargs.get("max_iter", 100000)
    counts["optimize.genp_iters"] += res.iterations
    counts["optimize.genp_converged"] += bool(res.converged)
    counts["optimize.genp_max_iter_hits"] += res.iterations >= max_iter
    return {"case": args[0].case_id, "n": args[1].n, "quotient": res.quotient,
            "iterations": res.iterations, "converged": res.converged}


def _observe_eigen(counts, args, kwargs, pair):
    counts["eigen.iters"] += pair.iterations
    counts["eigen.residual_max"] = max(counts["eigen.residual_max"], pair.residual)
    return {"p": pair.p, "n": pair.phi1.grid.n, "lambda1": pair.lambda1,
            "residual": pair.residual, "iterations": pair.iterations}


def _observe_classify(counts, args, kwargs, cls):
    return {"model": f"{args[0].kind}{args[0].dim}", "p": args[1],
            "classification": cls.classification}


def install_layers(tracer: Tracer):
    from phardy import capacity, cli, eigen, functionals, optimize

    tracer.wrap(cli, "run_suite", "cli.run_suite")
    tracer.wrap(cli, "report_json", "cli.emit")
    tracer.wrap(cli, "emit_tables", "cli.emit")
    tracer.wrap(cli, "random_test_functions", "testfunctions.gen", _observe_funcs)
    tracer.wrap(functionals, "weak_superharmonicity_check", "weights.check", _observe_check)
    tracer.wrap(functionals, "sides_for", "functionals.sides")
    tracer.wrap(functionals, "divergence_lemma_sides", "functionals.sides")
    tracer.wrap(eigen, "poincare_eigen_check", "functionals.sides")
    tracer.wrap(eigen, "distance_hardy_composite", "functionals.sides")
    tracer.wrap(optimize, "minimize_quotient_p2", "optimize.p2", _observe_p2)
    tracer.wrap(optimize, "minimize_quotient_general_p", "optimize.genp", _observe_genp)
    tracer.wrap(eigen, "first_eigenpair", "eigen.solve", _observe_eigen)
    tracer.wrap(capacity, "classify_parabolicity", "capacity.classify", _observe_classify)
    tracer.wrap(capacity, "radial_capacity", "capacity.capacity")


# ---------------------------------------------------------------------------
# per-pass metrics

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _child_seconds(spans: list[Span]) -> Counter:
    """Span index -> summed duration of its direct children."""
    children = Counter()
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.seconds
    return children


def pass_metrics(spans: list[Span], counts: Counter) -> dict:
    """Layer metrics of one traced pass."""
    busy = Counter()
    for s in spans:
        busy[s.name] += s.seconds
    children = _child_seconds(spans)
    cli_self = sum(
        s.seconds - children[i] for i, s in enumerate(spans) if s.name == "cli.run_suite"
    )
    genp = counts["optimize.genp"]
    return {
        "weights.check_s": busy["weights.check"],
        "weights.check_calls": counts["weights.check"],
        "weights.bumps": counts["weights.bumps"],
        "weights.us_per_bump": _ratio(busy["weights.check"], counts["weights.bumps"], 1e6),
        "testfunctions.gen_s": busy["testfunctions.gen"],
        "testfunctions.funcs": counts["testfunctions.funcs"],
        "functionals.sides_s": busy["functionals.sides"],
        "functionals.sides_calls": counts["functionals.sides"],
        "functionals.us_per_side": _ratio(
            busy["functionals.sides"], counts["functionals.sides"], 1e6
        ),
        "optimize.p2_s": busy["optimize.p2"],
        "optimize.p2_solves": counts["optimize.p2"],
        "optimize.p2_iters": counts["optimize.p2_iters"],
        "optimize.p2_ns_per_node_iter": _ratio(
            busy["optimize.p2"], counts["optimize.p2_node_iters"], 1e9
        ),
        "optimize.genp_s": busy["optimize.genp"],
        "optimize.genp_iters": counts["optimize.genp_iters"],
        "optimize.genp_converged": _ratio(counts["optimize.genp_converged"], genp),
        "optimize.genp_max_iter_hits": counts["optimize.genp_max_iter_hits"],
        "eigen.solve_s": busy["eigen.solve"],
        "eigen.iters": counts["eigen.iters"],
        "eigen.residual_max": counts["eigen.residual_max"],
        "capacity.classify_s": busy["capacity.classify"],
        "capacity.capacity_calls": counts["capacity.capacity"],
        "cli.emit_s": busy["cli.emit"],
        "cli.self_s": cli_self,
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def shares(metrics: dict, wall: float) -> dict:
    """Each layer's share of the traced pass wall time."""
    return {
        layer: sum(metrics[k] for k in keys) / wall for layer, keys in SHARE_OF.items()
    }
