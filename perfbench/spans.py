"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from outside the package: each public smsec function is
replaced, at the module attribute its caller looks up, by a wrapper that
records name, start, end, parent span and instance id.  Nothing under
``src/`` is edited.  The benchmark is single-threaded, so a span's children
run one after another inside it and self time is the span's duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from time import perf_counter

# (per-layer metric, unit, which direction is better, the end-to-end metric and
# workload it should move).  Counts and times are per traced instance unless
# the last field says "per call".  On a workload that bypasses a layer, its
# metrics read 0 and should stay there.
LAYERS = (
    ("harness.instance.self_s", "s", "lower", "instance_p50_s on all workloads, little"),
    ("model.an_projector.busy_s", "s", "lower", "instance_p50_s on all workloads, near zero"),
    ("metrics.build_cache.calls", "count", "lower", "instances_per_s on wide"),
    ("metrics.build_cache.busy_s", "s", "lower", "instances_per_s on wide"),
    ("metrics.build_cache.bytes", "bytes", "lower",
     "peak_traced_mib on wide; computed from array nbytes, per call"),
    ("metrics.asr.calls", "count", "lower", "instances_per_s on wide"),
    ("metrics.asr.busy_s", "s", "lower", "instances_per_s on wide"),
    ("metrics.secrecy_rate_mc.calls", "count", "lower", "instances_per_s on wide and desk"),
    ("metrics.secrecy_rate_mc.busy_s", "s", "lower", "instances_per_s on wide and desk"),
    ("metrics.secrecy_rate_mc.pair_samples", "count", "lower",
     "instances_per_s on wide and desk; computed 2*n_samp*K^2"),
    ("optim.asr_gradient.calls", "count", "lower", "instances_per_s on wide"),
    ("optim.asr_gradient.busy_s", "s", "lower", "instances_per_s on wide"),
    ("optim.max_asr_gd.busy_s", "s", "lower", "instances_per_s on wide"),
    ("optim.max_asr_gd.iterations", "count", "lower", "instances_per_s on wide; per call"),
    ("optim.max_asr_gd.accept_ratio", "ratio", "higher", "instances_per_s on wide"),
    ("optim.max_sr_gd.busy_s", "s", "lower", "instances_per_s on mc and desk"),
    ("optim.max_sr_gd.iterations", "count", "lower", "instances_per_s on mc and desk; per call"),
    ("optim.max_sr_gd.s_per_iter", "s", "lower", "instances_per_s on mc and desk"),
    ("optim.max_asr_sca.busy_s", "s", "lower",
     "instances_per_s, instance_tail_s and sr_bits.optimized on desk"),
    ("optim.max_asr_sca.outer_iterations", "count", "lower",
     "instances_per_s, instance_tail_s and sr_bits.optimized on desk; per call"),
    ("optim.max_asr_sca.converged_frac", "ratio", "higher",
     "instances_per_s, instance_tail_s and sr_bits.optimized on desk"),
    ("optim.solve_sca_subproblem.calls", "count", "lower", "instances_per_s on desk"),
    ("optim.solve_sca_subproblem.self_s", "s", "lower", "instances_per_s on desk"),
    ("optim.project_spectrahedron.calls", "count", "lower", "instances_per_s on desk"),
    ("optim.project_spectrahedron.busy_s", "s", "lower", "instances_per_s on desk"),
    ("optim.project_spectrahedron.per_subproblem", "count", "lower", "instances_per_s on desk"),
    ("optim.relaxed_asr.busy_s", "s", "lower", "instances_per_s on desk"),
    ("optim.power_sweep_rounding.busy_s", "s", "lower", "instances_per_s on desk"),
    *(
        entry
        for op in ("max-asr-gd", "max-sr-gd", "max-asr-sca", "asr-eval", "asr-grad")
        for entry in (
            (f"complexity.{op}.model_flops", "flop", "lower",
             "none; checks the FLOP model, per call"),
            (f"complexity.{op}.achieved_gflops_s", "GFLOP/s", "higher",
             "none; checks the FLOP model"),
        )
    ),
    ("trace.overhead_frac", "ratio", "lower", "none; 1 - traced/untraced instances_per_s"),
)

# What the traced run cannot measure from outside the package, and why.
UNMEASURED = {
    "waiting": "no stage waits on another: one thread, a closed loop and no queues",
    "max_sr_gd value/gradient split": "evaluated by a private class the public API does not expose",
    "power_sweep_rounding candidates": "directions are drawn and scored inside one public call",
    "solve_sca_subproblem inner iterations": "not returned; project_spectrahedron calls stand in",
}

# Flop-model operation -> the span whose calls it costs, and the span attribute
# holding the measured iteration count that enters the model as d1/d2/d3.
FLOP_OPS = {
    "max-asr-gd": ("optim.max_asr_gd", "d1"),
    "max-sr-gd": ("optim.max_sr_gd", "d2"),
    "max-asr-sca": ("optim.max_asr_sca", "d3"),
    "asr-eval": ("metrics.asr", None),
    "asr-grad": ("optim.asr_gradient", None),
}


@dataclass
class Span:
    name: str
    parent: int | None
    instance: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span recorder; patched module attributes stay until closed.

    Spans outlive :meth:`close`, so one recorder can patch and unpatch
    around each traced instance.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` recorded as span ``name``.

        ``annotate(arguments, result)`` returns the span's attributes, from the
        call's arguments bound to parameter names and its result.
        """
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.instance)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs = annotate(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, annotate=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, annotate))

    def close(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def instrument(recorder: Recorder, smsec) -> None:
    """Patch every public function the per-layer metrics need."""
    harness, optim = smsec.harness, smsec.optim

    def cache_bytes(_, cache):
        # Every array the cache holds, so the count survives a change of layout.
        return {"bytes": sum(v.nbytes for v in vars(cache).values() if hasattr(v, "nbytes"))}

    def pair_samples(arguments, _):
        return {"pair_samples": 2 * arguments["n_samp"] * arguments["codebook"].n_signals ** 2}

    def iterations(_, trace):
        return {"iterations": trace.iterations}

    def sca_outer(_, result):
        trace = result[1]
        return {"iterations": trace.iterations, "converged": trace.converged}

    for module, attr, name, annotate in (
        (harness, "an_projector", "model.an_projector", None),
        (harness, "build_cache", "metrics.build_cache", cache_bytes),
        (harness, "secrecy_rate_mc", "metrics.secrecy_rate_mc", pair_samples),
        (harness, "asr", "metrics.asr", None),
        (harness, "max_asr_gd", "optim.max_asr_gd", iterations),
        (harness, "max_sr_gd", "optim.max_sr_gd", iterations),
        (harness, "max_asr_sca", "optim.max_asr_sca", sca_outer),
        (harness, "power_sweep_rounding", "optim.power_sweep_rounding", None),
        (optim, "asr", "metrics.asr", None),
        (optim, "asr_gradient", "optim.asr_gradient", None),
        (optim, "solve_sca_subproblem", "optim.solve_sca_subproblem", None),
        (optim, "project_spectrahedron", "optim.project_spectrahedron", None),
        (optim, "relaxed_asr", "optim.relaxed_asr", None),
    ):
        recorder.patch(module, attr, name, annotate)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class _Totals:
    """Per-name call counts, busy and self seconds and summed attributes."""

    def __init__(self, spans: list[Span]):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.busy[span.name] = self.busy.get(span.name, 0.0) + span.duration
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own
            sums = self.attrs.setdefault(span.name, {})
            for key, value in span.attrs.items():
                sums[key] = sums.get(key, 0) + value

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], n_instances: int, flops, inputs, overhead_frac: float
) -> dict[str, float]:
    """Every per-layer metric of :data:`LAYERS` from one traced run.

    ``flops(op, inputs)`` is smsec's FLOP model; ``inputs(**iterations)``
    builds its dimension record at the workload shape.
    """
    t = _Totals(spans)
    per = lambda value: value / n_instances  # noqa: E731
    out = {
        "harness.instance.self_s": per(t.self_s.get("harness.instance", 0.0)),
        "model.an_projector.busy_s": per(t.busy.get("model.an_projector", 0.0)),
        "metrics.build_cache.bytes": _ratio(
            t.attr("metrics.build_cache", "bytes"), t.calls.get("metrics.build_cache", 0)
        ),
        "metrics.secrecy_rate_mc.pair_samples": per(
            t.attr("metrics.secrecy_rate_mc", "pair_samples")
        ),
        "optim.solve_sca_subproblem.self_s": per(t.self_s.get("optim.solve_sca_subproblem", 0.0)),
    }
    for name in (
        "metrics.build_cache",
        "metrics.asr",
        "metrics.secrecy_rate_mc",
        "optim.asr_gradient",
        "optim.solve_sca_subproblem",
        "optim.project_spectrahedron",
    ):
        out[f"{name}.calls"] = per(t.calls.get(name, 0))
    for name in (
        "metrics.build_cache",
        "metrics.asr",
        "metrics.secrecy_rate_mc",
        "optim.asr_gradient",
        "optim.max_asr_gd",
        "optim.max_sr_gd",
        "optim.max_asr_sca",
        "optim.project_spectrahedron",
        "optim.relaxed_asr",
        "optim.power_sweep_rounding",
    ):
        out[f"{name}.busy_s"] = per(t.busy.get(name, 0.0))

    gd_iters = t.attr("optim.max_asr_gd", "iterations")
    asr_in_gd = sum(
        1 for s in spans if s.name == "metrics.asr" and _inside(spans, s, "optim.max_asr_gd")
    )
    out["optim.max_asr_gd.iterations"] = _ratio(gd_iters, t.calls.get("optim.max_asr_gd", 0))
    out["optim.max_asr_gd.accept_ratio"] = _ratio(gd_iters, asr_in_gd)
    sr_iters = t.attr("optim.max_sr_gd", "iterations")
    out["optim.max_sr_gd.iterations"] = _ratio(sr_iters, t.calls.get("optim.max_sr_gd", 0))
    out["optim.max_sr_gd.s_per_iter"] = _ratio(t.busy.get("optim.max_sr_gd", 0.0), sr_iters)
    sca_calls = t.calls.get("optim.max_asr_sca", 0)
    out["optim.max_asr_sca.outer_iterations"] = _ratio(
        t.attr("optim.max_asr_sca", "iterations"), sca_calls
    )
    out["optim.max_asr_sca.converged_frac"] = _ratio(
        t.attr("optim.max_asr_sca", "converged"), sca_calls
    )
    out["optim.project_spectrahedron.per_subproblem"] = _ratio(
        t.calls.get("optim.project_spectrahedron", 0), t.calls.get("optim.solve_sca_subproblem", 0)
    )

    for op, (name, d_field) in FLOP_OPS.items():
        matching = [s for s in spans if s.name == name]
        if d_field is None:
            total = len(matching) * flops(op, inputs())
        else:
            # The model needs d >= 1; a run with no accepted step is costed as one.
            total = sum(
                flops(op, inputs(**{d_field: max(1, s.attrs["iterations"])})) for s in matching
            )
        out[f"complexity.{op}.model_flops"] = _ratio(total, len(matching))
        out[f"complexity.{op}.achieved_gflops_s"] = _ratio(total, t.busy.get(name, 0.0)) / 1e9
    out["trace.overhead_frac"] = overhead_frac
    return out


def _inside(spans: list[Span], span: Span, ancestor: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def flop_model_finding(values: dict[str, float]) -> str:
    """Whether the measured cost ordering contradicts the modelled GD < SCA < SR-GD.

    ``values`` are the per-layer metrics.  Each optimizer runs once per
    instance, so busy seconds per instance are seconds per run; SCA's include
    its power-sweep rounding, as in the study.
    """
    modelled = {
        label: values[f"complexity.{op}.model_flops"]
        for label, op in (("GD", "max-asr-gd"), ("SR-GD", "max-sr-gd"), ("SCA", "max-asr-sca"))
    }
    if not all(modelled.values()):
        return "not measurable: the workload does not run all three optimizers"
    measured = {
        "GD": values["optim.max_asr_gd.busy_s"],
        "SR-GD": values["optim.max_sr_gd.busy_s"],
        "SCA": values["optim.max_asr_sca.busy_s"] + values["optim.power_sweep_rounding.busy_s"],
    }
    order_measured = sorted(measured, key=measured.get)
    order_modelled = sorted(modelled, key=modelled.get)
    verdict = "contradicts" if order_measured != order_modelled else "agrees with"
    return (
        f"measured {' < '.join(order_measured)} "
        f"({', '.join(f'{k} {v * 1e3:.1f} ms' for k, v in measured.items())}) {verdict} "
        f"modelled {' < '.join(order_modelled)} "
        f"({', '.join(f'{k} {v:.3g} flop' for k, v in modelled.items())})"
    )
