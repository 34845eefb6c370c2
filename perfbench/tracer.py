"""Per-layer tracing from outside the program.

`install` replaces the public functions of tsncalc's modules (and the
`Network.flows_on` method) with wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the time its
direct child spans cover.  A few wrappers also read counts off arguments
and results: breakpoints, horizon doublings, bounded queues, gate builds.

Tracing is for single-threaded passes only; `Tracer.enabled` is switched
off while worker threads run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("netmodel", "testgen", "shapers", "minplus", "engine", "cli")
GATE_BUILDERS = ("shapers.tt_arrival_curve", "shapers.tt_service_curve", "shapers.gb_envelope")
SHAPERS_REPORTED = ("tt_arrival_curve", "tt_service_curve", "gb_envelope", "cbs_credit_bounds",
                    "sp_service_curve", "unshaped_queue_arrival", "shaped_queue_analysis")
SETUP_OP = "setup"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []            # (name, start_ns, end_ns, parent index or -1, op)
        self._stack = []           # [span index, name, start_ns, child ns]
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.gated_ports = set()   # (network key, link id) with gate windows
        self._installed = []       # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), name, time.perf_counter_ns(), 0])
        self.spans.append((name, 0, 0, parent, self.op))

    def _exit(self):
        idx, name, start, child = self._stack.pop()
        end = time.perf_counter_ns()
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans[idx] = (name, start, end, self.spans[idx][3], self.op)
        self.calls[name] += 1
        self.self_ns[name] += end - start - child

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- wrappers ---------------------------------------------------------------

    def install(self, tsncalc_modules: dict) -> None:
        """Wrap every public function of the given {layer: module} map."""
        hooks = _hooks(self, tsncalc_modules)
        for layer, module in tsncalc_modules.items():
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._replace(module, attr, self._wrap(name, fn, hooks.get(name)))
        network = tsncalc_modules["netmodel"].Network
        self._replace(network, "flows_on",
                      self._wrap("netmodel.flows_on", network.flows_on, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                self._exit()
        return traced

    # -- results ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()
        self.gated_ports.clear()

    def snapshot(self) -> dict:
        return {"spans": self.spans, "calls": Counter(self.calls),
                "self_ns": Counter(self.self_ns), "counts": Counter(self.counts),
                "gated_ports": len(self.gated_ports)}


def _hooks(tr: Tracer, mods: dict) -> dict:
    """Wrappers that measure more than time.  Each runs inside its span."""
    nm = mods["netmodel"]
    hyperperiod_horizon = nm.hyperperiod_horizon

    def register_gated(key, network):
        if tr.op != SETUP_OP:
            for link_id, gcl in network.gcls.items():
                if gcl.windows:
                    tr.gated_ports.add((key, link_id))

    def deviations(fn, args, kwargs):
        alpha, beta = args[:2]
        # Curves build their breakpoints lazily; build them here so the
        # build gets its own span and the breakpoints can be counted.
        with tr.span("minplus.build"):
            tr.counts["alpha_breakpoints"] += len(alpha.segments)
            tr.counts["beta_breakpoints"] += len(beta.segments)
        return fn(*args, **kwargs)

    def analyze(fn, args, kwargs):
        report = fn(*args, **kwargs)
        network = args[0] if args else kwargs["network"]
        base = kwargs.get("horizon") or hyperperiod_horizon(network)
        tr.counts["horizon_doublings"] += round(math.log2(report.horizon / base))
        tr.counts["queues_bounded"] += len(report.queues) + len(report.shaped_queues)
        return report

    def load(fn, args, kwargs):
        network = fn(*args, **kwargs)
        register_gated(str(args[0] if args else kwargs["path"]), network)
        return network

    def generate(fn, args, kwargs):
        network = fn(*args, **kwargs)
        register_gated(repr(args), network)
        return network

    def gate_builder(fn, args, kwargs):
        gcl = args[0] if args else kwargs["gcl"]
        if gcl is not None and gcl.windows:
            tr.counts["gate_builds"] += 1
        return fn(*args, **kwargs)

    def run_sweep(fn, args, kwargs):
        rows, failures = fn(*args, **kwargs)
        tr.counts["cells_failed"] += len(failures)
        return rows, failures

    hooks = {"minplus.deviations": deviations, "engine.analyze": analyze,
             "netmodel.load": load, "testgen.generate": generate,
             "cli.run_sweep": run_sweep}
    hooks.update({name: gate_builder for name in GATE_BUILDERS})
    return hooks


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric name -> value for one traced round."""
    calls, self_ns, counts = snap["calls"], snap["self_ns"], snap["counts"]

    def ms(name):
        return self_ns[name] / 1e6

    out = {}
    for name in ("netmodel.load", "netmodel.validate"):
        out[f"{name}.self_ms"] = ms(name)
    out["netmodel.flows_on.calls"] = calls["netmodel.flows_on"]
    out["netmodel.flows_on.self_ms"] = ms("netmodel.flows_on")
    out["netmodel.event_flows_on.calls"] = calls["netmodel.event_flows_on"]
    out["testgen.generate.calls"] = calls["testgen.generate"]
    out["testgen.generate.self_ms"] = ms("testgen.generate")
    out["testgen.gcl_place.self_ms"] = ms("testgen.gcl_place")
    for fn in SHAPERS_REPORTED:
        out[f"shapers.{fn}.calls"] = calls[f"shapers.{fn}"]
        out[f"shapers.{fn}.self_ms"] = ms(f"shapers.{fn}")
    out["shapers.gate_builds_per_port"] = (
        counts["gate_builds"] / snap["gated_ports"] if snap["gated_ports"] else 0.0)
    out["minplus.build.self_ms"] = ms("minplus.build")
    out["minplus.deviations.calls"] = calls["minplus.deviations"]
    out["minplus.deviations.self_ms"] = ms("minplus.deviations")
    out["minplus.alpha_breakpoints"] = counts["alpha_breakpoints"]
    out["minplus.beta_breakpoints"] = counts["beta_breakpoints"]
    out["minplus.breakpoints_per_call"] = (
        (counts["alpha_breakpoints"] + counts["beta_breakpoints"])
        / (2 * calls["minplus.deviations"]) if calls["minplus.deviations"] else 0.0)
    out["engine.analyze.calls"] = calls["engine.analyze"]
    for name in ("engine.analyze", "engine.write_report", "engine.difference_ratio"):
        out[f"{name}.self_ms"] = ms(name)
    out["engine.horizon_doublings"] = counts["horizon_doublings"]
    out["engine.queues_bounded"] = counts["queues_bounded"]
    out["engine.deviations_per_queue"] = (
        calls["minplus.deviations"] / counts["queues_bounded"]
        if counts["queues_bounded"] else 0.0)
    for name in ("cli.main", "cli.run_sweep", "cli.sweep_csv"):
        out[f"{name}.self_ms"] = ms(name)
    out["cli.cells_failed"] = counts["cells_failed"]
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(ns for name, ns in self_ns.items()
                                      if name.split(".")[0] == layer) / 1e6
    return out


def is_count(metric: str) -> bool:
    """Count metrics must repeat exactly between two traced rounds."""
    return not metric.endswith("_ms")


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{op}\n")
