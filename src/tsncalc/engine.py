"""Per-queue analysis orchestration and end-to-end metric assembly.

Queues are analyzed in dependency order along flow routes; per-queue delay
and backlog come from the horizontal/vertical deviations of the architecture's
arrival and service curves, and per-flow end-to-end bounds sum the per-queue
bounds with the constant link delays.
"""

from __future__ import annotations

import functools
import graphlib
import heapq
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import minplus as mp
from . import netmodel as nm
from . import shapers as sh
from .errors import (
    ConfigurationError,
    CycleError,
    DependencyError,
    FixedPointError,
    InstabilityError,
    TsnCalcError,
)

log = logging.getLogger(__name__)

FIXED_POINT_EPS = 0.01   # us, convergence threshold of the iterative mode
FIXED_POINT_MAX_ITER = 100


class ValidationError(TsnCalcError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = f" (+{len(self.violations) - 5} more)" if len(self.violations) > 5 else ""
        super().__init__(f"network validation failed: {lines}{more}")


@dataclass(frozen=True)
class FlowBounds:
    flow: str
    priority: int
    kind: str
    wcd: float      # end-to-end delay upper bound, us
    lb: float       # end-to-end delay lower bound, us
    jitter: float   # us


@dataclass(frozen=True)
class QueueBounds:
    link: str
    priority: int
    delay: float    # us
    backlog: float  # bits


@dataclass(frozen=True)
class ShapedQueueBounds:
    link: str
    upstream: str
    priority: int
    delay: float
    backlog: float


@dataclass
class AnalysisReport:
    architecture: str
    credit_mode: str | None
    horizon: float  # the longest window a gated deviation read, us
    flows: dict = field(default_factory=dict)          # id -> FlowBounds
    queues: dict = field(default_factory=dict)         # (link, prio) -> QueueBounds
    tt_queues: dict = field(default_factory=dict)      # (link, index) -> backlog bits
    shaped_queues: dict = field(default_factory=dict)  # (link, upstream, prio) -> ShapedQueueBounds


# ---------------------------------------------------------------------------
# Queue dependency graph
# ---------------------------------------------------------------------------

def queue_dependency_graph(network: nm.Network):
    """Map each (link, priority) queue of event traffic to the set of queues
    it depends on: for every flow that traverses A immediately before B, the
    queue of B at each priority at or below the flow's waits for A's queue of
    the flow's priority, because its arrival or service curve uses that
    queue's delay bound."""
    prios = {link_id: nm.event_priorities(network, link_id) for link_id in network.links}
    graph = {(link_id, p): set() for link_id in network.links for p in prios[link_id]}
    for f in network.flows.values():
        if f.kind not in nm.EVENT_KINDS:
            continue
        for a, b in zip(f.route, f.route[1:]):
            for r in prios[b]:
                if r <= f.priority:
                    graph[(b, r)].add((a, f.priority))
    return graph


def _queue_sort_key(network: nm.Network, node):
    link_id, prio = node
    link = network.links[link_id]
    return (link.src, link_id, -prio)


def _dependency_order(graph, key):
    """Queues in dependency order, taking the smallest ready queue by ``key``
    first; raises CycleError with one cycle, first queue repeated last."""
    # sorted input keeps the reported cycle independent of set order
    sorter = graphlib.TopologicalSorter(
        {n: sorted(graph[n], key=key) for n in sorted(graph, key=key)})
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise CycleError(exc.args[1]) from None
    ready, order = [], []
    while sorter.is_active():
        for n in sorter.get_ready():
            heapq.heappush(ready, (key(n), n))
        _, n = heapq.heappop(ready)
        order.append(n)
        sorter.done(n)
    return order


# ---------------------------------------------------------------------------
# Core analysis
# ---------------------------------------------------------------------------

def analyze(network: nm.Network, architecture: str, credit_mode: str | None = None,
            fixed_point: bool = False) -> AnalysisReport:
    """Worst-case bounds for every flow and queue under one architecture.

    ``network`` may be a view from ``Network.indexed``, which the analyses
    of an unchanged network can share, and with it what they build in common.
    ``credit_mode`` defaults to "frozen" where gates and credit shaping
    coexist.  Every deviation holds for all t (``minplus.deviations``); the
    report's ``horizon`` is the longest window a gated one read, else
    ``netmodel.hyperperiod_horizon``.
    """
    violations = nm.validate(network)
    if violations:
        raise ValidationError(violations)
    if network.memo is None:
        # a snapshot with one flow index and a memo for the setting; a view
        # handed in is shared with the caller's other analyses
        network = network.indexed()
    arch = sh.parse_architecture(architecture)

    tt = [f for f in network.flows.values() if f.kind == "TT"]
    if tt and not arch.tas:
        raise ConfigurationError(
            f"architecture {arch.name} cannot schedule the time-triggered flows "
            f"{sorted(f.id for f in tt)[:3]}")
    events = [f for f in network.flows.values() if f.kind in nm.EVENT_KINDS]
    if events and arch.name == "TAS":
        raise ConfigurationError(
            "pure gate scheduling serves only time-triggered flows; "
            f"found event-triggered {sorted(f.id for f in events)[:3]}")

    ctx = sh.ShaperContext(network, arch, credit_mode)
    report = AnalysisReport(architecture=arch.name, credit_mode=ctx.credit_mode, horizon=0.0)

    for f in sorted(network.flows.values(), key=lambda f: f.id):
        if f.kind != "TT":
            continue
        wcd, jitter = sh.tas_flow_bounds(network, f)
        lb = _transmission_floor(network, f)
        report.flows[f.id] = FlowBounds(f.id, f.priority, f.kind, wcd, lb, jitter)
    for link_id in sorted(network.links):
        for q, backlog in sorted(sh.tt_queue_backlogs(network, link_id).items()):
            report.tt_queues[(link_id, q)] = backlog

    if any(f.kind in nm.EVENT_KINDS for f in network.flows.values()):
        if arch.ats:
            _analyze_ats(ctx, report)
        else:
            _analyze_unshaped(ctx, report, fixed_point)
        _assemble_event_flows(ctx, report)
    report.horizon = ctx.window or nm.hyperperiod_horizon(network)
    return report


def _transmission_floor(network, flow):
    total = 0.0
    for link_id in flow.route:
        lk = network.links[link_id]
        total += flow.size / lk.rate + lk.prop_delay + lk.fwd_delay
    return total - network.links[flow.route[-1]].fwd_delay


def _bound_queue(ctx, link_id, priority, alpha, alphas):
    """Delay and backlog of one queue with arrival curve ``alpha``.

    ``alphas`` holds the arrival curves of the queues already bounded in this
    pass; under strict priority the service is what the port leaves after the
    higher priorities among them.  ``alpha`` is added to it.
    """
    if ctx.arch.cbs:
        beta = sh.cbs_service_curve(ctx, link_id, priority)
    else:
        higher = [alphas[(link_id, p)] for p in ctx.priorities_at(link_id) if p > priority]
        beta = (sh.sp_service_curve(ctx, link_id, priority, higher) if higher
                else ctx.top_sp_service(link_id, priority))
    try:
        dev = mp.deviations(alpha, beta)
    except InstabilityError as exc:
        raise InstabilityError(f"queue ({link_id}, P{priority}): {exc}") from exc
    ctx.window = max(ctx.window, dev.window or 0.0)
    alphas[(link_id, priority)] = alpha
    return QueueBounds(link_id, priority, dev.horizontal, dev.vertical)


def _analyze_ats(ctx, report):
    """Shared queues are local under per-hop reshaping: arrivals are sums of
    committed envelopes, so no upstream bound is needed.  Shaped queues are
    then a reporting pass over the shared-queue results: the flows of each
    crossed its upstream port at its priority, whose queue is bounded."""
    network = ctx.network
    alphas = {}
    for link_id in sorted(network.links):
        for priority in ctx.priorities_at(link_id):
            alpha = sh.shared_queue_arrival_ats(ctx, link_id, priority)
            report.queues[(link_id, priority)] = _bound_queue(ctx, link_id, priority, alpha, alphas)
    for link_id in sorted(network.links):
        for upstream, priority in sorted((up, p) for p in ctx.priorities_at(link_id)
                                         for up in ctx.upstream_groups(link_id, p) if up is not None):
            delay = report.queues[(upstream, priority)].delay
            d_q, b_q = sh.shaped_queue_analysis(ctx, link_id, upstream, priority, delay)
            report.shaped_queues[(link_id, upstream, priority)] = ShapedQueueBounds(
                link_id, upstream, priority, d_q, b_q)


def _sweep(ctx, order, delays, new_delays):
    """Bound the queues of ``order`` in turn from the upstream delay bounds in
    ``delays``, writing each queue's delay bound to ``new_delays``."""
    alphas = {}
    results = {}
    for link_id, priority in order:
        alpha = sh.unshaped_queue_arrival(ctx, link_id, priority, delays)
        qb = _bound_queue(ctx, link_id, priority, alpha, alphas)
        results[(link_id, priority)] = qb
        new_delays[(link_id, priority)] = qb.delay
    return results


def _analyze_unshaped(ctx, report, fixed_point):
    """Queues without reshaping: one sweep in dependency order, in which each
    queue reads the delays written before it, or on a cyclic graph with
    ``fixed_point`` the fixed-point iteration."""
    network = ctx.network
    key = functools.partial(_queue_sort_key, network)
    graph = queue_dependency_graph(network)
    try:
        order = _dependency_order(graph, key)
    except CycleError:
        if not fixed_point:
            raise
        report.queues.update(_fixed_point(ctx, sorted(graph, key=key)))
        return
    delays = {}
    report.queues.update(_sweep(ctx, order, delays, delays))


def _fixed_point(ctx, queues):
    """Monotone iteration for cyclic dependency graphs: start every queue at
    its minimum frame transmission time and resweep, each sweep reading the
    last sweep's delays, until bounds settle."""
    delays = {}
    for link_id, priority in queues:
        _, l_min = ctx.class_frames(link_id, priority)
        delays[(link_id, priority)] = l_min / ctx.link_rate(link_id)

    for _ in range(FIXED_POINT_MAX_ITER):
        new_delays = {}
        results = _sweep(ctx, queues, delays, new_delays)
        worst = max(abs(new_delays[q] - delays[q]) for q in queues)
        delays = new_delays
        if worst < FIXED_POINT_EPS:
            return results
    raise FixedPointError(
        f"fixed-point iteration did not converge within {FIXED_POINT_MAX_ITER} sweeps "
        f"(last change {worst:.4f} us)")


def _assemble_event_flows(ctx, report):
    network = ctx.network
    for f in sorted(network.flows.values(), key=lambda f: f.id):
        if f.kind not in nm.EVENT_KINDS:
            continue
        total = 0.0
        for link_id in f.route:
            qb = report.queues.get((link_id, f.priority))
            if qb is None:
                raise DependencyError(f"no bound computed for queue ({link_id}, P{f.priority})")
            lk = network.links[link_id]
            total += qb.delay + lk.prop_delay + lk.fwd_delay
        total -= network.links[f.route[-1]].fwd_delay
        lb = _transmission_floor(network, f)
        report.flows[f.id] = FlowBounds(f.id, f.priority, f.kind, total, lb, total - lb)


# ---------------------------------------------------------------------------
# Closed-form reshaping cross-check
# ---------------------------------------------------------------------------

def ats_hop_delta(network: nm.Network, link_id: str, flow: nm.Flow) -> float:
    """Per-hop pessimism of the curve-based bound over the closed-form
    eligibility-time bound for reshaped traffic: the worst same-priority
    frame time at the residual rate left by higher priorities, minus its
    time at the full link rate."""
    c = network.links[link_id].rate
    same = [f for f in nm.event_flows_on(network, link_id) if f.priority == flow.priority]
    higher = [f for f in nm.event_flows_on(network, link_id) if f.priority > flow.priority]
    higher_rate = sum(nm.leaky_bucket_of(f)[1] for f in sorted(higher, key=lambda f: f.id))
    if higher_rate >= c:
        raise InstabilityError(
            f"higher-priority rate {higher_rate:.3f} reaches link rate {c} at {link_id}")
    return max((f.size / (c - higher_rate) - f.size / c for f in same), default=0.0)


def ats_closed_form_bounds(network: nm.Network, report: AnalysisReport):
    """Per flow: (curve bound, closed-form bound, total delta) where the
    closed-form bound subtracts the per-hop delta on every crossed port."""
    out = {}
    for fid, fb in sorted(report.flows.items()):
        f = network.flows[fid]
        if f.kind not in nm.EVENT_KINDS:
            continue
        delta = sum(ats_hop_delta(network, link_id, f) for link_id in f.route)
        out[fid] = (fb.wcd, fb.wcd - delta, delta)
    return out


# ---------------------------------------------------------------------------
# Shaper comparison
# ---------------------------------------------------------------------------

#: What a comparison of two reports reads for each metric: the delay or
#: jitter of each flow, or the backlog of each queue.
METRICS = {
    "delay": lambda report: {k: v.wcd for k, v in report.flows.items()},
    "jitter": lambda report: {k: v.jitter for k, v in report.flows.items()},
    "backlog": lambda report: {k: v.backlog for k, v in report.queues.items()},
}


def check_metric(name: str) -> str:
    """``name`` if it is one of METRICS, else ConfigurationError."""
    if name not in METRICS:
        raise ConfigurationError(f"unknown metric {name!r}; choose from {', '.join(METRICS)}")
    return name


def difference_ratio(report1: AnalysisReport, report2: AnalysisReport, metric: str):
    """Relative difference (x1 - x2)/x2 per item plus its average; items with
    a zero reference are skipped with a warning."""
    items1, items2 = (METRICS[check_metric(metric)](r) for r in (report1, report2))
    if set(items1) != set(items2):
        raise ValueError("reports cover different item sets")
    ratios = {}
    for key in sorted(items1):
        ref = items2[key]
        if ref == 0.0:
            log.warning("difference ratio: skipping %s with zero reference %s", metric, key)
            continue
        ratios[key] = (items1[key] - ref) / ref
    mean = sum(ratios.values()) / len(ratios) if ratios else float("nan")
    return ratios, mean


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "architecture": report.architecture,
        "credit_mode": report.credit_mode,
        "flows": {
            fid: {"priority": fb.priority, "kind": fb.kind, "wcd_us": fb.wcd,
                  "lb_us": fb.lb, "jitter_us": fb.jitter}
            for fid, fb in sorted(report.flows.items())
        },
        "queues": [
            {"link": qb.link, "priority": qb.priority,
             "delay_us": qb.delay, "backlog_bits": qb.backlog}
            for _, qb in sorted(report.queues.items())
        ],
        "tt_queues": [
            {"link": link, "queue": q, "backlog_bits": b}
            for (link, q), b in sorted(report.tt_queues.items())
        ],
        "shaped_queues": [
            {"link": sq.link, "upstream": sq.upstream, "priority": sq.priority,
             "delay_us": sq.delay, "backlog_bits": sq.backlog}
            for _, sq in sorted(report.shaped_queues.items())
        ],
    }


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def flows_csv(report: AnalysisReport) -> str:
    lines = ["id,priority,architecture,wcd_us,lb_us,jitter_us"]
    for fid, fb in sorted(report.flows.items()):
        lines.append(
            f"{fid},{fb.priority},{report.architecture},"
            f"{_fmt(fb.wcd)},{_fmt(fb.lb)},{_fmt(fb.jitter)}")
    return "\n".join(lines) + "\n"


def queues_csv(report: AnalysisReport, network: nm.Network) -> str:
    lines = ["node,port,queue,backlog_bits"]
    rows = []
    for (link, prio), qb in report.queues.items():
        rows.append((network.links[link].src, link, f"P{prio}", qb.backlog))
    for (link, q), b in report.tt_queues.items():
        rows.append((network.links[link].src, link, f"TT{q}", b))
    for (link, upstream, prio), sq in report.shaped_queues.items():
        rows.append((network.links[link].src, link, f"shaped:{upstream}:P{prio}", sq.backlog))
    for node, port, queue, backlog in sorted(rows):
        lines.append(f"{node},{port},{queue},{_fmt(backlog)}")
    return "\n".join(lines) + "\n"


def write_report(report: AnalysisReport, network: nm.Network, out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for name, text in (
        ("flows.csv", flows_csv(report)),
        ("queues.csv", queues_csv(report, network)),
        ("report.json", json.dumps(report_to_dict(report), indent=2) + "\n"),
    ):
        path = out / name
        path.write_text(text)
        files.append(path)
    return files
