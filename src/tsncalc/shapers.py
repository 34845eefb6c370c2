"""Per-queue service and arrival curves for each shaper architecture.

Covers gate-driven time-triggered transmission (staircase arrival envelopes
and TDMA-style leftover service), per-hop reshaping with shaped/shared
queues, credit-based shaping with frozen or non-frozen credit during guard
bands, and strict priority, alone and in combination.

Every gate quantity of a port comes from one period of its window table,
seen from each window in turn: the staircases and TDMA curves as one
period of terms or windows per rotation, and the guard-band envelope from
one period of interval ends.

Each rule has one home: every leftover service or shaping curve is a
``minplus.leftover``, ``credit_modes`` gives each architecture its credit
mode, ``ShaperContext`` the memo of each analysis setting, the order of a
class's flows (``class_flows``) and their split by upstream port.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import minplus as mp
from . import netmodel as nm
from .errors import ConfigurationError, DependencyError, InfeasibleScheduleError, StarvationError

ARCHITECTURES = (
    "TAS", "ATS", "CBS", "SP",
    "TAS+SP", "TAS+CBS", "TAS+ATS+SP", "TAS+ATS+CBS",
)

CREDIT_MODES = ("frozen", "nonfrozen")


@dataclass(frozen=True)
class Architecture:
    name: str
    tas: bool
    ats: bool
    cbs: bool


def parse_architecture(name: str) -> Architecture:
    if name not in ARCHITECTURES:
        raise ConfigurationError(f"unknown architecture {name!r}; expected one of {ARCHITECTURES}")
    parts = name.split("+")
    return Architecture(name=name, tas="TAS" in parts, ats="ATS" in parts, cbs="CBS" in parts)


def credit_modes(archs, credit_mode=None) -> tuple:
    """The credit mode of each named architecture: ``credit_mode``, or
    "frozen" by default, where gates and credit shaping combine, and None
    everywhere else.  A mode that none of them takes, or that is not one of
    CREDIT_MODES, raises ConfigurationError, as an unknown name does."""
    parsed = [parse_architecture(name) for name in archs]
    takers = [a.name for a in parsed if a.tas and a.cbs]
    if credit_mode is not None and not takers:
        raise ConfigurationError(
            f"credit_mode only applies when gates and credit shaping are combined, not {parsed[0].name}")
    mode = "frozen" if credit_mode is None else credit_mode
    if takers and mode not in CREDIT_MODES:
        raise ConfigurationError(f"architecture {takers[0]} requires credit_mode in {CREDIT_MODES}")
    return tuple(mode if a.name in takers else None for a in parsed)


# ---------------------------------------------------------------------------
# Time-triggered gate curves
# ---------------------------------------------------------------------------

def _rotations(gcl):
    """The window table seen from each window: row i holds windows
    i, i + 1, ..., i + n - 1 (mod n), those that wrap one period later, as
    (window index, offset) arrays of shape (n, n)."""
    n = len(gcl.windows)
    offs = np.array([w.offset for w in gcl.windows])
    ij = np.arange(n)[:, None] + np.arange(n)[None, :]
    return ij % n, offs[ij % n] + np.where(ij >= n, gcl.period, 0.0)


def tt_arrival_curve(gcl, guard_bands, variant: str, rate: float, horizon: float) -> mp.Curve:
    """Upper envelope of link time blocked for lower-priority traffic by the
    gate windows, as a max over window rotations of periodic burst staircases.

    ``variant`` selects whether each burst covers the window alone ("TT") or
    the window plus its preceding guard band ("GB+TT").
    """
    if gcl is None or not gcl.windows:
        return mp.zero()
    if variant not in ("TT", "GB+TT"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(gcl.windows)
    lens = np.array([w.length for w in gcl.windows])
    gbs = np.array(guard_bands, dtype=float) if variant == "GB+TT" else np.zeros(n)
    j, oj = _rotations(gcl)
    # how long after the burst of window i, the first of row i, each burst starts
    offset = oj - oj[:, :1] + gbs[:, None] - gbs[j]
    terms = np.stack([(lens[j] + gbs[j]) * rate, np.maximum(0.0, offset),
                      np.full((n, n), gcl.period)], axis=-1)
    return mp.StaircaseMax(terms, horizon)


def tt_service_curve(gcl, rate: float, horizon: float) -> mp.Curve:
    """Minimum service obtained by gate-scheduled traffic over any interval:
    the min over window rotations of the gate-open time since the end of the
    window before: one TDMA service of every rotation's period of windows."""
    if gcl is None or not gcl.windows:
        return mp.zero()
    j, oj = _rotations(gcl)
    lens = np.array([w.length for w in gcl.windows])[j]
    # rotation i starts where window i - 1, its last, ends one period earlier
    starts = oj - (oj[:, -1:] + lens[:, -1:] - gcl.period)
    return mp.TdmaService(rate, gcl.period, starts, lens, horizon)


def gb_envelope(gcl, guard_bands, rate: float):
    """Tightest linear envelope (sigma, rho) of guard-band link time:
    rate * gb_time(s, t) <= sigma + rho * (t - s - tt_time(s, t)) for all
    intervals.  rho is pinned to the per-period guard-band share of non-TT
    time, so F(x) = rate * gb_time(0, x) - rho * (x - tt_time(0, x)) repeats
    every period, and sigma, the largest rise of F, is max F - min F over
    one period's interval ends.  Checked against random intervals in tests.
    """
    if gcl is None or not gcl.windows:
        return 0.0, 0.0
    gbs = list(guard_bands)
    if all(g <= 0.0 for g in gbs):
        return 0.0, 0.0
    period = gcl.period
    total_tt = sum(w.length for w in gcl.windows)
    total_gb = sum(gbs)
    non_tt = period - total_tt
    if non_tt <= 1e-12:
        return 0.0, 0.0
    rho = rate * total_gb / non_tt

    # this period's guard bands and windows and the next period's: the first
    # guard band may start before 0, and one period later it lies in [0, P]
    reps = np.array([[0.0], [period]])
    offs = np.array([w.offset for w in gcl.windows]) + reps
    ends = np.array([w.end for w in gcl.windows]) + reps
    times = np.concatenate([(offs - np.array(gbs)).ravel(), offs.ravel(), ends.ravel()])
    x, _, gb_time = mp.running_integral(times, np.repeat([1.0, -1.0, 0.0], offs.size))
    _, _, tt_time = mp.running_integral(times, np.repeat([0.0, 1.0, -1.0], offs.size))
    f = rate * gb_time - rho * (x - x[0] - tt_time)
    one = f[(x >= 0.0) & (x <= period)]
    return float(np.max(one) - np.min(one)), rho


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------

def _memo(method):
    """Compute a ShaperContext quantity once per analysis setting of a
    network view, in the setting's memo, keyed by the method and its
    arguments."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self.memo:
            self.memo[key] = method(self, *args)
        return self.memo[key]
    return cached


class ShaperContext:
    """Per-analysis state: architecture, credit mode and horizon.

    Every quantity it computes lives in the network view's memo for the
    analysis setting (see ``Network.indexed``): whether the architecture has
    gates, the credit mode and the horizon, which the analyses of one view
    and setting share; a plain network gets a view of its own.  Only the
    gate curves (``tt_arrival``, ``tt_service``) are built at the context's
    horizon; a curve built from them takes theirs, and every other curve is
    closed and has none.
    """

    def __init__(self, network: nm.Network, arch: Architecture, credit_mode, horizon: float):
        (self.credit_mode,) = credit_modes([arch.name], credit_mode)
        self.network = network if network.memo is not None else network.indexed()
        self.arch = arch
        self.horizon = float(horizon)
        self.memo = self.network.memo.setdefault((arch.tas, self.credit_mode, self.horizon), {})

    # -- per-port gate state ------------------------------------------------

    def link_rate(self, link_id: str) -> float:
        return self.network.links[link_id].rate

    @_memo
    def guard_bands(self, link_id: str):
        return nm.guard_band_lengths(self.network, link_id)

    def _gcl(self, link_id: str):
        return self.network.gcl(link_id) if self.arch.tas else None

    @_memo
    def tt_arrival(self, link_id: str, variant: str) -> mp.Curve:
        return tt_arrival_curve(self._gcl(link_id), self.guard_bands(link_id), variant,
                                self.link_rate(link_id), self.horizon)

    @_memo
    def tt_service(self, link_id: str) -> mp.Curve:
        return tt_service_curve(self._gcl(link_id), self.link_rate(link_id), self.horizon)

    @_memo
    def envelope(self, link_id: str):
        return gb_envelope(self._gcl(link_id), self.guard_bands(link_id), self.link_rate(link_id))

    @_memo
    def top_sp_service(self, link_id: str, priority: int) -> mp.Curve:
        """The strict-priority service of a queue with no higher-priority
        arrivals: the link less the gates and one lower frame, which depend
        on the analysis setting alone.  Under gates, that of each port's top
        priority comes from ``gated_top_services``."""
        top = self.gated_top_services().get((link_id, priority)) if self.arch.tas else None
        return top if top is not None else sp_service_curve(self, link_id, priority, ())

    @_memo
    def gated_top_services(self) -> dict:
        """The top-priority strict-priority service of every port of the view
        with gate windows and event traffic, by (port, priority), their
        segments built in one batch.  A port that starves is left out, so
        that StarvationError comes when its own service is requested."""
        services = {}
        for link_id in sorted(self.network.links):
            gcl, prios = self._gcl(link_id), self.priorities_at(link_id)
            if gcl is None or not gcl.windows or not prios:
                continue
            try:
                services[(link_id, prios[0])] = sp_service_curve(self, link_id, prios[0], ())
            except StarvationError:
                continue
        mp.build_leftovers(services.values())
        return services

    # -- per-port class structure --------------------------------------------

    @_memo
    def priorities_at(self, link_id: str):
        return nm.event_priorities(self.network, link_id)

    @_memo
    def class_flows(self, link_id: str, priority: int) -> tuple:
        """The event flows of a priority at a port, in order of id: the order
        in which their curves are summed."""
        return tuple(sorted((f for f in nm.event_flows_on(self.network, link_id)
                             if f.priority == priority), key=lambda f: f.id))

    @_memo
    def upstream_groups(self, link_id: str, priority: int) -> dict:
        """The event flows of a priority at a port by the port they come
        from, each group in order of id: first, under None, those that enter
        here from their source end system, then each upstream port in order
        of id."""
        groups = {}
        for f in self.class_flows(link_id, priority):
            groups.setdefault(self.network.previous_link(f, link_id), []).append(f)
        return dict(sorted(groups.items(), key=lambda group: (group[0] is not None, group[0])))

    @_memo
    def class_frames(self, link_id: str, priority: int):
        sizes = [f.size for f in self.class_flows(link_id, priority)]
        return (max(sizes), min(sizes)) if sizes else (0.0, 0.0)

    @_memo
    def idle_slope(self, link_id: str, priority: int) -> float:
        """Configured idle slope, or the default reservable share split in
        proportion to class committed rates."""
        explicit = self.network.idle_slopes.get(link_id, {})
        if priority in explicit:
            return explicit[priority]
        budget = self.network.cbs_fraction * self.link_rate(link_id)
        class_rates = {}
        for f in nm.event_flows_on(self.network, link_id):
            _, r = nm.leaky_bucket_of(f)
            class_rates[f.priority] = class_rates.get(f.priority, 0.0) + r
        total = sum(class_rates.values())
        if priority not in class_rates or total <= 0.0:
            raise ConfigurationError(
                f"no idle slope configured or derivable for priority {priority} at {link_id}")
        if len(class_rates) == 1:
            return budget
        return budget * class_rates[priority] / total

    @_memo
    def credit_bounds(self, link_id: str, priority: int) -> CreditBounds:
        return cbs_credit_bounds(self, link_id, priority)

    @_memo
    def shaping_curve(self, link_id: str, priority: int) -> mp.Curve:
        return cbs_shaping_curve(self, link_id, priority)


# ---------------------------------------------------------------------------
# Credit bounds (credit-based shaping)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CreditBounds:
    c_max: float            # frozen-credit upper bound (also the standalone bound)
    c_max_nonfrozen: float  # with credit accruing during guard bands; inf if unbounded
    c_min: float

    def upper(self, credit_mode) -> float:
        return self.c_max_nonfrozen if credit_mode == "nonfrozen" else self.c_max


def cbs_credit_bounds(ctx: ShaperContext, link_id: str, priority: int) -> CreditBounds:
    """Credit bounds of the class serving ``priority`` at a port, for any
    number of classes above it.  Where guard bands let credit accrue
    without bound, the nonfrozen bound is refused in nonfrozen mode and inf
    in any other, which never reads it."""
    rate = ctx.link_rate(link_id)
    prios = ctx.priorities_at(link_id)
    if priority not in prios:
        raise ConfigurationError(f"priority {priority} has no traffic at {link_id}")
    rank = prios.index(priority)  # number of higher classes
    higher = prios[:rank]
    idsl_i = ctx.idle_slope(link_id, priority)
    lower_max = nm.lower_priority_max_frame(ctx.network, link_id, priority)

    c_min_sum = 0.0
    idsl_sum = 0.0
    for p in higher:
        idsl_j = ctx.idle_slope(link_id, p)
        l_max_j, _ = ctx.class_frames(link_id, p)
        c_min_sum += (idsl_j - rate) * l_max_j / rate
        idsl_sum += idsl_j

    denom = idsl_sum - rate
    if denom >= 0.0:
        raise ConfigurationError(
            f"over-reserved credit shaping at {link_id}: higher-class idle slopes "
            f"{idsl_sum:.3f} reach link rate {rate:.3f} (priority {priority})")
    c_max = idsl_i * (c_min_sum - lower_max) / denom

    l_max_i, _ = ctx.class_frames(link_id, priority)
    c_min = (idsl_i - rate) * l_max_i / rate

    sigma, rho = ctx.envelope(link_id) if ctx.arch.tas else (0.0, 0.0)
    denom_nf = rho + idsl_sum - rate
    if denom_nf < 0.0:
        c_max_nf = idsl_i * (c_min_sum - lower_max - sigma) / denom_nf
    elif ctx.credit_mode == "nonfrozen":
        raise ConfigurationError(
            f"over-reserved credit shaping at {link_id} including guard-band rate "
            f"{rho:.3f} (priority {priority})")
    else:
        c_max_nf = mp.INF
    return CreditBounds(c_max=c_max, c_max_nonfrozen=c_max_nf, c_min=c_min)


def cbs_service_curve(ctx: ShaperContext, link_id: str, priority: int) -> mp.Curve:
    """Guaranteed service for one credit-shaped class; under gate schedules
    the gate-blocked envelope is subtracted before the closure."""
    bounds = ctx.credit_bounds(link_id, priority)
    idsl = ctx.idle_slope(link_id, priority)
    if not ctx.arch.tas:
        return mp.RateLatency(idsl, bounds.c_max / idsl)
    variant = "TT" if ctx.credit_mode == "nonfrozen" else "GB+TT"
    return mp.leftover(mp.Affine(-bounds.upper(ctx.credit_mode), idsl),
                       [(-idsl / ctx.link_rate(link_id), ctx.tt_arrival(link_id, variant))])


def cbs_shaping_curve(ctx: ShaperContext, link_id: str, priority: int) -> mp.Curve:
    """Upper envelope of a class's departures; reused as an arrival constraint
    downstream.  Under gate schedules the service consumed by scheduled
    traffic is subtracted inside the closure."""
    bounds = ctx.credit_bounds(link_id, priority)
    idsl = ctx.idle_slope(link_id, priority)
    if not ctx.arch.tas:
        return mp.Affine(bounds.c_max - bounds.c_min, idsl)
    return mp.leftover(mp.Affine(bounds.upper(ctx.credit_mode) - bounds.c_min, idsl),
                       [(-idsl / ctx.link_rate(link_id), ctx.tt_service(link_id))])


# ---------------------------------------------------------------------------
# Strict-priority service
# ---------------------------------------------------------------------------

def sp_service_curve(ctx: ShaperContext, link_id: str, priority: int,
                     higher_arrivals) -> mp.Curve:
    """Leftover link service for one priority: capacity minus gate-blocked
    time, minus higher-priority arrivals, minus one blocking lower frame.

    ``higher_arrivals`` are this architecture's own arrival curves of the
    strictly higher priorities at the port, highest first.
    """
    rate = ctx.link_rate(link_id)
    lower_max = nm.lower_priority_max_frame(ctx.network, link_id, priority)
    blocked = [ctx.tt_arrival(link_id, "GB+TT")] if ctx.arch.tas else []
    blocked += higher_arrivals
    rate_budget = rate
    for curve in blocked:
        rate_budget -= curve.long_term_rate()
    if rate_budget <= mp.TOLERANCE:
        raise StarvationError(
            f"priority {priority} at {link_id} has no residual service "
            f"(residual rate {rate_budget:.6g} bits/us)")
    return mp.leftover(mp.Affine(-lower_max, rate), [(-1.0, c) for c in blocked])


# ---------------------------------------------------------------------------
# Arrival curves
# ---------------------------------------------------------------------------

def _token_buckets(buckets) -> mp.Curve:
    """The sum of token buckets (burst, rate) as one line, added left to
    right: the additions ``minplus.sum_of`` makes for single lines, with no
    curve per bucket."""
    (burst, rate), *rest = buckets
    for b, r in rest:
        burst += b
        rate += r
    return mp.Affine(burst, rate)


def shared_queue_arrival_ats(ctx: ShaperContext, link_id: str, priority: int) -> mp.Curve:
    """Aggregate input at a shared queue when every flow was reshaped to its
    committed envelope: a plain sum of token buckets."""
    buckets = [nm.leaky_bucket_of(f) for f in ctx.class_flows(link_id, priority)]
    return _token_buckets(buckets) if buckets else mp.zero()


def unshaped_queue_arrival(ctx: ShaperContext, link_id: str, priority: int,
                           delays) -> mp.Curve:
    """Aggregate input at a priority queue without reshaping.

    A flow's burst grows by its rate times the delay bound, in ``delays``,
    of each queue of its priority before this port on its route, added in
    route order; a missing bound raises DependencyError.  The flows are
    summed per ``ShaperContext.upstream_groups``: those that enter at this
    port from their source end system as raw envelopes, and each upstream
    port's capped by ``_upstream_capped``.
    """
    parts = []
    for upstream_id, flows in ctx.upstream_groups(link_id, priority).items():
        buckets = []
        for f in flows:
            burst, r = nm.leaky_bucket_of(f)
            for up in f.route[:f.route.index(link_id)]:
                if (up, priority) not in delays:
                    raise DependencyError(
                        f"queue ({link_id}, P{priority}) needs the bound of ({up}, P{priority})")
                burst += r * delays[(up, priority)]
            buckets.append((burst, r))
        group = _token_buckets(buckets)
        parts.append(group if upstream_id is None else _upstream_capped(ctx, upstream_id, priority, group))
    return mp.sum_of(parts) if parts else mp.zero()


def _upstream_capped(ctx: ShaperContext, upstream_id: str, priority: int,
                     group: mp.Curve) -> mp.Curve:
    """Cap one upstream port's contribution to a priority: min(group, the
    upstream link's serialization, and for credit-shaped classes the
    upstream class shaping curve plus one frame)."""
    up_lmax, _ = ctx.class_frames(upstream_id, priority)
    candidates = [group, mp.Affine(up_lmax, ctx.link_rate(upstream_id))]
    if ctx.arch.cbs:
        shaping = ctx.shaping_curve(upstream_id, priority)
        candidates.append(mp.sum_of([shaping, mp.Affine(up_lmax, 0.0)]))
    return mp.min_of(candidates)


# ---------------------------------------------------------------------------
# Shaped-queue (per-hop regulator) analysis
# ---------------------------------------------------------------------------

def shaped_queue_analysis(ctx: ShaperContext, link_id: str, upstream_id: str,
                          priority: int, upstream_delay: float):
    """Delay and backlog bound of one shaped queue, fed by the upstream
    shared queue of the same priority.

    Reshaping adds nothing to the combined upstream-plus-regulator delay, so
    the shaped-queue bound is the upstream bound minus the minimum residence
    time there, and its backlog bound is the queue's arrival curve at that
    delay.
    """
    flows = ctx.upstream_groups(link_id, priority).get(upstream_id)
    if not flows:
        raise ValueError(f"no flows from {upstream_id} into {link_id} at priority {priority}")
    up_rate = ctx.link_rate(upstream_id)
    l_min = min(f.size for f in flows)
    delay = upstream_delay - l_min / up_rate
    if delay < 0.0:
        delay = 0.0
    buckets = [(b + r * upstream_delay, r) for b, r in map(nm.leaky_bucket_of, flows)]
    alpha = _upstream_capped(ctx, upstream_id, priority, _token_buckets(buckets))
    return delay, alpha.evaluate(delay)


# ---------------------------------------------------------------------------
# Time-triggered flow bounds
# ---------------------------------------------------------------------------

def tas_flow_bounds(network: nm.Network, flow: nm.Flow):
    """Deterministic end-to-end latency and zero jitter of a scheduled flow,
    straight from its offsets."""
    if flow.kind != "TT":
        raise ValueError(f"flow {flow.id} is not time-triggered")
    violations = nm.offset_violations(network, flow)
    if violations:
        raise InfeasibleScheduleError(str(violations[0]))
    last = flow.route[-1]
    first = flow.route[0]
    delay = flow.offsets[last] + flow.size / network.links[last].rate - flow.offsets[first]
    return delay + network.precision, 0.0


def tt_queue_backlogs(network: nm.Network, link_id: str):
    """Per-TT-queue backlog bound at a port: the largest frame assigned to
    each queue (frames are isolated, one flow in a queue at a time)."""
    out = {}
    for f in nm.tt_flows_on(network, link_id):
        q = f.tt_queue
        out[q] = max(out.get(q, 0.0), f.size)
    return out
