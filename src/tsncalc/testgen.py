"""Synthetic test-case generation: template topologies, random flow
populations steered to a target load, a feasibility-only schedule placer,
and a loader for external flow tables."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import netmodel as nm
from .errors import GenerationError, InfeasibleScheduleError

TOPOLOGY_KINDS = ("SRM", "MR", "MM", "ST", "MT")


# ---------------------------------------------------------------------------
# Template topologies
# ---------------------------------------------------------------------------

def _mesh(nodes, es_of, sw_pairs):
    net = nm.Network()
    for n in nodes:
        net.nodes[n] = nm.Node(n, "SW" if n.startswith("SW") else "ES")
    pairs = list(sw_pairs) + [(es, sw) for es, sw in es_of]
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            lid = f"{src}->{dst}"
            net.links[lid] = nm.Link(lid, src, dst)
    return net


def _two_es_each(sws):
    es = []
    idx = 1
    for sw in sws:
        for _ in range(2):
            es.append((f"ES{idx}", sw))
            idx += 1
    return es


def build_topology(kind: str) -> nm.Network:
    """Nodes and 100 Mb/s links of one of the five synthetic templates:
    small ring&mesh, medium ring, medium mesh, and trees of depth one/two.
    Switches host two end systems each (leaf switches only, for the trees)."""
    if kind == "SRM":
        sws = [f"SW{i}" for i in range(1, 5)]
        ring = [("SW1", "SW2"), ("SW2", "SW3"), ("SW3", "SW4"), ("SW4", "SW1"),
                ("SW1", "SW3")]
        es = _two_es_each(sws)
        return _mesh(sws + [e for e, _ in es], es, ring)
    if kind == "MR":
        sws = [f"SW{i}" for i in range(1, 9)]
        ring = [(f"SW{i}", f"SW{i % 8 + 1}") for i in range(1, 9)]
        es = _two_es_each(sws)
        return _mesh(sws + [e for e, _ in es], es, ring)
    if kind == "MM":
        sws = [f"SW{i}" for i in range(1, 9)]
        rows = [("SW1", "SW2"), ("SW2", "SW3"), ("SW3", "SW4"),
                ("SW5", "SW6"), ("SW6", "SW7"), ("SW7", "SW8")]
        cols = [("SW1", "SW5"), ("SW2", "SW6"), ("SW3", "SW7"), ("SW4", "SW8")]
        diag = [("SW1", "SW6"), ("SW2", "SW7"), ("SW3", "SW8")]
        es = _two_es_each(sws)
        return _mesh(sws + [e for e, _ in es], es, rows + cols + diag)
    if kind == "ST":
        sws = ["SW1", "SW2", "SW3"]
        tree = [("SW1", "SW2"), ("SW1", "SW3")]
        es = [("ES1", "SW2"), ("ES2", "SW2"), ("ES3", "SW3"), ("ES4", "SW3"),
              ("ES5", "SW1"), ("ES6", "SW1")]
        return _mesh(sws + [e for e, _ in es], es, tree)
    if kind == "MT":
        sws = [f"SW{i}" for i in range(1, 8)]
        tree = [("SW1", "SW2"), ("SW1", "SW3"),
                ("SW2", "SW4"), ("SW2", "SW5"), ("SW3", "SW6"), ("SW3", "SW7")]
        es = []
        idx = 1
        for leaf in ("SW4", "SW5", "SW6", "SW7"):
            for _ in range(2):
                es.append((f"ES{idx}", leaf))
                idx += 1
        return _mesh(sws + [e for e, _ in es], es, tree)
    raise GenerationError(f"unknown topology template {kind!r}; expected one of {TOPOLOGY_KINDS}")


def shortest_route(network: nm.Network, src_es: str, dst_es: str):
    """Shortest path by hop count, ties broken by lexicographic node order."""
    adjacency = {}
    for link in network.links.values():
        adjacency.setdefault(link.src, []).append((link.dst, link.id))
    for nbrs in adjacency.values():
        nbrs.sort()
    best = {src_es: (0, [])}
    frontier = [src_es]
    while frontier:
        frontier.sort(key=lambda n: (best[n][0], n))
        node = frontier.pop(0)
        dist, path = best[node]
        if node == dst_es:
            return tuple(path)
        for nxt, lid in adjacency.get(node, []):
            cand = (dist + 1, path + [lid])
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                if nxt not in frontier:
                    frontier.append(nxt)
    raise GenerationError(f"no route from {src_es} to {dst_es}")


class _Routes(dict):
    """`shortest_route` on one topology, keyed (src, dst), each pair searched
    on its first lookup only."""

    def __init__(self, network: nm.Network):
        super().__init__()
        self.network = network

    def __missing__(self, pair):
        self[pair] = route = shortest_route(self.network, *pair)
        return route


@functools.lru_cache(maxsize=None)
def _template(kind: str):
    """The topology of a template kind and its route table, built on first
    use and shared by every later `generate` in the process.  The topology
    never leaves `generate`: it copies the dicts of frozen nodes and links."""
    base = build_topology(kind)
    return base, _Routes(base)


# ---------------------------------------------------------------------------
# Load accounting
# ---------------------------------------------------------------------------

def _flow_rate(flow: nm.Flow) -> float:
    if flow.periodic:
        return flow.size / flow.period
    return flow.rate


def link_loads(network: nm.Network):
    loads = {}
    for f in network.flows.values():
        r = _flow_rate(f)
        for link_id in f.route:
            loads[link_id] = loads.get(link_id, 0.0) + r / network.links[link_id].rate
    return loads


def max_link_load(network: nm.Network) -> float:
    """Busiest-link utilization; the traffic-load figure generation targets.

    This is the only load notion that stays feasible across the whole sweep
    range: at high targets every link must still run below capacity, which
    rules out interpreting the target as a mean over links.
    """
    loads = link_loads(network)
    return max(loads.values(), default=0.0)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

@dataclass
class GenSpec:
    target_load: float
    flow_count: int | None = None          # None: adapt the count to the load band
    periods: tuple = (1000.0, 2000.0, 5000.0, 10000.0)
    size_range: tuple = (512, 12176)       # bits
    priorities: tuple = (5,)
    tt_load_fraction: float = 0.0          # share of the target load carried by TT
    sporadic_fraction: float = 0.0         # share of event flows emitted as sporadic
    kind: str = "SP"                       # label for event flows (SP or AVB)
    be_interferer: bool = False
    seed: int = 0
    load_tolerance: float = 0.05           # absolute band around the target
    max_attempts: int = 100

    def __post_init__(self):
        if not (0.0 <= self.target_load < 1.0):
            raise GenerationError(f"target load {self.target_load} outside [0, 1)")
        for label, share in (("scheduled load fraction", self.tt_load_fraction),
                             ("sporadic fraction", self.sporadic_fraction)):
            if not 0.0 <= share <= 1.0:
                raise GenerationError(f"{label} {share} outside [0, 1]")
        if self.flow_count is not None and self.flow_count < 1:
            raise GenerationError(f"flow count {self.flow_count} below 1")
        if self.kind not in nm.EVENT_KINDS:
            raise GenerationError("event flows must be SP or AVB")
        for priority in self.priorities:
            if not 0 <= priority <= 7:
                raise GenerationError(f"priority {priority} outside 0..7")


def _draw_flows(network: nm.Network, routes: _Routes, spec: GenSpec, rng, count: int):
    # Indexing by rng.integers(0, n), or choice on n itself, draws the same
    # stream as rng.choice on the sequence, for less work per call.
    es_nodes = sorted(n.id for n in network.nodes.values() if n.kind == "ES")
    flows = {}
    tt_target = spec.target_load * spec.tt_load_fraction
    tt_loads = {}  # link id -> scheduled load, summed in draw order as link_loads does
    for i in range(count):
        fid = f"f{i:03d}"
        src, dst = rng.choice(len(es_nodes), size=2, replace=False)
        route = routes[es_nodes[src], es_nodes[dst]]
        size = float(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        period = float(spec.periods[rng.integers(0, len(spec.periods))])
        priority = int(spec.priorities[rng.integers(0, len(spec.priorities))])
        make_tt = (spec.tt_load_fraction > 0.0
                   and max(tt_loads.values(), default=0.0) < tt_target)
        if make_tt:
            flows[fid] = nm.Flow(fid, "TT", size, 7, route, period=period)
            rate = size / period
            for link_id in route:
                tt_loads[link_id] = tt_loads.get(link_id, 0.0) + rate / network.links[link_id].rate
        elif rng.random() < spec.sporadic_fraction:
            flows[fid] = nm.Flow(fid, spec.kind, size, priority, route,
                                 burst=size, rate=size / period)
        else:
            flows[fid] = nm.Flow(fid, spec.kind, size, priority, route, period=period)
    return flows


def generate(template: str | nm.Network, spec: GenSpec) -> nm.Network:
    """A random network on a template topology whose achieved average load
    falls within the tolerance band around the target; the flow population is
    redrawn (and, when no count is pinned, resized) until it does.  Routes
    are `shortest_route`'s, searched once per template kind in a process, or
    once per call for a network given as the template."""
    base, routes = (_template(template) if isinstance(template, str)
                    else (template, _Routes(template)))
    rng = np.random.default_rng(spec.seed)
    if spec.target_load == 0.0:
        net = nm.Network(nodes=dict(base.nodes), links=dict(base.links))
        net.be_interferer = spec.be_interferer
        return net

    count = spec.flow_count or max(1, int(round(spec.target_load * 40)))
    best_achieved = 0.0
    for _ in range(spec.max_attempts):
        net = nm.Network(nodes=dict(base.nodes), links=dict(base.links))
        net.flows = _draw_flows(net, routes, spec, rng, count)
        net.be_interferer = spec.be_interferer
        achieved = max_link_load(net)
        err = abs(achieved - spec.target_load)
        if err < abs(best_achieved - spec.target_load):
            best_achieved = achieved
        if err <= spec.load_tolerance:
            _finish(net)
            return net
        if spec.flow_count is None and achieved > 0.0:
            scaled = int(round(count * spec.target_load / achieved))
            count = max(1, min(scaled, count * 2 + 1))
            if count == len(net.flows) and err > spec.load_tolerance:
                count += 1 if achieved < spec.target_load else -1
                count = max(1, count)
    raise GenerationError(
        f"could not reach load {spec.target_load:.0%} +/- {spec.load_tolerance:.0%} "
        f"within {spec.max_attempts} attempts (best {best_achieved:.2%})")


def _finish(net: nm.Network) -> None:
    tt = [f for f in net.flows.values() if f.kind == "TT"]
    if tt:
        gcls, offsets = gcl_place(net, tt)
        net.gcls = gcls
        for f in tt:
            net.flows[f.id] = nm.Flow(
                f.id, f.kind, f.size, f.priority, f.route,
                period=f.period, offsets=offsets[f.id], tt_queue=f.tt_queue)


# ---------------------------------------------------------------------------
# Feasibility-only schedule placement
# ---------------------------------------------------------------------------

def _lcm(values) -> int:
    acc = 1
    for v in values:
        acc = acc * v // math.gcd(acc, v)
    return acc


def gcl_place(network: nm.Network, tt_flows):
    """Earliest-feasible non-overlapping window placement.

    Flows are processed by (period, id); on each route link a frame gets the
    earliest offset after its upstream transmission completes that collides
    with no already-placed window instance modulo the schedule period (the
    lcm of the flow periods).  Emits one window per frame instance per link.
    """
    flows = sorted(tt_flows, key=lambda f: (f.period, f.id))
    if not flows:
        return {}, {}
    periods_us = []
    for f in flows:
        p = int(round(f.period))
        if abs(p - f.period) > 1e-6:
            raise InfeasibleScheduleError(f"flow {f.id}: period must be integer microseconds")
        periods_us.append(p)
    t_gcl = float(_lcm(periods_us))
    windows = {}  # link id -> list of (offset, length)
    offsets = {}
    for f in flows:
        offsets[f.id] = {}
        prev_ready = 0.0
        for link_id in f.route:
            link = network.links[link_id]
            width = f.size / link.rate
            if prev_ready > f.period - width + 1e-9:
                raise InfeasibleScheduleError(
                    f"flow {f.id}: no feasible offset within its period on {link_id}")
            placed = windows.setdefault(link_id, [])
            offset = _first_fit(placed, prev_ready, width, f.period, t_gcl)
            if offset is None:
                raise InfeasibleScheduleError(
                    f"flow {f.id}: no feasible offset within its period on {link_id}")
            offsets[f.id][link_id] = offset
            for k in range(int(t_gcl / f.period)):
                placed.append((offset + k * f.period, width))
            prev_ready = offset + width + link.prop_delay + link.fwd_delay
    gcls = {}
    for link_id, placed in windows.items():
        wins = tuple(nm.GclWindow(o, w) for o, w in sorted(placed))
        gcls[link_id] = nm.Gcl(period=t_gcl, windows=wins)
    return gcls, offsets


def _first_fit(placed, lower, width, period, t_gcl):
    """Smallest offset >= lower whose instances avoid all placed windows."""
    reps = int(t_gcl / period)

    def conflict(offset):
        for k in range(reps):
            lo = offset + k * period
            hi = lo + width
            for wo, wl in placed:
                if lo < wo + wl - 1e-9 and wo < hi - 1e-9:
                    return max(0.0, wo + wl - k * period)
        return None

    offset = lower
    for _ in range(len(placed) * reps + 2):
        if offset > period - width + 1e-9:
            return None
        bump = conflict(offset)
        if bump is None:
            return offset
        offset = max(bump, offset + 1e-9)
    return None


# ---------------------------------------------------------------------------
# External flow tables
# ---------------------------------------------------------------------------

def load_flow_table(path):
    """Rows of an external flow table CSV:
    id, kind, size_bytes, period_us, priority, source, dest."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "id": row["id"],
                "kind": row["kind"].strip(),
                "size_bits": float(row["size_bytes"]) * 8.0,
                "period_us": float(row["period_us"]),
                "priority": int(row["priority"]),
                "source": row["source"].strip(),
                "dest": row["dest"].strip(),
            })
    return rows


def attach_flow_table(network: nm.Network, rows) -> nm.Network:
    """Route the table's flows over the given topology (shortest path) and
    place schedules for its time-triggered entries."""
    for row in rows:
        route = shortest_route(network, row["source"], row["dest"])
        network.flows[row["id"]] = nm.Flow(
            row["id"], row["kind"], row["size_bits"], row["priority"], route,
            period=row["period_us"])
    _finish(network)
    return network
