"""TSN system description: topology, flows, gate schedules, shaper settings.

The on-disk format is a single JSON document with top-level keys ``nodes``,
``links``, ``flows``, ``gcls``, ``cbs``, ``ats`` and ``queues``.  Times are
microseconds, frame/burst sizes are bits, and rates are Mb/s (numerically
identical to bits/us, converted on load).  See ``schema/network.schema.json``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError

MIN_FRAME_BITS = 64 * 8
MAX_FRAME_BITS = 1522 * 8

FLOW_KINDS = ("TT", "SP", "AVB", "BE")
#: The event-triggered kinds, whose queues get per-queue bounds.
EVENT_KINDS = ("SP", "AVB")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # "ES" or "SW"


@dataclass(frozen=True)
class Link:
    """Directed link out of an egress port; delays in us, rate in bits/us."""

    id: str
    src: str
    dst: str
    rate: float = 100.0
    prop_delay: float = 0.0
    fwd_delay: float = 0.0


@dataclass(frozen=True)
class Flow:
    id: str
    kind: str             # TT | SP | AVB | BE
    size: float           # frame size, bits
    priority: int         # 0 (lowest) .. 7 (highest)
    route: tuple          # ordered link ids, source egress first
    period: float | None = None   # periodic flows
    burst: float | None = None    # sporadic flows
    rate: float | None = None
    offsets: dict = field(default_factory=dict)  # TT: link id -> start offset, us
    tt_queue: int = 0

    @property
    def periodic(self) -> bool:
        return self.period is not None


@dataclass(frozen=True)
class GclWindow:
    offset: float
    length: float

    @property
    def end(self) -> float:
        return self.offset + self.length


@dataclass(frozen=True)
class Gcl:
    period: float
    windows: tuple  # sorted GclWindow tuples


@dataclass
class Network:
    nodes: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    gcls: dict = field(default_factory=dict)       # link id -> Gcl
    idle_slopes: dict = field(default_factory=dict)  # link id -> {priority: bits/us}
    cbs_fraction: float = 0.75                     # default reservable bandwidth share
    be_interferer: bool = False                    # model BE as a max-frame interferer
    be_frame: float = float(MAX_FRAME_BITS)
    precision: float = 0.0                         # clock precision, added once to TT e2e
    tt_queue_counts: dict = field(default_factory=dict)  # link id -> #TT queues
    ats_shaped_queues: dict = field(default_factory=dict)  # explicit maps, validation only
    # only on the views that ``indexed`` returns: link id -> flows crossing
    # it, in flow order, and the memos of the view's analyses by setting
    link_flows: dict | None = field(default=None, init=False, repr=False, compare=False)
    memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def gcl(self, link_id: str) -> Gcl | None:
        return self.gcls.get(link_id)

    def flows_on(self, link_id: str):
        if self.link_flows is not None:
            return self.link_flows.get(link_id, [])
        return [f for f in self.flows.values() if link_id in f.route]

    def indexed(self) -> "Network":
        """A snapshot view of this network that answers ``flows_on`` from a
        per-link index built once.  It also carries the memos of its
        analyses, one per analysis setting, with the curves and bounds they
        build (see ``shapers.ShaperContext``).  The view shares every table
        with this network and does not see changes made after it was made,
        so callers may share one view across the analyses of an unchanged
        network, and must build a new one after a change."""
        view = dataclasses.replace(self)
        view.memo = {}
        view.link_flows = {}
        for f in self.flows.values():
            for link_id in dict.fromkeys(f.route):
                view.link_flows.setdefault(link_id, []).append(f)
        return view

    def previous_link(self, flow: Flow, link_id: str) -> str | None:
        i = flow.route.index(link_id)
        return flow.route[i - 1] if i > 0 else None


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


# ---------------------------------------------------------------------------
# Derived traffic quantities
# ---------------------------------------------------------------------------

def leaky_bucket_of(flow: Flow):
    """Committed (burst, rate) envelope of an event-triggered flow."""
    if flow.kind == "TT":
        raise ValueError(f"flow {flow.id} is time-triggered; it has no leaky-bucket envelope")
    if flow.periodic:
        return flow.size, flow.size / flow.period
    return flow.burst, flow.rate


def event_flows_on(network: Network, link_id: str):
    """SP/AVB flows crossing a port, the ones that get per-queue bounds."""
    return [f for f in network.flows_on(link_id) if f.kind in EVENT_KINDS]


def tt_flows_on(network: Network, link_id: str):
    return [f for f in network.flows_on(link_id) if f.kind == "TT"]


def be_frame_at(network: Network, link_id: str) -> float:
    """Largest best-effort frame interfering at a port (0 when BE is absent)."""
    frames = [f.size for f in network.flows_on(link_id) if f.kind == "BE"]
    if network.be_interferer:
        frames.append(network.be_frame)
    return max(frames, default=0.0)


def max_event_frame(network: Network, link_id: str) -> float:
    """Largest SP/AVB/BE frame at a port; sizes the guard band."""
    frames = [f.size for f in event_flows_on(network, link_id)]
    frames.append(be_frame_at(network, link_id))
    return max(frames, default=0.0)


def lower_priority_max_frame(network: Network, link_id: str, priority: int) -> float:
    """l^max below a given priority at a port, BE included."""
    frames = [f.size for f in event_flows_on(network, link_id) if f.priority < priority]
    frames.append(be_frame_at(network, link_id))
    return max(frames, default=0.0)


def event_priorities(network: Network, link_id: str):
    """Distinct SP/AVB priorities at a port, highest first (queue order)."""
    return sorted({f.priority for f in event_flows_on(network, link_id)}, reverse=True)


def guard_band_lengths(network: Network, link_id: str):
    """Per-window guard band: min(max interfering frame time, idle gap before
    the window), indices wrapping around the schedule period."""
    gcl = network.gcl(link_id)
    if gcl is None or not gcl.windows:
        return []
    c = network.links[link_id].rate
    frame_time = max_event_frame(network, link_id) / c
    out = []
    n = len(gcl.windows)
    for j, win in enumerate(gcl.windows):
        prev = gcl.windows[(j - 1) % n]
        gap = win.offset - prev.end if j > 0 else win.offset + gcl.period - prev.end
        out.append(min(frame_time, max(0.0, gap)))
    return out


#: Default curve horizon, in multiples of the longest schedule or flow period.
HORIZON_PERIODS = 4.0


def hyperperiod_horizon(network: Network) -> float:
    """Default curve horizon: a multiple of the longest schedule or flow period."""
    spans = [gcl.period for gcl in network.gcls.values()]
    spans += [f.period for f in network.flows.values() if f.period]
    base = max(spans, default=1000.0)
    return HORIZON_PERIODS * base


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(network: Network):
    """Structural invariants the analyzers assume; violations are data."""
    out = []

    for link in network.links.values():
        if link.rate <= 0:
            out.append(Violation("BadLinkRate", link.id, f"rate must be > 0, got {link.rate}"))
        if link.prop_delay < 0 or link.fwd_delay < 0:
            out.append(Violation("BadLinkDelay", link.id, "delays must be >= 0"))
        for end, role in ((link.src, "src"), (link.dst, "dst")):
            if end not in network.nodes:
                out.append(Violation("UnknownNode", link.id, f"{role} node {end} undefined"))

    for f in network.flows.values():
        if f.kind not in FLOW_KINDS:
            out.append(Violation("BadKind", f.id, f"unknown kind {f.kind}"))
        if not (MIN_FRAME_BITS <= f.size <= MAX_FRAME_BITS):
            out.append(Violation(
                "BadFrameSize", f.id,
                f"frame size {f.size} outside [{MIN_FRAME_BITS}, {MAX_FRAME_BITS}] bits"))
        if not (0 <= f.priority <= 7):
            out.append(Violation("BadPriority", f.id, f"priority {f.priority} outside 0..7"))
        if f.periodic:
            if f.period <= 0:
                out.append(Violation("BadPeriod", f.id, "period must be > 0"))
        elif f.kind == "TT":
            out.append(Violation("TTAperiodic", f.id, "time-triggered flows must be periodic"))
        elif f.burst is None or f.rate is None or f.burst <= 0 or f.rate <= 0:
            out.append(Violation("BadTrafficSpec", f.id, "sporadic flows need burst > 0 and rate > 0"))
        if not (0 <= f.tt_queue < 8):
            out.append(Violation("BadQueueIndex", f.id, f"tt_queue {f.tt_queue} outside 0..7"))
        elif f.kind == "TT":
            for link_id in f.route:
                declared = network.tt_queue_counts.get(link_id)
                if declared is not None and f.tt_queue >= declared:
                    out.append(Violation(
                        "BadQueueIndex", f.id,
                        f"tt_queue {f.tt_queue} exceeds the {declared} queues declared at {link_id}"))

        missing = [l for l in f.route if l not in network.links]
        if missing:
            out.append(Violation("UnknownLink", f.id, f"route references undefined links {missing}"))
            continue
        if not f.route:
            out.append(Violation("EmptyRoute", f.id, "route has no links"))
            continue
        links = [network.links[l] for l in f.route]
        src_node = network.nodes.get(links[0].src)
        dst_node = network.nodes.get(links[-1].dst)
        if src_node and src_node.kind != "ES":
            out.append(Violation("BadEndpoint", f.id, "route must start at an end system"))
        if dst_node and dst_node.kind != "ES":
            out.append(Violation("BadEndpoint", f.id, "route must end at an end system"))
        for a, b in zip(links, links[1:]):
            if a.dst != b.src:
                out.append(Violation(
                    "DisconnectedRoute", f.id, f"link {a.id} ends at {a.dst} but {b.id} starts at {b.src}"))
        repeated = sorted({l for l in f.route if f.route.count(l) > 1})
        if repeated:
            out.append(Violation(
                "RepeatedLink", f.id, f"route crosses links {repeated} more than once"))

        if f.kind == "TT":
            out.extend(offset_violations(network, f))

    for link_id, gcl in network.gcls.items():
        if link_id not in network.links:
            out.append(Violation("UnknownLink", link_id, "schedule on undefined link"))
            continue
        if gcl.period <= 0:
            out.append(Violation("BadGclWindow", link_id, "schedule period must be > 0"))
            continue
        wins = sorted(gcl.windows, key=lambda w: w.offset)
        for w in wins:
            if w.offset < 0 or w.length <= 0 or w.end > gcl.period:
                out.append(Violation(
                    "BadGclWindow", link_id, f"window ({w.offset}, {w.length}) outside [0, {gcl.period})"))
        for a, b in zip(wins, wins[1:]):
            if b.offset < a.end - 1e-9:
                out.append(Violation(
                    "OverlappingWindows", link_id, f"windows at {a.offset} and {b.offset} overlap"))

    for link_id, slopes in network.idle_slopes.items():
        if link_id not in network.links:
            out.append(Violation("UnknownLink", link_id, "idle slopes on undefined link"))
            continue
        c = network.links[link_id].rate
        for prio, slope in slopes.items():
            if not (0 < slope < c):
                out.append(Violation(
                    "BadIdleSlope", link_id, f"idle slope {slope} for priority {prio} outside (0, {c})"))
        total = sum(slopes.values())
        if total > network.cbs_fraction * c + 1e-9:
            out.append(Violation(
                "CbsOverReserved", link_id,
                f"sum of idle slopes {total:.3f} exceeds {network.cbs_fraction:.0%} of link rate {c}"))

    _check_explicit_shaped_queues(network, out)
    return out


def offset_violations(network: Network, flow: Flow):
    """Offset violations of a scheduled flow on a route of known links: a
    MissingOffset per link without one, and an InfeasibleOffsets per link
    whose offset precedes the frame's arrival from the previous link, up to
    the first link without an offset."""
    out = [Violation("MissingOffset", flow.id, f"no offset on link {l}")
           for l in flow.route if l not in flow.offsets]
    for prev_link, link_id in zip(flow.route, flow.route[1:]):
        if prev_link not in flow.offsets or link_id not in flow.offsets:
            break
        lk = network.links[prev_link]
        earliest = flow.offsets[prev_link] + flow.size / lk.rate + lk.prop_delay + lk.fwd_delay
        if flow.offsets[link_id] < earliest - 1e-9:
            out.append(Violation(
                "InfeasibleOffsets", flow.id,
                f"offset on {link_id} precedes frame arrival from {prev_link}"))
    return out


def _check_explicit_shaped_queues(network: Network, out):
    for link_id, queues in network.ats_shaped_queues.items():
        for queue_id, sources in queues.items():
            ports = {p for p, _ in sources}
            prios = {pr for _, pr in sources}
            subject = f"{link_id}/{queue_id}"
            if len(ports) > 1:
                out.append(Violation(
                    "QAR1Violation", subject, f"shaped queue mixes input ports {sorted(ports)}"))
            if len(prios) > 1:
                out.append(Violation(
                    "QAR2Violation", subject, f"shaped queue mixes priorities {sorted(prios)}"))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_dict(network: Network) -> dict:
    doc = {
        "nodes": [{"id": n.id, "kind": n.kind} for n in network.nodes.values()],
        "links": [
            {
                "id": l.id, "from": l.src, "to": l.dst, "rate_mbps": l.rate,
                "prop_delay_us": l.prop_delay, "fwd_delay_us": l.fwd_delay,
            }
            for l in network.links.values()
        ],
        "flows": [],
        "gcls": {
            lid: {
                "period_us": g.period,
                "windows": [{"offset_us": w.offset, "length_us": w.length} for w in g.windows],
            }
            for lid, g in network.gcls.items()
        },
        "cbs": {
            "fraction": network.cbs_fraction,
            "idle_slopes_mbps": {
                lid: {str(p): s for p, s in slopes.items()}
                for lid, slopes in network.idle_slopes.items()
            },
        },
        "ats": {
            "shaped_queues": {
                lid: {qid: [list(src) for src in sources] for qid, sources in queues.items()}
                for lid, queues in network.ats_shaped_queues.items()
            },
        },
        "queues": {
            "be_interferer": network.be_interferer,
            "be_frame_bits": network.be_frame,
            "tt_queue_counts": dict(network.tt_queue_counts),
        },
        "precision_us": network.precision,
    }
    for f in network.flows.values():
        row = {
            "id": f.id, "kind": f.kind, "size_bits": f.size, "priority": f.priority,
            "route": list(f.route),
        }
        if f.periodic:
            row["period_us"] = f.period
        else:
            row["burst_bits"] = f.burst
            row["rate_mbps"] = f.rate
        if f.offsets:
            row["offsets_us"] = dict(f.offsets)
        if f.tt_queue:
            row["tt_queue"] = f.tt_queue
        doc["flows"].append(row)
    return doc


def from_dict(doc: dict) -> Network:
    try:
        net = Network()
        for n in doc.get("nodes", []):
            net.nodes[n["id"]] = Node(id=n["id"], kind=n["kind"])
        for l in doc.get("links", []):
            net.links[l["id"]] = Link(
                id=l["id"], src=l["from"], dst=l["to"],
                rate=float(l.get("rate_mbps", 100.0)),
                prop_delay=float(l.get("prop_delay_us", 0.0)),
                fwd_delay=float(l.get("fwd_delay_us", 0.0)),
            )
        for f in doc.get("flows", []):
            net.flows[f["id"]] = Flow(
                id=f["id"], kind=f["kind"], size=float(f["size_bits"]),
                priority=int(f["priority"]), route=tuple(f["route"]),
                period=float(f["period_us"]) if "period_us" in f else None,
                burst=float(f["burst_bits"]) if "burst_bits" in f else None,
                rate=float(f["rate_mbps"]) if "rate_mbps" in f else None,
                offsets={k: float(v) for k, v in f.get("offsets_us", {}).items()},
                tt_queue=int(f.get("tt_queue", 0)),
            )
        for lid, g in doc.get("gcls", {}).items():
            windows = tuple(sorted(
                (GclWindow(float(w["offset_us"]), float(w["length_us"])) for w in g.get("windows", [])),
                key=lambda w: w.offset,
            ))
            net.gcls[lid] = Gcl(period=float(g["period_us"]), windows=windows)
        cbs = doc.get("cbs", {})
        net.cbs_fraction = float(cbs.get("fraction", 0.75))
        for lid, slopes in cbs.get("idle_slopes_mbps", {}).items():
            net.idle_slopes[lid] = {int(p): float(s) for p, s in slopes.items()}
        ats = doc.get("ats", {})
        for lid, queues in ats.get("shaped_queues", {}).items():
            net.ats_shaped_queues[lid] = {
                qid: [(src[0], int(src[1])) for src in sources]
                for qid, sources in queues.items()
            }
        queues = doc.get("queues", {})
        net.be_interferer = bool(queues.get("be_interferer", False))
        net.be_frame = float(queues.get("be_frame_bits", MAX_FRAME_BITS))
        net.tt_queue_counts = {k: int(v) for k, v in queues.get("tt_queue_counts", {}).items()}
        net.precision = float(doc.get("precision_us", 0.0))
        return net
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network description: {exc}") from exc


def load(path) -> Network:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read network file {path}: {exc}") from exc
    return from_dict(doc)


def save(network: Network, path) -> None:
    Path(path).write_text(json.dumps(to_dict(network), indent=2) + "\n")
