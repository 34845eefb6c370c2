"""Fixture generation: determinism, load steering, schedule placement."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest

from tsncalc import netmodel as nm
from tsncalc import testgen as tg
from tsncalc.errors import GenerationError, InfeasibleScheduleError


def test_topologies_build_and_are_symmetric():
    for kind in tg.TOPOLOGY_KINDS:
        net = tg.build_topology(kind)
        assert any(n.kind == "ES" for n in net.nodes.values())
        for link in net.links.values():
            assert f"{link.dst}->{link.src}" in net.links


def test_generation_deterministic():
    a = tg.generate("MM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.4, seed=11))
    b = tg.generate("MM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.4, seed=11))
    assert json.dumps(nm.to_dict(a)) == json.dumps(nm.to_dict(b))


def test_zero_load_gives_no_flows():
    net = tg.generate("MM", tg.GenSpec(target_load=0.0, seed=1))
    assert net.flows == {}


def test_mm_fifteen_flows_hits_load_band():
    for seed in range(5):
        net = tg.generate("MM", tg.GenSpec(target_load=0.17, flow_count=15,
                                           seed=seed, max_attempts=200))
        assert len(net.flows) == 15
        assert 0.12 <= tg.max_link_load(net) <= 0.22


def test_generated_networks_validate():
    for seed in range(6):
        net = tg.generate("MT", tg.GenSpec(target_load=0.35, tt_load_fraction=0.3,
                                           sporadic_fraction=0.4, priorities=(6, 5, 4),
                                           seed=seed))
        assert nm.validate(net) == []


def test_unreachable_load_raises():
    with pytest.raises(GenerationError):
        tg.generate("MM", tg.GenSpec(target_load=0.9, flow_count=1, max_attempts=10, seed=0))


def test_sporadic_flows_use_virtual_period_envelope():
    net = tg.generate("MM", tg.GenSpec(target_load=0.3, sporadic_fraction=1.0, seed=2))
    sporadic = [f for f in net.flows.values() if not f.periodic]
    assert sporadic
    for f in sporadic:
        assert f.burst == f.size
        assert f.rate > 0


def test_shortest_route_deterministic_tie_break():
    net = tg.build_topology("MM")
    r1 = tg.shortest_route(net, "ES1", "ES7")
    r2 = tg.shortest_route(net, "ES1", "ES7")
    assert r1 == r2
    assert net.links[r1[0]].src == "ES1"
    assert net.links[r1[-1]].dst == "ES7"


def line_for_tt(n_links=3):
    net = nm.Network()
    net.nodes["ES1"] = nm.Node("ES1", "ES")
    net.nodes["ESX"] = nm.Node("ESX", "ES")
    prev = "ES1"
    route = []
    for i in range(n_links - 1):
        sw = f"SW{i + 1}"
        net.nodes[sw] = nm.Node(sw, "SW")
        lid = f"L{i + 1}"
        net.links[lid] = nm.Link(lid, prev, sw, rate=100.0)
        route.append(lid)
        prev = sw
    net.links["LX"] = nm.Link("LX", prev, "ESX", rate=100.0)
    route.append("LX")
    return net, tuple(route)


def test_gcl_place_single_flow_cumulative_offsets():
    net, route = line_for_tt()
    f = nm.Flow("t", "TT", 10000.0, 7, route, period=1000.0)
    net.flows["t"] = f
    gcls, offsets = tg.gcl_place(net, [f])
    assert offsets["t"][route[0]] == 0.0
    assert offsets["t"][route[1]] == pytest.approx(100.0)
    assert offsets["t"][route[2]] == pytest.approx(200.0)
    assert all(g.period == 1000.0 for g in gcls.values())


def test_gcl_place_collision_shifts_second_flow():
    net, route = line_for_tt(2)
    f1 = nm.Flow("a", "TT", 10000.0, 7, route, period=1000.0)
    f2 = nm.Flow("b", "TT", 5000.0, 7, route, period=1000.0)
    net.flows = {"a": f1, "b": f2}
    _, offsets = tg.gcl_place(net, [f1, f2])
    assert offsets["a"][route[0]] == 0.0
    assert offsets["b"][route[0]] == pytest.approx(100.0)  # after a's window


def test_gcl_place_period_is_lcm():
    net, route = line_for_tt(2)
    f1 = nm.Flow("a", "TT", 1000.0, 7, route, period=2000.0)
    f2 = nm.Flow("b", "TT", 1000.0, 7, route, period=5000.0)
    net.flows = {"a": f1, "b": f2}
    gcls, _ = tg.gcl_place(net, [f1, f2])
    assert all(g.period == 10000.0 for g in gcls.values())


def test_gcl_place_infeasible_within_period():
    net, route = line_for_tt(2)
    flows = [nm.Flow(f"t{i}", "TT", 12176.0, 7, route, period=1000.0) for i in range(9)]
    net.flows = {f.id: f for f in flows}
    with pytest.raises(InfeasibleScheduleError):
        tg.gcl_place(net, flows)  # 9 * 121.76us does not fit in 1000us


def test_gcl_windows_never_overlap_exhaustive():
    net = tg.generate("MM", tg.GenSpec(target_load=0.5, tt_load_fraction=0.6, seed=4))
    tt = [f for f in net.flows.values() if f.kind == "TT"]
    assert len(tt) >= 10
    for lid, gcl in net.gcls.items():
        wins = sorted(gcl.windows, key=lambda w: w.offset)
        for a, b in zip(wins, wins[1:]):
            assert b.offset >= a.end - 1e-9
        assert wins[-1].end <= gcl.period + 1e-9


def test_tt_windows_increase_along_route():
    net = tg.generate("SRM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.5, seed=8))
    for f in net.flows.values():
        if f.kind != "TT":
            continue
        times = [f.offsets[l] for l in f.route]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_busiest_link_accounting_consistent():
    net = tg.generate("MR", tg.GenSpec(target_load=0.4, seed=3))
    loads = tg.link_loads(net)
    busiest = max(loads, key=lambda k: loads[k])
    total = sum(nm.leaky_bucket_of(f)[1] for f in net.flows.values()
                if busiest in f.route and f.kind != "TT")
    total += sum(f.size / f.period for f in net.flows.values()
                 if busiest in f.route and f.kind == "TT")
    assert loads[busiest] * net.links[busiest].rate == pytest.approx(total)
    assert tg.max_link_load(net) == pytest.approx(loads[busiest])


def test_flow_table_roundtrip(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        "id,kind,size_bytes,period_us,priority,source,dest\n"
        "o1,TT,1522,1000,7,ES1,ES5\n"
        "o2,SP,64,2000,5,ES2,ES6\n"
    )
    rows = tg.load_flow_table(path)
    assert rows[0]["size_bits"] == 1522 * 8
    net = tg.build_topology("MM")
    net = tg.attach_flow_table(net, rows)
    assert set(net.flows) == {"o1", "o2"}
    assert net.flows["o1"].offsets  # schedule was placed
    assert nm.validate(net) == []


def test_priorities_and_kind_honored():
    net = tg.generate("ST", tg.GenSpec(target_load=0.3, priorities=(6, 4), kind="AVB", seed=5))
    prios = {f.priority for f in net.flows.values()}
    assert prios <= {6, 4}
    assert {f.kind for f in net.flows.values()} == {"AVB"}


# ---------------------------------------------------------------------------
# Generation against the per-draw algorithm it replaced
# ---------------------------------------------------------------------------

def _reference_tt_only_load(network, flows):
    probe = nm.Network(nodes=network.nodes, links=network.links,
                       flows={f.id: f for f in flows if f.kind == "TT"})
    return tg.max_link_load(probe)


def _reference_draw_flows(network, spec, rng, count):
    """The generator's flow draw before route tables: a fresh route search
    per draw and a rescan of the scheduled flows drawn so far."""
    es_nodes = sorted(n.id for n in network.nodes.values() if n.kind == "ES")
    flows = {}
    tt_target = spec.target_load * spec.tt_load_fraction
    for i in range(count):
        fid = f"f{i:03d}"
        src, dst = rng.choice(es_nodes, size=2, replace=False)
        route = tg.shortest_route(network, str(src), str(dst))
        size = float(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        period = float(rng.choice(spec.periods))
        priority = int(rng.choice(spec.priorities))
        make_tt = (spec.tt_load_fraction > 0.0
                   and _reference_tt_only_load(network, flows.values()) < tt_target)
        if make_tt:
            flows[fid] = nm.Flow(fid, "TT", size, 7, route, period=period)
        elif rng.random() < spec.sporadic_fraction:
            flows[fid] = nm.Flow(fid, spec.kind, size, priority, route,
                                 burst=size, rate=size / period)
        else:
            flows[fid] = nm.Flow(fid, spec.kind, size, priority, route, period=period)
    return flows


def _reference_generate(template, spec, attempts):
    """`generate` before route tables; appends its number of draws to
    ``attempts``."""
    base = tg.build_topology(template) if isinstance(template, str) else template
    rng = np.random.default_rng(spec.seed)
    if spec.target_load == 0.0:
        net = nm.Network(nodes=dict(base.nodes), links=dict(base.links))
        net.be_interferer = spec.be_interferer
        attempts.append(0)
        return net

    count = spec.flow_count or max(1, int(round(spec.target_load * 40)))
    for attempt in range(spec.max_attempts):
        net = nm.Network(nodes=dict(base.nodes), links=dict(base.links))
        net.flows = _reference_draw_flows(net, spec, rng, count)
        net.be_interferer = spec.be_interferer
        achieved = tg.max_link_load(net)
        err = abs(achieved - spec.target_load)
        if err <= spec.load_tolerance:
            tg._finish(net)
            attempts.append(attempt + 1)
            return net
        if spec.flow_count is None and achieved > 0.0:
            scaled = int(round(count * spec.target_load / achieved))
            count = max(1, min(scaled, count * 2 + 1))
            if count == len(net.flows) and err > spec.load_tolerance:
                count += 1 if achieved < spec.target_load else -1
                count = max(1, count)
    raise GenerationError("reference draw missed the load band")


def _cut_mesh():
    """MM without two diagonals: its routes differ from the MM template's."""
    net = tg.build_topology("MM")
    for lid in ("SW1->SW6", "SW6->SW1", "SW3->SW8", "SW8->SW3"):
        del net.links[lid]
    return net


# (template, spec, sha256 of the sorted-key JSON of the network); the
# digests were recorded with the per-draw algorithm under numpy 2.4.6
EQUIVALENCE_SPECS = [
    ("SRM", dict(target_load=0.3, seed=1),
     "89afaeb831c9f2491a7adf8d07d3ef14f06dcbf1328295812a0640382b3ad4be"),
    ("MR", dict(target_load=0.4, priorities=(6, 5, 4), seed=7),
     "bbfd8ed10513ddef09084bcccc7042179c3733302e73144b99a91b4a8d0fbb5c"),
    ("MM", dict(target_load=0.5, tt_load_fraction=0.3, sporadic_fraction=0.4, seed=3),
     "c09ec11ef5f5377c24376e4b278d87bf3b28d1d9161ed6ad9258236931392a9f"),
    ("ST", dict(target_load=0.35, tt_load_fraction=0.5, seed=4),
     "ed4dcd09698dea37552a26bcebc3e29b65ffd3e1ac05e856bd349ec6760f78a1"),
    ("MT", dict(target_load=0.35, tt_load_fraction=0.3, sporadic_fraction=0.4,
                priorities=(6, 5, 4), kind="AVB", seed=5),
     "5b6a8e511e7cf1d646cde4be70c14994801cbf8a67364e2da4aeb8fa2283050f"),
    ("MM", dict(target_load=0.17, flow_count=15, max_attempts=200, seed=2),
     "805ccd4db2198c50648d286ef745172aeb732ed72f00e4644f034f6146795c07"),
    ("MM", dict(target_load=0.7, flow_count=120, priorities=(6, 5, 4), seed=13),
     "2ff63c71569f789e5d960da814202400afae0cda5a02528f9b4ee9b9afa16127"),
    ("MM", dict(target_load=0.0, seed=1),
     "29471f8524139b50470957468adfffd79035ab7bc264cebc7c6642a6adfe2097"),
    ("MT", dict(target_load=0.6, tt_load_fraction=0.5, periods=(1000.0, 2000.0),
                be_interferer=True, seed=8),
     "2a70a5a974a59b5cab11d60187152823d74e0158c647b7c69527789133e2ef81"),
    # one scheduled flow loads its links to exactly the scheduled target
    ("MM", dict(target_load=0.2, tt_load_fraction=0.5, size_range=(10000, 10000),
                periods=(1000.0,), seed=0),
     "d61ccd1f2c58bd64be8f6f402cadac6d5da77426e67812208f5da0f09df18f15"),
    (_cut_mesh, dict(target_load=0.3, tt_load_fraction=0.3, seed=6),
     "b4eb48a1f3de8b1dc51e9283eb45b242cbe3d2325f6910590dae97d185953cbf"),
]


def _network_json(net):
    return json.dumps(nm.to_dict(net), sort_keys=True)


def test_generation_matches_the_per_draw_reference():
    attempts = []
    for template, kwargs, digest in EQUIVALENCE_SPECS:
        spec = tg.GenSpec(**kwargs)
        make = template if callable(template) else lambda: template
        text = _network_json(tg.generate(make(), spec))
        assert text == _network_json(_reference_generate(make(), spec, attempts)), kwargs
        assert hashlib.sha256(text.encode()).hexdigest() == digest, kwargs
    # redraws with an adaptive and with a pinned flow count are covered
    assert attempts[0] > 1 and attempts[5] > 1


def test_routes_are_searched_once_per_template_pair(monkeypatch):
    searches = collections.Counter()
    search = tg.shortest_route

    def counted(network, src, dst):
        searches[(id(network), src, dst)] += 1
        return search(network, src, dst)

    monkeypatch.setattr(tg, "shortest_route", counted)
    tg._template.cache_clear()
    try:
        for seed in range(3):
            tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.3, seed=seed))
    finally:
        tg._template.cache_clear()
    assert searches and max(searches.values()) == 1
    assert len({key[0] for key in searches}) == 1


def test_template_cache_is_not_shared_with_callers():
    a, b = tg.build_topology("MM"), tg.build_topology("MM")
    assert a is not b and a.links is not b.links
    spec = tg.GenSpec(target_load=0.3, tt_load_fraction=0.3, seed=4)
    before = _network_json(tg.generate("MM", spec))
    rows = [{"id": "o1", "kind": "TT", "size_bits": 12176.0, "period_us": 1000.0,
             "priority": 7, "source": "ES1", "dest": "ES9"}]
    tg.attach_flow_table(tg.build_topology("MM"), rows)
    net = tg.generate("MM", spec)
    assert _network_json(net) == before
    net.flows.clear()
    net.links.clear()
    assert _network_json(tg.generate("MM", spec)) == before
