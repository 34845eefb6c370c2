"""Orchestration: end-to-end assembly, dependency ordering, comparisons."""

import collections
import dataclasses
import time

import numpy as np
import pytest

from tsncalc import engine
from tsncalc import minplus as mp
from tsncalc import netmodel as nm
from tsncalc import shapers as sh
from tsncalc import testgen as tg
from tsncalc.errors import ConfigurationError, CycleError, InstabilityError

import nc_oracle as orc


def single_hop_net():
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    net.links["L1"] = nm.Link("L1", "ES1", "SW1", rate=100.0, prop_delay=1.0, fwd_delay=2.0)
    net.links["L2"] = nm.Link("L2", "SW1", "ES2", rate=100.0, prop_delay=1.0, fwd_delay=2.0)
    net.flows["f1"] = nm.Flow("f1", "SP", 12176.0, 5, ("L1", "L2"), period=1000.0)
    return net


def test_single_flow_end_to_end():
    rep = engine.analyze(single_hop_net(), "SP")
    fb = rep.flows["f1"]
    l_over_c = 12176.0 / 100.0
    assert fb.wcd == pytest.approx(2 * l_over_c + 2 * 1.0 + 2 * 2.0 - 2.0)
    assert fb.lb == pytest.approx(fb.wcd)
    assert fb.jitter == pytest.approx(0.0, abs=1e-12)


def test_tt_flow_zero_jitter_and_backlog():
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    net.links["L1"] = nm.Link("L1", "ES1", "SW1", rate=100.0)
    net.links["L2"] = nm.Link("L2", "SW1", "ES2", rate=100.0)
    net.flows["t1"] = nm.Flow("t1", "TT", 12176.0, 7, ("L1", "L2"), period=1000.0,
                              offsets={"L1": 0.0, "L2": 400.0})
    net.gcls["L1"] = nm.Gcl(1000.0, (nm.GclWindow(0.0, 121.76),))
    net.gcls["L2"] = nm.Gcl(1000.0, (nm.GclWindow(400.0, 121.76),))
    rep = engine.analyze(net, "TAS")
    assert rep.flows["t1"].wcd == pytest.approx(521.76)
    assert rep.flows["t1"].jitter == 0.0
    assert rep.tt_queues[("L1", 0)] == 12176.0


def cbs_fixture():
    """Three reserved-class flows over two switches, two source ports."""
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("ES3", "ES"), ("SW1", "SW"), ("SW2", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    for lid, a, b in [("L1", "ES1", "SW1"), ("L1b", "ES3", "SW1"),
                      ("L2", "SW1", "SW2"), ("L3", "SW2", "ES2")]:
        net.links[lid] = nm.Link(lid, a, b, rate=100.0)
    net.flows["f1"] = nm.Flow("f1", "AVB", 8000.0, 5, ("L1", "L2", "L3"), period=1000.0)
    net.flows["f2"] = nm.Flow("f2", "AVB", 4000.0, 5, ("L1", "L2", "L3"), period=2000.0)
    net.flows["f3"] = nm.Flow("f3", "AVB", 12176.0, 5, ("L1b", "L2", "L3"), period=5000.0)
    for lid in net.links:
        net.idle_slopes[lid] = {5: 75.0}
    net.be_interferer = True
    return net


def test_cbs_fixture_matches_independent_recomputation():
    """Every queue bound re-derived in-test from the reservation formulas and
    a sampled-curve deviation computation."""
    net = cbs_fixture()
    rep = engine.analyze(net, "CBS")
    idsl, c = 75.0, 100.0
    c_max = idsl * 12176.0 / c          # best-effort interferer below the class
    latency = c_max / idsl              # 121.76
    sigma_burst = c_max - (idsl - c) * 12176.0 / c  # shaper burst via credit range

    step = 0.05
    ts = np.arange(0.0, 20000.0, step)
    tiny = 1e-6
    tsx = np.unique(np.concatenate([ts, ts + tiny]))
    beta = idsl * np.maximum(0.0, tsx - latency)

    def affine(b, r):
        return np.where(tsx > 0, b + r * tsx, 0.0)

    def dev(alpha_vals):
        h = orc.hdev_sampled(tsx, alpha_vals, tsx, beta)
        v = float(np.max(alpha_vals - beta))
        return h, v

    # source ports: plain envelope sums
    b1, r1 = 8000.0, 8.0
    b2, r2 = 4000.0, 2.0
    b3, r3 = 12176.0, 12176.0 / 5000.0
    d_l1, v_l1 = dev(affine(b1 + b2, r1 + r2))
    d_l1b, v_l1b = dev(affine(b3, r3))
    assert rep.queues[("L1", 5)].delay == pytest.approx(d_l1, abs=0.01)
    assert rep.queues[("L1", 5)].backlog == pytest.approx(v_l1, abs=1.0)
    assert d_l1 == pytest.approx(latency + (b1 + b2) / idsl, abs=1e-6)
    assert rep.queues[("L1b", 5)].delay == pytest.approx(d_l1b, abs=0.01)

    # second hop: delayed groups capped by serialization and the class shaper
    def group(bursts_rates, delay, lmax):
        tot = np.zeros_like(tsx)
        for b, r in bursts_rates:
            tot = tot + affine(b + r * delay, r)
        return np.minimum(tot, np.minimum(affine(lmax, c), affine(sigma_burst + lmax, idsl)))

    alpha_l2 = group([(b1, r1), (b2, r2)], d_l1, 8000.0) + group([(b3, r3)], d_l1b, 12176.0)
    d_l2, v_l2 = dev(alpha_l2)
    assert rep.queues[("L2", 5)].delay == pytest.approx(d_l2, abs=0.01)
    assert rep.queues[("L2", 5)].backlog == pytest.approx(v_l2, abs=1.0)

    alpha_l3 = group([(b1 + r1 * d_l1, r1), (b2 + r2 * d_l1, r2),
                      (b3 + r3 * d_l1b, r3)], d_l2, 12176.0)
    d_l3, v_l3 = dev(alpha_l3)
    assert rep.queues[("L3", 5)].delay == pytest.approx(d_l3, abs=0.01)
    assert rep.queues[("L3", 5)].backlog == pytest.approx(v_l3, abs=1.0)

    # end-to-end assembly
    assert rep.flows["f1"].wcd == pytest.approx(d_l1 + d_l2 + d_l3, abs=0.05)
    assert rep.flows["f3"].wcd == pytest.approx(d_l1b + d_l2 + d_l3, abs=0.05)


def test_ats_closed_form_highest_priority_identical():
    net = single_hop_net()
    rep = engine.analyze(net, "ATS")
    cf = engine.ats_closed_form_bounds(net, rep)
    nc, non_nc, delta = cf["f1"]
    assert delta == 0.0
    assert nc == non_nc


def test_ats_hop_delta_arithmetic():
    net = single_hop_net()
    net.flows["comp"] = nm.Flow("comp", "SP", 12176.0, 5, ("L1", "L2"), period=1000.0)
    net.flows["hi"] = nm.Flow("hi", "SP", 4000.0, 7, ("L1", "L2"), burst=4000.0, rate=20.0)
    delta = engine.ats_hop_delta(net, "L1", net.flows["f1"])
    assert delta == pytest.approx(12176.0 / 80.0 - 12176.0 / 100.0)  # 30.44


def test_ats_hop_delta_instability():
    net = single_hop_net()
    net.flows["hi"] = nm.Flow("hi", "SP", 4000.0, 7, ("L1", "L2"), burst=4000.0, rate=120.0)
    with pytest.raises(InstabilityError):
        engine.ats_hop_delta(net, "L1", net.flows["f1"])


def _report_with(flows, queues):
    rep = engine.AnalysisReport(architecture="X", credit_mode=None, horizon=1000.0)
    for fid, wcd in flows.items():
        rep.flows[fid] = engine.FlowBounds(fid, 5, "SP", wcd, wcd / 2, wcd / 2)
    for key, b in queues.items():
        rep.queues[key] = engine.QueueBounds(key[0], key[1], b / 10, b)
    return rep


def test_difference_ratio_identical_reports():
    r = _report_with({"a": 100.0, "b": 50.0}, {("L", 5): 1000.0})
    for metric in ("delay", "jitter", "backlog"):
        ratios, mean = engine.difference_ratio(r, r, metric)
        assert mean == 0.0
        assert all(v == 0.0 for v in ratios.values())


def test_difference_ratio_doubled():
    r1 = _report_with({"a": 200.0, "b": 100.0}, {("L", 5): 2000.0})
    r2 = _report_with({"a": 100.0, "b": 50.0}, {("L", 5): 1000.0})
    for metric in ("delay", "backlog"):
        _, mean = engine.difference_ratio(r1, r2, metric)
        assert mean == pytest.approx(1.0)


def test_difference_ratio_skips_zero_reference():
    r1 = _report_with({"a": 100.0}, {})
    r2 = _report_with({"a": 0.0}, {})
    ratios, mean = engine.difference_ratio(r1, r2, "delay")
    assert ratios == {} and np.isnan(mean)


def ring_net():
    net = nm.Network()
    for i in (1, 2, 3):
        net.nodes[f"SW{i}"] = nm.Node(f"SW{i}", "SW")
        net.nodes[f"ES{i}"] = nm.Node(f"ES{i}", "ES")
    links = [("E1", "ES1", "SW1"), ("E2", "ES2", "SW2"), ("E3", "ES3", "SW3"),
             ("X1", "SW1", "ES1"), ("X2", "SW2", "ES2"), ("X3", "SW3", "ES3"),
             ("R12", "SW1", "SW2"), ("R23", "SW2", "SW3"), ("R31", "SW3", "SW1")]
    for lid, a, b in links:
        net.links[lid] = nm.Link(lid, a, b, rate=100.0)
    net.flows["f1"] = nm.Flow("f1", "SP", 4000.0, 5, ("E1", "R12", "R23", "X3"), period=1000.0)
    net.flows["f2"] = nm.Flow("f2", "SP", 4000.0, 5, ("E2", "R23", "R31", "X1"), period=1000.0)
    net.flows["f3"] = nm.Flow("f3", "SP", 4000.0, 5, ("E3", "R31", "R12", "X2"), period=1000.0)
    return net


def test_cycle_detection_lists_cycle():
    with pytest.raises(CycleError) as exc:
        engine.analyze(ring_net(), "SP")
    cycle_links = {q[0] for q in exc.value.cycle}
    assert {"R12", "R23", "R31"} <= cycle_links


def test_cycle_listing_is_a_dependency_cycle():
    net = tg.generate("MR", tg.GenSpec(target_load=0.4, priorities=(6, 5, 4), seed=7))
    with pytest.raises(CycleError) as exc:
        engine.analyze(net, "SP")
    cycle = exc.value.cycle
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    graph = engine.queue_dependency_graph(net)
    for a, b in zip(cycle, cycle[1:]):
        assert a in graph[b]


def _tagged(net, tag):
    """The network with every node, link and flow id prefixed by ``tag``."""
    out = nm.Network()
    for n in net.nodes.values():
        out.nodes[tag + n.id] = nm.Node(tag + n.id, n.kind)
    for l in net.links.values():
        out.links[tag + l.id] = dataclasses.replace(l, id=tag + l.id, src=tag + l.src,
                                                    dst=tag + l.dst)
    for f in net.flows.values():
        out.flows[tag + f.id] = dataclasses.replace(f, id=tag + f.id,
                                                    route=tuple(tag + l for l in f.route))
    return out


def test_fixed_point_matches_feed_forward_on_acyclic_part():
    """Fixed-point sweeps over a ring plus a disjoint tree leave the tree's
    queues exactly at their feed-forward bounds, on multi-priority ports."""
    spec = dict(target_load=0.4, priorities=(6, 5, 4), seed=7)
    ring = _tagged(tg.generate("MR", tg.GenSpec(**spec)), "r.")
    tree = _tagged(tg.generate("MT", tg.GenSpec(**spec)), "t.")
    both = nm.Network(nodes={**ring.nodes, **tree.nodes}, links={**ring.links, **tree.links},
                      flows={**ring.flows, **tree.flows})
    assert any(len(nm.event_priorities(tree, l)) > 1 for l in tree.links)
    for arch in ("SP", "CBS"):
        with pytest.raises(CycleError):
            engine.analyze(both, arch)
        combined = engine.analyze(both, arch, fixed_point=True)
        alone = engine.analyze(tree, arch, fixed_point=True)
        assert alone.queues
        for key, qb in alone.queues.items():
            assert combined.queues[key] == qb


def test_cbs_curves_built_once_per_class(monkeypatch):
    net = tg.generate("MM", tg.GenSpec(target_load=0.3, seed=7))
    builds = collections.Counter()
    for name in ("cbs_credit_bounds", "cbs_shaping_curve"):
        def counted(ctx, link_id, priority, _name=name, _build=getattr(sh, name)):
            builds[(_name, link_id, priority)] += 1
            return _build(ctx, link_id, priority)
        monkeypatch.setattr(sh, name, counted)
    engine.analyze(net, "CBS")
    assert {name for name, _, _ in builds} == {"cbs_credit_bounds", "cbs_shaping_curve"}
    assert max(builds.values()) == 1


def test_gate_free_analyses_build_no_segments(monkeypatch):
    mm = tg.generate("MM", tg.GenSpec(target_load=0.3, priorities=(6, 5, 4), seed=7))
    ring = tg.generate("MR", tg.GenSpec(target_load=0.4, priorities=(6, 5, 4), seed=7))
    gated = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.3, seed=7))
    built = collections.Counter()
    init = mp.Segments.__init__

    def counted(self, *args):
        built["segments"] += 1
        init(self, *args)

    monkeypatch.setattr(mp.Segments, "__init__", counted)
    # token-bucket and rate-latency curves only: every deviation is closed form
    for arch in ("SP", "ATS", "CBS"):
        assert engine.analyze(mm, arch).queues
    with pytest.raises(CycleError):
        engine.analyze(ring, "SP")
    assert engine.analyze(ring, "SP", fixed_point=True).queues
    assert built["segments"] == 0
    # gate staircases still need the segments
    engine.analyze(gated, "TAS+SP")
    assert built["segments"] > 0


GATED_SETTINGS = (("TAS+SP", None), ("TAS+CBS", "frozen"), ("TAS+CBS", "nonfrozen"),
                  ("TAS+ATS+SP", None), ("TAS+ATS+CBS", "frozen"), ("TAS+ATS+CBS", "nonfrozen"))


def _has_gate_leaf(curve):
    if isinstance(curve, (mp.StaircaseMax, mp.TdmaService)):
        return True
    operands = getattr(curve, "curves", ()) + ((curve.curve,) if hasattr(curve, "curve") else ())
    return any(_has_gate_leaf(c) for c in operands)


def _curves_built(monkeypatch, analyze):
    """Every curve that ``analyze()`` builds."""
    built = []
    init = mp.Curve.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(mp.Curve, "__init__", recorded)
    analyze()
    monkeypatch.undo()
    return built


def test_gate_free_analyses_build_no_curve_with_a_horizon(monkeypatch):
    # no gate period among any curve's leaves, and no window read
    mm = tg.generate("MM", tg.GenSpec(target_load=0.3, priorities=(6, 5, 4), seed=7))
    for arch in ("SP", "ATS", "CBS"):
        reports = []
        built = _curves_built(monkeypatch, lambda: reports.append(engine.analyze(mm, arch)))
        assert built and all(c.period is None and c.window is None for c in built), arch
        assert reports[0].horizon == nm.hyperperiod_horizon(mm)


def test_every_node_of_a_gated_analysis_has_a_gate_leaf(monkeypatch):
    # ports without gate windows beside ports with them: the credit shaping
    # curves of the former stay closed, and a curve has a gate period if
    # and only if a gate curve is among its leaves
    gated = tg.generate("MM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.3, seed=0))
    assert any(not gated.gcl(link) or not gated.gcl(link).windows for link in gated.links)
    for arch, mode in GATED_SETTINGS:
        built = _curves_built(monkeypatch, lambda: engine.analyze(gated, arch, mode))
        nodes = [c for c in built if isinstance(c, (mp.Pointwise, mp.Scale, mp.UpClosure))]
        assert nodes and all(_has_gate_leaf(c) for c in nodes), (arch, mode)
        assert all((c.period is not None) == _has_gate_leaf(c) for c in built), (arch, mode)


def test_reanalysis_sees_flows_added_in_between():
    net = single_hop_net()
    before = engine.analyze(net, "SP")
    net.flows["f2"] = nm.Flow("f2", "SP", 8000.0, 5, ("L1", "L2"), period=1000.0)
    after = engine.analyze(net, "SP")
    assert set(after.flows) == {"f1", "f2"}
    assert after.flows["f2"].wcd > after.flows["f2"].lb > 0.0
    # f1 now shares both of its queues with f2
    assert after.flows["f1"].wcd > before.flows["f1"].wcd
    assert net.link_flows is None


def test_fixed_point_mode_converges_on_ring():
    rep = engine.analyze(ring_net(), "SP", fixed_point=True)
    for qb in rep.queues.values():
        assert np.isfinite(qb.delay) and qb.delay >= 0.0
    # per-hop bound at a ring queue is at least the lone transmission time
    assert rep.queues[("R12", 5)].delay >= 4000.0 / 100.0 - 1e-9
    # reshaping architectures have local bounds; no cycle issue
    rep2 = engine.analyze(ring_net(), "ATS")
    assert len(rep2.flows) == 3


def test_ats_report_has_shaped_queues_and_identity():
    net = cbs_fixture()
    rep = engine.analyze(net, "ATS")
    assert rep.shaped_queues
    for (link, upstream, prio), sq in rep.shaped_queues.items():
        up = rep.queues[(upstream, prio)]
        flows = [f for f in nm.event_flows_on(net, link)
                 if f.priority == prio and net.previous_link(f, link) == upstream]
        l_min = min(f.size for f in flows)
        assert sq.delay + l_min / net.links[upstream].rate == pytest.approx(
            up.delay, abs=1e-9)


def test_monotone_under_traffic_removal():
    net = tg.generate("SRM", tg.GenSpec(target_load=0.4, seed=3))
    rep_full = engine.analyze(net, "SP")
    victim = sorted(net.flows)[0]
    slim = nm.Network(nodes=net.nodes, links=net.links,
                      flows={k: v for k, v in net.flows.items() if k != victim})
    rep_slim = engine.analyze(slim, "SP")
    for fid, fb in rep_slim.flows.items():
        assert fb.wcd <= rep_full.flows[fid].wcd + 1e-9
    for key, qb in rep_slim.queues.items():
        assert qb.backlog <= rep_full.queues[key].backlog + 1e-9


def test_determinism_repeated_runs():
    net = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.3, seed=9))
    r1 = engine.analyze(net, "TAS+SP")
    r2 = engine.analyze(net, "TAS+SP")
    assert engine.report_to_dict(r1) == engine.report_to_dict(r2)
    assert engine.flows_csv(r1) == engine.flows_csv(r2)
    assert engine.queues_csv(r1, net) == engine.queues_csv(r2, net)


def test_csv_stable_ordering():
    net = cbs_fixture()
    rep = engine.analyze(net, "CBS")
    lines = engine.flows_csv(rep).strip().splitlines()[1:]
    ids = [l.split(",")[0] for l in lines]
    assert ids == sorted(ids)
    qlines = engine.queues_csv(rep, net).strip().splitlines()[1:]
    assert qlines == sorted(qlines)


def test_validation_failure_raises():
    net = single_hop_net()
    net.flows["bad"] = nm.Flow("bad", "SP", 10.0, 5, ("L1", "L2"), period=1000.0)
    with pytest.raises(engine.ValidationError):
        engine.analyze(net, "SP")


def test_architecture_traffic_consistency():
    from tsncalc.errors import ConfigurationError
    net = tg.generate("SRM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.5, seed=1))
    with pytest.raises(ConfigurationError):
        engine.analyze(net, "SP")  # scheduled flows need gate support
    with pytest.raises(ConfigurationError):
        engine.analyze(net, "TAS")  # event flows need an event-triggered shaper
    assert engine.analyze(net, "TAS+SP").flows


def test_combined_cbs_credit_modes_end_to_end():
    net = tg.generate("SRM", tg.GenSpec(target_load=0.35, tt_load_fraction=0.4,
                                        kind="AVB", seed=6))
    frozen = engine.analyze(net, "TAS+CBS")
    assert frozen.credit_mode == "frozen"
    nonfrozen = engine.analyze(net, "TAS+CBS", credit_mode="nonfrozen")
    assert nonfrozen.credit_mode == "nonfrozen"
    assert all(np.isfinite(q.delay) for q in frozen.queues.values())
    # gate windows exist, so the credit state during guard bands matters
    assert engine.report_to_dict(frozen) != engine.report_to_dict(nonfrozen)
    combined_ats = engine.analyze(net, "TAS+ATS+CBS")
    assert combined_ats.shaped_queues
    for fb in combined_ats.flows.values():
        if fb.kind != "TT":
            assert fb.wcd >= fb.lb - 1e-9


def test_guard_band_credit_refusal_does_not_mask_a_frozen_analysis():
    # guard bands take 27 % of SW1->SW2's unscheduled time; only the
    # nonfrozen credit bound reads them, and the frozen analysis fails for
    # its own reason, priority 5's arrival rate
    net = tg.generate("MT", tg.GenSpec(target_load=0.6, tt_load_fraction=0.5, priorities=(6, 5),
                                       seed=0, periods=(1000.0, 2000.0)))
    net.idle_slopes = {"SW1->SW2": {6: 74.0, 5: 1.0}}
    with pytest.raises(InstabilityError, match=r"^queue \(SW1->SW2, P5\): arrival rate"):
        engine.analyze(net, "TAS+CBS", credit_mode="frozen")
    with pytest.raises(ConfigurationError, match=r"^over-reserved credit shaping at SW1->SW2 "
                                                 r"including guard-band rate 27\.363 \(priority 5\)$"):
        engine.analyze(net, "TAS+CBS", credit_mode="nonfrozen")


def test_gate_free_bounds_need_no_longer_horizon(monkeypatch):
    # a high-load draw whose CBS bounds once took four horizon doublings;
    # gate-free curves are exact for all t and read no window, so a first
    # window 160 times longer changes nothing
    net = tg.generate("MM", tg.GenSpec(0.7, flow_count=120, priorities=(6, 5, 4), seed=13))
    for arch in ("SP", "ATS", "CBS"):
        rep = engine.analyze(net, arch)
        assert rep.horizon == nm.hyperperiod_horizon(net)
        monkeypatch.setattr(mp, "WINDOW_PERIODS", 160 * mp.WINDOW_PERIODS)
        long = engine.analyze(net, arch)
        monkeypatch.undo()
        assert (rep.flows, rep.queues, rep.shaped_queues) == (long.flows, long.queues, long.shaped_queues)


# The bounds of the MT network below, read on a fixed 1,280,000-us window
# by the analysis that doubled a curve horizon; at its default horizon that
# analysis refused the network as exhausted.  Queue delays by "link:Ppriority"
# and flow delay bounds by flow id, in us.
MT11_QUEUE_DELAYS = {
    "ES1->SW4:P5": 1587.269530099, "ES1->SW4:P6": 1771.121433953, "ES2->SW4:P5": 747.066599685,
    "ES2->SW4:P6": 1322.570606065, "ES3->SW5:P5": 642.317491008, "ES3->SW5:P6": 742.298051603,
    "ES4->SW5:P5": 1833.714177212, "ES4->SW5:P6": 986.326680195, "ES5->SW6:P5": 2982.512460769,
    "ES5->SW6:P6": 980.741065938, "ES6->SW6:P5": 1362.247218708, "ES6->SW6:P6": 1213.200131684,
    "ES7->SW7:P5": 1726.048472252, "ES7->SW7:P6": 639.984048055, "ES8->SW7:P5": 846.712840172,
    "ES8->SW7:P6": 798.792457518, "SW1->SW2:P5": 4000.312800813, "SW1->SW2:P6": 2772.316832539,
    "SW1->SW3:P5": 2945.849410883, "SW1->SW3:P6": 2138.068476075, "SW2->SW1:P5": 5455.656056844,
    "SW2->SW1:P6": 2734.529224247, "SW2->SW4:P5": 1517.005170245, "SW2->SW4:P6": 1325.807511883,
    "SW2->SW5:P5": 6740.236321958, "SW2->SW5:P6": 7816.46126463, "SW3->SW1:P5": 4063.251246706,
    "SW3->SW1:P6": 3314.30968806, "SW3->SW6:P5": 1803.066031484, "SW3->SW6:P6": 2537.106661282,
    "SW3->SW7:P5": 15861.468377587, "SW3->SW7:P6": 9964.464776952, "SW4->ES1:P5": 2274.280517538,
    "SW4->ES1:P6": 398.594383213, "SW4->ES2:P5": 1275.264858954, "SW4->ES2:P6": 1833.000060905,
    "SW4->SW2:P5": 2913.164216332, "SW4->SW2:P6": 3859.128226178, "SW5->ES3:P5": 8823.649921033,
    "SW5->ES3:P6": 2577.914019825, "SW5->ES4:P5": 1920.523636807, "SW5->ES4:P6": 3048.410976711,
    "SW5->SW2:P5": 1562.672394938, "SW5->SW2:P6": 1668.031177016, "SW6->ES5:P5": 920.267035186,
    "SW6->ES5:P6": 762.854409473, "SW6->ES6:P5": 742.054463119, "SW6->ES6:P6": 1373.652678323,
    "SW6->SW3:P5": 5354.014265847, "SW6->SW3:P6": 2148.506841869, "SW7->ES7:P5": 4019.479273428,
    "SW7->ES7:P6": 2234.494088998, "SW7->ES8:P5": 3574.931718589, "SW7->ES8:P6": 1794.889692383,
    "SW7->SW3:P5": 1912.551115564, "SW7->SW3:P6": 1324.134524395,
}
MT11_FLOW_WCDS = {
    "f000": 742.61, "f001": 217.88, "f002": 191.1, "f003": 329.29, "f004": 562.24, "f005": 644.92,
    "f006": 198.42, "f007": 56.98, "f008": 74.92, "f009": 395.91, "f010": 310.73, "f011": 477.69,
    "f012": 226.0, "f013": 687.35, "f014": 510.36, "f015": 217.12, "f016": 595.52, "f017": 355.22,
    "f018": 198.88, "f019": 189.92, "f020": 404.08, "f021": 219.52, "f022": 401.79, "f023": 594.9,
    "f024": 112.86, "f025": 373.06, "f026": 674.54, "f027": 3564.24070002, "f028": 26386.714246245,
    "f029": 6188.656601349, "f030": 16024.624944586, "f031": 13161.193705195,
    "f032": 5874.877912055, "f033": 18915.617334391, "f034": 14888.602377142,
    "f035": 4997.259915145, "f036": 22262.201829789, "f037": 20064.319989421,
    "f038": 13802.808431209, "f039": 5482.597022406, "f040": 18445.120377505,
    "f041": 26386.714246245, "f042": 21813.6510019, "f043": 20064.319989421,
    "f044": 31234.292136054, "f045": 14888.602377142, "f046": 13802.808431209,
    "f047": 19725.914423482, "f048": 3564.24070002, "f049": 2562.841127815,
    "f050": 20313.205735493, "f051": 6183.720082418, "f052": 13965.055872171,
    "f053": 2282.514253895, "f054": 28217.474377632, "f055": 15447.059708761,
    "f056": 32782.886865173, "f057": 2862.534389053, "f058": 22701.806226403,
    "f059": 20080.746669747, "f060": 31234.292136054, "f061": 4866.192113601,
    "f062": 28217.474377632, "f063": 2354.393744261, "f064": 19610.249712861,
    "f065": 14521.225106548, "f066": 23440.585490839, "f067": 5569.136801406,
    "f068": 4134.731123714, "f069": 31498.13637992, "f070": 15121.061442888,
    "f071": 19483.587962019, "f072": 27772.926822793, "f073": 10582.887999696,
    "f074": 12320.990774782, "f075": 21813.6510019, "f076": 26152.661580732,
    "f077": 20191.376461918, "f078": 20313.205735493, "f079": 13965.055872171,
    "f080": 19481.88579489, "f081": 15447.059708761, "f082": 20313.205735493,
    "f083": 15625.272280828, "f084": 20064.319989421, "f085": 5422.888052668,
    "f086": 1721.164989277, "f087": 22262.201829789, "f088": 11437.714897138,
}


def test_stable_gated_network_needs_no_horizon():
    # a stable queue (37.76 against 38.33 bits/us) whose deviations lie far
    # past the first window: certified windows bound it, with no option
    net = tg.generate("MT", tg.GenSpec(target_load=0.8, tt_load_fraction=0.3, priorities=(6, 5), seed=11))
    start = time.monotonic()
    rep = engine.analyze(net, "TAS+CBS", credit_mode="nonfrozen")
    assert time.monotonic() - start < 10.0
    delays = {f"{link}:P{prio}": qb.delay for (link, prio), qb in rep.queues.items()}
    assert delays.keys() == MT11_QUEUE_DELAYS.keys()
    for key, want in MT11_QUEUE_DELAYS.items():
        assert delays[key] == pytest.approx(want, abs=1e-6), key
    assert max(delays.values()) == pytest.approx(15861.468377587, abs=1e-6)
    assert rep.flows.keys() == MT11_FLOW_WCDS.keys()
    for fid, want in MT11_FLOW_WCDS.items():
        assert rep.flows[fid].wcd == pytest.approx(want, abs=1e-6), fid
    # the longest window read lies past the first, and far short of the
    # fixed window above
    assert nm.hyperperiod_horizon(net) < rep.horizon < 1280000.0
