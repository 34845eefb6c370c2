"""Orchestration: end-to-end assembly, dependency ordering, comparisons."""

import collections
import dataclasses

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
    horizon = nm.hyperperiod_horizon(both)
    assert any(len(nm.event_priorities(tree, l)) > 1 for l in tree.links)
    for arch in ("SP", "CBS"):
        with pytest.raises(CycleError):
            engine.analyze(both, arch, horizon=horizon)
        combined = engine.analyze(both, arch, horizon=horizon, fixed_point=True)
        alone = engine.analyze(tree, arch, horizon=horizon, fixed_point=True)
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
    mm = tg.generate("MM", tg.GenSpec(target_load=0.3, priorities=(6, 5, 4), seed=7))
    for arch in ("SP", "ATS", "CBS"):
        built = _curves_built(monkeypatch, lambda: engine.analyze(mm, arch))
        assert built and all(c.horizon is None for c in built), arch


def test_every_node_of_a_gated_analysis_has_a_gate_leaf(monkeypatch):
    # ports without gate windows beside ports with them: the credit shaping
    # curves of the former stay closed, and a curve has a horizon if and
    # only if a gate curve is among its leaves
    gated = tg.generate("MM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.3, seed=0))
    assert any(not gated.gcl(link) or not gated.gcl(link).windows for link in gated.links)
    for arch, mode in GATED_SETTINGS:
        built = _curves_built(monkeypatch, lambda: engine.analyze(gated, arch, mode))
        nodes = [c for c in built if isinstance(c, (mp.Pointwise, mp.Scale, mp.UpClosure))]
        assert nodes and all(_has_gate_leaf(c) for c in nodes), (arch, mode)
        assert all((c.horizon is not None) == _has_gate_leaf(c) for c in built), (arch, mode)


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


def test_horizon_override_respected():
    net = single_hop_net()
    rep = engine.analyze(net, "SP", horizon=64000.0)
    assert rep.horizon == 64000.0
    assert rep.flows["f1"].wcd == pytest.approx(2 * 121.76 + 2 + 4 - 2)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_horizon_is_refused_before_any_curve(monkeypatch, horizon):
    def no_analysis(*args):
        raise AssertionError("analysis started")

    monkeypatch.setattr(engine, "_analyze_at_horizon", no_analysis)
    with pytest.raises(ConfigurationError, match="horizon"):
        engine.analyze(single_hop_net(), "SP", horizon=horizon)


def test_gate_free_bounds_need_no_longer_horizon():
    # a high-load draw whose CBS bounds once took four horizon doublings;
    # gate-free curves are exact for all t, so the default horizon holds
    net = tg.generate("MM", tg.GenSpec(0.7, flow_count=120, priorities=(6, 5, 4), seed=13))
    for arch in ("SP", "ATS", "CBS"):
        rep = engine.analyze(net, arch)
        assert rep.horizon == nm.hyperperiod_horizon(net)
        long = engine.analyze(net, arch, horizon=640000.0)
        assert (rep.flows, rep.queues, rep.shaped_queues) == (long.flows, long.queues, long.shaped_queues)
