"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import dataclasses
import time

import numpy as np
import pytest

from tsncalc import engine
from tsncalc import minplus as mp
from tsncalc import netmodel as nm
from tsncalc import shapers as sh
from tsncalc import testgen as tg
from tsncalc.cli import run_sweep
from tsncalc.errors import TsnCalcError

import nc_oracle as orc

H_TOL = 0.01   # us
V_TOL = 1.0    # bits

_MODULE_T0 = time.monotonic()


def _report(num, desc, ok=True):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok


# ---------------------------------------------------------------------------
# 1. Curve-algebra oracle equivalence (400 randomized deviation pairs, < 1 min)
# ---------------------------------------------------------------------------

def test_criterion_1_curve_algebra_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20240)

    for _ in range(400):
        a_spec, b_spec, horizon = orc.random_deviation_pair(rng)
        dev = mp.deviations(orc.to_curve(a_spec), orc.to_curve(b_spec))
        assert dev.horizontal == pytest.approx(
            orc.oracle_hdev(a_spec, b_spec, horizon), abs=H_TOL)
        assert dev.vertical == pytest.approx(
            orc.oracle_vdev(a_spec, b_spec, horizon), abs=V_TOL)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    _report(1, f"400 randomized deviation pairs match the dense-grid oracle "
               f"within {H_TOL} us / {V_TOL} bit ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Closed-form identities
# ---------------------------------------------------------------------------

def test_criterion_2_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = float(rng.uniform(100, 15000))
        r = float(rng.uniform(0.1, 20))
        rate = float(rng.uniform(r + 1.0, 100))
        lat = float(rng.uniform(0, 500))
        alpha = mp.Affine(b, r)
        beta = mp.RateLatency(rate, lat)
        dev = mp.deviations(alpha, beta)
        assert dev.horizontal == pytest.approx(lat + b / rate, abs=1e-9)
        assert dev.vertical == pytest.approx(b + r * lat, abs=1e-9)

    for _ in range(50):
        idsl = float(rng.uniform(5, 74))
        frame = float(rng.integers(512, 12177))
        lower = float(rng.integers(512, 12177))
        net = nm.Network()
        net.nodes["ES1"] = nm.Node("ES1", "ES")
        net.nodes["SW1"] = nm.Node("SW1", "SW")
        net.links["L"] = nm.Link("L", "ES1", "SW1", rate=100.0)
        net.flows["a"] = nm.Flow("a", "AVB", frame, 5, ("L",), period=1000.0)
        net.flows["be"] = nm.Flow("be", "BE", lower, 0, ("L",), period=1000.0)
        net.idle_slopes["L"] = {5: idsl}
        ctx = sh.ShaperContext(net, sh.parse_architecture("CBS"), None)
        bounds = sh.cbs_credit_bounds(ctx, "L", 5)
        assert bounds.c_max == pytest.approx(idsl * lower / 100.0, abs=1e-9)
        assert bounds.c_min == pytest.approx((idsl - 100.0) * frame / 100.0, abs=1e-9)
    _report(2, "token-bucket/rate-latency deviations and first-class credit "
               "bounds reproduce their closed forms exactly")


# ---------------------------------------------------------------------------
# 3. Scheduled-traffic determinism
# ---------------------------------------------------------------------------

def test_criterion_3_tas_determinism():
    checked = 0
    for kind in ("SRM", "MM", "MT"):
        for seed in range(4):
            net = tg.generate(kind, tg.GenSpec(target_load=0.35, tt_load_fraction=0.5,
                                               seed=seed))
            rep = engine.analyze(net, "TAS+SP")
            for f in net.flows.values():
                if f.kind != "TT":
                    continue
                assert rep.flows[f.id].jitter == 0.0
                checked += 1
            for lid in net.links:
                expected = {}
                for f in nm.tt_flows_on(net, lid):
                    expected[f.tt_queue] = max(expected.get(f.tt_queue, 0.0), f.size)
                for q, b in expected.items():
                    assert rep.tt_queues[(lid, q)] == b
    assert checked >= 20
    _report(3, f"zero jitter and max-frame backlog hold exactly for "
               f"{checked} scheduled flows across generated fixtures")


# ---------------------------------------------------------------------------
# 4. Curve-based vs closed-form reshaping bounds
# ---------------------------------------------------------------------------

def test_criterion_4_nc_vs_closed_form():
    start = time.monotonic()
    spec = tg.GenSpec(target_load=0.70, flow_count=45, priorities=(6, 5, 4),
                      seed=1, max_attempts=300)
    net = tg.generate("MM", spec)
    assert len(net.flows) == 45
    assert 0.65 <= tg.max_link_load(net) <= 0.75
    rep = engine.analyze(net, "ATS")
    cf = engine.ats_closed_form_bounds(net, rep)
    pess = {}
    for fid, (nc, non_nc, delta) in cf.items():
        prio = net.flows[fid].priority
        pess.setdefault(prio, []).append((nc - non_nc) / non_nc)
    top, mid, low = sorted(pess, reverse=True)
    assert all(x == 0.0 for x in pess[top]), "highest priority must match exactly"
    mid_mean = float(np.mean(pess[mid]))
    low_mean = float(np.mean(pess[low]))
    for mean in (mid_mean, low_mean):
        assert 0.0 <= mean <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"closed-form equality at top priority; mean pessimism "
               f"{mid_mean:.2%} / {low_mean:.2%} within [0%, 3%] ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Reduction equivalences with empty schedules
# ---------------------------------------------------------------------------

def test_criterion_5_reductions():
    pairs = [("TAS+SP", "SP", "SP"), ("TAS+CBS", "CBS", "AVB"),
             ("TAS+ATS+SP", "ATS", "SP")]
    fixtures = 0
    for combined, plain, kind in pairs:
        for seed in range(17):
            topo = ("SRM", "MM", "ST")[seed % 3]
            net = tg.generate(topo, tg.GenSpec(target_load=0.1 + 0.03 * (seed % 10),
                                               kind=kind, seed=seed))
            ra = engine.analyze(net, combined)
            rb = engine.analyze(net, plain)
            assert set(ra.queues) == set(rb.queues)
            for key in ra.queues:
                assert ra.queues[key].delay == pytest.approx(
                    rb.queues[key].delay, abs=1e-6)
            fixtures += 1
    assert fixtures >= 50
    _report(5, f"empty-schedule combined architectures equal their plain "
               f"counterparts on {fixtures} fixtures (1e-6 us per queue)")


# ---------------------------------------------------------------------------
# 6. Qualitative trend reproduction (sweeps; < 15 min total)
# ---------------------------------------------------------------------------

SWEEP_SEEDS = 20


def _mean_by_load(rows, loads, metric):
    out = {}
    for load in loads:
        vals = [r for (l, s, m), r in rows.items() if l == load and m == metric and s != "all"]
        if vals:
            out[load] = sum(vals) / len(vals)
    return out


def test_criterion_6a_reshaping_vs_priority_sweep():
    start = time.monotonic()
    loads = [round(0.1 * k, 1) for k in range(1, 10)]
    rows, failures = run_sweep("MM", loads, SWEEP_SEEDS, "ATS", "SP",
                               metrics=("delay",))
    means = _mean_by_load(rows, loads, "delay")
    assert set(means) == set(loads), f"missing load points (failures: {failures})"
    seq = [means[l] for l in loads]
    # single sign change, located within [60%, 90%]
    crossing = next(l for l, m in zip(loads, seq) if m < 0)
    assert 0.6 <= crossing <= 0.9, f"sign change at {crossing:.0%}: {seq}"
    for l, m in zip(loads, seq):
        if l < crossing:
            assert m > 0.0, f"mean ratio must stay positive below the crossing: {seq}"
    # decreasing trend across the upper half of the sweep (burst aggregation
    # only binds once populations are dense; see decisions ledger)
    upper = [m for l, m in zip(loads, seq) if l >= 0.5]
    assert all(a > b for a, b in zip(upper, upper[1:])), f"not decreasing: {seq}"
    elapsed = time.monotonic() - start
    print(f"  6a means: {[f'{m:+.3f}' for m in seq]} ({elapsed:.0f}s, "
          f"{len(failures)} failed seeds)")
    _report("6a", f"reshaping-vs-priority delay ratio decreases over the upper "
                  f"sweep and turns negative at {crossing:.0%}")


@pytest.fixture(scope="module")
def tas_sweep():
    loads = [round(0.1 * k, 1) for k in range(1, 8)]
    rows, failures = run_sweep("MM", loads, SWEEP_SEEDS, "TAS+ATS+SP", "TAS+SP",
                               tt_load=0.2, metrics=("delay", "backlog"))
    return loads, rows, failures


def test_criterion_6b_combined_delay_threshold(tas_sweep):
    start = time.monotonic()
    loads, rows, failures = tas_sweep
    means = _mean_by_load(rows, loads, "delay")
    present = [l for l in loads if l in means]
    negative = [l for l in present if means[l] < 0.0]
    assert negative, f"no negative delay ratios: {means}"
    threshold = min(negative)
    assert threshold in (0.2, 0.3, 0.4), f"onset {threshold:.0%} outside 30% +/- one step"
    for l in present:
        if l >= threshold:
            assert means[l] < 0.0, f"ratio flips back positive at {l:.0%}: {means}"
    print(f"  6b delay means: { {f'{l:.0%}': round(m, 4) for l, m in means.items()} } "
          f"({len(failures)} failed cells)")
    _report("6b", f"combined reshaping turns delay-superior at {threshold:.0%} "
                  f"event load and stays superior ({time.monotonic() - start:.0f}s)")


def test_criterion_6c_combined_backlog_threshold(tas_sweep):
    assert time.monotonic() - _MODULE_T0 < 900.0, "criterion 6 exceeded 15 min"
    loads, rows, failures = tas_sweep
    means = _mean_by_load(rows, loads, "backlog")
    present = [l for l in loads if l in means]
    negative = [l for l in present if means[l] < 0.0]
    assert negative, f"no negative backlog ratios: {means}"
    threshold = min(negative)
    assert threshold in (0.1, 0.2, 0.3), f"onset {threshold:.0%} outside 20% +/- one step"
    for l in present:
        if l >= 0.2:
            assert means[l] < 0.0, f"backlog ratio not negative at {l:.0%}: {means}"
    print(f"  6c backlog means: { {f'{l:.0%}': round(m, 4) for l, m in means.items()} }")
    _report("6c", f"combined reshaping is backlog-superior from {threshold:.0%} "
                  f"event load onward")


# ---------------------------------------------------------------------------
# 7. Invariant suites (>= 200 random instances each)
# ---------------------------------------------------------------------------

def test_criterion_7a_monotone_under_traffic_removal():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 200:
        seed = int(rng.integers(0, 10000))
        topo = ("SRM", "ST", "MM")[seed % 3]
        net = tg.generate(topo, tg.GenSpec(target_load=0.2 + 0.2 * (seed % 3) / 2,
                                           seed=seed))
        if len(net.flows) < 2:
            continue
        arch = ("SP", "ATS")[seed % 2]
        full = engine.analyze(net, arch)
        victim = sorted(net.flows)[int(rng.integers(0, len(net.flows)))]
        slim_net = nm.Network(nodes=net.nodes, links=net.links,
                              flows={k: v for k, v in net.flows.items() if k != victim})
        slim = engine.analyze(slim_net, arch)
        for fid, fb in slim.flows.items():
            assert fb.wcd <= full.flows[fid].wcd + 1e-9
            checked += 1
        for key, qb in slim.queues.items():
            assert qb.delay <= full.queues[key].delay + 1e-9
            assert qb.backlog <= full.queues[key].backlog + 1e-9
    _report("7a", f"removing a competing flow never raised a bound "
                  f"({checked} flow instances)")


#: Every architecture, and both credit modes where gates and credit shaping
#: combine.
ALL_SETTINGS = (("SP", None), ("ATS", None), ("CBS", None), ("TAS+SP", None), ("TAS+ATS+SP", None),
                ("TAS+CBS", "frozen"), ("TAS+CBS", "nonfrozen"),
                ("TAS+ATS+CBS", "frozen"), ("TAS+ATS+CBS", "nonfrozen"))


def _pin_idle_slopes(net, arch, credit_mode):
    """Fix every class's idle slope at the one derived for ``net``: a derived
    slope is a share of the link in proportion to the class rates, so it
    moves when any flow is removed."""
    ctx = sh.ShaperContext(net, sh.parse_architecture(arch), credit_mode)
    net.idle_slopes = {link_id: {p: ctx.idle_slope(link_id, p) for p in ctx.priorities_at(link_id)}
                       for link_id in net.links}


def test_criterion_7a_no_bound_rises_when_event_traffic_is_removed_under_any_architecture():
    # MM and MT at load 0.5, seed 0, with three priorities (two under credit
    # shaping) and, under gates, 30 % scheduled load; every fourth event
    # flow is removed in turn, and no remaining flow's delay bound and no
    # remaining queue's backlog bound may rise by more than rounding
    start = time.monotonic()
    rel = 1e-9
    checked = 0
    for arch, credit_mode in ALL_SETTINGS:
        gated, credit = arch.startswith("TAS"), "CBS" in arch
        for template in ("MM", "MT"):
            net = tg.generate(template, tg.GenSpec(
                target_load=0.5, periods=(1000.0, 2000.0), priorities=(6, 5) if credit else (6, 5, 4),
                tt_load_fraction=0.3 if gated else 0.0, seed=0))
            if credit:
                _pin_idle_slopes(net, arch, credit_mode)
            full = engine.analyze(net, arch, credit_mode)
            events = sorted(f.id for f in net.flows.values() if f.kind in nm.EVENT_KINDS)
            for victim in events[::4]:
                where = (arch, credit_mode, template, victim)
                slim_net = dataclasses.replace(net, flows={k: f for k, f in net.flows.items() if k != victim})
                slim = engine.analyze(slim_net, arch, credit_mode)
                assert set(slim.flows) == set(full.flows) - {victim}, where
                for fid, fb in slim.flows.items():
                    assert fb.wcd <= full.flows[fid].wcd * (1.0 + rel), (*where, fid)
                for key, qb in [*slim.queues.items(), *slim.shaped_queues.items()]:
                    was = (full.queues if len(key) == 2 else full.shaped_queues)[key].backlog
                    assert qb.backlog <= was * (1.0 + rel), (*where, key)
                checked += len(slim.flows) + len(slim.queues) + len(slim.shaped_queues)
    elapsed = time.monotonic() - start
    assert elapsed < 15.0, f"runtime {elapsed:.1f}s exceeds 15 s"
    _report("7a", f"removing an event flow never raised a bound under {len(ALL_SETTINGS)} "
                  f"architecture settings ({checked} comparisons, {elapsed:.1f}s)")


def test_criterion_7b_credit_dominance():
    rng = np.random.default_rng(72)
    checked = 0
    while checked < 200:
        period = 1000.0
        n_win = int(rng.integers(1, 4))
        offs = np.sort(rng.uniform(0, 800, n_win))
        wins, last = [], 0.0
        for o in offs:
            o = max(o, last + 10.0)
            length = float(rng.uniform(20, 100))
            if o + length > period:
                break
            wins.append(nm.GclWindow(float(o), length))
            last = o + length
        if not wins:
            continue
        net = nm.Network()
        net.nodes["ES1"] = nm.Node("ES1", "ES")
        net.nodes["SW1"] = nm.Node("SW1", "SW")
        net.links["L"] = nm.Link("L", "ES1", "SW1", rate=100.0)
        net.flows["a"] = nm.Flow("a", "AVB", float(rng.integers(512, 12177)), 5,
                                 ("L",), period=1000.0)
        net.gcls["L"] = nm.Gcl(period, tuple(wins))
        net.idle_slopes["L"] = {5: float(rng.uniform(5, 60))}
        net.be_interferer = True
        ctx = sh.ShaperContext(net, sh.parse_architecture("TAS+CBS"), "nonfrozen")
        bounds = sh.cbs_credit_bounds(ctx, "L", 5)
        if ctx.envelope("L")[1] > 0.0:  # the guard-band rate
            assert bounds.c_max_nonfrozen >= bounds.c_max - 1e-9
            checked += 1
    _report("7b", f"non-frozen credit bound dominates the frozen bound on "
                  f"{checked} gate configurations with positive guard-band rate")


def test_criterion_7c_shaped_queue_identity():
    checked = 0
    seed = 0
    while checked < 200:
        net = tg.generate(("MM", "MT")[seed % 2],
                          tg.GenSpec(target_load=0.3 + 0.05 * (seed % 5), seed=seed))
        rep = engine.analyze(net, "ATS")
        for (link, upstream, prio), sq in rep.shaped_queues.items():
            flows = [f for f in nm.event_flows_on(net, link)
                     if f.priority == prio and net.previous_link(f, link) == upstream]
            l_min = min(f.size for f in flows)
            up = rep.queues[(upstream, prio)].delay
            assert sq.delay + l_min / net.links[upstream].rate == pytest.approx(up, abs=1e-9)
            checked += 1
        seed += 1
    _report("7c", f"regulator delay identity holds exactly on {checked} shaped queues")


def test_criterion_7d_gcl_windows_never_overlap():
    checked = 0
    seed = 0
    while checked < 200:
        net = tg.generate(("SRM", "MM", "MR")[seed % 3],
                          tg.GenSpec(target_load=0.25 + 0.05 * (seed % 6),
                                     tt_load_fraction=0.6, seed=seed))
        for lid, gcl in net.gcls.items():
            wins = sorted(gcl.windows, key=lambda w: w.offset)
            for a, b in zip(wins, wins[1:]):
                assert b.offset >= a.end - 1e-9
            assert wins[-1].end <= gcl.period + 1e-9
            checked += 1
        for f in net.flows.values():
            if f.kind == "TT":
                times = [f.offsets[l] for l in f.route]
                assert all(b > a for a, b in zip(times, times[1:]))
        seed += 1
    _report("7d", f"generated schedules have disjoint windows on {checked} ports")


# ---------------------------------------------------------------------------
# 8. Determinism across repeated runs and worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    net = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.3, seed=99))
    rep1 = engine.analyze(net, "TAS+SP")
    rep2 = engine.analyze(net, "TAS+SP")
    assert engine.flows_csv(rep1).encode() == engine.flows_csv(rep2).encode()
    assert engine.queues_csv(rep1, net).encode() == engine.queues_csv(rep2, net).encode()

    from tsncalc.cli import sweep_csv
    loads = [0.2, 0.3]
    outs = []
    for workers in (1, 3):
        rows, failures = run_sweep("MM", loads, 3, "ATS", "SP",
                                   metrics=("delay", "backlog"), workers=workers)
        outs.append(sweep_csv(rows, failures, "ATS-vs-SP", loads, ("delay", "backlog")))
    assert outs[0].encode() == outs[1].encode()
    _report(8, "byte-identical CSV outputs across repeated runs and 1 vs 3 workers")
