"""Per-architecture curve construction against closed forms and brute force."""

import numpy as np
import pytest

from tsncalc import minplus as mp
from tsncalc import netmodel as nm
from tsncalc import shapers as sh
from tsncalc import testgen as tg
from tsncalc.errors import (
    ConfigurationError,
    DependencyError,
    InfeasibleScheduleError,
    StarvationError,
)

import nc_oracle as orc

H = 8000.0
C = 100.0


def port_network(event_flows=(), tt_windows=(), gcl_period=1000.0, idle_slopes=None,
                 be=False):
    """One egress port ES1 -> SW1 plus an upstream-capable second hop."""
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    net.links["L"] = nm.Link("L", "ES1", "SW1", rate=C)
    net.links["L2"] = nm.Link("L2", "SW1", "ES2", rate=C)
    for fid, kind, size, prio, period in event_flows:
        net.flows[fid] = nm.Flow(fid, kind, size, prio, ("L", "L2"), period=period)
    if tt_windows:
        net.gcls["L"] = nm.Gcl(gcl_period, tuple(nm.GclWindow(o, l) for o, l in tt_windows))
    if idle_slopes:
        net.idle_slopes["L"] = dict(idle_slopes)
    net.be_interferer = be
    return net


def make_ctx(net, arch_name, credit_mode=None, horizon=H):
    return sh.ShaperContext(net, sh.parse_architecture(arch_name), credit_mode, horizon)


# ---------------------------------------------------------------------------
# Credit modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("archs, given, modes", [
    (("TAS+CBS",), "nonfrozen", ("nonfrozen",)),
    (("TAS+CBS",), None, ("frozen",)),
    (("SP",), None, (None,)),
    (("TAS+ATS+SP", "TAS+ATS+CBS"), "nonfrozen", (None, "nonfrozen")),
    (("TAS+ATS+CBS", "TAS+CBS"), None, ("frozen", "frozen")),
    (("CBS", "TAS+SP"), None, (None, None)),
])
def test_credit_modes_go_where_gates_and_credit_shaping_combine(archs, given, modes):
    assert sh.credit_modes(archs, given) == modes


def test_credit_modes_refuse_a_mode_no_architecture_takes():
    with pytest.raises(ConfigurationError, match=r"^credit_mode only applies when gates and "
                                                 r"credit shaping are combined, not CBS$"):
        sh.credit_modes(("CBS", "TAS+SP"), "frozen")


def test_credit_modes_refuse_a_mode_outside_the_known_ones():
    with pytest.raises(ConfigurationError, match=r"^architecture TAS\+CBS requires credit_mode in "):
        sh.credit_modes(("SP", "TAS+CBS", "TAS+ATS+CBS"), "thawed")


def test_credit_modes_refuse_an_unknown_architecture():
    with pytest.raises(ConfigurationError, match=r"unknown architecture 'TAS\+XYZ'"):
        sh.credit_modes(("SP", "TAS+XYZ"))


def test_context_defaults_the_credit_mode_to_frozen():
    ctx = make_ctx(port_network([("a", "AVB", 12176.0, 5, 1000.0)]), "TAS+CBS")
    assert ctx.credit_mode == "frozen"


# ---------------------------------------------------------------------------
# Gate curves
# ---------------------------------------------------------------------------

def test_tt_arrival_single_window():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(0.0, 100.0),))
    a = sh.tt_arrival_curve(gcl, [0.0], "TT", C, H)
    assert a.evaluate(0.001) == pytest.approx(1e4)
    assert a.evaluate(1000.0) == pytest.approx(1e4)
    assert a.evaluate(1000.5) == pytest.approx(2e4)


def test_tt_arrival_guard_band_height():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(200.0, 100.0),))
    a = sh.tt_arrival_curve(gcl, [121.76], "GB+TT", C, H)
    assert a.evaluate(0.001) == pytest.approx(22176.0)


def _window_start_oracle(gcl, guard_bands, variant, t):
    """Window-start enumeration over four schedule periods."""
    starts = []
    for j, w in enumerate(gcl.windows):
        gb = guard_bands[j] if variant == "GB+TT" else 0.0
        starts.append((w.offset - gb, (w.length + gb) * C))
    unrolled = sorted((rep * gcl.period + o, l) for rep in range(8) for o, l in starts)
    best = 0.0
    for s0, _ in unrolled[: len(starts) * 4]:
        best = max(best, sum(l for o, l in unrolled if s0 <= o <= s0 + t))
    return best


def test_tt_arrival_two_windows_matches_enumeration():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(100.0, 150.0), nm.GclWindow(500.0, 80.0)))
    gbs = [40.0, 60.0]
    for variant in ("TT", "GB+TT"):
        a = sh.tt_arrival_curve(gcl, gbs, variant, C, H)
        for t in np.arange(0.7, 2500.0, 13.7):
            assert a.evaluate(t) == pytest.approx(
                _window_start_oracle(gcl, gbs, variant, t), abs=1e-6)


def _looped_staircase(terms, horizon):
    """(t, at, right) of one sum of step terms, accumulated term by term."""
    times, heights = [], []
    for height, offset, period in terms:
        if height == 0.0 or offset > horizon:
            continue
        n = int(np.floor((horizon - offset) / period)) + 1
        times.append(offset + period * np.arange(n))
        heights.append(np.full(n, height))
    t, inverse = np.unique(np.concatenate(times), return_inverse=True)
    jumps = np.zeros(len(t))
    np.add.at(jumps, inverse, np.concatenate(heights))
    if t[0] != 0.0:
        t, jumps = np.concatenate([[0.0], t]), np.concatenate([[0.0], jumps])
    right = np.cumsum(jumps)
    return t, right - jumps, right


def _folded_tt_arrival(gcl, guard_bands, variant, rate, horizon):
    """The segments and long-term rate of the gate curve as one staircase
    per window rotation, folded by a pairwise max and compressed: the
    reference the one-pass build must match bit for bit.  Each staircase is
    checked against the term-by-term accumulation."""
    n = len(gcl.windows)
    offs = [w.offset for w in gcl.windows]
    lens = [w.length for w in gcl.windows]
    gbs = list(guard_bands) if variant == "GB+TT" else [0.0] * n
    rotations = []
    for i in range(n):
        terms = []
        for jj in range(i, i + n):
            j = jj % n
            oj = offs[j] + (gcl.period if jj >= n else 0.0)
            offset = oj - offs[i] + gbs[i] - gbs[j]
            terms.append(((lens[j] + gbs[j]) * rate, max(0.0, offset), gcl.period))
        rotations.append(mp.StaircaseMax([terms], horizon))
        seg = rotations[-1].segments
        for got, want in zip((seg.t, seg.at, seg.right), _looped_staircase(terms, horizon)):
            assert np.array_equal(got, want)
    segs = [r.segments for r in rotations]
    folded = segs[0] if n == 1 else orc.fold(segs, "max").compress()
    return folded, max(r.long_term_rate() for r in rotations)


def _random_schedules(rng, count):
    """(gcl, guard bands, rate, horizon): 1-12 windows, some back to back,
    some starting at 0, some guard bands 0, horizons off the period grid."""
    for _ in range(count):
        period = float(rng.choice([250.0, 1000.0, 2000.0]))
        n = int(rng.integers(1, 13))
        cuts = np.sort(rng.uniform(0.0, period, 2 * n))
        if rng.random() < 0.3:
            cuts -= cuts[0]  # a window at offset 0
        windows, gbs = [], []
        for k in range(n):
            start, end = cuts[2 * k], cuts[2 * k + 1]
            if k and rng.random() < 0.3:
                start = windows[-1].end  # back to back
            windows.append(nm.GclWindow(float(start), float(end - start)))
        for k, w in enumerate(windows):
            prev_end = windows[k - 1].end - (period if k == 0 else 0.0)
            gap = w.offset - prev_end
            gbs.append(0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, gap)))
        horizon = period * int(rng.integers(1, 9)) + float(rng.uniform(0.0, period))
        yield nm.Gcl(period, tuple(windows)), gbs, float(rng.choice([10.0, 100.0, 1000.0])), horizon


def test_tt_arrival_one_pass_is_bit_identical_to_the_fold():
    # evenly spaced windows give coincident jump times in every rotation; a
    # guard band that reaches back to the previous window's start gives two
    # terms of one rotation the same jump times
    even = nm.Gcl(1000.0, tuple(nm.GclWindow(250.0 * k, 100.0) for k in range(4)))
    cases = [(even, [0.0, 150.0, 150.0, 150.0], 100.0, 4000.0),
             (nm.Gcl(1000.0, (nm.GclWindow(0.0, 100.0), nm.GclWindow(300.0, 50.0))),
              [0.0, 300.0], 100.0, 2500.0)]
    cases += list(_random_schedules(np.random.default_rng(20240611), 150))
    for gcl, gbs, rate, horizon in cases:
        for variant in ("TT", "GB+TT"):
            got = sh.tt_arrival_curve(gcl, gbs, variant, rate, horizon)
            want, rate_want = _folded_tt_arrival(gcl, gbs, variant, rate, horizon)
            for name in ("t", "at", "right", "slope"):
                assert np.array_equal(getattr(got.segments, name), getattr(want, name)), \
                    (gcl, gbs, variant, name)
            assert got.long_term_rate() == rate_want


def test_gate_memo_is_shared_per_view_and_horizon():
    net = port_network(event_flows=[("e1", "SP", 8000.0, 5, 1000.0)],
                       tt_windows=[(0.0, 100.0), (500.0, 50.0)])
    view = net.indexed()
    gate = make_ctx(view, "TAS+SP").tt_arrival("L", "GB+TT")
    # another architecture on the same view reuses it, another horizon or
    # another view builds its own
    assert make_ctx(view, "TAS+ATS+SP").tt_arrival("L", "GB+TT") is gate
    assert make_ctx(view, "TAS+SP", horizon=2 * H).tt_arrival("L", "GB+TT").horizon == 2 * H
    assert make_ctx(net.indexed(), "TAS+SP").tt_arrival("L", "GB+TT") is not gate
    # a gate-free architecture on the same view sees no gates, and the
    # gated analyses still find their own entry
    assert make_ctx(view, "SP").tt_arrival("L", "GB+TT").long_term_rate() == 0.0
    assert make_ctx(view, "TAS+SP").tt_arrival("L", "GB+TT") is gate


def test_tt_service_single_window():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(0.0, 100.0),))
    b = sh.tt_service_curve(gcl, C, H)
    assert b.evaluate(900.0) == 0.0
    assert b.evaluate(950.0) == pytest.approx(5000.0)
    assert b.evaluate(1000.0) == pytest.approx(1e4)
    assert b.evaluate(2000.0) == pytest.approx(2e4)


def test_tt_service_always_open_gate():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(0.0, 1000.0),))
    b = sh.tt_service_curve(gcl, C, H)
    for t in (0.5, 123.4, 999.0, 4321.0):
        assert b.evaluate(t) == pytest.approx(C * t)


def _slot_enumeration(gcl, rate, ts):
    """Least gate-open service over any interval of each length in ``ts``:
    every interval starting at a window boundary of one period, against the
    windows unrolled over enough periods."""
    period = gcl.period
    reps = np.arange(-1, int(np.max(ts) // period) + 3)[:, None] * period
    lo = (np.array([w.offset for w in gcl.windows]) + reps).ravel()
    hi = (np.array([w.end for w in gcl.windows]) + reps).ravel()
    aligns = np.unique(np.concatenate([lo, hi]) % period)
    s0 = aligns[:, None, None]
    t = np.asarray(ts)[None, :, None]
    open_time = np.clip(np.minimum(hi, s0 + t) - np.maximum(lo, s0), 0.0, None).sum(axis=2)
    return rate * open_time.min(axis=0)


def test_tt_service_two_windows_matches_slot_enumeration():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(100.0, 150.0), nm.GclWindow(500.0, 80.0)))
    windows = [(rep * 1000.0 + w.offset, rep * 1000.0 + w.end)
               for rep in range(-1, 9) for w in gcl.windows]
    aligns = sorted({p for iv in windows for p in iv if 0.0 <= p <= 4000.0})

    def oracle(t):
        best = None
        for s0 in aligns:
            tot = sum(max(0.0, min(hi, s0 + t) - max(lo, s0)) for lo, hi in windows)
            best = tot if best is None else min(best, tot)
        return C * best

    b = sh.tt_service_curve(gcl, C, H)
    for t in np.arange(0.0, 3000.0, 11.3):
        assert b.evaluate(t) == pytest.approx(oracle(t), abs=1e-6)

    # random schedules: back-to-back windows, a window at 0, 1 to 12 windows
    cases = list(_random_schedules(np.random.default_rng(20240611), 150))
    assert any(w.offset == 0.0 for gcl, *_ in cases for w in gcl.windows)
    assert any(w0.end == w1.offset for gcl, *_ in cases for w0, w1 in zip(gcl.windows, gcl.windows[1:]))
    assert {len(gcl.windows) for gcl, *_ in cases} == set(range(1, 13))
    for gcl, _, rate, horizon in cases:
        ts = np.linspace(0.0, min(2.5 * gcl.period, horizon), 23)
        b = sh.tt_service_curve(gcl, rate, horizon)
        want = _slot_enumeration(gcl, rate, ts)
        for t, v in zip(ts, want):
            assert b.evaluate(t) == pytest.approx(v, abs=1e-6), (gcl, rate, t)


class _Breakpoints(mp.Curve):
    """The reference's curve node: explicit breakpoints (t, value,
    right-slope) of a continuous curve."""

    def __init__(self, breakpoints, horizon):
        super().__init__(horizon)
        pts = [(float(t), float(v), float(s)) for t, v, s in breakpoints]
        if pts[0][0] > 0.0:
            pts.insert(0, (0.0, 0.0, 0.0))
        self.breakpoints = tuple(pts)

    def _build(self):
        t, v, s = (np.array(col) for col in zip(*self.breakpoints))
        keep = t <= self.horizon
        return mp.Segments(t[keep], v[keep], v[keep], s[keep], self.horizon)

    def long_term_rate(self):
        return self.breakpoints[-1][2]


def _per_period_tdma(rate, period, length, t0, horizon):
    """One window of ``length`` per ``period``, observed from a clock that
    starts ``t0`` before the worst-case alignment point, one breakpoint pair
    per period."""
    pts = {0.0: (0.0, 0.0)}
    k = 0
    while True:
        ramp_start = (k + 1) * period - length - t0
        ramp_end = (k + 1) * period - t0
        if ramp_start > horizon:
            break
        if ramp_start >= 0.0:
            pts[ramp_start] = (k * length * rate, rate)
        if 0.0 <= ramp_end <= horizon:
            pts[ramp_end] = ((k + 1) * length * rate, 0.0)
        k += 1
    return _Breakpoints([(t, v, s) for t, (v, s) in sorted(pts.items())], horizon)


def _per_period_tt_service(gcl, rate, horizon):
    """The segments of the TDMA service as a sum of one per-period curve per
    window for each rotation, then the min over rotations folded pairwise
    and compressed: the reference the one-period build must match."""
    n = len(gcl.windows)
    period = gcl.period
    offs = [w.offset for w in gcl.windows]
    lens = [w.length for w in gcl.windows]
    rotations = []
    for i in range(n):
        prev = (i - 1) % n
        prev_end = offs[prev] + lens[prev] - (period if i == 0 else 0.0)
        pieces = []
        for jj in range(i, i + n):
            j = jj % n
            oj = offs[j] + (period if jj >= n else 0.0)
            t0 = period - lens[j] - oj + prev_end
            pieces.append(_per_period_tdma(rate, period, lens[j], t0, horizon))
        rotations.append(mp.sum_of(pieces))
    segs = [r.segments for r in rotations]
    return segs[0] if n == 1 else orc.fold(segs, "min").compress()


def test_tt_service_one_period_matches_the_per_period_build():
    cases = [(nm.Gcl(1000.0, (nm.GclWindow(100.0, 150.0), nm.GclWindow(500.0, 80.0))), C, H),
             (nm.Gcl(1000.0, (nm.GclWindow(0.0, 1000.0),)), C, H)]
    cases += [(gcl, rate, horizon) for gcl, _, rate, horizon
              in _random_schedules(np.random.default_rng(20240611), 150)]
    for gcl, rate, horizon in cases:
        got = sh.tt_service_curve(gcl, rate, horizon)
        want = _per_period_tt_service(gcl, rate, horizon)
        assert got.segments.is_nondecreasing()
        grid = np.unique(np.concatenate([got.segments.t, want.t]))
        v_got, v_want = got.segments.value_many(grid), want.value_many(grid)
        # relative to the value, or near 0, where the two builds may place a
        # window start an ulp apart, to one period of service at full rate
        scale = np.maximum(np.abs(v_want), rate * gcl.period)
        assert np.all(np.abs(v_got - v_want) <= 1e-12 * scale), (gcl, rate, horizon)


def test_tt_service_long_term_rate_is_exact_at_every_horizon():
    # horizons in a closed gap and in an open window: the rate is the open
    # share of a period at the link rate, not the slope at the horizon
    gcl = nm.Gcl(1000.0, (nm.GclWindow(100.0, 150.0), nm.GclWindow(500.0, 80.0)))
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)],
                       tt_windows=[(100.0, 150.0), (500.0, 80.0)], idle_slopes={5: 40.0}, be=True)
    for horizon in (4000.0, 4120.0, 4300.0, 4560.0, 4700.0, 8000.0):
        assert sh.tt_service_curve(gcl, C, horizon).long_term_rate() == 23.0
        for mode in sh.CREDIT_MODES:
            shaping = sh.cbs_shaping_curve(make_ctx(net, "TAS+CBS", mode, horizon), "L", 5)
            assert shaping.long_term_rate() == pytest.approx(40.0 * (1.0 - 230.0 / 1000.0))


def _brute_gb_intervals(gcl, guard_bands, periods):
    gb_iv, tt_iv = [], []
    for rep in range(periods):
        base = rep * gcl.period
        for w, gb in zip(gcl.windows, guard_bands):
            tt_iv.append((base + w.offset, base + w.end))
            gb_iv.append((base + w.offset - gb, base + w.offset))
    return gb_iv, tt_iv


def test_gb_envelope_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_win = int(rng.integers(1, 4))
        offs = np.sort(rng.uniform(0, 900, n_win))
        wins = []
        last_end = 0.0
        for o in offs:
            o = max(o, last_end + 5.0)
            length = float(rng.uniform(20, 120))
            if o + length > 1000.0:
                break
            wins.append(nm.GclWindow(float(o), length))
            last_end = o + length
        if not wins:
            continue
        gcl = nm.Gcl(1000.0, tuple(wins))
        gbs = [float(rng.uniform(0, 60)) for _ in wins]
        sigma, rho = sh.gb_envelope(gcl, gbs, C)
        gb_iv, tt_iv = _brute_gb_intervals(gcl, gbs, 4)

        def measure(ivs, s, t):
            return sum(max(0.0, min(hi, t) - max(lo, s)) for lo, hi in ivs)

        for _ in range(300):
            s, t = np.sort(rng.uniform(0, 4000.0, 2))
            lhs = C * measure(gb_iv, s, t)
            rhs = sigma + rho * (t - s - measure(tt_iv, s, t))
            assert lhs <= rhs + 1e-6
        # tight: an interval between two interval ends reaches sigma
        ends = sorted({p for iv in gb_iv + tt_iv for p in iv if 0.0 <= p <= 4000.0})
        slack = max(C * measure(gb_iv, s, t) - rho * (t - s - measure(tt_iv, s, t))
                    for s in ends for t in ends if s < t)
        assert slack <= sigma + 1e-6
        assert slack >= sigma - 1e-6


def _four_period_gb_envelope(gcl, guard_bands, rate):
    """The guard-band envelope fitted over every pair of interval ends of
    four periods at most two periods apart: the reference the one-period
    build must match."""
    gbs = list(guard_bands)
    if all(g <= 0.0 for g in gbs):
        return 0.0, 0.0
    period = gcl.period
    non_tt = period - sum(w.length for w in gcl.windows)
    if non_tt <= 1e-12:
        return 0.0, 0.0
    rho = rate * sum(gbs) / non_tt
    gb_iv, tt_iv = [], []
    for rep in range(-1, 3):
        base = rep * period
        for w, gb in zip(gcl.windows, gbs):
            tt_iv.append((base + w.offset, base + w.end))
            if gb > 0.0:
                gb_iv.append((base + w.offset - gb, base + w.offset))
    points = np.unique(np.array([p for iv in gb_iv + tt_iv for p in iv], dtype=float))

    def measure(intervals):
        pref = np.zeros_like(points)
        for lo, hi in intervals:
            pref += np.clip(points, lo, hi) - lo
        return pref

    m_gb = measure(gb_iv)
    m_tt = measure(tt_iv)
    span = points[None, :] - points[:, None]
    ok = (span > 0) & (span <= 2 * period)
    d_gb = m_gb[None, :] - m_gb[:, None]
    d_tt = m_tt[None, :] - m_tt[:, None]
    slack = rate * d_gb - rho * (span - d_tt)
    return max(0.0, float(np.max(slack[ok], initial=0.0))), rho


def test_gb_envelope_one_period_matches_the_four_period_fit():
    rng = np.random.default_rng(20240612)
    for gcl, gbs, rate, _ in _random_schedules(rng, 1000):
        sigma, rho = sh.gb_envelope(gcl, gbs, rate)
        want_sigma, want_rho = _four_period_gb_envelope(gcl, gbs, rate)
        assert rho == want_rho
        assert sigma == pytest.approx(want_sigma, rel=1e-9), (gcl, gbs, rate)


# ---------------------------------------------------------------------------
# Strict-priority service
# ---------------------------------------------------------------------------

def test_sp_service_ats_highest_priority_is_rate_latency():
    net = port_network([("hi", "SP", 4000.0, 5, 1000.0), ("lo", "SP", 12176.0, 2, 1000.0)])
    ctx = make_ctx(net, "ATS")
    beta = sh.sp_service_curve(ctx, "L", 5, [])
    expect = mp.RateLatency(C, 12176.0 / C, H)
    for t in np.linspace(0.5, H, 60):
        assert beta.evaluate(t) == pytest.approx(expect.evaluate(t), abs=1e-9)


def test_sp_service_tas_without_windows_reduces():
    net = port_network([("hi", "SP", 4000.0, 5, 1000.0), ("lo", "SP", 12176.0, 2, 1000.0)])
    b_plain = sh.sp_service_curve(make_ctx(net, "SP"), "L", 5, [])
    b_tas = sh.sp_service_curve(make_ctx(net, "TAS+SP"), "L", 5, [])
    for t in np.linspace(0.0, H, 200):
        assert b_tas.evaluate(t) == pytest.approx(b_plain.evaluate(t), abs=1e-9)


def test_sp_service_one_window_matches_busy_period_search():
    """Token-bucket flow against one gated window plus a blocking lower frame."""
    net = port_network([("hi", "SP", 4000.0, 5, 1000.0), ("lo", "SP", 8000.0, 2, 5000.0)],
                       tt_windows=[(300.0, 150.0)])
    ctx = make_ctx(net, "TAS+SP")
    beta = sh.sp_service_curve(ctx, "L", 5, [])
    b, r = nm.leaky_bucket_of(net.flows["hi"])
    closed = mp.deviations(mp.Affine(b, r, H), beta).horizontal

    gb = nm.guard_band_lengths(net, "L")[0]
    blocked = [(rep * 1000.0 + 300.0 - gb, rep * 1000.0 + 450.0) for rep in range(-1, 12)]

    def usable(s0, t):
        tot = t
        for lo, hi in blocked:
            tot -= max(0.0, min(hi, s0 + t) - max(lo, s0))
        return tot

    step = 0.1
    ts = np.arange(0.0, 4000.0, step)
    arr = np.where(ts > 0, b + r * ts, 0.0)
    worst = 0.0
    aligns = sorted({p for iv in blocked for p in iv if 0.0 <= p <= 1000.0} | {0.0})
    for s0 in aligns:
        serv = np.maximum.accumulate(
            np.array([max(0.0, C * usable(s0, t) - 8000.0) for t in ts]))
        d = 0.0
        j = 0
        for i, t in enumerate(ts):
            while j < len(ts) and serv[j] < arr[i] - 1e-9:
                j += 1
            assert j < len(ts)
            d = max(d, ts[j] - t)
        worst = max(worst, d)
    assert closed == pytest.approx(worst, abs=0.1)


def test_sp_service_starvation():
    net = port_network([("a", "SP", 12176.0, 5, 1000.0), ("b", "SP", 12176.0, 2, 1000.0)])
    ctx = make_ctx(net, "SP")
    fat = mp.Affine(0.0, 2.0 * C, H)
    with pytest.raises(StarvationError):
        sh.sp_service_curve(ctx, "L", 2, [fat])


def _gated_ports_network(schedules):
    """One port per schedule, ES<k> -> SW<k>, each with a priority-6 flow
    and a lower priority-5 one, and its gate windows; then a port without
    windows and a port whose single window fills its period, which starves
    priority 6.  Returns the network and its links in that order."""
    net = nm.Network()
    specs = [(gcl, rate) for gcl, _, rate, _ in schedules]
    specs += [(None, C), (nm.Gcl(1000.0, (nm.GclWindow(0.0, 1000.0),)), C)]
    for k, (gcl, rate) in enumerate(specs):
        src, dst, link = f"ES{k}", f"SW{k}", f"L{k}"
        net.nodes[src] = nm.Node(src, "ES")
        net.nodes[dst] = nm.Node(dst, "SW")
        net.links[link] = nm.Link(link, src, dst, rate=rate)
        net.flows[f"hi{k}"] = nm.Flow(f"hi{k}", "SP", 1000.0 + 97.0 * k, 6, (link,), period=1000.0)
        net.flows[f"lo{k}"] = nm.Flow(f"lo{k}", "SP", 2000.0 + 89.0 * k, 5, (link,), period=2000.0)
        if gcl is not None:
            net.gcls[link] = gcl
    return net, [f"L{k}" for k in range(len(specs))]


def test_gated_top_services_are_one_batch_bit_identical_to_the_chain(monkeypatch):
    schedules = list(_random_schedules(np.random.default_rng(20240613), 40))
    net, links = _gated_ports_network(schedules)
    *gated, no_windows, starving = links
    batches = []
    build = mp.build_leftovers

    def counted(curves):
        curves = list(curves)
        batches.append(len(curves))
        build(curves)

    monkeypatch.setattr(mp, "build_leftovers", counted)
    horizon = 7777.7  # off the period grid
    ctx = make_ctx(net.indexed(), "TAS+SP", horizon=horizon)
    served = 0
    for link in gated + [no_windows]:
        rate = ctx.link_rate(link)
        gate = sh.tt_arrival_curve(net.gcl(link), ctx.guard_bands(link), "GB+TT", rate, horizon)
        if rate - gate.long_term_rate() <= mp.TOLERANCE:
            # windows and guard bands that fill the period
            with pytest.raises(StarvationError):
                ctx.top_sp_service(link, 6)
            continue
        got = ctx.top_sp_service(link, 6)
        l_max = nm.lower_priority_max_frame(net, link, 6)
        want = mp.up_closure(mp.sum_of([mp.Affine(-l_max, rate, horizon), mp.scale(-1.0, gate)]))
        for name in ("t", "at", "right", "slope"):
            assert np.array_equal(getattr(got.segments, name), getattr(want.segments, name)), (link, name)
        assert got.long_term_rate() == want.long_term_rate()
        served += link != no_windows
    # the ports with windows came in one batch, those that starve left out
    assert served >= 20
    assert batches == [served]
    with pytest.raises(StarvationError, match=rf"^priority 6 at {starving} has no residual service "
                                              r"\(residual rate 0 bits/us\)$"):
        ctx.top_sp_service(starving, 6)


def test_build_leftovers_takes_only_a_line_less_one_scaled_staircase():
    gcl = nm.Gcl(1000.0, (nm.GclWindow(300.0, 100.0),))
    gate = sh.tt_arrival_curve(gcl, [0.0], "TT", C, H)
    line = mp.Affine(-1000.0, C, H)
    others = [
        mp.leftover(line, [(-1.0, gate), (-1.0, mp.Affine(10.0, 1.0, H))]),
        mp.leftover(line, [(-1.0, mp.Affine(10.0, 1.0, H))]),
        mp.leftover(mp.RateLatency(C, 10.0, H), [(-1.0, gate)]),
        mp.up_closure(mp.sum_of([line, gate])),
        mp.sum_of([line, mp.scale(-1.0, gate)]),
        gate,
    ]
    one = mp.leftover(line, [(-1.0, gate)])
    for curve in others:
        with pytest.raises(ValueError, match="one scaled staircase max"):
            mp.build_leftovers([one, curve])
    assert one._segments is None  # refused before anything is built
    mp.build_leftovers([one])
    want = mp.leftover(line, [(-1.0, gate)]).segments  # built by its own nodes
    for name in ("t", "at", "right", "slope"):
        assert np.array_equal(getattr(one.segments, name), getattr(want, name))


def test_sp_priority_monotone():
    # the shared best-effort blocking frame keeps the lower-frame relief equal
    # across classes; without it the lowest class may legitimately see more
    # service at small t than a middle one
    net = port_network([("a", "SP", 4000.0, 6, 1000.0), ("b", "SP", 6000.0, 5, 1000.0),
                        ("c", "SP", 8000.0, 4, 2000.0)], be=True)
    ctx = make_ctx(net, "ATS")
    alphas = []
    betas = []
    for prio in (6, 5, 4):
        betas.append(sh.sp_service_curve(ctx, "L", prio, alphas))
        alphas.append(sh.shared_queue_arrival_ats(ctx, "L", prio))
    for hi, lo in zip(betas, betas[1:]):
        for t in np.linspace(0.0, H, 100):
            assert hi.evaluate(t) >= lo.evaluate(t) - 1e-9


# ---------------------------------------------------------------------------
# Credit-based shaping
# ---------------------------------------------------------------------------

def cbs_port(idle=75.0):
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)], idle_slopes={5: idle}, be=True)
    return net


def test_credit_bounds_single_class():
    ctx = make_ctx(cbs_port(), "CBS")
    bounds = sh.cbs_credit_bounds(ctx, "L", 5)
    assert bounds.c_max == pytest.approx(75.0 * 12176.0 / 100.0)      # 9132
    assert bounds.c_min == pytest.approx((75.0 - 100.0) * 12176.0 / 100.0)  # -3044
    assert bounds.c_max_nonfrozen == pytest.approx(bounds.c_max)      # no gates


def _simulate_two_class_credit(idsl1, idsl2, frame, lower, horizon_us):
    """Event-driven credit evolution with both class queues saturated and a
    lower-priority frame transmitting first."""
    c1 = c2 = 0.0
    t = 0.0
    max_c2 = 0.0
    busy_until = lower / C
    tx = "lower"
    while t < horizon_us:
        if tx == "lower":
            dt = busy_until - t
            c1 += idsl1 * dt
            c2 += idsl2 * dt
        elif tx == "c1":
            dt = busy_until - t
            c1 += (idsl1 - C) * dt
            c2 += idsl2 * dt
        else:
            dt = busy_until - t
            c1 += idsl1 * dt
            c2 += (idsl2 - C) * dt
        t = busy_until
        max_c2 = max(max_c2, c2)
        if c1 >= -1e-9:
            tx = "c1"
        elif c2 >= -1e-9:
            tx = "c2"
        else:
            # idle: credits rise until the highest-class credit reaches zero
            dt = -c1 / idsl1
            c1 = 0.0
            c2 += idsl2 * dt
            t += dt
            max_c2 = max(max_c2, c2)
            tx = "c1"
        busy_until = t + frame / C
    return max_c2


def test_credit_bounds_two_classes_match_simulation():
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0), ("b", "AVB", 12176.0, 4, 1000.0)],
                       idle_slopes={5: 50.0, 4: 25.0}, be=True)
    ctx = make_ctx(net, "CBS")
    bounds = sh.cbs_credit_bounds(ctx, "L", 4)
    simulated = _simulate_two_class_credit(50.0, 25.0, 12176.0, 12176.0, 1e5)
    assert bounds.c_max == pytest.approx(simulated, rel=1e-9)
    assert bounds.c_max == pytest.approx(25.0 * (-6088.0 - 12176.0) / (50.0 - 100.0))


def test_credit_bounds_over_reserved():
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0), ("b", "AVB", 12176.0, 4, 1000.0)],
                       idle_slopes={5: 100.0, 4: 25.0})
    ctx = make_ctx(net, "CBS")
    with pytest.raises(ConfigurationError):
        sh.cbs_credit_bounds(ctx, "L", 4)


def test_cbs_service_curve_alone_is_rate_latency():
    ctx = make_ctx(cbs_port(), "CBS")
    beta = sh.cbs_service_curve(ctx, "L", 5)
    assert mp.deviations(mp.zero(H), beta).horizontal == 0.0
    expect = mp.RateLatency(75.0, 9132.0 / 75.0, H)  # latency 121.76
    for t in np.linspace(0.5, H, 60):
        assert beta.evaluate(t) == pytest.approx(expect.evaluate(t), abs=1e-9)


def test_cbs_service_combined_empty_gcl_reduces():
    net = cbs_port()
    alone = sh.cbs_service_curve(make_ctx(net, "CBS"), "L", 5)
    combined = sh.cbs_service_curve(make_ctx(net, "TAS+CBS", "frozen"), "L", 5)
    for t in np.linspace(0.0, H, 200):
        assert combined.evaluate(t) == pytest.approx(alone.evaluate(t), abs=1e-9)


def test_cbs_service_nonfrozen_credit_dominance():
    """Accruing credit during guard bands raises the credit bound, which can
    only push the service curve right; the comparison fixes the gate envelope
    because the frozen variant's guard-band staircase accumulates without
    bound while the credit penalty is a constant."""
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)],
                       tt_windows=[(300.0, 100.0), (700.0, 50.0)],
                       idle_slopes={5: 40.0}, be=True)
    ctx_nf = make_ctx(net, "TAS+CBS", "nonfrozen")
    bounds = sh.cbs_credit_bounds(ctx_nf, "L", 5)
    assert bounds.rho_gb > 0.0
    assert bounds.c_max_nonfrozen >= bounds.c_max
    beta_nf = sh.cbs_service_curve(ctx_nf, "L", 5)
    idsl = 40.0
    same_variant_frozen_credit = mp.up_closure(mp.sum_of([
        mp.Affine(-bounds.c_max, idsl, H),
        mp.scale(-idsl / C, ctx_nf.tt_arrival("L", "TT")),
    ]))
    for t in np.linspace(0.0, H, 300):
        assert (beta_nf.evaluate(t)
                <= same_variant_frozen_credit.evaluate(t) + 1e-6)


def test_cbs_shaping_curve_alone():
    ctx = make_ctx(cbs_port(), "CBS")
    sigma = sh.cbs_shaping_curve(ctx, "L", 5)
    # burst c_max - c_min = 9132 + 3044 = 12176, rate 75
    for t in (0.5, 10.0, 100.0):
        assert sigma.evaluate(t) == pytest.approx(12176.0 + 75.0 * t)


def test_cbs_shaping_combined_empty_gcl_reduces():
    net = cbs_port()
    alone = sh.cbs_shaping_curve(make_ctx(net, "CBS"), "L", 5)
    combined = sh.cbs_shaping_curve(make_ctx(net, "TAS+CBS", "frozen"), "L", 5)
    for t in np.linspace(0.5, H, 100):
        assert combined.evaluate(t) == pytest.approx(alone.evaluate(t), abs=1e-9)


def test_cbs_shaping_combined_below_shifted_alone():
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)],
                       tt_windows=[(300.0, 100.0)], idle_slopes={5: 40.0}, be=True)
    ctx = make_ctx(net, "TAS+CBS", "frozen")
    sigma = sh.cbs_shaping_curve(ctx, "L", 5)
    seg = sigma.segments
    assert seg.is_nondecreasing()
    alone = sh.cbs_shaping_curve(make_ctx(net, "CBS"), "L", 5)
    for t in np.linspace(0.5, H, 100):
        assert sigma.evaluate(t) <= alone.evaluate(t) + 1e-6


# ---------------------------------------------------------------------------
# Arrival curves and shaped queues
# ---------------------------------------------------------------------------

def test_shared_queue_arrival_sums_committed_envelopes():
    net = port_network([("a", "SP", 1000.0, 5, 1000.0)])
    net.flows["b"] = nm.Flow("b", "SP", 2000.0, 5, ("L", "L2"), burst=2000.0, rate=2.0)
    ctx = make_ctx(net, "ATS")
    alpha = sh.shared_queue_arrival_ats(ctx, "L", 5)
    for t in (0.5, 10.0, 500.0):
        assert alpha.evaluate(t) == pytest.approx(3000.0 + 3.0 * t)


def test_shared_queue_arrival_empty():
    net = port_network([])
    ctx = make_ctx(net, "ATS")
    alpha = sh.shared_queue_arrival_ats(ctx, "L", 5)
    assert alpha.evaluate(100.0) == 0.0


def test_unshaped_arrival_single_upstream():
    net = port_network([("a", "SP", 1000.0, 5, 1000.0)])
    ctx = make_ctx(net, "SP")
    alpha = sh.unshaped_queue_arrival(ctx, "L2", 5, {("L", 5): 50.0})
    b, r = 1000.0, 1.0
    for t in (0.5, 5.0, 50.0, 1000.0):
        want = min(b + r * 50.0 + r * t, C * t + 1000.0)
        assert alpha.evaluate(t) == pytest.approx(want, abs=1e-9)


def test_unshaped_arrival_source_flows_raw():
    net = port_network([("a", "SP", 1000.0, 5, 1000.0)])
    ctx = make_ctx(net, "SP")
    alpha = sh.unshaped_queue_arrival(ctx, "L", 5, {})
    for t in (0.5, 77.7):
        assert alpha.evaluate(t) == pytest.approx(1000.0 + 1.0 * t)


def test_unshaped_arrival_needs_every_upstream_bound():
    net = port_network([("a", "SP", 1000.0, 5, 1000.0)])
    ctx = make_ctx(net, "SP")
    with pytest.raises(DependencyError, match=r"\(L, P5\)"):
        sh.unshaped_queue_arrival(ctx, "L2", 5, {("L", 4): 50.0})


def test_unshaped_arrival_cbs_below_operands():
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)], idle_slopes={5: 75.0}, be=True)
    ctx = make_ctx(net, "CBS")
    delay = 80.0
    alpha = sh.unshaped_queue_arrival(ctx, "L2", 5, {("L", 5): delay})
    b, r = nm.leaky_bucket_of(net.flows["a"])
    sigma = sh.cbs_shaping_curve(ctx, "L", 5)
    for t in np.linspace(0.5, 2000.0, 50):
        v = alpha.evaluate(t)
        assert v <= b + r * delay + r * t + 1e-6
        assert v <= C * t + 12176.0 + 1e-6
        assert v <= sigma.evaluate(t) + 12176.0 + 1e-6


def test_shaped_queue_delay_identity():
    net = port_network([("a", "SP", 512.0, 5, 1000.0)])
    ctx = make_ctx(net, "ATS")
    d_q, _ = sh.shaped_queue_analysis(ctx, "L2", "L", 5, upstream_delay=100.0)
    assert d_q == pytest.approx(100.0 - 512.0 / C)  # 94.88


def test_shaped_queue_negative_delay_clamped():
    net = port_network([("a", "SP", 12176.0, 5, 1000.0)])
    ctx = make_ctx(net, "ATS")
    d_q, b_q = sh.shaped_queue_analysis(ctx, "L2", "L", 5, upstream_delay=10.0)
    assert d_q == 0.0
    assert b_q >= 0.0


def test_shaped_queue_backlog_matches_direct_evaluation():
    net = port_network([("a", "SP", 1000.0, 5, 1000.0), ("b", "SP", 2000.0, 5, 2000.0)])
    ctx = make_ctx(net, "ATS")
    d_up = 94.88
    d_q, b_q = sh.shaped_queue_analysis(ctx, "L2", "L", 5, upstream_delay=d_up)
    # backlog equals the arrival curve evaluated at the pure-delay bound
    terms = []
    for f in (net.flows["a"], net.flows["b"]):
        b, r = nm.leaky_bucket_of(f)
        terms.append((b + r * d_up, r))
    lmax = 2000.0
    alpha_at = min(sum(b for b, _ in terms) + sum(r for _, r in terms) * d_q,
                   C * d_q + lmax)
    assert b_q == pytest.approx(alpha_at, abs=1e-6)


# ---------------------------------------------------------------------------
# Time-triggered flow bounds
# ---------------------------------------------------------------------------

def tt_line():
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    net.links["L1"] = nm.Link("L1", "ES1", "SW1", rate=C)
    net.links["L2"] = nm.Link("L2", "SW1", "ES2", rate=C)
    net.flows["t"] = nm.Flow("t", "TT", 12176.0, 7, ("L1", "L2"), period=1000.0,
                             offsets={"L1": 0.0, "L2": 400.0})
    return net


def test_tas_flow_bounds_from_offsets():
    net = tt_line()
    delay, jitter = sh.tas_flow_bounds(net, net.flows["t"])
    assert delay == pytest.approx(400.0 + 121.76)
    assert jitter == 0.0


def test_tas_flow_bounds_precedence_error():
    net = tt_line()
    net.flows["t"] = nm.Flow("t", "TT", 12176.0, 7, ("L1", "L2"), period=1000.0,
                             offsets={"L1": 0.0, "L2": 50.0})
    with pytest.raises(InfeasibleScheduleError):
        sh.tas_flow_bounds(net, net.flows["t"])


def test_tt_queue_backlog_is_max_frame():
    net = tt_line()
    net.flows["t2"] = nm.Flow("t2", "TT", 512.0, 7, ("L1", "L2"), period=1000.0,
                              offsets={"L1": 130.0, "L2": 530.0})
    assert sh.tt_queue_backlogs(net, "L1") == {0: 12176.0}


# ---------------------------------------------------------------------------
# Credit sanity and arrival-curve shape properties
# ---------------------------------------------------------------------------

def test_credit_sanity_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        idle = float(rng.uniform(10.0, 74.0))
        net = port_network([("a", "AVB", float(rng.integers(512, 12177)), 5, 1000.0)],
                           idle_slopes={5: idle}, be=True)
        bounds = sh.cbs_credit_bounds(make_ctx(net, "CBS"), "L", 5)
        assert bounds.c_min < 0.0 < bounds.c_max


def test_credit_no_lower_interference_zero_upper():
    net = port_network([("a", "AVB", 12176.0, 5, 1000.0)], idle_slopes={5: 75.0})
    bounds = sh.cbs_credit_bounds(make_ctx(net, "CBS"), "L", 5)
    assert bounds.c_max == 0.0


def test_arrival_curves_nondecreasing_and_weakly_subadditive():
    rng = np.random.default_rng(3)
    for seed in range(10):
        net = tg.generate("SRM", tg.GenSpec(target_load=0.3, seed=seed))
        ctx = make_ctx(net, "ATS", horizon=nm.hyperperiod_horizon(net))
        for lid in sorted(net.links):
            for prio in ctx.priorities_at(lid):
                alpha = sh.shared_queue_arrival_ats(ctx, lid, prio)
                seg = alpha.segments
                assert seg.is_nondecreasing()
                assert alpha.evaluate(0.0) == 0.0
                for _ in range(5):
                    t = float(rng.uniform(1.0, ctx.horizon))
                    s = float(rng.uniform(0.5, t))
                    assert (alpha.evaluate(t)
                            <= alpha.evaluate(s) + alpha.evaluate(t - s) + 1e-6)
