"""Curve algebra: closed-form identities and oracle agreement."""

import math

import numpy as np
import pytest

from tsncalc import minplus as mp
from tsncalc.errors import InstabilityError

import nc_oracle as orc

H = 4000.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_affine():
    c = mp.Affine(2000.0, 10.0, H)
    assert c.evaluate(100.0) == pytest.approx(3000.0)
    assert c.evaluate(0.0) == 0.0


def test_evaluate_burst_delay():
    c = mp.BurstDelay(50.0, H)
    assert c.evaluate(50.0) == 0.0
    assert c.evaluate(50.0001) == math.inf


def test_evaluate_staircase_single_term():
    c = mp.StaircaseMax([[(1e4, 0.0, 1000.0)]], H)
    assert c.evaluate(1.0) == pytest.approx(1e4)
    assert c.evaluate(0.0) == 0.0
    assert c.evaluate(1000.0) == pytest.approx(1e4)
    assert c.evaluate(1000.5) == pytest.approx(2e4)


def test_tdma_service_from_one_period_of_windows():
    # windows [100, 250) and [500, 580) every 1000 us, at 10 bits/us
    c = mp.TdmaService(10.0, 1000.0, [100.0, 500.0], [150.0, 80.0], H)
    assert c.evaluate(100.0) == 0.0
    assert c.evaluate(200.0) == pytest.approx(1000.0)
    assert c.evaluate(1000.0) == pytest.approx(2300.0)
    assert c.evaluate(3540.0) == pytest.approx(3 * 2300.0 + 1500.0 + 400.0)
    assert c.long_term_rate() == pytest.approx(2.3)


def test_tdma_service_windows_an_ulp_apart():
    # a start a rounding error below 0 is clamped to 0, and a start an ulp
    # before the previous window's end counts both windows open for that ulp
    c = mp.TdmaService(10.0, 1000.0, [-1e-13, np.nextafter(250.0, 0.0)], [250.0, 100.0], H)
    assert c.segments.is_nondecreasing()
    assert c.evaluate(350.0) == pytest.approx(3500.0)
    assert c.evaluate(1350.0) == pytest.approx(7000.0)
    with pytest.raises(ValueError):
        mp.TdmaService(10.0, 1000.0, [-1.0], [10.0], H)


def test_running_integral_adds_the_steps_of_equal_times():
    t, slope, value = mp.running_integral([2.0, 0.0, 2.0, 5.0], [1.0, 3.0, -2.0, 0.0])
    assert t.tolist() == [0.0, 2.0, 5.0]
    assert slope.tolist() == [3.0, 2.0, 2.0]
    assert value.tolist() == [0.0, 6.0, 12.0]


def test_evaluate_beyond_horizon_raises():
    c = mp.Affine(1.0, 1.0, 100.0)
    with pytest.raises(mp.HorizonExceededError):
        c.evaluate(101.0)


# ---------------------------------------------------------------------------
# deviations
# ---------------------------------------------------------------------------

def test_hdev_token_bucket_vs_rate_latency():
    a = mp.Affine(2000.0, 10.0, H)
    b = mp.RateLatency(100.0, 100.0, H)
    assert mp.deviations(a, b).horizontal == pytest.approx(120.0, abs=1e-9)


def test_hdev_empty_traffic_is_zero():
    a = mp.Affine(0.0, 0.0, H)
    b = mp.RateLatency(100.0, 100.0, H)
    assert mp.deviations(a, b).horizontal == 0.0


def test_hdev_staircase_vs_rate_latency_matches_oracle():
    # one gate window per period, as produced by a single-entry schedule
    terms = ((1e4, 0.0, 1000.0),)
    a_spec = orc.CurveSpec("staircase", terms=terms)
    b_spec = orc.CurveSpec("ratelatency", rate=100.0, latency=50.0)
    a = orc.to_curve(a_spec, H)
    b = orc.to_curve(b_spec, H)
    assert mp.deviations(a, b).horizontal == pytest.approx(orc.oracle_hdev(a_spec, b_spec, H), abs=0.01)


def test_hdev_instability():
    with pytest.raises(InstabilityError):
        mp.deviations(mp.Affine(0.0, 20.0, H), mp.RateLatency(10.0, 0.0, H))


def test_vdev_token_bucket_vs_rate_latency():
    a = mp.Affine(2000.0, 10.0, H)
    b = mp.RateLatency(100.0, 100.0, H)
    assert mp.deviations(a, b).vertical == pytest.approx(3000.0, abs=1e-9)


def test_vdev_identical_curves():
    a = mp.Affine(500.0, 3.0, H)
    assert mp.deviations(a, mp.Affine(500.0, 3.0, H)).vertical == 0.0


def test_vdev_staircase_vs_rate_latency_matches_oracle():
    terms = ((4000.0, 100.0, 500.0), (1000.0, 0.0, 250.0))
    a_spec = orc.CurveSpec("staircase", terms=terms)
    b_spec = orc.CurveSpec("ratelatency", rate=60.0, latency=30.0)
    a = orc.to_curve(a_spec, H)
    b = orc.to_curve(b_spec, H)
    assert mp.deviations(a, b).vertical == pytest.approx(orc.oracle_vdev(a_spec, b_spec, H), abs=1.0)


def test_deviation_witnesses_in_range():
    a = mp.Affine(2000.0, 10.0, H)
    b = mp.RateLatency(100.0, 100.0, H)
    dev = mp.deviations(a, b)
    assert 0.0 <= dev.argmax_h <= H
    assert 0.0 <= dev.argmax_v <= H


# ---------------------------------------------------------------------------
# min_of / sum_of and closures
# ---------------------------------------------------------------------------

def test_min_at_origin_plus():
    a = mp.Affine(1000.0, 1.0, H)
    f = mp.RateLatency(50.0, 10.0, H)
    m = mp.min_of([a, f])
    assert m.evaluate(0.001) == pytest.approx(min(1000.001, 0.0))


def test_sum_of_affine():
    s = mp.sum_of([mp.Affine(1000.0, 1.0, H), mp.Affine(2000.0, 2.0, H)])
    for t in (0.5, 10.0, 100.0):
        assert s.evaluate(t) == pytest.approx(3000.0 + 3.0 * t)


def test_min_link_shaper_vs_affine_matches_pointwise():
    burst, rate, cap, lmax = 9000.0, 2.0, 100.0, 12176.0
    a = mp.Affine(burst, rate, H)
    link = mp.Affine(lmax, cap, H)
    m = mp.min_of([a, link])
    for t in np.linspace(0.01, H, 97):
        want = min(burst + rate * t, lmax + cap * t)
        assert m.evaluate(t) == pytest.approx(want, abs=1e-6)


def test_min_segments_exact_across_kink():
    # 1000 + 10t and 3000 + 2t cross at t = 250; the compiled segments, not
    # only evaluate, must carry the kink
    m = mp.min_of([mp.Affine(1000.0, 10.0, H), mp.Affine(3000.0, 2.0, H)])
    ts = np.array([100.0, 250.0, 400.0])
    want = np.minimum(1000.0 + 10.0 * ts, 3000.0 + 2.0 * ts)
    np.testing.assert_allclose(m.segments.value_many(ts), want, atol=1e-9)
    assert m.long_term_rate() == 2.0


def test_max_of_staircases_matches_pointwise():
    a_spec = orc.CurveSpec("staircase", terms=((1000.0, 0.0, 300.0),))
    b_spec = orc.CurveSpec("staircase", terms=((1500.0, 100.0, 500.0), (200.0, 50.0, 250.0)))
    m = mp.max_of([orc.to_curve(a_spec, H), orc.to_curve(b_spec, H)])
    grid = np.arange(0.0, H + 1.0, 50.0)
    ts = np.unique(np.clip(np.concatenate([grid, grid + orc.TINY, grid - orc.TINY]), 0.0, H))
    want = np.maximum(orc.oracle_eval(a_spec, ts), orc.oracle_eval(b_spec, ts))
    np.testing.assert_allclose(m.segments.value_many(ts), want, atol=1e-6)
    assert m.segments.is_nondecreasing()
    assert m.long_term_rate() == pytest.approx(max(1000.0 / 300.0, 1500.0 / 500.0 + 200.0 / 250.0))


def test_empty_lists_rejected():
    with pytest.raises(ValueError):
        mp.min_of([])
    with pytest.raises(ValueError):
        mp.max_of([])
    with pytest.raises(ValueError):
        mp.sum_of([])


def test_curves_of_different_horizons_do_not_mix():
    short, long = mp.Affine(100.0, 1.0, H), mp.Affine(100.0, 1.0, 2 * H)
    for op in (mp.sum_of, mp.min_of):
        with pytest.raises(ValueError, match="horizons"):
            op([short, long])
    gate = mp.StaircaseMax([[(2000.0, 0.0, 100.0)]], H)
    with pytest.raises(ValueError, match="horizons"):
        mp.deviations(gate, mp.RateLatency(100.0, 10.0, 2 * H))


def test_up_closure_nondecreasing_nonnegative():
    # C*t minus a gate staircase dips at jumps; the closure must repair it
    inner = mp.sum_of([
        mp.Affine(0.0, 100.0, H),
        mp.scale(-1.0, mp.StaircaseMax([[(20000.0, 0.0, 1000.0)]], H)),
        mp.Affine(-5000.0, 0.0, H),
    ])
    closed = mp.up_closure(inner)
    seg = closed.segments
    assert seg.is_nondecreasing()
    ts = np.linspace(0.0, H, 500)
    vals = seg.value_many(ts)
    assert np.all(vals >= -1e-9)
    # closure keeps the running max over the dips
    raw = inner.segments
    for t in (1500.0, 2500.0, 3900.0):
        sub = ts[ts <= t]
        assert seg.value(t) >= raw.value_many(sub).max() - 1e-6


def test_pos_part_vs_up_closure_on_monotone_input():
    inner = mp.sum_of([mp.Affine(0.0, 50.0, H), mp.Affine(-4000.0, 0.0, H)])
    pp = mp.max_of([inner, mp.zero(H)])
    uc = mp.up_closure(inner)
    for t in np.linspace(0.0, H, 101):
        assert pp.evaluate(t) == pytest.approx(uc.evaluate(t), abs=1e-9)


def _looped_up_closure(seg):
    """The up-closure as a loop over the segments, carrying the running
    maximum from one to the next: the reference for the one-pass closure.
    It keeps a rising segment flat when f starts below the maximum by less
    than the rounding of the crossing time, a case that
    test_up_closure_follows_a_rise_that_starts_an_ulp_below_the_maximum
    checks on its own."""
    ts, ats, rights, slopes = [], [], [], []
    n = len(seg.t)
    run = max(0.0, seg.at[0])

    def emit(t, at, right, slope):
        ts.append(t)
        ats.append(at)
        rights.append(right)
        slopes.append(slope)

    for k in range(n):
        t0 = seg.t[k]
        t1 = seg.t[k + 1] if k + 1 < n else seg.horizon
        at_k = max(run, seg.at[k])
        right_k = max(at_k, seg.right[k])
        f_start = seg.right[k]
        slope_k = seg.slope[k]
        if f_start >= right_k - 0.0 and slope_k > 0.0:
            # f is (weakly) the running max and rising: follow it.
            emit(t0, at_k, right_k, slope_k)
            run = right_k + slope_k * (t1 - t0)
        elif slope_k > 0.0:
            f_end = f_start + slope_k * (t1 - t0)
            if f_end > right_k:
                # flat until f re-reaches the running max, then follow f
                emit(t0, at_k, right_k, 0.0)
                t_cross = t0 + (right_k - f_start) / slope_k
                if t_cross > t0 and t_cross < t1:
                    emit(t_cross, right_k, right_k, slope_k)
                    run = right_k + slope_k * (t1 - t_cross)
                else:
                    run = max(right_k, f_end)
            else:
                emit(t0, at_k, right_k, 0.0)
                run = right_k
        else:
            emit(t0, at_k, right_k, 0.0)
            run = right_k
    return mp.Segments(np.array(ts), np.array(ats), np.array(rights), np.array(slopes), seg.horizon)


def _random_segments(rng, horizon=None):
    """A segment function with jumps up and down and slopes of either sign.
    Half are small integers, which give flat ties and crossings exactly at
    a segment's end; the others are continuous draws.  With a horizon,
    every breakpoint lies below it."""
    n = int(rng.integers(1, 13))
    if rng.random() < 0.5:
        points = np.arange(1.0, 40.0 if horizon is None else min(40.0, math.ceil(horizon)))
        t = np.sort(rng.choice(points, min(n - 1, len(points)), replace=False))
        n = len(t) + 1
        at, right = rng.integers(-5, 6, (2, n)).astype(float)
        slope = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n)
        end = float(rng.integers(1, 10))
    else:
        t = np.sort(rng.uniform(0.0, 1000.0 if horizon is None else horizon, n - 1))
        at, right = rng.uniform(-500.0, 500.0, (2, n))
        slope = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-2.0, 3.0, n))
        end = float(rng.uniform(1.0, 500.0))
    t = np.concatenate([[0.0], t])
    return mp.Segments(t, at, right, slope, horizon if horizon is not None else t[-1] + end)


def _assert_same_function(got, want, scale):
    """Values and right limits at every breakpoint of either segment
    function, and at the horizon, agree within 1e-12 of ``scale``."""
    assert got.horizon == want.horizon
    grid = np.union1d(np.union1d(got.t, want.t), [got.horizon])
    for g, w in zip(mp._resample(got, grid)[:2], mp._resample(want, grid)[:2]):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * scale)


def _magnitude(*segs):
    return max(1.0, *(float(np.max(np.abs(np.concatenate([s.at, s.right, s.end_left()]))))
                      for s in segs))


def test_up_closure_matches_the_loop():
    rng = np.random.default_rng(20260902)
    for _ in range(2000):
        seg = _random_segments(rng)
        want = _looped_up_closure(seg)
        _assert_same_function(mp._up_closure_segments(seg), want, _magnitude(seg, want))


def test_up_closure_follows_a_rise_that_starts_an_ulp_below_the_maximum():
    # the sum rises through the kink at 3190.48 us; its left limit there
    # rounds an ulp above its value, so the crossing time rounds to the kink
    seg = mp.sum_of([mp.RateLatency(8.119256087669434, 0.0, H),
                     mp.RateLatency(42.27580136176452, 0.0, H),
                     mp.RateLatency(88.6280763119632, 3190.4842426616087, H)]).segments
    assert seg.end_left()[0] > seg.right[1]
    closed = mp._up_closure_segments(seg)
    want = seg.right[1] + seg.slope[1] * (H - seg.t[1])
    assert closed.value(H) == pytest.approx(want, rel=1e-12)


def test_k_way_sum_matches_the_pairwise_fold():
    rng = np.random.default_rng(20260903)
    for _ in range(500):
        horizon = float(rng.uniform(1.0, 1200.0))
        segs = [_random_segments(rng, horizon) for _ in range(int(rng.integers(3, 7)))]
        want = segs[0]
        for s in segs[1:]:
            want = mp._pointwise([want, s], "sum")
        scale = sum(_magnitude(s) for s in segs)
        _assert_same_function(mp._pointwise(segs, "sum"), want, scale)


@pytest.mark.parametrize("op", ["min", "max"])
def test_k_way_min_and_max_match_the_pairwise_fold(op):
    rng = np.random.default_rng(20261019)
    for _ in range(500):
        horizon = float(rng.uniform(1.0, 1200.0))
        segs = [_random_segments(rng, horizon) for _ in range(int(rng.integers(2, 14)))]
        got, want = mp._pointwise(segs, op), orc.fold(segs, op)
        if len(segs) == 2:
            for name in ("t", "at", "right", "slope"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        else:
            _assert_same_function(got, want, _magnitude(*segs))


def test_k_way_min_follows_two_changes_of_the_lowest_line_in_one_interval():
    # 3t is lowest until 1, then 2 + t until 8, then 10: the crossing of the
    # first and last lines (at 10/3) alone puts 2 + t's slope on 3t's start
    segs = [mp.Segments([0.0], [0.0], [d], [s], 10.0) for d, s in ((0.0, 3.0), (2.0, 1.0), (10.0, 0.0))]
    got = mp._pointwise(segs, "min")
    np.testing.assert_allclose(got.t, [0.0, 1.0, 10.0 / 3.0, 8.0], rtol=1e-12)
    ts = np.linspace(0.0, 10.0, 1001)[1:]
    want = np.minimum(np.minimum(3.0 * ts, 2.0 + ts), 10.0)
    np.testing.assert_allclose(got.value_many(ts), want, rtol=1e-12)
    _assert_same_function(got, orc.fold(segs, "min"), 10.0)


@pytest.mark.parametrize("op", ["min", "max"])
def test_k_way_min_and_max_keep_the_first_slope_on_a_tie(op):
    # three functions equal at a breakpoint on the horizon, where the
    # segment from it has no length: the first operand's slope is kept
    segs = [mp.Segments([0.0, 10.0], [0.0, 5.0], [0.0, 5.0], [0.5, s], 10.0)
            for s in (1.0, 2.0, 3.0)]
    got = mp._pointwise(segs, op)
    assert got.slope[-1] == 1.0
    assert got.slope[-1] == orc.fold(segs, op).slope[-1]


# ---------------------------------------------------------------------------
# properties: monotonicity and randomized oracle agreement
# ---------------------------------------------------------------------------

def test_operator_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        b1 = rng.uniform(0, 5000)
        r1 = rng.uniform(0.1, 20)
        f1 = mp.Affine(b1, r1, H)
        f2 = mp.Affine(b1 + rng.uniform(0, 3000), r1 + rng.uniform(0, 5), H)
        beta = mp.RateLatency(rng.uniform(30, 100), rng.uniform(0, 200), H)
        # seven unused draws keep this seed on its established sequence of
        # (f1, f2, beta) triples
        rng.random(7)
        d1, d2 = mp.deviations(f1, beta), mp.deviations(f2, beta)
        assert d1.horizontal <= d2.horizontal + 1e-9
        assert d1.vertical <= d2.vertical + 1e-9


def test_randomized_deviations_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        a_spec, b_spec, horizon = orc.random_deviation_pair(rng)
        a = orc.to_curve(a_spec, horizon)
        b = orc.to_curve(b_spec, horizon)
        dev = mp.deviations(a, b)
        assert dev.horizontal == pytest.approx(orc.oracle_hdev(a_spec, b_spec, horizon), abs=0.01)
        assert dev.vertical == pytest.approx(orc.oracle_vdev(a_spec, b_spec, horizon), abs=1.0)



# ---------------------------------------------------------------------------
# closed forms: the same deviations as the segments and the oracle
# ---------------------------------------------------------------------------

H_TOL = 0.01  # us, the oracle's tolerances
V_TOL = 1.0   # bits
CLOSED_H = 2000.0


def _concave_lines(rng, n, rate_hi):
    """Lines of a concave envelope with its kinks on the oracle's grid."""
    rates = sorted(rng.uniform(0.05, rate_hi, n), reverse=True)
    kinks = np.sort(rng.choice(np.arange(1, 4000), n - 1, replace=False)) * orc.STEP
    lines = [(float(rng.uniform(0, 15000)), float(rates[0]))]
    for r, t in zip(rates[1:], kinks):
        d, s = lines[-1]
        lines.append((d + (s - r) * float(t), float(r)))
    return lines


def _random_concave(rng):
    """(curve, oracle spec): an affine, a min of affines or a sum of two."""
    kind = rng.integers(3)
    if kind == 0:
        b, r = _concave_lines(rng, 1, 40.0)[0]
        return mp.Affine(b, r, CLOSED_H), orc.CurveSpec("affine", burst=b, rate=r)
    parts = [_concave_lines(rng, int(rng.integers(2, 4)), 20.0) for _ in range(kind)]
    curves = [mp.min_of([mp.Affine(d, s, CLOSED_H) for d, s in p]) for p in parts]
    specs = [orc.CurveSpec("minlines", terms=tuple(p)) for p in parts]
    if kind == 1:
        return curves[0], specs[0]
    return mp.sum_of(curves), orc.CurveSpec("sum", terms=tuple(specs))


def _random_convex(rng):
    """(curve, oracle spec): rate-latency, burst-delay, or the leftover of a
    link after higher-priority traffic, as closure or as positive part."""
    kind = rng.integers(4)
    if kind == 0:
        rate, latency = float(rng.uniform(5, 100)), orc._snap(rng.uniform(0, 400))
        return (mp.RateLatency(rate, latency, CLOSED_H),
                orc.CurveSpec("ratelatency", rate=rate, latency=latency))
    if kind == 1:
        delay = orc._snap(rng.uniform(0, 400))
        return mp.BurstDelay(delay, CLOSED_H), orc.CurveSpec("burstdelay", delay=delay)
    link = float(rng.uniform(60, 100))
    higher = _concave_lines(rng, int(rng.integers(1, 4)), 0.5 * link)
    while True:
        # the lower frame is chosen so that the service starts on the grid
        start = orc._snap(rng.uniform(0, 400))
        lower = link * start - min(d + s * start for d, s in higher)
        if lower >= 0.0:
            break
    inner = mp.sum_of([mp.Affine(-lower, link, CLOSED_H),
                       mp.scale(-1.0, mp.min_of([mp.Affine(d, s, CLOSED_H) for d, s in higher]))])
    curve = mp.up_closure(inner) if kind == 2 else mp.max_of([inner, mp.zero(CLOSED_H)])
    lines = tuple((-lower - d, link - s) for d, s in higher)
    return curve, orc.CurveSpec("maxlines", terms=lines)


def _h_at(a_spec, b_spec, w, horizon):
    """Horizontal deviation just after time w, from the oracle's formulas:
    beta's first time at alpha's level, by bisection."""
    t = w + orc.TINY
    y = orc.oracle_eval(a_spec, np.array([t]))[0]
    lo, hi = 0.0, 2.0 * horizon
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if orc.oracle_eval(b_spec, np.array([mid]))[0] >= y:
            hi = mid
        else:
            lo = mid
    return hi - t


def _v_at(a_spec, b_spec, w):
    ts = np.array([w, w + orc.TINY])
    with np.errstate(invalid="ignore"):
        return float(np.max(orc.oracle_eval(a_spec, ts) - orc.oracle_eval(b_spec, ts)))


def _assert_same_deviations(dev, seg):
    """The same deviations and witnesses from the closed form and the
    segments; on a flat stretch both take its first point."""
    assert dev.horizontal == pytest.approx(seg.horizontal, rel=1e-9, abs=1e-9)
    assert dev.vertical == pytest.approx(seg.vertical, rel=1e-9, abs=1e-9)
    assert dev.argmax_h == pytest.approx(seg.argmax_h, rel=1e-9, abs=1e-9)
    assert dev.argmax_v == pytest.approx(seg.argmax_v, rel=1e-9, abs=1e-9)


def _assert_matches_oracle(dev, a_spec, b_spec, horizon):
    """The oracle's deviations on [0, horizon], and witnesses in it that
    attain them under the oracle's formulas."""
    assert dev.horizontal == pytest.approx(orc.oracle_hdev(a_spec, b_spec, horizon), abs=H_TOL)
    assert dev.vertical == pytest.approx(orc.oracle_vdev(a_spec, b_spec, horizon), abs=V_TOL)
    assert 0.0 <= dev.argmax_h <= horizon
    assert _h_at(a_spec, b_spec, dev.argmax_h, horizon) == pytest.approx(dev.horizontal, abs=H_TOL)
    assert 0.0 <= dev.argmax_v <= horizon
    assert _v_at(a_spec, b_spec, dev.argmax_v) == pytest.approx(dev.vertical, abs=V_TOL)


def test_randomized_closed_form_matches_segments_and_oracle():
    rng = np.random.default_rng(20241)
    checked = 0
    while checked < 60:
        alpha, a_spec = _random_concave(rng)
        beta, b_spec = _random_convex(rng)
        if not a_spec.long_term_rate() <= 0.6 * b_spec.long_term_rate():
            continue
        ends = np.array([CLOSED_H])
        if orc.oracle_eval(b_spec, ends)[0] < orc.oracle_eval(a_spec, ends)[0] + 1000.0:
            continue
        dev = mp.deviations(alpha, beta)
        if b_spec.kind != "burstdelay":
            assert mp._closed_deviations(alpha, beta) == dev
            _assert_same_deviations(dev, mp._segment_deviations(alpha, beta))
        _assert_matches_oracle(dev, a_spec, b_spec, CLOSED_H)
        checked += 1


# each maker takes the horizon and returns (curve, oracle spec)

def _rate_latency(rate, latency):
    return lambda h: (mp.RateLatency(rate, latency, h),
                      orc.CurveSpec("ratelatency", rate=rate, latency=latency))


def _affine(burst, rate):
    return lambda h: (mp.Affine(burst, rate, h), orc.CurveSpec("affine", burst=burst, rate=rate))


def _burst_delay(delay):
    return lambda h: (mp.BurstDelay(delay, h), orc.CurveSpec("burstdelay", delay=delay))


def _min_affines(*lines):
    return lambda h: (mp.min_of([mp.Affine(d, s, h) for d, s in lines]),
                      orc.CurveSpec("minlines", terms=lines))


def _max_affines(*lines):
    return lambda h: (mp.max_of([mp.Affine(d, s, h) for d, s in lines] + [mp.zero(h)]),
                      orc.CurveSpec("maxlines", terms=lines))


def _staircase(*terms):
    return lambda h: (mp.StaircaseMax([terms], h), orc.CurveSpec("staircase", terms=terms))


def _link_leftover(link, lower):
    # the lowest priority with nothing below it: one inner term, no burst
    return lambda h: (mp.up_closure(mp.sum_of([mp.Affine(-lower, link, h)])),
                      orc.CurveSpec("maxlines", terms=((-lower, link),)))


TOL_RATE = 50.0 + 0.5 * mp.TOLERANCE

CLOSED_EDGE_CASES = {
    # name: (alpha, beta, (horizontal, vertical) or the exception raised)
    "zero arrival": (_affine(0.0, 0.0), _rate_latency(50.0, 30.0), (0.0, 0.0)),
    "zero latency": (_affine(2000.0, 10.0), _rate_latency(100.0, 0.0), (20.0, 2000.0)),
    "zero-burst inner term": (_affine(3000.0, 10.0), _link_leftover(100.0, 0.0), (30.0, 3000.0)),
    "zero-burst arrival": (_affine(0.0, 10.0), _rate_latency(100.0, 30.0), (30.0, 300.0)),
    "service kink above the burst": (_affine(1000.0, 20.0),
                                     _max_affines((-500.0, 10.0), (-18500.0, 100.0)),
                                     (175.0, 3500.0)),
    "burst delay 0": (_affine(2000.0, 10.0), _burst_delay(0.0), (0.0, 0.0)),
    "burst delay inside": (_affine(2000.0, 10.0), _burst_delay(150.0), (150.0, 3500.0)),
    "burst delay at horizon": (_affine(2000.0, 10.0), _burst_delay(H), (H, 42000.0)),
    "burst delay at horizon, no traffic": (_affine(0.0, 0.0), _burst_delay(H), (0.0, 0.0)),
    "burst delay beyond horizon": (_affine(1.0, 0.0), _burst_delay(2 * H), (2 * H, 1.0)),
    # arrival curves without a closed form: alpha first exceeds 0 at 120 us
    "burst delay up to the first arrival": (_staircase((3000.0, 120.0, 500.0)),
                                            _burst_delay(120.0), (0.0, 0.0)),
    "burst delay after the first arrival": (_staircase((3000.0, 120.0, 500.0)),
                                            _burst_delay(300.0), (180.0, 3000.0)),
    "burst delay inside the latency": (_rate_latency(20.0, 80.0), _burst_delay(50.0), (0.0, 0.0)),
    "first arrival rate equals service rate": (
        _min_affines((1000.0, 100.0), (5000.0, 10.0)),
        _rate_latency(100.0, 20.0), (30.0, 3000.0)),  # flat up to the kink at 44.4
    "rates equal within tolerance": (_affine(500.0, TOL_RATE), _affine(500.0, 50.0),
                                     InstabilityError),
    "identical token buckets": (_affine(500.0, 3.0), _affine(500.0, 3.0), (0.0, 0.0)),
    "flat service below a flat arrival": (_affine(500.0, 0.0), _max_affines((400.0, 0.0)),
                                          InstabilityError),
    # alpha(H) > beta(H), but the deviations are attained early
    "beyond the horizon": (_affine(5000.0, 10.0), _rate_latency(10.5, 300.0),
                           (300.0 + 5000.0 / 10.5, 8000.0)),
}

#: A horizon at which the segments reach every finite case's deviations.
SEGMENTS_H = 16 * H
#: The oracle's horizon: past every delay and witness of the cases.
ORACLE_H = 2 * H


@pytest.mark.parametrize("name", sorted(CLOSED_EDGE_CASES))
def test_closed_form_edge_cases(name):
    make_alpha, make_beta, want = CLOSED_EDGE_CASES[name]
    (alpha, a_spec), (beta, b_spec) = make_alpha(H), make_beta(H)
    if not isinstance(want, tuple):
        with pytest.raises(want):
            mp.deviations(alpha, beta)
        return
    dev = mp.deviations(alpha, beta)
    assert (dev.horizontal, dev.vertical) == pytest.approx(want, abs=1e-9)
    _assert_matches_oracle(dev, a_spec, b_spec, ORACLE_H)
    if b_spec.kind != "burstdelay":
        assert mp._closed_deviations(alpha, beta) == dev
        seg = mp._segment_deviations(make_alpha(SEGMENTS_H)[0], make_beta(SEGMENTS_H)[0])
        _assert_same_deviations(dev, seg)


def test_segment_witness_is_the_first_maximum():
    # a pair from a gate-free analysis: the horizontal deviation is attained
    # from level alpha(0+) (time 0) up to alpha's kink at 13.95 us, and
    # rounding puts the largest float among the segments' candidates at the
    # kink
    h = 40000.0
    alpha = mp.min_of([mp.Affine(11747.0, 100.0, h), mp.Affine(13064.00424, 5.608, h)])
    beta = mp.RateLatency(100.0, 97.15, h)
    closed = mp._closed_deviations(alpha, beta)
    seg = mp._segment_deviations(alpha, beta)
    assert (closed.argmax_h, closed.argmax_v) == (0.0, 97.15)
    assert (seg.argmax_h, seg.argmax_v) == (closed.argmax_h, closed.argmax_v)
    assert (seg.horizontal, seg.vertical) == pytest.approx((closed.horizontal, closed.vertical), rel=1e-12)


def test_vertical_witness_is_the_earliest_maximum():
    # a pair from a gate-free analysis: the backlog 9524 bits holds on all
    # of (0, 103.56], so the first maximum in time is 0+
    alpha = mp.min_of([mp.Affine(9524.0, 100.0, H), mp.Affine(19260.489362, 5.9813, H)])
    beta = mp.RateLatency(100.0, 0.0, H)
    closed = mp._closed_deviations(alpha, beta)
    seg = mp._segment_deviations(alpha, beta)
    assert closed.vertical == pytest.approx(9524.0, rel=1e-12)
    assert seg.vertical == pytest.approx(9524.0, rel=1e-12)
    assert closed.argmax_v == seg.argmax_v == 0.0


def test_closed_form_is_horizon_free():
    # alpha(10) > beta(10), yet a 10-us horizon gives the deviations of any
    def pair(h):
        return (mp.min_of([mp.Affine(5000.0, 40.0, h), mp.Affine(9000.0, 10.0, h)]),
                mp.RateLatency(10.5, 300.0, h))

    assert mp.deviations(*pair(10.0)) == mp.deviations(*pair(1e7))


def test_closed_form_instability_precedes_both_paths():
    alpha, beta = mp.Affine(0.0, 20.0, H), mp.RateLatency(10.0, 0.0, H)
    assert alpha.envelope is not None and beta.envelope is not None
    with pytest.raises(InstabilityError):
        mp.deviations(alpha, beta)


def test_closed_form_witness_is_the_first_maximum():
    # the deviations are attained all along a flat stretch that starts at
    # 0 (horizontal) and at the latency, 20 us (vertical)
    alpha = mp.min_of([mp.Affine(1000.0, 100.0, H), mp.Affine(5000.0, 10.0, H)])
    dev = mp.deviations(alpha, mp.RateLatency(100.0, 20.0, H))
    assert (dev.argmax_h, dev.argmax_v) == (0.0, 20.0)


def test_closed_form_refuses_a_decreasing_service():
    higher = mp.min_of([mp.Affine(100.0, 30.0, H), mp.Affine(2000.0, 5.0, H)])
    leftover = mp.sum_of([mp.Affine(-500.0, 50.0, H), mp.scale(-1.0, higher)])
    assert leftover.envelope is not None  # negative from 0+ on: not a service curve
    with pytest.raises(ValueError):
        mp.deviations(mp.Affine(100.0, 1.0, H), leftover)


def test_gated_service_keeps_segments():
    gate = mp.StaircaseMax([[(20000.0, 0.0, 1000.0)]], H)
    beta = mp.up_closure(mp.sum_of([mp.Affine(-1000.0, 100.0, H), mp.scale(-1.0, gate)]))
    assert beta.envelope is None
    assert mp._closed_deviations(mp.Affine(1000.0, 5.0, H), beta) is None


def _envelope_cases():
    higher = mp.min_of([mp.Affine(100.0, 30.0, H), mp.Affine(2000.0, 5.0, H)])
    leftover = mp.sum_of([mp.Affine(-500.0, 50.0, H), mp.scale(-1.0, higher)])
    return {
        "affine": mp.Affine(300.0, 2.0, H),
        "rate-latency": mp.RateLatency(40.0, 25.0, H),
        "rate-latency, no latency": mp.RateLatency(40.0, 0.0, H),
        "rate-latency beyond the horizon": mp.RateLatency(40.0, 2 * H, H),
        "rate-latency with its kink at the horizon": mp.RateLatency(40.0, H, H),
        "min": higher,
        "min with its kink beyond the horizon": mp.min_of([mp.Affine(100.0, 30.0, H),
                                                           mp.Affine(2e5, 5.0, H)]),
        "sum of mins": mp.sum_of([higher, mp.min_of([mp.Affine(0.0, 80.0, H),
                                                    mp.Affine(900.0, 1.0, H)])]),
        "scaled": mp.scale(2.5, higher),
        "leftover": leftover,
        "leftover closure": mp.up_closure(leftover),
        "leftover positive part": mp.max_of([leftover, mp.zero(H)]),
        "closure of a line": mp.up_closure(mp.Affine(-100.0, 3.0, H)),
        "max of mins": mp.max_of([mp.Affine(50.0, 1.0, H), mp.Affine(-10.0, 4.0, H)]),
    }


def _envelope_magnitude(curve, *segs):
    """The largest term the values of ``curve`` and of ``segs`` are computed
    from: the terms of each envelope line up to the horizon, and the values
    of each segment function."""
    lines = np.abs(np.array(curve.envelope.lines)) * [1.0, curve.horizon]
    return max(float(np.max(lines)), _magnitude(*segs))


def _children(curve):
    return getattr(curve, "curves", ()) + ((curve.curve,) if hasattr(curve, "curve") else ())


def _nodes(curve):
    yield curve
    for child in _children(curve):
        yield from _nodes(child)


@pytest.mark.parametrize("name", sorted(_envelope_cases()))
def test_envelope_matches_segments(name):
    # segments come from the envelope; _build folds the operands' segments
    curve = _envelope_cases()[name]
    assert curve.envelope is not None
    want = curve._build()
    _assert_same_function(curve.segments, want, _envelope_magnitude(curve, curve.segments, want))


def _random_token_bucket_tree(rng, horizon, depth=0):
    """A random tree of token-bucket nodes: Affine, RateLatency, sum, min,
    max, scaling by either sign and the closure.  Kinks fall before, at and
    beyond the horizon."""
    kind = int(rng.integers(0, 7)) if depth < 3 else int(rng.integers(0, 2))
    if kind == 0:
        return mp.Affine(float(rng.uniform(-2000.0, 5000.0)), float(rng.uniform(0.0, 100.0)), horizon)
    if kind == 1:
        latency = float(rng.choice([0.0, horizon, rng.uniform(0.0, 2 * horizon)]))
        return mp.RateLatency(float(rng.uniform(0.0, 100.0)), latency, horizon)
    if kind <= 4:
        children = [_random_token_bucket_tree(rng, horizon, depth + 1)
                    for _ in range(int(rng.integers(2, 5)))]
        return mp.Pointwise(("sum", "min", "max")[kind - 2], children)
    child = _random_token_bucket_tree(rng, horizon, depth + 1)
    if kind == 5:
        return mp.scale(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)), child)
    return mp.up_closure(child)


def test_random_envelope_trees_match_the_fold():
    rng = np.random.default_rng(20260901)
    compared = 0
    for _ in range(400):
        horizon = float(rng.choice([50.0, 500.0, H]))
        for node in _nodes(_random_token_bucket_tree(rng, horizon)):
            if node.envelope is None:
                continue
            operands = [c.segments for c in _children(node)]
            want = node._build()
            _assert_same_function(node.segments, want, _envelope_magnitude(node, want, *operands))
            compared += 1
    assert compared > 1000


def _folded_sum(envs):
    """The sum of envelopes folded pairwise: at each step the envelope of
    every pairwise sum of lines."""
    senses = {e.sense for e in envs} - {0}
    sense = senses.pop() if senses else 1
    env = envs[0]
    for e in envs[1:]:
        env = mp._hull(sense, [(d0 + d1, s0 + s1) for d0, s0 in env.lines for d1, s1 in e.lines])
    return env


def _random_envelope(rng, sense):
    """A single line, or the min (sense 1) or max (sense -1) of a few."""
    lines = [(float(rng.uniform(-5000.0, 5000.0)), float(rng.uniform(0.0, 100.0)))
             for _ in range(int(rng.integers(1, 5)))]
    return mp.Envelope(0, tuple(lines)) if len(lines) == 1 else mp._hull(sense, lines)


def test_envelope_sum_matches_the_pairwise_fold():
    rng = np.random.default_rng(20261019)
    for _ in range(500):
        envs = [mp.Envelope(0, ((float(rng.uniform(-5000.0, 5000.0)), float(rng.uniform(0.0, 100.0))),))
                for _ in range(int(rng.integers(2, 6)))]
        # single lines: added in fold order, so exactly
        assert mp._sum_envelopes(envs) == _folded_sum(envs)
    for _ in range(500):
        sense = int(rng.choice([1, -1]))
        envs = [_random_envelope(rng, sense) for _ in range(int(rng.integers(2, 6)))]
        got, want = mp._sum_envelopes(envs), _folded_sum(envs)
        assert got.sense == want.sense
        ts = np.concatenate([rng.uniform(0.0, 2000.0, 50), got.kinks(), want.kinks()])
        for t in ts[ts > 0.0]:
            scale = sum(max(abs(d), abs(s * t)) for e in envs for d, s in e.lines)
            assert got.value(t) == pytest.approx(want.value(t), rel=0.0, abs=1e-12 * scale)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_curve_horizon_must_be_positive_and_finite(horizon):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        mp.Affine(0.0, 1.0, horizon)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        mp.StaircaseMax([[(1e4, 0.0, 1000.0)]], horizon)


def test_segment_arrays_are_read_only():
    gate = mp.StaircaseMax([[(2000.0, 0.0, 100.0)]], H)
    seg = mp.up_closure(mp.sum_of([mp.Affine(-50.0, 100.0, H), mp.scale(-1.0, gate)])).segments
    arrays = [getattr(seg, name) for name in ("t", "at", "right", "slope")]
    arrays += [seg.table.end_left, seg.table.reach]
    for values in arrays:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_envelope_absent_outside_the_token_bucket_family():
    gate = mp.StaircaseMax([[(2000.0, 0.0, 100.0)]], H)
    falling = mp.sum_of([mp.Affine(500.0, 10.0, H), mp.scale(-1.0, mp.Affine(0.0, 20.0, H))])
    concave = mp.min_of([mp.Affine(100.0, 30.0, H), mp.Affine(2000.0, 5.0, H)])
    assert gate.envelope is None
    assert mp.BurstDelay(10.0, H).envelope is None
    assert mp.sum_of([mp.Affine(0.0, 100.0, H), mp.scale(-1.0, gate)]).envelope is None
    # the closure of a curve that jumps up at 0 and then falls stays flat,
    # which no max of lines is
    assert falling.envelope is not None
    assert mp.up_closure(falling).envelope is None
    # a min of lines is not a max of lines: no closure, no max with them
    assert mp.up_closure(mp.scale(-1.0, mp.scale(-1.0, concave))).envelope is None
    assert mp.max_of([concave, mp.zero(H)]).envelope is None
    assert mp.sum_of([concave, mp.scale(-1.0, concave)]).envelope is None
