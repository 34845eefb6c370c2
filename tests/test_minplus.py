"""Curve algebra: closed-form identities and oracle agreement."""

import ast
import math
import pathlib

import numpy as np
import pytest

from tsncalc import minplus as mp
from tsncalc.errors import InstabilityError

import nc_oracle as orc

H = 4000.0
INF = math.inf


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_affine():
    c = mp.Affine(2000.0, 10.0)
    assert c.evaluate(100.0) == pytest.approx(3000.0)
    assert c.evaluate(0.0) == 0.0


def test_evaluate_staircase_single_term():
    c = mp.StaircaseMax([[(1e4, 0.0, 1000.0)]])
    assert c.evaluate(1.0) == pytest.approx(1e4)
    assert c.evaluate(0.0) == 0.0
    assert c.evaluate(1000.0) == pytest.approx(1e4)
    assert c.evaluate(1000.5) == pytest.approx(2e4)


def test_tdma_service_from_one_period_of_windows():
    # windows [100, 250) and [500, 580) every 1000 us, at 10 bits/us
    c = mp.TdmaService(10.0, 1000.0, [100.0, 500.0], [150.0, 80.0])
    assert c.evaluate(100.0) == 0.0
    assert c.evaluate(200.0) == pytest.approx(1000.0)
    assert c.evaluate(1000.0) == pytest.approx(2300.0)
    assert c.evaluate(3540.0) == pytest.approx(3 * 2300.0 + 1500.0 + 400.0)
    assert c.long_term_rate() == pytest.approx(2.3)


def test_tdma_service_windows_an_ulp_apart():
    # a start a rounding error below 0 is clamped to 0, and a start an ulp
    # before the previous window's end counts both windows open for that ulp
    c = mp.TdmaService(10.0, 1000.0, [-1e-13, np.nextafter(250.0, 0.0)], [250.0, 100.0])
    assert c.segments.is_nondecreasing()
    assert c.evaluate(350.0) == pytest.approx(3500.0)
    assert c.evaluate(1350.0) == pytest.approx(7000.0)
    with pytest.raises(ValueError):
        mp.TdmaService(10.0, 1000.0, [-1.0], [10.0])


def test_running_integral_adds_the_steps_of_equal_times():
    t, slope, value = mp.running_integral([2.0, 0.0, 2.0, 5.0], [1.0, 3.0, -2.0, 0.0])
    assert t.tolist() == [0.0, 2.0, 5.0]
    assert slope.tolist() == [3.0, 2.0, 2.0]
    assert value.tolist() == [0.0, 6.0, 12.0]


# ---------------------------------------------------------------------------
# deviations
# ---------------------------------------------------------------------------

def test_hdev_token_bucket_vs_rate_latency():
    a = mp.Affine(2000.0, 10.0)
    b = mp.RateLatency(100.0, 100.0)
    assert mp.deviations(a, b).horizontal == pytest.approx(120.0, abs=1e-9)


def test_hdev_empty_traffic_is_zero():
    a = mp.Affine(0.0, 0.0)
    b = mp.RateLatency(100.0, 100.0)
    assert mp.deviations(a, b).horizontal == 0.0


def test_hdev_staircase_vs_rate_latency_matches_oracle():
    # one gate window per period, as produced by a single-entry schedule
    terms = ((1e4, 0.0, 1000.0),)
    a_spec = orc.CurveSpec("staircase", terms=terms)
    b_spec = orc.CurveSpec("ratelatency", rate=100.0, latency=50.0)
    a = orc.to_curve(a_spec)
    b = orc.to_curve(b_spec)
    assert mp.deviations(a, b).horizontal == pytest.approx(orc.oracle_hdev(a_spec, b_spec, H), abs=0.01)


def test_hdev_instability():
    with pytest.raises(InstabilityError):
        mp.deviations(mp.Affine(0.0, 20.0), mp.RateLatency(10.0, 0.0))


def test_vdev_token_bucket_vs_rate_latency():
    a = mp.Affine(2000.0, 10.0)
    b = mp.RateLatency(100.0, 100.0)
    assert mp.deviations(a, b).vertical == pytest.approx(3000.0, abs=1e-9)


def test_vdev_identical_curves():
    a = mp.Affine(500.0, 3.0)
    assert mp.deviations(a, mp.Affine(500.0, 3.0)).vertical == 0.0


def test_vdev_staircase_vs_rate_latency_matches_oracle():
    terms = ((4000.0, 100.0, 500.0), (1000.0, 0.0, 250.0))
    a_spec = orc.CurveSpec("staircase", terms=terms)
    b_spec = orc.CurveSpec("ratelatency", rate=60.0, latency=30.0)
    a = orc.to_curve(a_spec)
    b = orc.to_curve(b_spec)
    assert mp.deviations(a, b).vertical == pytest.approx(orc.oracle_vdev(a_spec, b_spec, H), abs=1.0)


def test_deviation_witnesses_in_range():
    a = mp.Affine(2000.0, 10.0)
    b = mp.RateLatency(100.0, 100.0)
    dev = mp.deviations(a, b)
    assert 0.0 <= dev.argmax_h <= H
    assert 0.0 <= dev.argmax_v <= H


# ---------------------------------------------------------------------------
# min_of / sum_of and closures
# ---------------------------------------------------------------------------

def test_min_at_origin_plus():
    a = mp.Affine(1000.0, 1.0)
    f = mp.RateLatency(50.0, 10.0)
    m = mp.min_of([a, f])
    assert m.evaluate(0.001) == pytest.approx(min(1000.001, 0.0))


def test_sum_of_affine():
    s = mp.sum_of([mp.Affine(1000.0, 1.0), mp.Affine(2000.0, 2.0)])
    for t in (0.5, 10.0, 100.0):
        assert s.evaluate(t) == pytest.approx(3000.0 + 3.0 * t)


def test_min_link_shaper_vs_affine_matches_pointwise():
    burst, rate, cap, lmax = 9000.0, 2.0, 100.0, 12176.0
    a = mp.Affine(burst, rate)
    link = mp.Affine(lmax, cap)
    m = mp.min_of([a, link])
    for t in np.linspace(0.01, H, 97):
        want = min(burst + rate * t, lmax + cap * t)
        assert m.evaluate(t) == pytest.approx(want, abs=1e-6)


def test_min_segments_exact_across_kink():
    # 1000 + 10t and 3000 + 2t cross at t = 250; the compiled segments, not
    # only evaluate, must carry the kink
    m = mp.min_of([mp.Affine(1000.0, 10.0), mp.Affine(3000.0, 2.0)])
    ts = np.array([100.0, 250.0, 400.0])
    want = np.minimum(1000.0 + 10.0 * ts, 3000.0 + 2.0 * ts)
    np.testing.assert_allclose(m.segments.value_many(ts), want, atol=1e-9)
    assert m.long_term_rate() == 2.0


def test_max_of_staircases_matches_pointwise():
    a_spec = orc.CurveSpec("staircase", terms=((1000.0, 0.0, 300.0),))
    b_spec = orc.CurveSpec("staircase", terms=((1500.0, 100.0, 500.0), (200.0, 50.0, 250.0)))
    m = mp.max_of([orc.to_curve(a_spec), orc.to_curve(b_spec)])
    grid = np.arange(0.0, H + 1.0, 50.0)
    ts = np.unique(np.clip(np.concatenate([grid, grid + orc.TINY, grid - orc.TINY]), 0.0, H))
    want = np.maximum(orc.oracle_eval(a_spec, ts), orc.oracle_eval(b_spec, ts))
    seg = mp._segments_on(m, H)
    np.testing.assert_allclose(seg.value_many(ts), want, atol=1e-6)
    assert seg.is_nondecreasing()
    assert m.long_term_rate() == pytest.approx(max(1000.0 / 300.0, 1500.0 / 500.0 + 200.0 / 250.0))


@pytest.mark.parametrize("heights", [(0.1, 0.2), (0.3, 0.6), (0.2, 0.1, 0.7)])
def test_staircase_value_at_each_jump_is_the_limit_before_it(heights):
    # a step is left-continuous: its value at a jump is exactly the right
    # limit at the point before, never a rounding below it; one rotation per
    # window, as a gate curve has
    n, period = len(heights), 1000.0
    rotations = [[(heights[(i + j) % n], 100.0 * j + (period - 100.0 * n if i + j >= n else 0.0), period)
                  for j in range(n)] for i in range(n)]
    curves = [mp.StaircaseMax([r]) for r in rotations] + [mp.StaircaseMax(rotations)]
    built = [c.segments for c in curves]
    for alone, batched in zip(built, mp._staircases(curves, [H] * len(curves))):
        for name in ("t", "at", "right"):
            assert np.array_equal(getattr(alone, name), getattr(batched, name))
    for seg in built:
        values = np.column_stack([seg.at, seg.right]).ravel()
        assert np.all(values[1:] >= values[:-1])
    for seg in built[:n]:
        assert np.array_equal(seg.at[1:], seg.right[:-1])
    # the max: at every jump time of any rotation, kept or compressed away,
    # its right limit is the largest a rotation has reached, and its value
    # that limit at the jump time before, bit for bit
    grid = np.unique(np.concatenate([seg.t for seg in built[:n]]))
    after = np.max([seg.right[seg._locate(grid)] for seg in built[:n]], axis=0)
    at, right, _ = mp._resample(built[n], grid)
    assert np.array_equal(right, after)
    assert np.array_equal(at, np.append(0.0, after[:-1]))


def _ulp_segments(rng):
    """A segment function whose rows each rise by 0 or 1 ulp at their point
    and again just after it, and mostly keep the slope of the row before,
    which may be 0: rows that compression must keep for one ulp beside rows
    it may drop, in runs along one slope."""
    n = int(rng.integers(2, 40))
    t = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 1000), n - 1, replace=False))
                        * float(rng.uniform(0.1, 3.0))])
    slope = [float(rng.choice([0.0, 0.1, 1.0 / 3.0, 2.5]))]
    at, right = [0.0], [float(rng.choice([0.0, 7.0]))]
    for k in range(1, n):
        slope.append(slope[-1] if rng.random() < 0.7 else float(rng.choice([0.0, 0.1, 1.0 / 3.0, 2.5])))
        value = right[-1] + slope[k - 1] * (t[k] - t[k - 1])
        for rows in (at, right):
            value = np.nextafter(value, INF) if rng.random() < 0.3 else value
            rows.append(float(value))
    return mp.Segments(t, at, right, slope, t[-1] + 10.0)


def test_compression_keeps_every_value_bit_for_bit():
    # values below 4096, where one ulp is below 1e-12
    rng = np.random.default_rng(20261021)
    for _ in range(500):
        seg = _ulp_segments(rng)
        got = seg.compress()
        at, right, _ = mp._resample(got, seg.t)
        assert np.array_equal(at, seg.at) and np.array_equal(right, seg.right)
    # a max of two staircase rotations of heights (0.3, 0.6) and (0.6, 0.3)
    # reaches 1.7999999999999998 at t = 1100 and 1.8 at 1900
    rotations = [[(0.3, 0.0, 1000.0), (0.6, 100.0, 1000.0)], [(0.6, 0.0, 1000.0), (0.3, 900.0, 1000.0)]]
    seg = mp._pointwise([mp.StaircaseMax([r]).segments for r in rotations], "max")
    assert seg.right[seg._locate(np.array([1100.0, 1900.0]))].tolist() == [1.7999999999999998, 1.8]
    at, right, _ = mp._resample(seg.compress(), seg.t)
    assert np.array_equal(at, seg.at) and np.array_equal(right, seg.right)


def test_no_rounding_threshold_outside_the_rule():
    # every comparison within rounding goes through minplus.slack
    tree = ast.parse(pathlib.Path(mp.__file__).read_text())
    rule = {node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] in (["TOLERANCE"], ["ROUNDING"])}
    small = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-6]
    assert len(rule) == 2 and len(small) == 2
    assert all(isinstance(node, ast.Constant) for node in rule)
    assert mp.slack(1.0) == mp.TOLERANCE and mp.slack(-1e6) == 1e6 * mp.ROUNDING


def test_empty_lists_rejected():
    with pytest.raises(ValueError):
        mp.min_of([])
    with pytest.raises(ValueError):
        mp.max_of([])
    with pytest.raises(ValueError):
        mp.sum_of([])


def test_up_closure_nondecreasing_nonnegative():
    # C*t minus a gate staircase dips at jumps; the closure must repair it
    inner = mp.sum_of([
        mp.Affine(0.0, 100.0),
        mp.scale(-1.0, mp.StaircaseMax([[(20000.0, 0.0, 1000.0)]])),
        mp.Affine(-5000.0, 0.0),
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
    inner = mp.sum_of([mp.Affine(0.0, 50.0), mp.Affine(-4000.0, 0.0)])
    pp = mp.max_of([inner, mp.zero()])
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
        t1 = seg.t[k + 1] if k + 1 < n else seg.end
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
    return mp.Segments(np.array(ts), np.array(ats), np.array(rights), np.array(slopes), seg.end)


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
    function, and at their end, agree within 1e-12 of ``scale``."""
    assert got.end == want.end
    grid = np.union1d(np.union1d(got.t, want.t), [got.end])
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
    seg = mp._segments_on(mp.sum_of([mp.RateLatency(8.119256087669434, 0.0),
                                     mp.RateLatency(42.27580136176452, 0.0),
                                     mp.RateLatency(88.6280763119632, 3190.4842426616087)]), H)
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
        for name in ("t", "at", "right", "slope"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_k_way_min_follows_two_changes_of_the_lowest_line_in_one_interval():
    # 3t is lowest until 1, then 2 + t until 8, then 10: the fold puts a
    # kink at each change and nowhere else
    segs = [mp.Segments([0.0], [0.0], [d], [s], 10.0) for d, s in ((0.0, 3.0), (2.0, 1.0), (10.0, 0.0))]
    got = mp._pointwise(segs, "min")
    np.testing.assert_allclose(got.t, [0.0, 1.0, 8.0], rtol=1e-12)
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
        f1 = mp.Affine(b1, r1)
        f2 = mp.Affine(b1 + rng.uniform(0, 3000), r1 + rng.uniform(0, 5))
        beta = mp.RateLatency(rng.uniform(30, 100), rng.uniform(0, 200))
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
        a = orc.to_curve(a_spec)
        b = orc.to_curve(b_spec)
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
        return mp.Affine(b, r), orc.CurveSpec("affine", burst=b, rate=r)
    parts = [_concave_lines(rng, int(rng.integers(2, 4)), 20.0) for _ in range(kind)]
    curves = [mp.min_of([mp.Affine(d, s) for d, s in p]) for p in parts]
    specs = [orc.CurveSpec("minlines", terms=tuple(p)) for p in parts]
    if kind == 1:
        return curves[0], specs[0]
    return mp.sum_of(curves), orc.CurveSpec("sum", terms=tuple(specs))


def _random_convex(rng):
    """(curve, oracle spec): rate-latency, or the leftover of a link after
    higher-priority traffic, as closure or as positive part."""
    kind = rng.integers(3)
    if kind == 0:
        rate, latency = float(rng.uniform(5, 100)), orc._snap(rng.uniform(0, 400))
        return (mp.RateLatency(rate, latency),
                orc.CurveSpec("ratelatency", rate=rate, latency=latency))
    link = float(rng.uniform(60, 100))
    higher = _concave_lines(rng, int(rng.integers(1, 4)), 0.5 * link)
    while True:
        # the lower frame is chosen so that the service starts on the grid
        start = orc._snap(rng.uniform(0, 400))
        lower = link * start - min(d + s * start for d, s in higher)
        if lower >= 0.0:
            break
    inner = mp.sum_of([mp.Affine(-lower, link),
                       mp.scale(-1.0, mp.min_of([mp.Affine(d, s) for d, s in higher]))])
    curve = mp.up_closure(inner) if kind == 1 else mp.max_of([inner, mp.zero()])
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


def _segment_deviations_on(alpha, beta, horizon):
    """The deviations of the segment path, with both curves read on [0,
    horizon], as a gated pair reads them on that window."""
    return mp._deviations_of(mp._segments_on(alpha, horizon), mp._segments_on(beta, horizon))


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
        assert mp._closed_deviations(alpha, beta) == dev
        _assert_same_deviations(dev, _segment_deviations_on(alpha, beta, CLOSED_H))
        _assert_matches_oracle(dev, a_spec, b_spec, CLOSED_H)
        checked += 1


# each maker takes the horizon and returns (curve, oracle spec)

def _rate_latency(rate, latency):
    return lambda h: (mp.RateLatency(rate, latency),
                      orc.CurveSpec("ratelatency", rate=rate, latency=latency))


def _affine(burst, rate):
    return lambda h: (mp.Affine(burst, rate), orc.CurveSpec("affine", burst=burst, rate=rate))


def _min_affines(*lines):
    return lambda h: (mp.min_of([mp.Affine(d, s) for d, s in lines]),
                      orc.CurveSpec("minlines", terms=lines))


def _max_affines(*lines):
    return lambda h: (mp.max_of([mp.Affine(d, s) for d, s in lines] + [mp.zero()]),
                      orc.CurveSpec("maxlines", terms=lines))


def _staircase(*terms):
    return lambda h: (mp.StaircaseMax([terms]), orc.CurveSpec("staircase", terms=terms))


def _link_leftover(link, lower):
    # the lowest priority with nothing below it: one inner term, no burst
    return lambda h: (mp.up_closure(mp.sum_of([mp.Affine(-lower, link)])),
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
    assert mp._closed_deviations(alpha, beta) == dev
    seg = _segment_deviations_on(make_alpha(SEGMENTS_H)[0], make_beta(SEGMENTS_H)[0], SEGMENTS_H)
    _assert_same_deviations(dev, seg)


# a shaped queue's backlog: its arrival curve at its delay
EVALUATE_CASES = {
    # name: (curve, t, value)
    "delay 0": (_affine(2000.0, 10.0), 0.0, 0.0),
    "inside": (_affine(2000.0, 10.0), 150.0, 3500.0),
    "at horizon": (_affine(2000.0, 10.0), H, 42000.0),
    "at horizon, no traffic": (_affine(0.0, 0.0), H, 0.0),
    "beyond horizon": (_affine(1.0, 0.0), 2 * H, 1.0),
    # a closed form is read for every t
    "line beyond horizon": (_affine(2000.0, 10.0), 2 * H, 82000.0),
    # curves without a closed form: alpha first exceeds 0 at 120 us
    "up to the first arrival": (_staircase((3000.0, 120.0, 500.0)), 120.0, 0.0),
    "after the first arrival": (_staircase((3000.0, 120.0, 500.0)), 300.0, 3000.0),
    "inside the latency": (_rate_latency(20.0, 80.0), 50.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(EVALUATE_CASES))
def test_evaluate_cases(name):
    make, t, want = EVALUATE_CASES[name]
    curve, spec = make(H)
    assert curve.evaluate(t) == pytest.approx(want, abs=1e-9)
    assert orc.oracle_eval(spec, np.array([t]))[0] == pytest.approx(want, abs=1e-9)


def test_segment_witness_is_the_first_maximum():
    # a pair from a gate-free analysis: the horizontal deviation is attained
    # from level alpha(0+) (time 0) up to alpha's kink at 13.95 us, and
    # rounding puts the largest float among the segments' candidates at the
    # kink
    h = 40000.0
    alpha = mp.min_of([mp.Affine(11747.0, 100.0), mp.Affine(13064.00424, 5.608)])
    beta = mp.RateLatency(100.0, 97.15)
    closed = mp._closed_deviations(alpha, beta)
    seg = _segment_deviations_on(alpha, beta, h)
    assert (closed.argmax_h, closed.argmax_v) == (0.0, 97.15)
    assert (seg.argmax_h, seg.argmax_v) == (closed.argmax_h, closed.argmax_v)
    assert (seg.horizontal, seg.vertical) == pytest.approx((closed.horizontal, closed.vertical), rel=1e-12)


def test_vertical_witness_is_the_earliest_maximum():
    # a pair from a gate-free analysis: the backlog 9524 bits holds on all
    # of (0, 103.56], so the first maximum in time is 0+
    alpha = mp.min_of([mp.Affine(9524.0, 100.0), mp.Affine(19260.489362, 5.9813)])
    beta = mp.RateLatency(100.0, 0.0)
    closed = mp._closed_deviations(alpha, beta)
    seg = _segment_deviations_on(alpha, beta, H)
    assert closed.vertical == pytest.approx(9524.0, rel=1e-12)
    assert seg.vertical == pytest.approx(9524.0, rel=1e-12)
    assert closed.argmax_v == seg.argmax_v == 0.0


def test_closed_form_is_horizon_free():
    # alpha(10) > beta(10), yet a 10-us horizon gives the deviations of any
    def pair(h):
        return (mp.min_of([mp.Affine(5000.0, 40.0), mp.Affine(9000.0, 10.0)]),
                mp.RateLatency(10.5, 300.0))

    assert mp.deviations(*pair(10.0)) == mp.deviations(*pair(1e7))


def test_closed_form_instability_precedes_both_paths():
    alpha, beta = mp.Affine(0.0, 20.0), mp.RateLatency(10.0, 0.0)
    assert alpha.envelope is not None and beta.envelope is not None
    with pytest.raises(InstabilityError):
        mp.deviations(alpha, beta)


def test_closed_form_witness_is_the_first_maximum():
    # the deviations are attained all along a flat stretch that starts at
    # 0 (horizontal) and at the latency, 20 us (vertical)
    alpha = mp.min_of([mp.Affine(1000.0, 100.0), mp.Affine(5000.0, 10.0)])
    dev = mp.deviations(alpha, mp.RateLatency(100.0, 20.0))
    assert (dev.argmax_h, dev.argmax_v) == (0.0, 20.0)


def test_closed_form_refuses_a_decreasing_service():
    higher = mp.min_of([mp.Affine(100.0, 30.0), mp.Affine(2000.0, 5.0)])
    leftover = mp.sum_of([mp.Affine(-500.0, 50.0), mp.scale(-1.0, higher)])
    assert leftover.envelope is not None  # negative from 0+ on: not a service curve
    with pytest.raises(ValueError):
        mp.deviations(mp.Affine(100.0, 1.0), leftover)


def test_gate_free_pairs_outside_the_closed_case_are_refused():
    # a convex arrival curve has no closed deviations, and without a gate
    # curve there is no window to read the segments on
    with pytest.raises(ValueError, match="gate-free"):
        mp.deviations(mp.RateLatency(10.0, 5.0), mp.Affine(0.0, 50.0))


def test_gated_service_keeps_segments():
    gate = mp.StaircaseMax([[(20000.0, 0.0, 1000.0)]])
    beta = mp.up_closure(mp.sum_of([mp.Affine(-1000.0, 100.0), mp.scale(-1.0, gate)]))
    assert beta.envelope is None
    assert mp._closed_deviations(mp.Affine(1000.0, 5.0), beta) is None


def _fold(kind, *args):
    """The curve that the operator of ``kind`` returns from ``args``, and the
    same composition as a node, whose ``_build`` folds the operands'
    segments."""
    operator, node = {
        "sum": (mp.sum_of, lambda curves: mp.Pointwise("sum", curves)),
        "min": (mp.min_of, lambda curves: mp.Pointwise("min", curves)),
        "max": (mp.max_of, lambda curves: mp.Pointwise("max", curves)),
        "scale": (mp.scale, mp.Scale),
        "closure": (mp.up_closure, mp.UpClosure),
    }[kind]
    return operator(*args), node(*args)


def _leaf_segments(curve, h):
    """The segments on [0, h] of an Affine or RateLatency curve written out
    from its parameters: a reference for the conversion of its closed form."""
    if isinstance(curve, mp.Affine):
        return mp.Segments([0.0], [0.0], [curve.burst], [curve.rate], h)
    rate, latency = curve.rate, curve.latency
    if latency == 0.0 or latency >= h:
        return mp.Segments([0.0], [0.0], [0.0], [rate if latency == 0.0 else 0.0], h)
    return mp.Segments([0.0, latency], [0.0, 0.0], [0.0, 0.0], [0.0, rate], h)


def _envelope_cases():
    """Name -> (the curve, the node that folds the same composition from
    segments, or None for a leaf)."""
    higher = mp.min_of([mp.Affine(100.0, 30.0), mp.Affine(2000.0, 5.0)])
    leftover = mp.sum_of([mp.Affine(-500.0, 50.0), mp.scale(-1.0, higher)])
    leaves = {
        "affine": mp.Affine(300.0, 2.0),
        "zero": mp.zero(),
        "rate-latency": mp.RateLatency(40.0, 25.0),
        "rate-latency, no latency": mp.RateLatency(40.0, 0.0),
        "rate-latency beyond the horizon": mp.RateLatency(40.0, 2 * H),
        "rate-latency with its kink at the horizon": mp.RateLatency(40.0, H),
    }
    folds = {
        "min": _fold("min", [mp.Affine(100.0, 30.0), mp.Affine(2000.0, 5.0)]),
        "min with its kink beyond the horizon": _fold("min", [mp.Affine(100.0, 30.0),
                                                              mp.Affine(2e5, 5.0)]),
        "sum of mins": _fold("sum", [higher, mp.min_of([mp.Affine(0.0, 80.0),
                                                        mp.Affine(900.0, 1.0)])]),
        "scaled": _fold("scale", 2.5, higher),
        "leftover": _fold("sum", [mp.Affine(-500.0, 50.0), mp.scale(-1.0, higher)]),
        "leftover closure": _fold("closure", leftover),
        "leftover positive part": _fold("max", [leftover, mp.zero()]),
        "closure of a line": _fold("closure", mp.Affine(-100.0, 3.0)),
        "max of mins": _fold("max", [mp.Affine(50.0, 1.0), mp.Affine(-10.0, 4.0)]),
    }
    return {**{name: (curve, None) for name, curve in leaves.items()}, **folds}


def _envelope_magnitude(curve, h, *segs):
    """The largest term the values of ``curve`` and of ``segs`` are computed
    from: the terms of each envelope line up to the horizon h, and the values
    of each segment function."""
    lines = np.abs(np.array(curve.envelope.lines)) * [1.0, h]
    return max(float(np.max(lines)), _magnitude(*segs))


def _children(curve):
    return getattr(curve, "curves", ()) + ((curve.curve,) if hasattr(curve, "curve") else ())


def _fold_of(curve, node, h):
    """What the closed form of ``curve`` on [0, h] is compared with: the
    segments that ``node`` folds there from its operands', or a leaf's own;
    and the operands'."""
    if node is None:
        return _leaf_segments(curve, h), []
    return node._build(h), [mp._segments_on(c, h) for c in _children(node)]


@pytest.mark.parametrize("name", sorted(_envelope_cases()))
def test_envelope_matches_segments(name):
    # segments come from the envelope; the node folds the operands' segments
    curve, node = _envelope_cases()[name]
    assert curve.envelope is not None and curve.period is None
    # its own segments: one per line, on [0, inf), where a flat last line
    # ends at its own value
    assert curve.segments.end == mp.INF and len(curve.segments) == len(curve.envelope.lines)
    assert not np.isnan(curve.segments.table.reach).any()
    got = mp._segments_on(curve, H)
    want, _ = _fold_of(curve, node, H)
    _assert_same_function(got, want, _envelope_magnitude(curve, H, got, want))


def _random_token_bucket_tree(rng, horizon, folds, depth=0):
    """A random tree of token-bucket curves built by the operators: Affine,
    RateLatency, sum, min, max, scaling by either sign and the closure.
    Each curve goes to ``folds`` with the node that folds the same
    composition from segments (None for a leaf).  Kinks fall before, at and
    beyond the horizon."""
    kind = int(rng.integers(0, 7)) if depth < 3 else int(rng.integers(0, 2))
    if kind == 0:
        curve, node = mp.Affine(float(rng.uniform(-2000.0, 5000.0)), float(rng.uniform(0.0, 100.0))), None
    elif kind == 1:
        latency = float(rng.choice([0.0, horizon, rng.uniform(0.0, 2 * horizon)]))
        curve, node = mp.RateLatency(float(rng.uniform(0.0, 100.0)), latency), None
    elif kind <= 4:
        children = [_random_token_bucket_tree(rng, horizon, folds, depth + 1)
                    for _ in range(int(rng.integers(2, 5)))]
        curve, node = _fold(("sum", "min", "max")[kind - 2], children)
    else:
        child = _random_token_bucket_tree(rng, horizon, folds, depth + 1)
        if kind == 5:
            curve, node = _fold("scale", float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)), child)
        else:
            curve, node = _fold("closure", child)
    folds.append((curve, node))
    return curve


def test_random_envelope_trees_match_the_fold():
    rng = np.random.default_rng(20260901)
    compared = 0
    for _ in range(400):
        horizon = float(rng.choice([50.0, 500.0, H]))
        folds = []
        _random_token_bucket_tree(rng, horizon, folds)
        for curve, node in folds:
            if curve.envelope is None:
                continue
            want, operands = _fold_of(curve, node, horizon)
            _assert_same_function(mp._segments_on(curve, horizon), want,
                                  _envelope_magnitude(curve, horizon, want, *operands))
            if node is not None:
                # the rate read off the envelope is the one the node folds
                assert curve.long_term_rate().hex() == node.long_term_rate().hex()
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
        ts = np.concatenate([rng.uniform(0.0, 2000.0, 50), got.kinks, want.kinks])
        for t in ts[ts > 0.0]:
            scale = sum(max(abs(d), abs(s * t)) for e in envs for d, s in e.lines)
            assert got.value(t) == pytest.approx(want.value(t), rel=0.0, abs=1e-12 * scale)


def test_hull_of_one_or_two_lines_matches_the_sorted_hull():
    # one more copy of a line sends two lines through the sorted hull, which
    # skips the copy as a tie of slopes
    rng = np.random.default_rng(20261021)
    values = [0.0, -0.0, 1.0, -1.0, 2.5, 100.0]
    for _ in range(2000):
        lines = [(float(rng.choice(values) if rng.random() < 0.5 else rng.uniform(-100.0, 100.0)),
                  float(rng.choice(values) if rng.random() < 0.5 else rng.uniform(-10.0, 10.0)))
                 for _ in range(int(rng.integers(1, 3)))]
        for sense in (1, -1):
            got, want = mp._hull(sense, lines), mp._hull(sense, lines + [lines[-1], lines[0]])
            assert got.sense == want.sense
            assert [(d.hex(), s.hex()) for d, s in got.lines] == [(d.hex(), s.hex()) for d, s in want.lines]


def test_repr_shows_the_horizon_or_the_closed_form():
    # a gated curve shows its longest gate period
    gate = mp.StaircaseMax([[(1e4, 0.0, 1000.0)]])
    assert repr(gate) == "<StaircaseMax period=1000>"
    assert repr(mp.sum_of([mp.Affine(5.0, 1.0), gate])) == "<Pointwise period=1000>"
    assert repr(mp.Affine(5.0, 1.0)) == "<Affine Envelope(sense=0, lines=((5.0, 1.0),))>"
    assert repr(mp.min_of([mp.Affine(5.0, 1.0), mp.RateLatency(2.0, 1.0)])) == "<Pointwise None>"


def test_segment_arrays_are_read_only():
    gate = mp.StaircaseMax([[(2000.0, 0.0, 100.0)]])
    seg = mp.up_closure(mp.sum_of([mp.Affine(-50.0, 100.0), mp.scale(-1.0, gate)])).segments
    arrays = [getattr(seg, name) for name in ("t", "at", "right", "slope")]
    arrays += [seg.table.end_left, seg.table.reach]
    for values in arrays:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_envelope_absent_outside_the_token_bucket_family():
    gate = mp.StaircaseMax([[(2000.0, 0.0, 100.0)]])
    falling = mp.sum_of([mp.Affine(500.0, 10.0), mp.scale(-1.0, mp.Affine(0.0, 20.0))])
    concave = mp.min_of([mp.Affine(100.0, 30.0), mp.Affine(2000.0, 5.0)])
    assert gate.envelope is None
    assert mp.sum_of([mp.Affine(0.0, 100.0), mp.scale(-1.0, gate)]).envelope is None
    # the closure of a curve that jumps up at 0 and then falls stays flat,
    # which no max of lines is
    assert falling.envelope is not None
    assert mp.up_closure(falling).envelope is None
    # a min of lines that never falls, from at or above 0, is its own
    # closure; one that falls is not a max of lines, and has none
    twice = mp.scale(-1.0, mp.scale(-1.0, concave))
    assert mp.up_closure(twice) is twice
    sagging = mp.sum_of([concave, mp.scale(-1.0, mp.Affine(0.0, 10.0))])
    assert sagging.envelope is not None
    assert mp.up_closure(sagging).envelope is None
    # nor is the max of a min of lines with other lines
    assert mp.max_of([concave, mp.zero()]).envelope is None
    assert mp.sum_of([concave, mp.scale(-1.0, concave)]).envelope is None


# ---------------------------------------------------------------------------
# sandwiches and certified windows
# ---------------------------------------------------------------------------

def _assert_in_sandwich(curve, end, values=None, ts=None):
    """Every sample of ``curve`` on a dense grid of [0, end], and its value
    and right limit at each of its breakpoints there, lies in its sandwich;
    with ``values`` at ``ts``, those too."""
    rate, hi, lo = curve.sandwich
    assert hi >= 0.0 and lo >= 0.0
    seg = mp._segments_on(curve, end)
    grid = np.linspace(0.0, end, 2001)
    at, right, _ = mp._resample(seg, seg.t)
    samples = [(grid, seg.value_many(grid)), (seg.t, at), (seg.t, right)]
    if values is not None:
        samples.append((ts, values))
    for t, v in samples:
        tol = 1e-9 * max(1.0, abs(rate) * end + hi + lo, float(np.max(np.abs(v))))
        assert np.all(v <= rate * t + hi + tol), (curve, rate, hi)
        assert np.all(v >= rate * t - lo - tol), (curve, rate, lo)


def test_oracle_curves_lie_in_their_sandwiches():
    # the oracle's own values, sampled on its grid, and the package's segments
    rng = np.random.default_rng(20261022)
    for _ in range(200):
        spec = orc.random_spec(rng, str(rng.choice(["affine", "ratelatency", "staircase"])))
        end = 4.0 * max(orc._hyperperiod(spec), 1000.0)
        ts = np.arange(0.0, end, 10 * orc.STEP)
        ts = np.concatenate([ts, ts + orc.TINY])
        _assert_in_sandwich(orc.to_curve(spec), end, orc.oracle_eval(spec, ts), ts)


def _random_staircase(rng):
    period = float(rng.choice([250.0, 500.0, 1000.0]))
    n_terms = int(rng.integers(1, 4))
    rotations = [[(float(rng.uniform(0.0, 5000.0)), float(rng.uniform(0.0, 1.5 * period)),
                   float(rng.choice([period, period / 2])))
                  for _ in range(n_terms)] for _ in range(int(rng.integers(1, 4)))]
    return mp.StaircaseMax(rotations)


def _random_tdma(rng):
    period = float(rng.choice([250.0, 500.0, 1000.0]))
    cuts = np.sort(rng.uniform(0.0, period, 2 * int(rng.integers(1, 4))))
    return mp.TdmaService(float(rng.uniform(1.0, 100.0)), period, cuts[::2], cuts[1::2] - cuts[::2])


def _random_gated_tree(rng, curves, depth=0):
    """A random tree like ``_random_token_bucket_tree``'s, with gate
    staircase and TDMA leaves beside the token-bucket ones; every curve of
    it goes to ``curves``."""
    kind = int(rng.integers(0, 9)) if depth < 3 else int(rng.choice([0, 1, 7, 8]))
    if kind == 0:
        curve = mp.Affine(float(rng.uniform(-2000.0, 5000.0)), float(rng.uniform(0.0, 100.0)))
    elif kind == 1:
        curve = mp.RateLatency(float(rng.uniform(0.0, 100.0)), float(rng.choice([0.0, rng.uniform(0.0, 3000.0)])))
    elif kind <= 4:
        children = [_random_gated_tree(rng, curves, depth + 1) for _ in range(int(rng.integers(2, 5)))]
        curve = (mp.sum_of, mp.min_of, mp.max_of)[kind - 2](children)
    elif kind == 5:
        factor = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        curve = mp.scale(factor, _random_gated_tree(rng, curves, depth + 1))
    elif kind == 6:
        curve = mp.up_closure(_random_gated_tree(rng, curves, depth + 1))
    else:
        curve = _random_staircase(rng) if kind == 7 else _random_tdma(rng)
    curves.append(curve)
    return curve


def test_random_gated_trees_lie_in_their_sandwiches():
    rng = np.random.default_rng(20261023)
    curves = []
    for _ in range(150):
        _random_gated_tree(rng, curves)
    kinds = {type(c) for c in curves}
    assert {mp.StaircaseMax, mp.TdmaService, mp.Pointwise, mp.Scale, mp.UpClosure, mp.Closed} <= kinds
    for curve in curves:
        _assert_in_sandwich(curve, 3000.0)


def _gated_leftover(burst, rate):
    """The service a 100-bits/us link leaves after a gate of 20 bits/us."""
    gate = mp.StaircaseMax([[(20000.0, 0.0, 1000.0)]])
    service = mp.up_closure(mp.sum_of([mp.Affine(-12000.0, 100.0), mp.scale(-1.0, gate)]))
    return mp.Affine(burst, rate), service


def test_a_pair_past_its_first_window_is_read_once_more_on_the_certified_one():
    # an arrival at 200 bits/us up to its kink at 10 ms, then at 79, against
    # a service at 80: both deviations lie past the first window
    _, beta = _gated_leftover(0.0, 0.0)
    alpha = mp.min_of([mp.Affine(1000.0, 200.0), mp.Affine(1000.0 + 121.0 * 10000.0, 79.0)])
    assert beta.window == 4000.0 and beta.segments.end == 4000.0
    first = mp._deviations_of(mp._segments_on(alpha, 4000.0), beta.segments)
    dev = mp.deviations(alpha, beta)
    assert dev.window > 4000.0
    assert dev.horizontal > first.horizontal and dev.vertical > first.vertical
    assert dev == mp._deviations_of(mp._segments_on(alpha, dev.window), mp._segments_on(beta, dev.window))
    # a window four times longer finds nothing more
    far = mp._deviations_of(mp._segments_on(alpha, 4 * dev.window), mp._segments_on(beta, 4 * dev.window))
    assert (far.horizontal, far.vertical) == pytest.approx((dev.horizontal, dev.vertical), rel=1e-12)
    # a pair its first window certifies is read there only
    alpha, beta = _gated_leftover(3000.0, 40.0)
    assert mp.deviations(alpha, beta).window == 4000.0


def test_gated_pairs_of_equal_rates_are_unstable():
    beta = mp.TdmaService(100.0, 1000.0, [0.0], [250.0])
    assert beta.long_term_rate() == 25.0
    for rate in (25.0, np.nextafter(25.0, 0.0)):
        with pytest.raises(InstabilityError, match="reaches service rate"):
            mp.deviations(mp.Affine(1000.0, rate), beta)
    _, leftover = _gated_leftover(0.0, 0.0)
    with pytest.raises(InstabilityError):
        mp.deviations(mp.Affine(100.0, 80.0), leftover)


def test_gated_curves_are_read_within_their_window_and_built_past_it():
    stairs = mp.StaircaseMax([[(1000.0, 50.0, 250.0)]])
    both = mp.sum_of([stairs, mp.TdmaService(10.0, 1000.0, [0.0], [100.0])])
    assert (stairs.window, both.window) == (1000.0, 4000.0)
    assert stairs.segments.end == 1000.0
    spec = orc.CurveSpec("staircase", terms=((1000.0, 50.0, 250.0),))
    ts = np.array([10.0, 300.0, 1000.0, 1000.5, 5050.0, 5050.5])
    assert [stairs.evaluate(t) for t in ts] == pytest.approx(orc.oracle_eval(spec, ts).tolist())
