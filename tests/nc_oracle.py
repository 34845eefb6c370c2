"""Dense-grid brute-force oracle for min-plus operators.

Evaluates curve shapes from their parameters with its own closed formulas
(independent of the package implementation), samples them on a fine grid plus
one-sided probes around every grid point, and computes deviation values by
direct scans over the samples.  Intended only as
a test oracle per the dual-route verification approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TINY = 1e-6  # one-sided probe offset around grid points, us
STEP = 0.1   # grid step, us


@dataclass(frozen=True)
class CurveSpec:
    """Parametric description of one test curve."""

    kind: str  # affine | ratelatency | burstdelay | staircase | minlines | maxlines | sum
    burst: float = 0.0
    rate: float = 0.0
    latency: float = 0.0
    delay: float = 0.0
    # staircase: (height, offset, period); minlines/maxlines: (intercept,
    # slope); sum: CurveSpecs
    terms: tuple = field(default_factory=tuple)

    def long_term_rate(self) -> float:
        if self.kind == "affine":
            return self.rate
        if self.kind == "ratelatency":
            return self.rate
        if self.kind == "burstdelay":
            return math.inf
        if self.kind == "minlines":
            return min(s for _, s in self.terms)
        if self.kind == "maxlines":
            return max(s for _, s in self.terms)
        if self.kind == "sum":
            return sum(t.long_term_rate() for t in self.terms)
        return sum(h / p for h, _, p in self.terms)


def oracle_eval(spec: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """Pointwise values, left-continuous at jumps, 0 for t <= 0 bursts."""
    ts = np.asarray(ts, dtype=float)
    if spec.kind == "affine":
        return np.where(ts > 0, spec.burst + spec.rate * ts, 0.0)
    if spec.kind == "ratelatency":
        return spec.rate * np.maximum(0.0, ts - spec.latency)
    if spec.kind == "burstdelay":
        return np.where(ts > spec.delay, math.inf, 0.0)
    if spec.kind == "staircase":
        total = np.zeros_like(ts)
        for height, offset, period in spec.terms:
            total += height * np.maximum(0.0, np.ceil((ts - offset) / period))
        return total
    if spec.kind == "minlines":  # concave token-bucket envelope
        lines = np.min([d + s * ts for d, s in spec.terms], axis=0)
        return np.where(ts > 0, lines, 0.0)
    if spec.kind == "maxlines":  # convex service curve, clamped at zero
        lines = np.max([d + s * ts for d, s in spec.terms], axis=0)
        return np.where(ts > 0, np.maximum(lines, 0.0), 0.0)
    if spec.kind == "sum":
        return np.sum([oracle_eval(t, ts) for t in spec.terms], axis=0)
    raise ValueError(spec.kind)


def sample(spec: CurveSpec, horizon: float, step: float = STEP):
    """Sorted sample times (grid plus +/- probes) and curve values."""
    grid = np.arange(0.0, horizon + step / 2, step)
    ts = np.unique(np.concatenate([grid, grid + TINY, np.maximum(grid - TINY, 0.0)]))
    return ts, oracle_eval(spec, ts)


def _pinv_sampled(ts: np.ndarray, vs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """First time the sampled curve reaches each level, with linear
    interpolation inside sample intervals; inf when never reached."""
    out = np.full(levels.shape, math.inf)
    idx = np.searchsorted(vs, levels, side="left")
    ok = idx < len(vs)
    idxc = np.clip(idx, 0, len(vs) - 1)
    exact = ok & (vs[idxc] >= levels) & (idx == 0)
    out[exact] = ts[0]
    inner = ok & (idx > 0)
    ii = idx[inner]
    y = levels[inner]
    v0, v1 = vs[ii - 1], vs[ii]
    t0, t1 = ts[ii - 1], ts[ii]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = (y - v0) / (v1 - v0)
    res = np.where(np.isfinite(v1), t0 + frac * (t1 - t0), t1)
    res = np.where(v1 == v0, t1, res)
    out[inner] = res
    return out


def hdev_sampled(ta, va, tb, vb) -> float:
    """Horizontal deviation of two sampled non-decreasing curves via a level
    sweep with interpolated pseudo-inverses."""
    amax = va[-1]
    levels = np.concatenate([va, vb])
    levels = levels[np.isfinite(levels)]
    levels = np.unique(np.concatenate([levels, levels + TINY]))
    levels = levels[(levels >= 0.0) & (levels <= amax)]
    if len(levels) == 0:
        return 0.0
    pa = _pinv_sampled(ta, va, levels)
    pb = _pinv_sampled(tb, vb, levels)
    g = pb - pa
    g = g[np.isfinite(g)]
    return max(0.0, float(np.max(g))) if len(g) else 0.0


def oracle_hdev(alpha: CurveSpec, beta: CurveSpec, horizon: float, step: float = STEP) -> float:
    ta, va = sample(alpha, horizon, step)
    tb, vb = sample(beta, horizon, step)
    return hdev_sampled(ta, va, tb, vb)


def oracle_vdev(alpha: CurveSpec, beta: CurveSpec, horizon: float, step: float = STEP) -> float:
    ts, va = sample(alpha, horizon, step)
    vb = oracle_eval(beta, ts)
    with np.errstate(invalid="ignore"):
        d = va - vb
    d = d[~np.isnan(d)]
    d = d[np.isfinite(d)]
    return max(0.0, float(np.max(d))) if len(d) else 0.0


# ---------------------------------------------------------------------------
# Randomized curve pairs (time parameters grid-aligned so the oracle is exact)
# ---------------------------------------------------------------------------

_PERIODS = (100.0, 200.0, 250.0, 500.0, 1000.0, 2000.0)


def _snap(x: float) -> float:
    return round(x / STEP) * STEP


def _alpha_sup_bound(spec: CurveSpec, horizon: float) -> float:
    """Pessimistic upper bound on the curve over [0, horizon]."""
    if spec.kind == "affine":
        return spec.burst + spec.rate * horizon
    if spec.kind == "staircase":
        return sum(h * (horizon / p + 1.0) for h, _, p in spec.terms)
    raise ValueError(spec.kind)


def _beta_floor(spec: CurveSpec, horizon: float) -> float:
    """Guaranteed value of the curve at the horizon."""
    if spec.kind == "affine":
        return spec.burst + spec.rate * horizon
    if spec.kind == "ratelatency":
        return spec.rate * max(0.0, horizon - spec.latency)
    if spec.kind == "burstdelay":
        return math.inf
    return sum(h * math.floor((horizon - o) / p) for h, o, p in spec.terms)


def random_spec(rng: np.random.Generator, kind: str) -> CurveSpec:
    if kind == "affine":
        return CurveSpec("affine", burst=float(rng.uniform(0, 15000)), rate=float(rng.uniform(0.05, 60)))
    if kind == "ratelatency":
        return CurveSpec("ratelatency", rate=float(rng.uniform(5, 100)), latency=_snap(rng.uniform(0, 400)))
    if kind == "burstdelay":
        return CurveSpec("burstdelay", delay=_snap(rng.uniform(0, 400)))
    n_terms = int(rng.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        period = float(rng.choice(_PERIODS))
        terms.append((
            float(rng.uniform(100, 8000)),
            _snap(rng.uniform(0, period * 0.9)),
            period,
        ))
    return CurveSpec("staircase", terms=tuple(terms))


def _hyperperiod(*specs: CurveSpec) -> float:
    periods = [int(round(p * 10)) for s in specs for (_, _, p) in s.terms]
    if not periods:
        return 1000.0
    acc = periods[0]
    for p in periods[1:]:
        acc = acc * p // math.gcd(acc, p)
    return acc / 10.0


def random_deviation_pair(rng: np.random.Generator):
    """(alpha, beta, horizon): a stable pair whose deviations are attained
    well inside four hyperperiods, so horizon truncation plays no role."""
    for _ in range(500):
        alpha = random_spec(rng, str(rng.choice(["affine", "staircase"])))
        beta = random_spec(rng, str(rng.choice(["ratelatency", "affine", "staircase", "burstdelay"])))
        ra, rb = alpha.long_term_rate(), beta.long_term_rate()
        if not (ra <= 0.6 * rb):
            continue
        horizon = 4.0 * max(_hyperperiod(alpha, beta), 1000.0)
        if _beta_floor(beta, horizon) >= _alpha_sup_bound(alpha, horizon) + 1000.0:
            return alpha, beta, horizon
    raise AssertionError("could not draw a stable pair")


def to_curve(spec: CurveSpec, horizon: float):
    """Materialize a CurveSpec with the package's curve types."""
    from tsncalc import minplus as mp

    if spec.kind == "affine":
        return mp.Affine(spec.burst, spec.rate, horizon)
    if spec.kind == "ratelatency":
        return mp.RateLatency(spec.rate, spec.latency, horizon)
    if spec.kind == "burstdelay":
        return mp.BurstDelay(spec.delay, horizon)
    return mp.StaircaseMax([list(spec.terms)], horizon)


# ---------------------------------------------------------------------------
# Pairwise min and max of segment functions
# ---------------------------------------------------------------------------

def combine(a, b, op: str):
    """Pointwise min/max of two segment functions on one horizon, exactly:
    the union grid refined once at each sign change of a - b inside an
    interval, the extreme values, and the slope of the operand extreme at
    the middle of each interval, ``a``'s on a tie."""
    from tsncalc import minplus as mp

    grid = mp._union(a.t, b.t)
    ra = mp._on_grid(a, grid)
    rb = mp._on_grid(b, grid)
    ends = mp._ends(grid, a.horizon)
    dt = ends - grid
    d0 = ra[1] - rb[1]
    d1 = (ra[1] + ra[2] * dt) - (rb[1] + rb[2] * dt)
    cross = d0 * d1 < 0.0
    if np.any(cross):
        frac = d0[cross] / (d0[cross] - d1[cross])
        extra = grid[cross] + frac * dt[cross]
        grid = mp._distinct_sorted(np.concatenate([grid, extra]))

    a_at, a_right, a_slope = mp._on_grid(a, grid)
    b_at, b_right, b_slope = mp._on_grid(b, grid)

    fn = np.minimum if op == "min" else np.maximum
    ends = mp._ends(grid, a.horizon)
    half = np.where(ends > grid, (ends - grid) * 0.5, 0.0)
    a_mid = a_right + a_slope * half
    b_mid = b_right + b_slope * half
    if op == "min":
        pick_a = a_mid <= b_mid
    else:
        pick_a = a_mid >= b_mid
    slope = np.where(pick_a, a_slope, b_slope)
    return mp.Segments(grid, fn(a_at, b_at), fn(a_right, b_right), slope, a.horizon)


def fold(segs, op: str):
    """The min or max of segment functions folded pairwise with ``combine``,
    left to right, uncompressed."""
    seg = segs[0]
    for s in segs[1:]:
        seg = combine(seg, s, op)
    return seg
