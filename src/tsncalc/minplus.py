"""Exact min-plus curve algebra for worst-case traffic analysis.

Curves are non-decreasing functions of time, kept in a closed (symbolic)
representation: a tree of curve nodes.  Jumps are first-class, and curves
are left-continuous at jumps (``Affine(b, r)`` is 0 at t = 0 and b + r*t
for t > 0).

Units are microseconds for time and bits for data, so rates are bits/us
(numerically equal to Mb/s).

A node has up to two exact representations, each computed lazily and
cached on the node:

- ``envelope``: the token-bucket family in closed form, for t > 0 the min
  (concave) or the max (convex) of a few lines, and 0 at t = 0.  Affine and
  rate-latency curves have one, and so do min, max, sum, scaling and the
  non-decreasing closure of curves that have one, as long as the result
  stays a min or a max of lines.  Gate staircases and TDMA curves, given
  by one period of terms or windows, have none.
- ``segments``: a piecewise-linear function on [0, horizon] with jumps.
  Every curve has it.  A curve with an envelope converts it, one segment
  per line.  Any other curve builds it from its operands' segments: a sum
  of any number of curves on one union grid, a min or max folded pairwise,
  the closure with one running maximum, and a gate staircase in one pass
  over all its rotations.

``deviations`` has three cases, all exact; nothing is sampled:

- against a burst-delay service (shaped queues), a formula, over all t;
- a concave arrival curve against a convex service curve (the gate-free
  strict-priority, reshaping and credit-based analyses), the line crossings
  of the envelopes, over all t;
- every other pair (gate staircases, TDMA service), the segments, with
  each period unrolled up to the horizon.  Only this case can raise
  HorizonExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import HorizonExceededError, InstabilityError

#: Absolute comparison tolerance in internal units (us, bits).
TOLERANCE = 1e-9

INF = float("inf")


# ---------------------------------------------------------------------------
# Piecewise-linear backing store
# ---------------------------------------------------------------------------

class Segments:
    """Exact piecewise-linear function on [0, horizon] with up/down jumps.

    ``t`` are strictly increasing breakpoints with t[0] == 0.  For each k,
    ``at[k]`` is f(t[k]), ``right[k]`` is f(t[k]+) and ``slope[k]`` applies on
    (t[k], t[k+1]); the last slope extends to the horizon.  Only a burst
    delay's own segments hold ``inf`` (on a zero slope), for ``evaluate``; the
    operators and deviations below take finite values.
    """

    __slots__ = ("t", "at", "right", "slope", "horizon")

    def __init__(self, t, at, right, slope, horizon):
        self.t = np.asarray(t, dtype=float)
        self.at = np.asarray(at, dtype=float)
        self.right = np.asarray(right, dtype=float)
        self.slope = np.asarray(slope, dtype=float)
        self.horizon = float(horizon)
        if self.t[0] != 0.0:
            raise ValueError("segments must start at t = 0")

    def __len__(self):
        return len(self.t)

    def left_values(self) -> np.ndarray:
        """Left limits at each breakpoint; left[0] is defined as at[0]."""
        left = np.empty_like(self.at)
        left[0] = self.at[0]
        if len(self.t) > 1:
            dt = self.t[1:] - self.t[:-1]
            left[1:] = self.right[:-1] + self.slope[:-1] * dt
        return left

    def end_left(self) -> np.ndarray:
        """Left limit at the end of each segment (horizon for the last)."""
        ends = np.append(self.t[1:], self.horizon)
        return self.right + self.slope * (ends - self.t)

    def _locate(self, ts: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 1)

    def value_many(self, ts) -> np.ndarray:
        return _resample(self, np.asarray(ts, dtype=float))[0]

    def value(self, t: float) -> float:
        return float(self.value_many(np.array([t]))[0])

    def is_nondecreasing(self, tol: float | None = None) -> bool:
        if tol is None:
            tol = max(TOLERANCE, 1e-12 * float(np.max(np.abs(self.right), initial=1.0)))
        left = self.left_values()
        if np.any(self.right - self.at < -tol) or np.any(self.at - left < -tol):
            return False
        return bool(np.all(self.slope >= -tol))

    def compress(self, tol: float = 1e-12) -> "Segments":
        """Drop breakpoints that carry neither a jump nor a slope change."""
        n = len(self.t)
        if n <= 1:
            return self
        left = self.left_values()
        keep = np.ones(n, dtype=bool)
        no_jump = (np.abs(self.at - left) <= tol) & (np.abs(self.right - self.at) <= tol)
        same_slope = np.empty(n, dtype=bool)
        same_slope[0] = False
        same_slope[1:] = np.abs(self.slope[1:] - self.slope[:-1]) <= tol
        keep[1:] = ~(no_jump[1:] & same_slope[1:])
        keep[0] = True
        return Segments(self.t[keep], self.at[keep], self.right[keep], self.slope[keep], self.horizon)


def _zero_segments(horizon: float) -> Segments:
    return Segments([0.0], [0.0], [0.0], [0.0], horizon)


def _resample(seg: Segments, grid: np.ndarray):
    """(at, right, slope) of ``seg`` on a grid containing seg's breakpoints or
    points strictly between them."""
    k = seg._locate(grid)
    on_point = grid == seg.t[k]
    interior = seg.right[k] + seg.slope[k] * (grid - seg.t[k])
    at = np.where(on_point, seg.at[k], interior)
    right = np.where(on_point, seg.right[k], interior)
    return at, right, seg.slope[k]


def _sum_segments(segs: Sequence[Segments]) -> Segments:
    """Pointwise sum of segment functions, exactly: each is resampled once on
    the union of their breakpoints, and the values are added in order."""
    grid = np.unique(np.concatenate([s.t for s in segs]))
    at, right, slope = _resample(segs[0], grid)
    for s in segs[1:]:
        s_at, s_right, s_slope = _resample(s, grid)
        at, right, slope = at + s_at, right + s_right, slope + s_slope
    return Segments(grid, at, right, slope, segs[0].horizon)


def _combine(a: Segments, b: Segments, op: str) -> Segments:
    """Pointwise min/max of two segment functions on one horizon, exactly."""
    grid = np.unique(np.concatenate([a.t, b.t]))

    # Locate sign changes of (a - b) strictly inside intervals.
    ra = _resample(a, grid)
    rb = _resample(b, grid)
    ends = np.append(grid[1:], a.horizon)
    dt = ends - grid
    d0 = ra[1] - rb[1]
    d1 = (ra[1] + ra[2] * dt) - (rb[1] + rb[2] * dt)
    cross = d0 * d1 < 0.0
    if np.any(cross):
        frac = d0[cross] / (d0[cross] - d1[cross])
        extra = grid[cross] + frac * dt[cross]
        grid = np.unique(np.concatenate([grid, extra]))

    a_at, a_right, a_slope = _resample(a, grid)
    b_at, b_right, b_slope = _resample(b, grid)

    fn = np.minimum if op == "min" else np.maximum
    ends = np.append(grid[1:], a.horizon)
    half = np.where(ends > grid, (ends - grid) * 0.5, 0.0)
    a_mid = a_right + a_slope * half
    b_mid = b_right + b_slope * half
    if op == "min":
        pick_a = a_mid <= b_mid
    else:
        pick_a = a_mid >= b_mid
    slope = np.where(pick_a, a_slope, b_slope)
    return Segments(grid, fn(a_at, b_at), fn(a_right, b_right), slope, a.horizon)


def _up_closure_segments(seg: Segments) -> Segments:
    """Running maximum with zero: t -> max(0, sup_{0<=s<=t} f(s)).

    Each segment starts at the running maximum of the peaks before it and
    follows f where f starts there and rises, else stays flat; a rising
    segment that climbs back to the maximum inside it follows f from the
    crossing on, which gets a breakpoint of its own.
    """
    t0 = seg.t
    t1 = np.append(seg.t[1:], seg.horizon)
    f_end = seg.right + seg.slope * (t1 - t0)
    peak = np.maximum(np.maximum(seg.at, seg.right), f_end)
    run = np.maximum.accumulate(np.concatenate([[max(0.0, seg.at[0])], peak[:-1]]))
    at = np.maximum(run, seg.at)
    right = np.maximum(at, seg.right)
    rising = seg.slope > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = t0 + (right - seg.right) / seg.slope
    # f starts at the maximum, or below it by less than it climbs in the
    # rounding of t0: the crossing is t0 itself
    follow = rising & (t_cross <= t0)
    cross = rising & ~follow & (f_end > right) & (t_cross < t1)
    # each segment's row, then its crossing's where it has one
    keep = np.stack([np.ones_like(cross), cross], axis=1).ravel()

    def rows(start, crossing):
        return np.stack([start, crossing], axis=1).ravel()[keep]

    return Segments(rows(t0, t_cross), rows(at, right), rows(right, right),
                    rows(np.where(follow, seg.slope, 0.0), seg.slope), seg.horizon)


# ---------------------------------------------------------------------------
# Pseudo-inverses and deviations
# ---------------------------------------------------------------------------

def _pinv(seg: Segments, levels: np.ndarray, strict: bool) -> np.ndarray:
    """First time f reaches (strict: exceeds) each level; inf if not on [0, H].

    Requires a non-decreasing function.
    """
    end_left = seg.end_left()
    reach = np.maximum.accumulate(np.maximum(end_left, np.maximum(seg.at, seg.right)))
    side = "right" if strict else "left"
    k = np.searchsorted(reach, levels, side=side)
    out = np.full(levels.shape, INF)
    ok = k < len(seg.t)
    if not np.any(ok):
        return out
    ki = k[ok]
    y = levels[ok]
    t_k, at_k, right_k, slope_k = seg.t[ki], seg.at[ki], seg.right[ki], seg.slope[ki]
    if strict:
        hit_at = at_k > y
        hit_jump = right_k > y
    else:
        hit_at = at_k >= y
        hit_jump = right_k >= y
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = t_k + (y - right_k) / slope_k
    res = np.where(hit_at, t_k, np.where(hit_jump, t_k, ramp))
    out[ok] = res
    return out


@dataclass(frozen=True)
class Deviation:
    """Maximum horizontal/vertical deviation between two curves with witnesses."""

    horizontal: float
    vertical: float
    argmax_h: float
    argmax_v: float


def _check_rates(alpha: "Curve", beta: "Curve") -> None:
    ra = alpha.long_term_rate()
    rb = beta.long_term_rate()
    if ra > rb + max(TOLERANCE, 1e-9 * abs(rb)):
        raise InstabilityError(
            f"arrival rate {ra:.6g} bits/us exceeds service rate {rb:.6g} bits/us"
        )


def _first_max_at(values: np.ndarray):
    """The largest value and the index of the first value within rounding
    of it, as ``_first_max`` picks its witness."""
    best = float(np.max(values))
    return best, int(np.argmax(values >= best - 1e-12 * max(1.0, abs(best))))


def _hdev_segments(a: Segments, b: Segments):
    a_levels = np.concatenate([a.at, a.right, a.end_left()])
    levels = np.concatenate([a_levels, b.at, b.right, b.end_left()])
    levels = np.unique(np.clip(levels, 0.0, np.max(a_levels)))
    ta = _pinv(a, levels, strict=False)
    tb = _pinv(b, levels, strict=False)
    ta_plus = _pinv(a, levels, strict=True)
    tb_plus = _pinv(b, levels, strict=True)
    # g(y) and its right limit in y; unreachable beta levels mean a too-short horizon
    if np.any(np.isinf(tb[np.isfinite(ta)])):
        raise HorizonExceededError("service curve does not reach an arrival level within the horizon")
    g = tb - ta
    with np.errstate(invalid="ignore"):
        g_plus = tb_plus - ta_plus
    g_plus[~np.isfinite(g_plus)] = -INF
    g[~np.isfinite(g)] = -INF
    best, i = _first_max_at(np.concatenate([g, g_plus]))
    if i < len(levels):
        witness = ta[i]
    else:
        witness = ta_plus[i - len(levels)]
    if not np.isfinite(witness):
        witness = 0.0
    return max(0.0, best), float(witness)


def _vdev_segments(a: Segments, b: Segments):
    grid = np.unique(np.concatenate([a.t, b.t]))
    a_at, a_right, a_slope = _resample(a, grid)
    b_at, b_right, b_slope = _resample(b, grid)
    ends = np.append(grid[1:], a.horizon)
    d_end = (a_right + a_slope * (ends - grid)) - (b_right + b_slope * (ends - grid))
    # in order of time: f(t[k]), f(t[k]+), then the left limit at the end
    stack = np.stack([a_at - b_at, a_right - b_right, d_end])
    best, flat = _first_max_at(stack.ravel(order="F"))
    idx, which = divmod(flat, 3)
    return max(0.0, best), float(grid[idx] if which < 2 else ends[idx])


# ---------------------------------------------------------------------------
# Closed form of the token-bucket family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """f(0) = 0 and, for t > 0, the min (``sense`` 1, concave) or the max
    (``sense`` -1, convex) of the lines ``intercept + slope*t`` in ``lines``.

    ``lines`` is the envelope itself: each line is active on one interval,
    in order of t, and no other line is ever active.  A single line is both
    a min and a max (``sense`` 0).
    """

    sense: int
    lines: tuple  # ((intercept, slope), ...)

    def value(self, t: float) -> float:
        """f(t) for t > 0."""
        vals = [d + s * t for d, s in self.lines]
        return max(vals) if self.sense < 0 else min(vals)

    def kinks(self) -> list:
        """Every time t > 0 where the active line changes, in order."""
        return [(d1 - d0) / (s0 - s1) for (d0, s0), (d1, s1) in zip(self.lines, self.lines[1:])]

    @property
    def start(self) -> float:
        """f(0+)."""
        return self.lines[0][0]

    @property
    def sup(self) -> float:
        """The supremum of a non-decreasing envelope: the last line's
        intercept when that line is flat, else inf."""
        d, s = self.lines[-1]
        return INF if s > 0.0 else d

    def inverse(self, y: float, strict: bool) -> float:
        """First t at which a non-decreasing envelope reaches (strict:
        exceeds) level y >= 0; inf if it never does."""
        top = self.sup
        if y > top or (strict and y >= top):
            return INF
        if y < self.start or (y == self.start and not strict):
            return 0.0
        # a min of lines reaches y once every line has; a max once one has
        times = [(y - d) / s for d, s in self.lines if s > 0.0]
        return max(times) if self.sense > 0 else min(times)


def _hull(sense: int, lines) -> Envelope:
    """The lower (``sense`` 1) or upper (``sense`` -1) envelope over t > 0
    of the lines (intercept, slope)."""
    hull = []
    # the lower envelope of the mirrored lines, steepest first; on a tie of
    # slopes the lowest intercept is the only candidate
    for d, s in sorted(((sense * d, sense * s) for d, s in lines), key=lambda l: (-l[1], l[0])):
        if hull and hull[-1][1] == s:
            continue
        while hull:
            d1, s1 = hull[-1]
            if d <= d1:
                hull.pop()  # lower and flatter: below the last line for all t > 0
                continue
            if len(hull) > 1:
                d0, s0 = hull[-2]
                # the new line takes over before the last one would
                if (d - d1) * (s0 - s1) <= (d1 - d0) * (s1 - s):
                    hull.pop()
                    continue
            break
        hull.append((d, s))
    return Envelope(sense if len(hull) > 1 else 0, tuple((sense * d, sense * s) for d, s in hull))


def _envelope_segments(env: Envelope, horizon: float) -> Segments:
    """The segments of a closed form on [0, horizon]: 0 at t = 0, then one
    segment per line that becomes active before the horizon, from its kink."""
    start = np.concatenate([[0.0], env.kinks()])
    live = start < horizon
    t = start[live]
    intercept, slope = np.array(env.lines)[live].T
    right = intercept + slope * t
    at = right.copy()
    at[0] = 0.0
    return Segments(t, at, right, slope, horizon)


def _sum_envelopes(envs) -> Envelope | None:
    """Sum of envelopes that are all mins or all maxes: the min (max) over
    every choice of one line per term."""
    senses = {e.sense for e in envs} - {0}
    if len(senses) > 1:
        return None
    sense = senses.pop() if senses else 1
    env = envs[0]
    for e in envs[1:]:
        env = _hull(sense, [(d0 + d1, s0 + s1) for d0, s0 in env.lines for d1, s1 in e.lines])
    return env


#: Marks a node whose closed form is not computed yet.
_UNSET = object()


def _operand(curve: "Curve", concave: bool) -> Envelope | None:
    """The closed form of a non-decreasing curve that is concave (arrival)
    or convex (service); else None."""
    env = curve.envelope
    if env is None or env.sense == (-1 if concave else 1):
        return None
    if env.start < 0.0 or min(s for _, s in env.lines) < 0.0:
        return None
    return env


def _first_max(cands):
    """The largest value of (value, time) candidates, and as the witness the
    time of the first candidate within rounding of it: exact ties (a flat
    stretch) go to the earliest candidate, not to the rounding error."""
    best = max(v for v, _ in cands)
    tol = 1e-12 * max(1.0, abs(best))
    return best, next(t for v, t in cands if v >= best - tol)


def _closed_deviations(alpha: "Curve", beta: "Curve") -> Deviation | None:
    """Deviations over all t of a concave arrival curve against a convex
    service curve, from their closed forms; None for any other pair.

    Between kinks the horizontal deviation is linear in the level and the
    vertical one in time, and past the last kinks neither grows, so the
    maxima lie among these candidates: for the horizontal deviation the
    levels 0, alpha(0+) and either curve's value at its kinks, up to
    alpha's supremum, each with the first and the strict inverse; for the
    vertical one 0+ and every kink.  The witness is the earliest maximum.
    Raises InstabilityError when the deviations are unbounded: alpha's
    supremum above beta's, or alpha's last slope above beta's, which only
    the tolerance of ``_check_rates`` lets through.
    """
    b = _operand(beta, concave=False)  # first, so that gated curves fail fast
    if b is None:
        return None
    a = _operand(alpha, concave=True)
    if a is None:
        return None
    top = a.sup
    if top > b.sup or a.lines[-1][1] > b.lines[-1][1]:
        raise InstabilityError("the arrival curve outgrows the service curve")

    a_kinks, b_kinks = a.kinks(), b.kinks()
    levels = [0.0, a.start] + [a.value(t) for t in a_kinks] + [b.value(t) for t in b_kinks]
    levels = sorted({min(y, top) for y in levels})
    cands = []
    for strict in (False, True):
        for y in levels:
            ta = a.inverse(y, strict)
            g = b.inverse(y, strict) - ta
            cands.append((g if math.isfinite(g) else -INF, ta))
    g, h_witness = _first_max(cands)

    cands = [(0.0, 0.0), (a.start - b.start, 0.0)]
    cands += [(a.value(t) - b.value(t), t) for t in sorted(set(a_kinks + b_kinks))]
    v, v_witness = _first_max(cands)
    return Deviation(horizontal=max(0.0, g), vertical=max(0.0, v),
                     argmax_h=h_witness, argmax_v=v_witness)


def _burst_delay_deviations(alpha: "Curve", delay: float) -> Deviation:
    """Deviations of any arrival curve against the burst delay delta_D.

    With t0 the first time alpha exceeds 0, the horizontal deviation is
    D - t0 (0 when t0 >= D) and the vertical one alpha(D); the witnesses
    are t0 (0 when the deviation is 0) and D.  A segment curve gives
    alpha(D) only within its horizon.
    """
    env = _operand(alpha, concave=True)
    if env is not None:
        t0 = env.inverse(0.0, strict=True)
        backlog = env.value(delay) if delay > 0.0 else 0.0
    else:
        seg = alpha.segments
        if not seg.is_nondecreasing():
            raise ValueError("deviations require non-decreasing curves")
        t0 = float(_pinv(seg, np.zeros(1), strict=True)[0])
        backlog = alpha.evaluate(delay)
    h = max(0.0, delay - t0)
    return Deviation(horizontal=h, vertical=backlog, argmax_h=t0 if h > 0.0 else 0.0, argmax_v=delay)


# ---------------------------------------------------------------------------
# Curve nodes
# ---------------------------------------------------------------------------

class Curve:
    """A non-decreasing function on [0, horizon] in closed representation."""

    __slots__ = ("horizon", "_segments", "_envelope")

    def __init__(self, horizon: float):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = float(horizon)
        self._segments = None
        self._envelope = _UNSET

    @property
    def segments(self) -> Segments:
        """The curve on [0, horizon]: converted from the envelope when the
        curve has one, else built from its operands by ``_build``."""
        if self._segments is None:
            env = self.envelope
            self._segments = self._build() if env is None else _envelope_segments(env, self.horizon)
        return self._segments

    @property
    def envelope(self) -> Envelope | None:
        """The closed form, or None outside the token-bucket family."""
        if self._envelope is _UNSET:
            self._envelope = self._closed_form()
        return self._envelope

    def _build(self) -> Segments:
        raise NotImplementedError

    def _closed_form(self) -> Envelope | None:
        return None

    def long_term_rate(self) -> float:
        raise NotImplementedError

    def evaluate(self, t: float) -> float:
        if t < 0:
            return 0.0
        if t > self.horizon + TOLERANCE:
            raise HorizonExceededError(f"t={t} exceeds curve horizon {self.horizon}")
        return self.segments.value(min(t, self.horizon))

    def __repr__(self):
        return f"<{type(self).__name__} horizon={self.horizon:g}>"


class Affine(Curve):
    """Token bucket: 0 at t = 0, burst + rate*t for t > 0.

    Negative bursts are tolerated so that service-curve expressions can embed
    constant offsets; arrival curves always use burst >= 0.
    """

    __slots__ = ("burst", "rate")

    def __init__(self, burst: float, rate: float, horizon: float):
        super().__init__(horizon)
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.burst = float(burst)
        self.rate = float(rate)

    def _build(self) -> Segments:
        return Segments([0.0], [0.0], [self.burst], [self.rate], self.horizon)

    def _closed_form(self) -> Envelope:
        return Envelope(0, ((self.burst, self.rate),))

    def long_term_rate(self) -> float:
        return self.rate


class RateLatency(Curve):
    """rate * max(0, t - latency)."""

    __slots__ = ("rate", "latency")

    def __init__(self, rate: float, latency: float, horizon: float):
        super().__init__(horizon)
        if rate < 0 or latency < 0:
            raise ValueError("rate and latency must be >= 0")
        self.rate = float(rate)
        self.latency = float(latency)

    def _build(self) -> Segments:
        if self.latency == 0.0 or self.latency >= self.horizon:
            slope = self.rate if self.latency == 0.0 else 0.0
            return Segments([0.0], [0.0], [0.0], [slope], self.horizon)
        return Segments([0.0, self.latency], [0.0, 0.0], [0.0, 0.0], [0.0, self.rate], self.horizon)

    def _closed_form(self) -> Envelope:
        return _hull(-1, [(0.0, 0.0), (-self.rate * self.latency, self.rate)])

    def long_term_rate(self) -> float:
        return self.rate


class BurstDelay(Curve):
    """0 up to and including the delay, +inf after (delta_D)."""

    __slots__ = ("delay",)

    def __init__(self, delay: float, horizon: float):
        super().__init__(horizon)
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = float(delay)

    def _build(self) -> Segments:
        if self.delay >= self.horizon:
            return _zero_segments(self.horizon)
        if self.delay == 0.0:
            return Segments([0.0], [0.0], [INF], [0.0], self.horizon)
        return Segments([0.0, self.delay], [0.0, 0.0], [0.0, INF], [0.0, 0.0], self.horizon)

    def long_term_rate(self) -> float:
        return INF


class StaircaseMax(Curve):
    """Pointwise max over ``rotations`` of sums of periodic step terms
    height * ceil((t - offset)/period), each clamped below at zero: the
    shape of gate-window arrival envelopes, one sum per window rotation.
    Each rotation is a sequence of (height, offset, period) terms, the same
    number in each."""

    __slots__ = ("rotations",)

    def __init__(self, rotations, horizon: float):
        super().__init__(horizon)
        if not len(rotations):
            raise ValueError("a staircase max needs at least one rotation")
        terms = np.array(rotations, dtype=float).reshape(len(rotations), -1, 3)
        height, offset, period = np.moveaxis(terms, -1, 0)
        if np.any(height < 0) or np.any(offset < -TOLERANCE) or np.any(period <= 0):
            raise ValueError("staircase terms need height >= 0, offset >= 0, period > 0")
        terms[..., 1] = np.maximum(0.0, offset)
        self.rotations = terms  # (rotation, term, (height, offset, period))

    def _build(self) -> Segments:
        """All rotations in one pass.  Each term's jumps on [0, horizon] are
        summed per (rotation, time) in term order, as one rotation alone
        would sum them, and accumulated along each rotation; every sum is
        then read on the union of jump times: its value at its own jump
        times, elsewhere the value after its last jump (0 before the first)."""
        n_rot, n_terms, _ = self.rotations.shape
        height, offset, period = np.moveaxis(self.rotations, -1, 0).reshape(3, -1)
        live = (height != 0.0) & (offset <= self.horizon)
        counts = np.where(live, np.floor((self.horizon - offset) / period).astype(int) + 1, 0)
        total = int(counts.sum())
        if not total:
            return _zero_segments(self.horizon)
        steps = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        raw_t = np.repeat(offset, counts) + np.repeat(period, counts) * steps
        raw_rot = np.repeat(np.arange(n_rot).repeat(n_terms), counts)
        order = np.lexsort((raw_t, raw_rot))
        first = np.ones(total, dtype=bool)
        first[1:] = (np.diff(raw_t[order]) != 0.0) | (np.diff(raw_rot[order]) != 0)
        inverse = np.empty(total, dtype=int)
        inverse[order] = np.cumsum(first) - 1
        times, rot = raw_t[order][first], raw_rot[order][first]
        jumps = np.zeros(len(times))
        np.add.at(jumps, inverse, np.repeat(height, counts))
        # accumulate each rotation's jumps along its own row
        col = np.arange(len(times)) - np.searchsorted(rot, rot)
        padded = np.zeros((n_rot, col.max() + 1))
        padded[rot, col] = jumps
        right = np.cumsum(padded, axis=1)[rot, col]
        at = right - jumps
        grid = np.unique(np.concatenate([[0.0], times]))
        own = np.full((n_rot, len(grid)), -1)
        own[rot, np.searchsorted(grid, times)] = np.arange(len(times))
        last = np.maximum.accumulate(own, axis=1)
        right_on = np.where(last >= 0, right[last], 0.0)
        at_on = np.where(own >= 0, at[own], right_on)
        seg = Segments(grid, at_on.max(axis=0), right_on.max(axis=0), np.zeros_like(grid), self.horizon)
        return seg if n_rot == 1 else seg.compress()

    def long_term_rate(self) -> float:
        return max(map(sum, (self.rotations[..., 0] / self.rotations[..., 2]).tolist()))


def running_integral(times, steps):
    """A piecewise-linear function given by the changes of its slope: its
    slope is 0 before the first of ``times`` and changes by steps[k] at
    times[k] (equal times add their steps).  Returns the distinct times in
    order, the slope from each on, and the function's value there, counted
    from 0 at the first."""
    t, inverse = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    slope = np.zeros(len(t))
    np.add.at(slope, inverse, steps)
    slope = np.cumsum(slope)
    return t, slope, np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(t))])


class TdmaService(Curve):
    """``rate`` times the time on [0, t] that a gate is open, for windows of
    ``lengths`` that open at ``starts`` and repeat every ``period``: the
    service of a TDMA schedule, given by one period of windows.

    Starts a rounding error below 0, as back-to-back windows give, are
    clamped to 0, as staircase offsets are.  The slope follows a running
    count of open windows, not the order of the starts and ends: one
    window's end and the next one's start may lie an ulp apart either way.
    """

    __slots__ = ("rate", "period", "starts", "lengths")

    def __init__(self, rate: float, period: float, starts, lengths, horizon: float):
        super().__init__(horizon)
        starts = np.asarray(starts, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if rate < 0 or period <= 0 or np.any(lengths < 0) or np.any(starts < -TOLERANCE):
            raise ValueError("TDMA windows need rate >= 0, period > 0, start >= 0, length >= 0")
        self.rate = float(rate)
        self.period = float(period)
        self.starts = np.maximum(0.0, starts)
        self.lengths = lengths

    def _build(self) -> Segments:
        reps = self.period * np.arange(int(self.horizon // self.period) + 1)[:, None]
        opens = (self.starts + reps).ravel()
        closes = (self.starts + self.lengths + reps).ravel()
        times = np.concatenate([[0.0], opens, closes])
        steps = np.concatenate([[0.0], np.ones(len(opens)), -np.ones(len(closes))])
        keep = times <= self.horizon
        t, count, open_time = running_integral(times[keep], steps[keep])
        value = self.rate * open_time
        return Segments(t, value, value, self.rate * count, self.horizon).compress()

    def long_term_rate(self) -> float:
        return self.rate * float(np.sum(self.lengths)) / self.period


#: Long-term rate of a pointwise combination, from its operands' rates.
_RATE_OF = {"min": min, "max": max, "sum": sum}


class Pointwise(Curve):
    """Pointwise min, max or sum of curves on one horizon: a sum on one
    union grid, a min or max folded pairwise left to right."""

    __slots__ = ("op", "curves")

    def __init__(self, op: str, curves: Sequence[Curve]):
        curves = list(curves)
        if not curves:
            raise ValueError(f"{op} of an empty curve list")
        if any(c.horizon != curves[0].horizon for c in curves):
            raise ValueError(f"{op} of curves on different horizons")
        super().__init__(curves[0].horizon)
        self.op = op
        self.curves = tuple(curves)

    def _build(self) -> Segments:
        segs = [c.segments for c in self.curves]
        if self.op == "sum":
            return _sum_segments(segs).compress()
        seg = segs[0]
        for s in segs[1:]:
            seg = _combine(seg, s, self.op)
        return seg.compress()

    def _closed_form(self) -> Envelope | None:
        envs = [c.envelope for c in self.curves]
        if any(e is None for e in envs):
            return None
        if self.op == "sum":
            return _sum_envelopes(envs)
        sense = 1 if self.op == "min" else -1
        if any(e.sense == -sense for e in envs):
            return None
        return _hull(sense, [line for e in envs for line in e.lines])

    def long_term_rate(self) -> float:
        return _RATE_OF[self.op](c.long_term_rate() for c in self.curves)


class Scale(Curve):
    """Pointwise factor * f(t); negative factors build the subtracted terms of
    leftover-service expressions and must be closed afterwards."""

    __slots__ = ("factor", "curve")

    def __init__(self, factor: float, curve: Curve):
        super().__init__(curve.horizon)
        self.factor = float(factor)
        self.curve = curve

    def _build(self) -> Segments:
        seg = self.curve.segments
        f = self.factor
        return Segments(seg.t, seg.at * f, seg.right * f, seg.slope * f, seg.horizon)

    def _closed_form(self) -> Envelope | None:
        env = self.curve.envelope
        if env is None:
            return None
        f = self.factor
        sense = env.sense if f > 0.0 else -env.sense
        # a single line (sense 0) is its own lower envelope
        return _hull(sense or 1, [(d * f, s * f) for d, s in env.lines])

    def long_term_rate(self) -> float:
        return self.factor * self.curve.long_term_rate()


class UpClosure(Curve):
    """[f(t)]_up^+ = max(0, max_{0<=s<=t} f(s)): the non-decreasing closure."""

    __slots__ = ("curve",)

    def __init__(self, curve: Curve):
        super().__init__(curve.horizon)
        self.curve = curve

    def _build(self) -> Segments:
        return _up_closure_segments(self.curve.segments).compress()

    def _closed_form(self) -> Envelope | None:
        # a max of lines that starts at or below 0 at 0+: max(0, f) is
        # convex with its minimum at 0, so it is already non-decreasing
        env = self.curve.envelope
        if env is None or env.sense > 0 or env.lines[0][0] > 0.0:
            return None
        return _hull(-1, env.lines + ((0.0, 0.0),))

    def long_term_rate(self) -> float:
        return max(0.0, self.curve.long_term_rate())


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------

def min_of(curves: Iterable[Curve]) -> Curve:
    return Pointwise("min", curves)


def max_of(curves: Iterable[Curve]) -> Curve:
    return Pointwise("max", curves)


def sum_of(curves: Iterable[Curve]) -> Curve:
    return Pointwise("sum", curves)


def scale(factor: float, curve: Curve) -> Curve:
    return Scale(factor, curve)


def up_closure(curve: Curve) -> Curve:
    return UpClosure(curve)


def zero(horizon: float) -> Curve:
    return Affine(0.0, 0.0, horizon)


def deviations(alpha: Curve, beta: Curve) -> Deviation:
    """Both deviations between an arrival and a service curve, with witnesses.

    Three cases, each exact and sampling nothing: a burst-delay service by
    its formula; a concave arrival against a convex service from the line
    crossings of their closed forms, over all t; every other pair from the
    segments on [0, H], at the union of curve breakpoints, staircase jump
    points and the level crossings they induce.  Raises InstabilityError
    when the deviations are unbounded, and HorizonExceededError when the
    segments' alpha(H) > beta(H).
    """
    _check_rates(alpha, beta)
    if isinstance(beta, BurstDelay):
        return _burst_delay_deviations(alpha, beta.delay)
    closed = _closed_deviations(alpha, beta)
    return closed if closed is not None else _segment_deviations(alpha, beta)


def _segment_deviations(alpha: Curve, beta: Curve) -> Deviation:
    """Deviations computed from the segments of any two curves on one horizon."""
    if alpha.horizon != beta.horizon:
        raise ValueError("deviations of curves on different horizons")
    a = alpha.segments
    b = beta.segments
    if not np.all(np.isfinite(a.right)):
        raise ValueError("arrival curve must be finite")
    if not a.is_nondecreasing() or not b.is_nondecreasing():
        raise ValueError("deviations require non-decreasing curves")
    h, wh = _hdev_segments(a, b)
    v, wv = _vdev_segments(a, b)
    return Deviation(horizontal=h, vertical=v, argmax_h=wh, argmax_v=wv)
