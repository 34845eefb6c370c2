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
  per line.  Any other curve builds it from its operands' segments: a sum,
  min or max of any number of curves on one union grid (``_pointwise``),
  and the closure with one running maximum.  A leftover (``leftover``: a
  line less scaled terms, closed) is that chain of nodes.  Gate
  staircases, and the leftovers of a line less one scaled staircase (the
  gated top-priority services), can also be built as batches of rows, one
  pass over all the rows per step (``build_leftovers``); each step does
  the floating-point operations of the one-curve operator it replaces, so
  a batch is bit for bit the curves built one by one.

``deviations`` has three cases, all exact; nothing is sampled:

- against a burst-delay service (shaped queues), a formula, over all t;
- a concave arrival curve against a convex service curve (the gate-free
  strict-priority, reshaping and credit-based analyses), the line crossings
  of the envelopes, over all t;
- every other pair (gate staircases, TDMA service), the segments, with
  each period unrolled up to the horizon.  Only this case can raise
  HorizonExceededError.  Each segment function computes its inverse table
  (the left limit at each segment's end, the running maximum of values
  reached, and whether it never falls) once, and one pass over it gives
  the first and the strict inverse, so a service that two analyses share
  is read, not rebuilt.
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
    operators and deviations below take finite values.  The four arrays are
    read-only, so the inverse table computed from them on first use stays
    valid.
    """

    __slots__ = ("t", "at", "right", "slope", "horizon", "_table")

    def __init__(self, t, at, right, slope, horizon):
        self.t, self.at, self.right, self.slope = (
            _read_only(x) for x in (t, at, right, slope))
        self.horizon = float(horizon)
        self._table = None
        if self.t[0] != 0.0:
            raise ValueError("segments must start at t = 0")

    def __len__(self):
        return len(self.t)

    @property
    def table(self) -> "InverseTable":
        """The inverse table, computed on first use."""
        if self._table is None:
            self._table = _inverse_table(self)
        return self._table

    def end_left(self) -> np.ndarray:
        """Left limit at the end of each segment (horizon for the last)."""
        return self.table.end_left

    def _locate(self, ts: np.ndarray) -> np.ndarray:
        return np.maximum(np.searchsorted(self.t, ts, side="right") - 1, 0)

    def value_many(self, ts) -> np.ndarray:
        return _resample(self, np.asarray(ts, dtype=float))[0]

    def value(self, t: float) -> float:
        return float(self.value_many(np.array([t]))[0])

    def is_nondecreasing(self) -> bool:
        return self.table.nondecreasing

    def compress(self, tol: float = 1e-12) -> "Segments":
        """Drop breakpoints that carry neither a jump nor a slope change."""
        if len(self.t) <= 1:
            return self
        keep = _kept(self.t, self.at, self.right, self.slope, _first_of_one(len(self.t)), tol)
        return Segments(self.t[keep], self.at[keep], self.right[keep], self.slope[keep], self.horizon)


def _read_only(x) -> np.ndarray:
    """A read-only float view of ``x``."""
    view = np.asarray(x, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class InverseTable:
    """What the pseudo-inverses of a segment function read, from one pass:
    the left limit at the end of each segment, the running maximum of the
    values reached up to each segment's end, and whether the function is
    non-decreasing (within a tolerance relative to its largest value)."""

    end_left: np.ndarray
    reach: np.ndarray
    nondecreasing: bool


def _inverse_table(seg: Segments) -> InverseTable:
    end_left = _read_only(seg.right + seg.slope * (_ends(seg.t, seg.horizon) - seg.t))
    reach = _read_only(np.maximum.accumulate(np.maximum(end_left, np.maximum(seg.at, seg.right))))
    tol = max(TOLERANCE, 1e-12 * float(np.abs(seg.right).max(initial=1.0)))
    # the left limit at each breakpoint after the first is the end of the
    # segment before it
    nondecreasing = not ((seg.right - seg.at < -tol).any() or (seg.at[1:] - end_left[:-1] < -tol).any()
                         or (seg.slope < -tol).any())
    return InverseTable(end_left, reach, nondecreasing)


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


def _on_grid(seg: Segments, grid: np.ndarray):
    """``_resample`` on a grid that holds seg's breakpoints: on a grid of
    just those, seg itself."""
    if len(grid) == len(seg.t):
        return seg.at, seg.right, seg.slope
    return _resample(seg, grid)


def _distinct_sorted(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted, as ``np.unique`` gives them."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The union of two breakpoint arrays; one that holds only t = 0 adds
    nothing to the other."""
    if len(a) == 1:
        return b
    if len(b) == 1:
        return a
    return _distinct_sorted(np.concatenate([a, b]))


def _pointwise(segs: Sequence[Segments], op: str) -> Segments:
    """Pointwise sum, min or max of segment functions on one horizon,
    exactly, on the union of their breakpoints.  A sum adds the values in
    order.  A min or max refines the grid where the extreme function at an
    interval's start is not the one at its end, at the crossing of those
    two; each part then holds fewer pieces of the envelope, so k functions
    take at most k - 1 passes.  Each interval takes the extreme values and
    the slope of the function extreme at its middle, the first on a tie."""
    horizon = segs[0].horizon

    def on(grid):  # (at, right, slope), one row per function
        return np.array([_on_grid(s, grid) for s in segs]).swapaxes(0, 1)

    grid = _distinct_sorted(np.concatenate([s.t for s in segs]))
    at, right, slope = on(grid)
    if op == "sum":
        return Segments(grid, *(np.cumsum(x, axis=0)[-1] for x in (at, right, slope)), horizon)
    pick, extreme = (np.argmin, np.min) if op == "min" else (np.argmax, np.max)
    for _ in range(len(segs) - 1):
        dt = _ends(grid, horizon) - grid
        end = right + slope * dt
        first, last = pick(right, axis=0), pick(end, axis=0)
        k = np.flatnonzero(first != last)
        d0, d1 = (x[first[k], k] - x[last[k], k] for x in (right, end))
        cross = d0 * d1 < 0.0
        if not cross.any():
            break
        k, d0, d1 = k[cross], d0[cross], d1[cross]
        grid = _distinct_sorted(np.concatenate([grid, grid[k] + d0 / (d0 - d1) * dt[k]]))
        at, right, slope = on(grid)
    ends = _ends(grid, horizon)
    half = np.where(ends > grid, (ends - grid) * 0.5, 0.0)
    mid = pick(right + slope * half, axis=0)
    return Segments(grid, extreme(at, axis=0), extreme(right, axis=0),
                    slope[mid, np.arange(len(grid))], horizon)


# ---------------------------------------------------------------------------
# Row operators: many segment functions, concatenated in one set of arrays
# ---------------------------------------------------------------------------
#
# The arrays t, at, right and slope hold the segments of several functions
# one after another; ``first`` marks the first row of each function.  Each
# operator below does on every function what it would do on that function
# alone, with the same floating-point operations, so a batch of one is the
# single-function build.

def _first_of_one(n: int) -> np.ndarray:
    first = np.zeros(n, dtype=bool)
    first[0] = True
    return first


def _ends(t, horizon, first=None) -> np.ndarray:
    """The end of each segment: the next breakpoint, or the horizon after
    the last.  With ``first``, of rows of several functions, where the last
    row of each ends at its horizon (``horizon`` per row, or one for all)."""
    if first is None:
        return np.concatenate((t[1:], [horizon]))
    last = np.concatenate((first[1:], [True]))
    return np.where(last, horizon, np.concatenate((t[1:], [0.0])))


def _kept(t, at, right, slope, first, tol=1e-12) -> np.ndarray:
    """The rows that ``Segments.compress`` keeps: each function's first row
    and every row with a jump or a slope change, beyond ``tol``."""
    left = np.empty_like(at)
    left[0] = at[0]
    left[1:] = right[:-1] + slope[:-1] * (t[1:] - t[:-1])
    same_slope = np.append(False, np.abs(slope[1:] - slope[:-1]) <= tol)
    no_jump = (np.abs(at - left) <= tol) & (np.abs(right - at) <= tol)
    return first | ~(no_jump & same_slope)


def _running_max(values, first) -> np.ndarray:
    """The running maximum of ``values`` within each function."""
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    col = np.arange(len(values)) - starts[group]
    padded = np.full((len(starts), int(col.max()) + 1), -INF)
    padded[group, col] = values
    return np.maximum.accumulate(padded, axis=1)[group, col]


def _closure_rows(t, at, right, slope, first, horizon):
    """Running maximum with zero of each function: t -> max(0, sup_{0<=s<=t}
    f(s)), as (t, at, right, slope, first) rows, before compression.

    Each segment starts at the running maximum of the peaks before it and
    follows f where f starts there and rises, else stays flat; a rising
    segment that climbs back to the maximum inside it follows f from the
    crossing on, which gets a row of its own.
    """
    t1 = _ends(t, horizon, first)
    f_end = right + slope * (t1 - t)
    peak = np.maximum(np.maximum(at, right), f_end)
    # max(0, f(0)) at each function's first row, else the peak before
    prior = np.where(first, np.where(at > 0.0, at, 0.0), np.append(0.0, peak[:-1]))
    run = _running_max(prior, first)
    new_at = np.maximum(run, at)
    new_right = np.maximum(new_at, right)
    rising = slope > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = t + (new_right - right) / slope
    # f starts at the maximum, or below it by less than it climbs in the
    # rounding of t: the crossing is t itself
    follow = rising & (t_cross <= t)
    cross = rising & ~follow & (f_end > new_right) & (t_cross < t1)
    # each segment's row, then its crossing's where it has one
    keep = np.stack([np.ones_like(cross), cross], axis=1).ravel()

    def rows(start, crossing):
        return np.stack([start, crossing], axis=1).ravel()[keep]

    return (rows(t, t_cross), rows(new_at, new_right), rows(new_right, new_right),
            rows(np.where(follow, slope, 0.0), slope), rows(first, np.zeros_like(first)))


def _up_closure_segments(seg: Segments) -> Segments:
    """Running maximum with zero, t -> max(0, sup_{0<=s<=t} f(s)), compressed."""
    t, at, right, slope, first = _closure_rows(seg.t, seg.at, seg.right, seg.slope,
                                               _first_of_one(len(seg.t)), seg.horizon)
    keep = _kept(t, at, right, slope, first)
    return Segments(t[keep], at[keep], right[keep], slope[keep], seg.horizon)


# ---------------------------------------------------------------------------
# Pseudo-inverses and deviations
# ---------------------------------------------------------------------------

def _pinv(seg: Segments, levels: np.ndarray):
    """The first times f reaches each level and the first times it exceeds
    it, both from one pass over the inverse table; inf if not on [0, H].

    Requires a non-decreasing function.
    """
    reach = seg.table.reach
    n = len(levels)
    k = np.concatenate([np.searchsorted(reach, levels, side="left"),
                        np.searchsorted(reach, levels, side="right")])
    y = np.concatenate([levels, levels])
    ok = k < len(seg.t)
    ki = np.minimum(k, len(seg.t) - 1)
    t_k, at_k, right_k, slope_k = seg.t[ki], seg.at[ki], seg.right[ki], seg.slope[ki]
    # f(t_k) or f(t_k+) reaches the level, the second half strictly
    top = np.maximum(at_k, right_k)
    hit = np.concatenate([top[:n] >= y[:n], top[n:] > y[n:]])
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = t_k + (y - right_k) / slope_k
    out = np.where(ok, np.where(hit, t_k, ramp), INF)
    return out[:n], out[n:]


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
    best = float(values.max())
    return best, int((values >= best - 1e-12 * max(1.0, abs(best))).argmax())


def _hdev_segments(a: Segments, b: Segments):
    a_levels = np.concatenate([a.at, a.right, a.end_left()])
    levels = np.concatenate([a_levels, b.at, b.right, b.end_left()])
    # the levels clipped to [0, sup alpha], as np.clip does it
    levels = _distinct_sorted(np.minimum(np.maximum(levels, 0.0), a_levels.max()))
    ta, ta_plus = _pinv(a, levels)
    tb, tb_plus = _pinv(b, levels)
    # g(y) and its right limit in y; unreachable beta levels mean a too-short horizon
    if np.isinf(tb[np.isfinite(ta)]).any():
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
    grid = _union(a.t, b.t)
    a_at, a_right, a_slope = _on_grid(a, grid)
    b_at, b_right, b_slope = _on_grid(b, grid)
    ends = _ends(grid, a.horizon)
    dt = ends - grid
    # in order of time: f(t[k]), f(t[k]+), then the left limit at the end
    diffs = np.empty((len(grid), 3))
    diffs[:, 0] = a_at - b_at
    diffs[:, 1] = a_right - b_right
    diffs[:, 2] = (a_right + a_slope * dt) - (b_right + b_slope * dt)
    best, flat = _first_max_at(diffs.ravel())
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


def _add_lines(lines) -> tuple:
    """The sum of lines (intercept, slope), added left to right."""
    (d, s), *rest = lines
    for d1, s1 in rest:
        d, s = d + d1, s + s1
    return d, s


def _sum_envelopes(envs) -> Envelope | None:
    """Sum of envelopes that are all mins or all maxes.  Between two kinks
    of any term each term has one line active, so the sum is the envelope
    of the sums of those lines, one sum for each stretch between the merged
    kinks, added left to right.  A sum of single lines is their sum."""
    senses = {e.sense for e in envs} - {0}
    if len(senses) > 1:
        return None
    if len(envs) == 1:
        return envs[0]
    if not senses:
        return Envelope(0, (_add_lines(e.lines[0] for e in envs),))
    kinks = [e.kinks() for e in envs]
    # each term's line active just after each merged kink
    lines = [_add_lines(e.lines[sum(k <= x for k in ks)] for e, ks in zip(envs, kinks))
             for x in sorted({0.0}.union(*kinks))]
    return _hull(senses.pop(), lines)


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
        t0 = float(_pinv(seg, np.zeros(1))[1][0])
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
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, not {horizon}")
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

    __slots__ = ("rotations", "_rate")

    def __init__(self, rotations, horizon: float):
        super().__init__(horizon)
        if not len(rotations):
            raise ValueError("a staircase max needs at least one rotation")
        terms = np.array(rotations, dtype=float).reshape(len(rotations), -1, 3)
        height, offset, period = terms[..., 0], terms[..., 1], terms[..., 2]
        if (height < 0).any() or (offset < -TOLERANCE).any() or (period <= 0).any():
            raise ValueError("staircase terms need height >= 0, offset >= 0, period > 0")
        terms[..., 1] = np.maximum(0.0, offset)
        self.rotations = terms  # (rotation, term, (height, offset, period))
        self._rate = max(map(sum, (terms[..., 0] / terms[..., 2]).tolist()))

    def _build(self) -> Segments:
        return _staircases([self])[0]

    def long_term_rate(self) -> float:
        return self._rate


def _staircases(curves) -> list:
    """The segments of staircase maxes, every rotation of every curve in one
    pass.  Each term's jumps on [0, horizon] are summed per (rotation, time)
    in term order, as one rotation alone would sum them, and accumulated
    along each rotation.  Each curve is then the max over its rotations on
    the union of their jump times, where a rotation reads its value at its
    own jump times and elsewhere the value after its last jump (0 before the
    first).  A curve of several rotations is compressed."""
    n_rot = np.array([c.rotations.shape[0] for c in curves])
    n_terms = np.array([c.rotations.shape[1] for c in curves])
    curve_of_rot = np.repeat(np.arange(len(curves)), n_rot)
    rot_of_term = np.repeat(np.arange(len(curve_of_rot)), n_terms[curve_of_rot])
    height, offset, period = np.concatenate([c.rotations.reshape(-1, 3) for c in curves]).T
    horizon = np.array([c.horizon for c in curves])[curve_of_rot[rot_of_term]]
    live = (height != 0.0) & (offset <= horizon)
    counts = np.where(live, np.floor((horizon - offset) / period).astype(int) + 1, 0)
    total = int(counts.sum())
    if not total:
        return [_zero_segments(c.horizon) for c in curves]
    steps = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    raw_t = np.repeat(offset, counts) + np.repeat(period, counts) * steps
    raw_rot = np.repeat(rot_of_term, counts)
    rot, times, inverse = _distinct(raw_rot, raw_t)
    jumps = np.zeros(len(times))
    np.add.at(jumps, inverse, np.repeat(height, counts))
    # accumulate each rotation's jumps along its own row
    rot_start = np.searchsorted(rot, np.arange(len(curve_of_rot)))
    col = np.arange(len(times)) - rot_start[rot]
    padded = np.zeros((len(curve_of_rot), col.max() + 1))
    padded[rot, col] = jumps
    right = np.cumsum(padded, axis=1)[rot, col]
    at = right - jumps
    # each curve's grid: 0 and the jump times of its rotations
    n = len(curves)
    curve_of_time = curve_of_rot[rot]
    grid_curve, grid, point = _distinct(np.concatenate([np.arange(n), curve_of_time]),
                                        np.concatenate([np.zeros(n), times]))
    n_grid = np.bincount(grid_curve, minlength=n)
    grid_start = np.cumsum(n_grid) - n_grid
    # one cell per rotation and point of its curve's grid, rotation by rotation
    width = n_grid[curve_of_rot]
    cell_start = np.cumsum(width) - width
    cell_rot = np.repeat(np.arange(len(width)), width)
    cell_point = np.arange(len(cell_rot)) + np.repeat(grid_start[curve_of_rot] - cell_start, width)
    own = np.full(len(cell_rot), -1)
    own[cell_start[rot] + point[n:] - grid_start[curve_of_time]] = np.arange(len(times))
    # the last jump so far, a running max over all cells, in which a jump of
    # an earlier rotation means none of this one yet
    last = np.maximum.accumulate(own)
    last = np.where(last >= rot_start[cell_rot], last, -1)
    right_on = np.where(last >= 0, right[last], 0.0)
    at_on = np.where(own >= 0, at[own], right_on)
    seg_at = np.full(len(grid), -INF)
    seg_right = np.full(len(grid), -INF)
    np.maximum.at(seg_at, cell_point, at_on)
    np.maximum.at(seg_right, cell_point, right_on)
    slope = np.zeros(len(grid))
    first = np.zeros(len(grid), dtype=bool)
    first[grid_start] = True
    keep = _kept(grid, seg_at, seg_right, slope, first) | (n_rot[grid_curve] == 1)
    return _split([c.horizon for c in curves], grid_curve[keep],
                  grid[keep], seg_at[keep], seg_right[keep], slope[keep])


def _distinct(group, t):
    """The distinct (group, t) pairs, in order of group and then of t, as
    two arrays, and the index of each given pair among them.  ``group``
    holds small non-negative integers."""
    # by t, then stably by group, in the smallest integer type that holds
    # it, which numpy sorts by radix; equal pairs map to one index, so
    # their order is of no account
    order = np.argsort(t)
    small = group[order].astype(np.min_scalar_type(group.max()))
    order = order[np.argsort(small, kind="stable")]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (np.diff(t[order]) != 0.0) | (np.diff(group[order]) != 0)
    index = np.empty(len(order), dtype=int)
    index[order] = np.cumsum(new) - 1
    return group[order][new], t[order][new], index


def _split(horizons, group, t, at, right, slope) -> list:
    """One Segments per horizon from rows ordered by ``group``, its index."""
    cuts = np.cumsum(np.bincount(group, minlength=len(horizons)))[:-1]
    pieces = [np.split(x, cuts) for x in (t, at, right, slope)]
    return [Segments(*rows, h) for h, *rows in zip(horizons, *pieces)]


def _leftover_parts(curve) -> tuple:
    """(burst, rate, factor, gate) of leftover(Affine(burst, rate), [(factor,
    gate)]) for a staircase max gate; ValueError for any other curve."""
    match curve:
        case UpClosure(curve=Pointwise(op="sum", curves=(
                Affine() as line, Scale(curve=StaircaseMax() as gate) as term))):
            return line.burst, line.rate, term.factor, gate
    raise ValueError("build_leftovers takes the leftover of a line and one scaled staircase max")


def build_leftovers(curves) -> None:
    """Build the segments of the leftover ``curves`` that have none yet,
    each a line less one scaled staircase max (else ValueError), and of
    their staircases, with one pass of each step over the rows of all of
    them: the staircases, the line plus the scaled staircase, compressed,
    then its closure, compressed.  Each step does the floating-point
    operations of the step it mirrors in the chain's own build:
    ``_staircases``, ``Scale``, ``_pointwise``'s sum (the line resampled as
    ``_resample`` reads it), ``Segments.compress`` and ``_up_closure_segments``."""
    todo = [(c, c.horizon, *_leftover_parts(c)) for c in curves]
    todo = [row for row in todo if row[0]._segments is None]
    if not todo:
        return
    chains, horizons, burst, rate, factor, gates = zip(*todo)
    unbuilt = list({id(g): g for g in gates if g._segments is None}.values())
    for gate, seg in zip(unbuilt, _staircases(unbuilt) if unbuilt else ()):
        gate._segments = seg
    segs = [g.segments for g in gates]
    n = np.array([len(s) for s in segs])
    first = np.zeros(int(n.sum()), dtype=bool)
    first[np.cumsum(n) - n] = True
    t = np.concatenate([s.t for s in segs])
    burst, rate, factor, horizon = (np.repeat(x, n) for x in (burst, rate, factor, horizons))
    # the line: 0 at t = 0, its start at 0+, and burst + rate*t after
    start = burst + rate * 0.0
    line = start + rate * t
    at = np.where(first, 0.0, line) + np.concatenate([s.at for s in segs]) * factor
    right = np.where(first, start, line) + np.concatenate([s.right for s in segs]) * factor
    slope = rate + np.concatenate([s.slope for s in segs]) * factor
    keep = _kept(t, at, right, slope, first)
    t, at, right, slope, first, horizon = (x[keep] for x in (t, at, right, slope, first, horizon))
    t, at, right, slope, first = _closure_rows(t, at, right, slope, first, horizon)
    keep = _kept(t, at, right, slope, first)
    group = np.cumsum(first) - 1
    for c, seg in zip(chains, _split(horizons, group[keep], t[keep], at[keep], right[keep], slope[keep])):
        c._segments = seg


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


class Pointwise(Curve):
    """Pointwise min, max or sum of curves on one horizon, all operands at
    once on one union grid (``_pointwise``)."""

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
        return _pointwise([c.segments for c in self.curves], self.op).compress()

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
        return {"min": min, "max": max, "sum": sum}[self.op](c.long_term_rate() for c in self.curves)


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
        return _up_closure_segments(self.curve.segments)

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


def leftover(line: Curve, terms) -> Curve:
    """[line + sum of factor*curve over the (factor, curve) ``terms``]_up^+:
    the service a line leaves after the terms, closed to be non-decreasing.
    ``build_leftovers`` builds many with one staircase term at once."""
    return up_closure(sum_of([line] + [scale(f, c) for f, c in terms]))


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
    if not np.isfinite(a.right).all():
        raise ValueError("arrival curve must be finite")
    if not a.is_nondecreasing() or not b.is_nondecreasing():
        raise ValueError("deviations require non-decreasing curves")
    h, wh = _hdev_segments(a, b)
    v, wv = _vdev_segments(a, b)
    return Deviation(horizontal=h, vertical=v, argmax_h=wh, argmax_v=wv)
