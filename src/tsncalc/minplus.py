"""Exact min-plus curve algebra for worst-case traffic analysis.

Curves are non-decreasing functions of time, kept in a closed (symbolic)
representation: a tree of curve nodes.  Jumps are first-class, and curves
are left-continuous at jumps (``Affine(b, r)`` is 0 at t = 0 and b + r*t
for t > 0).

Units are microseconds for time and bits for data, so rates are bits/us
(numerically equal to Mb/s).

A curve has up to three exact representations:

- ``envelope``: the token-bucket family in closed form, for t > 0 the min
  (concave) or the max (convex) of a few lines, and 0 at t = 0, computed
  when the curve is built.  Affine and rate-latency curves have one, and so
  do min, max, sum, scaling and the non-decreasing closure of curves that
  have one, as long as the result stays a min or a max of lines: the
  operators then fold their operands' closed forms into a ``Closed`` curve,
  and build a node (``Pointwise``, ``Scale``, ``UpClosure``) only for a
  result outside the family.  Gate staircases and TDMA curves, given by one
  period of terms or windows, have none.
- ``sandwich``: rate*t - lo <= f(t) <= rate*t + hi for all t >= 0, its
  rate the long-term rate: a closed curve's from its envelope on first
  use, a gate curve's from its period, a node's from its operands'.
- ``segments``: a piecewise-linear function with jumps, built on first use
  and kept: a closed curve's on [0, inf), one segment per line, and a
  gated curve's (with a gate curve among its leaves) on its window,
  ``WINDOW_PERIODS`` times the longest gate period among them;
  ``_segments_on`` builds a curve on any window.  A node builds its
  segments from its operands': a sum on one union grid, a min or max
  folded two at a time (``_pointwise``), and the closure with one running
  maximum.  A TDMA service takes the min of its rotations on one period
  and repeats it.  A leftover (``leftover``: a line less scaled terms,
  closed) is that chain of nodes.  Gate staircases, and the leftovers of a
  line less one scaled staircase (the gated top-priority services), can
  also be built as batches of rows, one pass over all the rows per step
  (``build_leftovers``); each step does the floating-point operations of
  the one-curve operator it replaces, so a batch is bit for bit the curves
  built one by one.

``deviations`` has two cases, both exact over all t; nothing is sampled:

- a concave arrival curve against a convex service curve (the gate-free
  strict-priority, reshaping and credit-based analyses), the line crossings
  of the envelopes;
- every gated pair, the segments on a window that the two sandwiches
  certify to hold both deviations (``_segment_deviations``).  Each segment
  function computes its inverse table (the left limit at each segment's
  end, the running maximum of values reached, and whether it never falls)
  once, and one pass over it gives the first and the strict inverse, so a
  service that two analyses share is read, not rebuilt.

Rounding has one rule: values computed from terms of magnitude x may
differ by ``slack(x)``, the larger of ``TOLERANCE`` and ``ROUNDING`` times
x.  Compression compares exactly (``_kept``).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InstabilityError

#: Absolute comparison tolerance in internal units (us, bits).
TOLERANCE = 1e-9
#: Relative rounding of a value computed from terms of its magnitude.
ROUNDING = 1e-12

INF = float("inf")
WINDOW_PERIODS = 4.0  # a gated pair's first window, in longest gate periods


def slack(x: float) -> float:
    """How far values computed from terms of magnitude ``x`` may differ."""
    return max(TOLERANCE, ROUNDING * abs(x))


# ---------------------------------------------------------------------------
# Piecewise-linear backing store
# ---------------------------------------------------------------------------

class Segments:
    """Exact piecewise-linear function on [0, end] with up/down jumps.

    ``t`` are strictly increasing breakpoints with t[0] == 0.  For each k,
    ``at[k]`` is f(t[k]), ``right[k]`` is f(t[k]+) and ``slope[k]`` applies on
    (t[k], t[k+1]); the last slope extends to ``end``.  The four arrays
    are read-only, so the inverse table computed from them on first use
    stays valid.
    """

    __slots__ = ("t", "at", "right", "slope", "end", "_table")

    def __init__(self, t, at, right, slope, end):
        self.t, self.at, self.right, self.slope = (
            _read_only(x) for x in (t, at, right, slope))
        self.end = float(end)
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
        """Left limit at the end of each segment (``end`` for the last)."""
        return self.table.end_left

    def _locate(self, ts: np.ndarray) -> np.ndarray:
        return np.maximum(np.searchsorted(self.t, ts, side="right") - 1, 0)

    def value_many(self, ts) -> np.ndarray:
        return _resample(self, np.asarray(ts, dtype=float))[0]

    def value(self, t: float) -> float:
        return float(self.value_many(np.array([t]))[0])

    def is_nondecreasing(self) -> bool:
        return self.table.nondecreasing

    def compress(self) -> "Segments":
        """Drop breakpoints that carry neither a jump nor a slope change."""
        if len(self.t) <= 1:
            return self
        keep = _kept(self.t, self.at, self.right, self.slope, _first_of_one(len(self.t)))
        return Segments(self.t[keep], self.at[keep], self.right[keep], self.slope[keep], self.end)


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
    span = _ends(seg.t, seg.end) - seg.t
    # the last segment of a closed curve's own segments ends at inf, flat
    # if its slope is 0
    if seg.slope[-1] == 0.0:
        span[-1] = 0.0
    end_left = _read_only(seg.right + seg.slope * span)
    reach = _read_only(np.maximum.accumulate(np.maximum(end_left, np.maximum(seg.at, seg.right))))
    tol = slack(float(np.abs(seg.right).max(initial=1.0)))
    # the left limit at each breakpoint after the first is the end of the
    # segment before it
    nondecreasing = not ((seg.right - seg.at < -tol).any() or (seg.at[1:] - end_left[:-1] < -tol).any()
                         or (seg.slope < -tol).any())
    return InverseTable(end_left, reach, nondecreasing)


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
    """Pointwise sum, min or max of segment functions on one window,
    exactly: a sum adds the values in order on the union of their
    breakpoints, and a min or max folds ``_extreme`` over them left to right."""
    if op != "sum":
        return functools.reduce(functools.partial(_extreme, op=op), segs)
    grid = _distinct_sorted(np.concatenate([s.t for s in segs]))
    rows = np.array([_on_grid(s, grid) for s in segs]).swapaxes(0, 1)
    return Segments(grid, *(np.cumsum(x, axis=0)[-1] for x in rows), segs[0].end)


def _extreme(a: Segments, b: Segments, op: str) -> Segments:
    """Pointwise min or max of two segment functions, exactly: two linear
    pieces cross at most once, at a sign change of a - b inside an interval
    of the union grid.  Each interval takes the extreme values and the slope
    of the function extreme at its middle, ``a``'s on a tie."""
    grid = _union(a.t, b.t)
    dt = _ends(grid, a.end) - grid
    (_, a_right, a_slope), (_, b_right, b_slope) = _on_grid(a, grid), _on_grid(b, grid)
    d0 = a_right - b_right
    d1 = (a_right + a_slope * dt) - (b_right + b_slope * dt)
    cross = d0 * d1 < 0.0
    if cross.any():
        grid = _distinct_sorted(np.concatenate([grid, grid[cross] + d0[cross] / (d0 - d1)[cross] * dt[cross]]))
    (a_at, a_right, a_slope), (b_at, b_right, b_slope) = _on_grid(a, grid), _on_grid(b, grid)
    ends = _ends(grid, a.end)
    half = np.where(ends > grid, (ends - grid) * 0.5, 0.0)
    a_mid, b_mid = a_right + a_slope * half, b_right + b_slope * half
    fn, pick_a = (np.minimum, a_mid <= b_mid) if op == "min" else (np.maximum, a_mid >= b_mid)
    return Segments(grid, fn(a_at, b_at), fn(a_right, b_right), np.where(pick_a, a_slope, b_slope), a.end)


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


def _ends(t, end, first=None) -> np.ndarray:
    """The end of each segment: the next breakpoint, or ``end`` after the
    last.  With ``first``, of rows of several functions, where the last row
    of each ends at its function's end (``end`` per row, or one for all)."""
    if first is None:
        return np.concatenate((t[1:], [end]))
    last = np.concatenate((first[1:], [True]))
    return np.where(last, end, np.concatenate((t[1:], [0.0])))


def _kept(t, at, right, slope, first) -> np.ndarray:
    """The rows that ``Segments.compress`` keeps: each function's first row,
    and every row with a jump or a slope change, or whose value the last
    row kept, extended to it, misses; repeated until no row is dropped that
    must stay, so every breakpoint keeps its value and right limit exactly."""
    keep = first | (right != at) | np.append(True, slope[1:] != slope[:-1])
    rows = np.arange(len(t))
    while True:
        last = np.maximum.accumulate(np.where(keep, rows, 0))
        miss = ~keep & (right[last] + slope[last] * (t - t[last]) != at)
        if not miss.any():
            return keep
        keep |= miss


def _running(ufunc, values, first) -> np.ndarray:
    """``ufunc.accumulate`` of ``values`` within each function.  Each
    function's row is padded after its values, which no accumulation
    reads, so zeros pad for a sum and a max alike."""
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    col = np.arange(len(values)) - starts[group]
    padded = np.zeros((len(starts), int(col.max()) + 1))
    padded[group, col] = values
    return ufunc.accumulate(padded, axis=1)[group, col]


def _closure_rows(t, at, right, slope, first, end):
    """Running maximum with zero of each function: t -> max(0, sup_{0<=s<=t}
    f(s)), as (t, at, right, slope, first) rows, before compression.

    Each segment starts at the running maximum of the peaks before it and
    follows f where f starts there and rises, else stays flat; a rising
    segment that climbs back to the maximum inside it follows f from the
    crossing on, which gets a row of its own.
    """
    t1 = _ends(t, end, first)
    f_end = right + slope * (t1 - t)
    peak = np.maximum(np.maximum(at, right), f_end)
    # max(0, f(0)) at each function's first row, else the peak before
    prior = np.where(first, np.where(at > 0.0, at, 0.0), np.append(0.0, peak[:-1]))
    run = _running(np.maximum, prior, first)
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
                                               _first_of_one(len(seg.t)), seg.end)
    keep = _kept(t, at, right, slope, first)
    return Segments(t[keep], at[keep], right[keep], slope[keep], seg.end)


# ---------------------------------------------------------------------------
# Pseudo-inverses and deviations
# ---------------------------------------------------------------------------

def _pinv(seg: Segments, levels: np.ndarray):
    """The first times f reaches each level and the first times it exceeds
    it, both from one pass over the inverse table; inf if not on [0, end].

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
    """Maximum horizontal/vertical deviation between two curves with
    witnesses, and the window the segments were read on (None if closed)."""

    horizontal: float
    vertical: float
    argmax_h: float
    argmax_v: float
    window: float | None = None


def _first_max_at(values: np.ndarray):
    """The largest value and the index of the first value within rounding
    of it, as ``_first_max`` picks its witness."""
    best = float(values.max())
    return best, int((values >= best - slack(best)).argmax())


def _hdev_segments(a: Segments, b: Segments):
    a_levels = np.concatenate([a.at, a.right, a.end_left()])
    levels = np.concatenate([a_levels, b.at, b.right, b.end_left()])
    # the levels clipped to [0, sup alpha], as np.clip does it
    levels = _distinct_sorted(np.minimum(np.maximum(levels, 0.0), a_levels.max()))
    ta, ta_plus = _pinv(a, levels)
    tb, tb_plus = _pinv(b, levels)
    # g(y) and its right limit in y; levels beta does not reach are dropped
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
    ends = _ends(grid, a.end)
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

class Envelope:
    """f(0) = 0 and, for t > 0, the min (``sense`` 1, concave) or the max
    (``sense`` -1, convex) of the lines ``intercept + slope*t`` in ``lines``.

    ``lines`` is the envelope itself: each line is active on one interval,
    in order of t, and no other line is ever active.  A single line is both
    a min and a max (``sense`` 0).  What the deviations read is computed
    once, when the envelope is made: ``start`` (f(0+)), ``sup`` (the last
    line's intercept when that line is flat, else inf), ``kinks`` (every
    time t > 0 where the active line changes, in order) and ``rising`` (the
    lines of positive slope).
    """

    __slots__ = ("sense", "lines", "start", "sup", "kinks", "rising")

    def __init__(self, sense: int, lines: tuple):
        self.sense = sense
        self.lines = lines  # ((intercept, slope), ...)
        self.start = lines[0][0]
        d, s = lines[-1]
        self.sup = INF if s > 0.0 else d
        if len(lines) == 1:
            self.kinks = ()
            self.rising = lines if s > 0.0 else ()
        else:
            self.kinks = tuple((d1 - d0) / (s0 - s1) for (d0, s0), (d1, s1) in zip(lines, lines[1:]))
            self.rising = tuple(line for line in lines if line[1] > 0.0)

    def __eq__(self, other):
        return isinstance(other, Envelope) and (self.sense, self.lines) == (other.sense, other.lines)

    def __repr__(self):
        return f"Envelope(sense={self.sense}, lines={self.lines})"

    def value(self, t: float) -> float:
        """f(t) for t > 0."""
        vals = [d + s * t for d, s in self.lines]
        return max(vals) if self.sense < 0 else min(vals)


def _hull(sense: int, lines) -> Envelope:
    """The lower (``sense`` 1) or upper (``sense`` -1) envelope over t > 0
    of the lines (intercept, slope), a sequence of tuples."""
    if len(lines) <= 2:
        return _hull_of_two(sense, lines)
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


def _hull_of_two(sense: int, lines) -> Envelope:
    """``_hull`` of one or two lines, with the same comparisons and no sort.
    Mirroring twice by the sense gives back each line bit for bit, so the
    lines kept are the ones given."""
    if len(lines) == 1:
        return Envelope(0, (lines[0],))
    first, second = lines
    (d0, s0), (d1, s1) = ((sense * d, sense * s) for d, s in lines)
    if (-s1, d1) < (-s0, d0):  # the order that ``_hull`` sorts them in
        first, second, d0, s0, d1, s1 = second, first, d1, s1, d0, s0
    if s1 == s0:
        return Envelope(0, (first,))
    if d1 <= d0:
        return Envelope(0, (second,))
    return Envelope(sense, (first, second))


def _envelope_segments(env: Envelope, end: float) -> Segments:
    """The segments of a closed form on [0, end]: 0 at t = 0, then one
    segment per line that becomes active before ``end``, from its kink."""
    start = np.concatenate([[0.0], env.kinks])
    live = start < end
    t = start[live]
    intercept, slope = np.array(env.lines)[live].T
    right = intercept + slope * t
    at = right.copy()
    at[0] = 0.0
    return Segments(t, at, right, slope, end)


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
    # each term's line active just after each merged kink: the one after
    # the term's kinks up to it
    lines = [_add_lines(e.lines[bisect.bisect_right(e.kinks, x)] for e in envs)
             for x in sorted({0.0}.union(*(e.kinks for e in envs)))]
    return _hull(senses.pop(), lines)


def _first_max(values, times):
    """The largest of ``values``, and as the witness the time of the first
    value within rounding of it: exact ties (a flat stretch) go to the
    earliest candidate, not to the rounding error."""
    best = max(values)
    tol = slack(best)
    return best, next(t for v, t in zip(values, times) if v >= best - tol)


def _closed_deviations(alpha: "Curve", beta: "Curve") -> Deviation | None:
    """Deviations over all t of a concave arrival curve against a convex
    service curve, from their closed forms; None for any other pair, or
    when either curve falls somewhere.

    Between kinks the horizontal deviation is linear in the level and the
    vertical one in time, and past the last kinks neither grows, so the
    maxima lie among these candidates: for the horizontal deviation the
    levels 0, alpha(0+) and either curve's value at its kinks, up to
    alpha's supremum, each with the first and the strict inverse; for the
    vertical one 0+ and every kink.  The witness is the earliest maximum.
    Raises InstabilityError when the deviations are unbounded: alpha's
    supremum above beta's, or alpha's last slope above beta's, which only
    the tolerance of the rate check in ``deviations`` lets through.

    The slopes of a min of lines fall in order of t and those of a max
    rise, so the first line of beta and the last of alpha are the flattest.
    A min of lines reaches a level once every line has, and a max once one
    has; each inverse is written out in the loop.
    """
    b = beta.envelope  # first, so that gated curves fail fast
    if b is None or b.sense > 0 or b.start < 0.0 or b.lines[0][1] < 0.0:
        return None
    a = alpha.envelope
    if a is None or a.sense < 0 or a.start < 0.0 or a.lines[-1][1] < 0.0:
        return None
    top = a.sup
    if top > b.sup or a.lines[-1][1] > b.lines[-1][1]:
        raise InstabilityError("the arrival curve outgrows the service curve")

    a_lines, b_lines, a_start, b_start, b_top = a.lines, b.lines, a.start, b.start, b.sup
    a_rising, b_rising = a.rising, b.rising
    # each curve at its own kinks: a min of a's lines, a max of b's
    levels = [0.0, a_start]
    levels += [min([d + s * t for d, s in a_lines]) for t in a.kinks]
    levels += [max([d + s * t for d, s in b_lines]) for t in b.kinks]
    levels = sorted({min(y, top) for y in levels})
    gaps, witnesses = [], []
    for strict in (False, True):
        for y in levels:
            if y > top or (strict and y >= top):
                ta = INF
            elif y < a_start or (y == a_start and not strict):
                ta = 0.0
            else:
                ta = max([(y - d) / s for d, s in a_rising])
            if y > b_top or (strict and y >= b_top):
                tb = INF
            elif y < b_start or (y == b_start and not strict):
                tb = 0.0
            else:
                tb = min([(y - d) / s for d, s in b_rising])
            g = tb - ta
            gaps.append(g if math.isfinite(g) else -INF)
            witnesses.append(ta)
    g, h_witness = _first_max(gaps, witnesses)

    kinks = sorted(set(a.kinks + b.kinks))
    gaps = [0.0, a_start - b_start]
    gaps += [min([d + s * t for d, s in a_lines]) - max([d + s * t for d, s in b_lines]) for t in kinks]
    v, v_witness = _first_max(gaps, [0.0, 0.0] + kinks)
    return Deviation(horizontal=max(0.0, g), vertical=max(0.0, v),
                     argmax_h=h_witness, argmax_v=v_witness)


# ---------------------------------------------------------------------------
# Curve nodes
# ---------------------------------------------------------------------------

class Sandwich(NamedTuple):
    """rate*t - lo <= f(t) <= rate*t + hi for all t >= 0, hi and lo >= 0."""

    rate: float
    hi: float
    lo: float


def _extreme_bounds(op: str, bounds) -> Sandwich:
    """The sandwich of a min of curves with sandwiches ``bounds``: below
    each operand of the lowest rate, above the lowest line; a max mirrors it."""
    if op == "min":
        rate = min(b.rate for b in bounds)
        return Sandwich(rate, min(b.hi for b in bounds if b.rate == rate), max(b.lo for b in bounds))
    rate = max(b.rate for b in bounds)
    return Sandwich(rate, max(b.hi for b in bounds), min(b.lo for b in bounds if b.rate == rate))


class Curve:
    """A non-decreasing function of time in closed representation.

    ``envelope`` is the closed form, or None outside the token-bucket
    family: Affine and RateLatency curves, and the Closed curves that the
    operators fold, have theirs from the start, and the nodes built from
    segments have none.  ``period`` is the longest gate period among the
    curve's leaves, None when no gate curve is among them, and ``window``
    WINDOW_PERIODS times that: the first window a gated pair reads."""

    __slots__ = ("period", "envelope", "_segments", "_sandwich")

    def __init__(self, envelope: Envelope | None = None, period: float | None = None):
        self.period = period
        self.envelope = envelope
        self._segments = None
        self._sandwich = None

    @property
    def window(self) -> float | None:
        return None if self.period is None else WINDOW_PERIODS * self.period

    @property
    def segments(self) -> Segments:
        """The curve on [0, window], built on first use; a closed curve's
        envelope on [0, inf), one segment per line; none for a gate-free node."""
        if self._segments is None:
            if self.envelope is not None:
                self._segments = _envelope_segments(self.envelope, INF)
            elif self.period is None:
                raise ValueError("a gate-free curve outside the token-bucket family has no window")
            else:
                self._segments = self._build(self.window)
        return self._segments

    def _build(self, end: float) -> Segments:
        raise NotImplementedError

    @property
    def sandwich(self) -> Sandwich:
        if self._sandwich is None:
            self._sandwich = self._bounds()
        return self._sandwich

    def long_term_rate(self) -> float:
        return self.sandwich.rate

    def evaluate(self, t: float) -> float:
        """f(t), 0 for t <= 0: from the closed form, exact for every t, when
        the curve has one; else from its segments on its window, or on [0,
        t] past it or without one."""
        if t <= 0.0:
            return 0.0
        env = self.envelope
        if env is not None:
            return env.value(t)
        return _segments_on(self, max(t, self.window or t)).value(t)

    def __repr__(self):
        shown = self.envelope if self.period is None else f"period={self.period:g}"
        return f"<{type(self).__name__} {shown}>"


def _segments_on(curve: Curve, end: float) -> Segments:
    """The segments of ``curve`` on [0, end], its own if built there."""
    if curve.envelope is not None:
        return _envelope_segments(curve.envelope, end)
    if curve.window == end:
        return curve.segments
    return curve._build(end)


class Closed(Curve):
    """A curve of the token-bucket family, given by its closed form, exact
    for every t.  Its long-term ``rate`` is the slope of the envelope's
    last line: the flattest line of a min of lines, the steepest of a max.
    f(t) - rate*t is monotone for t > 0, between the first and last intercepts."""

    __slots__ = ()

    def long_term_rate(self) -> float:
        return self.envelope.lines[-1][1]

    rate = property(long_term_rate)

    def _bounds(self) -> Sandwich:
        (d0, _), (d1, rate) = self.envelope.lines[0], self.envelope.lines[-1]
        return Sandwich(rate, max(0.0, d0, d1), max(0.0, -d0, -d1))


class Affine(Closed):
    """Token bucket: 0 at t = 0, burst + rate*t for t > 0.

    Negative bursts are tolerated so that service-curve expressions can embed
    constant offsets; arrival curves always use burst >= 0.
    """

    __slots__ = ("burst",)

    def __init__(self, burst: float, rate: float):
        burst, rate = float(burst), float(rate)
        super().__init__(Envelope(0, ((burst, rate),)))
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.burst = burst


class RateLatency(Closed):
    """rate * max(0, t - latency)."""

    __slots__ = ("latency",)

    def __init__(self, rate: float, latency: float):
        rate, latency = float(rate), float(latency)
        super().__init__(_hull(-1, [(0.0, 0.0), (-rate * latency, rate)]))
        if rate < 0 or latency < 0:
            raise ValueError("rate and latency must be >= 0")
        self.latency = latency


class StaircaseMax(Curve):
    """Pointwise max over ``rotations`` of sums of periodic step terms
    height * ceil((t - offset)/period), each clamped below at zero: the
    shape of gate-window arrival envelopes, one sum per window rotation.
    Each rotation is a sequence of (height, offset, period) terms, the same
    number in each.  Each rotation is non-decreasing, so the max at t is
    the largest value any rotation has reached by t: a running max over
    the rotations' jumps in time order."""

    __slots__ = ("rotations",)

    def __init__(self, rotations):
        if not len(rotations):
            raise ValueError("a staircase max needs at least one rotation")
        terms = np.array(rotations, dtype=float).reshape(len(rotations), -1, 3)
        height, offset, period = terms[..., 0], terms[..., 1], terms[..., 2]
        if (height < 0).any() or (offset < -TOLERANCE).any() or (period <= 0).any():
            raise ValueError("staircase terms need height >= 0, offset >= 0, period > 0")
        terms[..., 1] = np.maximum(0.0, offset)
        super().__init__(period=float(period.max()))
        self.rotations = terms  # (rotation, term, (height, offset, period))
        # a term lies between height/period times t less height*offset/period
        # and that plus height*max(0, 1 - offset/period)
        rates = map(sum, (height / period).tolist())
        his = (height * np.maximum(0.0, 1.0 - offset / period)).sum(axis=1).tolist()
        los = (height * offset / period).sum(axis=1).tolist()
        self._sandwich = _extreme_bounds("max", [Sandwich(*b) for b in zip(rates, his, los)])

    def _build(self, end: float) -> Segments:
        return _staircases([self], [end])[0]


def _staircases(curves, ends) -> list:
    """The segments of staircase maxes on [0, end] for their ``ends``, every
    rotation of every curve in one pass.  Each term's jumps there are summed
    per (rotation, time) in term order, as one rotation alone would sum
    them, and accumulated along each rotation.  Each curve lives on the
    union of its rotations' jump times and 0.  Every rotation is
    non-decreasing, so their max after a point is the running max, within
    the curve, of the values its rotations reach at or before it, and its
    value at a point is the right limit at the point before (0 at t = 0),
    since each step is left-continuous.  Each curve is then compressed."""
    n_terms = np.array([c.rotations.shape[1] for c in curves])
    curve_of_rot = np.repeat(np.arange(len(curves)), [c.rotations.shape[0] for c in curves])
    rot_of_term = np.repeat(np.arange(len(curve_of_rot)), n_terms[curve_of_rot])
    height, offset, period = np.concatenate([c.rotations.reshape(-1, 3) for c in curves]).T
    end = np.array(ends)[curve_of_rot[rot_of_term]]
    live = (height != 0.0) & (offset <= end)
    counts = np.where(live, np.floor((end - offset) / period).astype(int) + 1, 0)
    total = int(counts.sum())
    if not total:
        return [Segments([0.0], [0.0], [0.0], [0.0], e) for e in ends]
    steps = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    raw_t = np.repeat(offset, counts) + np.repeat(period, counts) * steps
    raw_rot = np.repeat(rot_of_term, counts)
    rot, times, inverse = _distinct(raw_rot, raw_t)
    jumps = np.zeros(len(times))
    np.add.at(jumps, inverse, np.repeat(height, counts))
    # accumulate each rotation's jumps along its own row
    right = _running(np.add, jumps, np.append(True, rot[1:] != rot[:-1]))
    # each curve's grid: 0 and the jump times of its rotations
    n = len(curves)
    grid_curve, grid, point = _distinct(np.concatenate([np.arange(n), curve_of_rot[rot]]),
                                        np.concatenate([np.zeros(n), times]))
    first = np.append(True, grid_curve[1:] != grid_curve[:-1])
    # the largest value a rotation reaches at each point, then so far
    seg_right = np.zeros(len(grid))
    np.maximum.at(seg_right, point[n:], right)
    seg_right = _running(np.maximum, seg_right, first)
    seg_at = np.where(first, 0.0, np.append(0.0, seg_right[:-1]))
    slope = np.zeros(len(grid))
    keep = _kept(grid, seg_at, seg_right, slope, first)
    return _split(ends, grid_curve[keep],
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


def _split(ends, group, t, at, right, slope) -> list:
    """One Segments per end from rows ordered by ``group``, its index."""
    cuts = np.cumsum(np.bincount(group, minlength=len(ends)))[:-1]
    pieces = [np.split(x, cuts) for x in (t, at, right, slope)]
    return [Segments(*rows, e) for e, *rows in zip(ends, *pieces)]


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
    their staircases, on their windows, with one pass of each step over
    the rows of all of them: the staircases, the line plus the scaled
    staircase, compressed, then its closure, compressed.  Each step does the
    floating-point operations of the step it mirrors in the chain's own build:
    ``_staircases``, ``Scale``, ``_pointwise``'s sum (the line resampled as
    ``_resample`` reads it), ``Segments.compress`` and ``_up_closure_segments``."""
    todo = [(c, c.window, *_leftover_parts(c)) for c in curves]
    todo = [row for row in todo if row[0]._segments is None]
    if not todo:
        return
    chains, ends, burst, rate, factor, gates = zip(*todo)
    unbuilt = list({id(g): g for g in gates if g._segments is None}.values())
    for gate, seg in zip(unbuilt, _staircases(unbuilt, [g.window for g in unbuilt]) if unbuilt else ()):
        gate._segments = seg
    segs = [g.segments for g in gates]
    n = np.array([len(s) for s in segs])
    first = np.zeros(int(n.sum()), dtype=bool)
    first[np.cumsum(n) - n] = True
    t = np.concatenate([s.t for s in segs])
    burst, rate, factor, end = (np.repeat(x, n) for x in (burst, rate, factor, ends))
    # the line: 0 at t = 0, its start at 0+, and burst + rate*t after
    start = burst + rate * 0.0
    line = start + rate * t
    at = np.where(first, 0.0, line) + np.concatenate([s.at for s in segs]) * factor
    right = np.where(first, start, line) + np.concatenate([s.right for s in segs]) * factor
    slope = rate + np.concatenate([s.slope for s in segs]) * factor
    keep = _kept(t, at, right, slope, first)
    t, at, right, slope, first, end = (x[keep] for x in (t, at, right, slope, first, end))
    t, at, right, slope, first = _closure_rows(t, at, right, slope, first, end)
    keep = _kept(t, at, right, slope, first)
    group = np.cumsum(first) - 1
    for c, seg in zip(chains, _split(ends, group[keep], t[keep], at[keep], right[keep], slope[keep])):
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
    """The service of a TDMA schedule: the min over rotations of ``rate``
    times the time on [0, t] that a gate is open.  A rotation's windows
    (rotation x window arrays ``starts`` and ``lengths``, one rotation when
    1-D) lie within [0, period] and repeat every ``period``, and every
    rotation is open for the same time per period.  Each rotation's open
    time then grows by one period's every period, and so does their min: it
    is taken on [0, period] once, and its slopes are repeated up to the end
    of a window and integrated from each change of slope to the next, with
    no jump at a period's end.  Starts a rounding error below 0 are clamped
    to 0, and the slope follows a running count of open windows, so one
    window's end and the next one's start may lie an ulp apart either way."""

    __slots__ = ("_one",)

    def __init__(self, rate: float, period: float, starts, lengths):
        super().__init__(period=float(period))
        starts, lengths = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (starts, lengths))
        if (rate < 0 or period <= 0 or np.any(lengths < 0) or np.any(starts < -TOLERANCE)
                or np.any(starts + lengths > period + TOLERANCE) or np.ptp(lengths.sum(axis=1)) > TOLERANCE):
            raise ValueError("TDMA windows need rate >= 0, period > 0, to lie in [0, period], one open time")
        rate, period = float(rate), self.period
        rotations = []
        for row_starts, row_lengths in zip(np.maximum(0.0, starts), lengths):
            times = np.concatenate([[0.0], row_starts, row_starts + row_lengths])
            steps = np.repeat([0.0, 1.0, -1.0], [1, len(row_starts), len(row_starts)])
            t, count, open_time = running_integral(times[times < period], steps[times < period])
            rotations.append(Segments(t, rate * open_time, rate * open_time, rate * count, period))
        self._one = one = _pointwise(rotations, "min")
        # f(t) - rate*t repeats every period and is linear between the
        # period's breakpoints, so its extremes lie among them and its end
        rate = rate * float(np.min(np.sum(lengths, axis=1))) / period
        gap = (np.append(one.at, one.right[-1] + one.slope[-1] * (period - one.t[-1]))
               - rate * np.append(one.t, period))
        self._sandwich = Sandwich(rate, max(0.0, float(gap.max())), max(0.0, -float(gap.min())))

    def _build(self, end: float) -> Segments:
        period, one = self.period, self._one
        live = one.t < period
        copies = int(end // period) + 1
        t = (one.t[live] + period * np.arange(copies)[:, None]).ravel()
        # a period's end that rounds onto the next one's start gives way to
        # it, and a point where the slope does not change is no breakpoint
        keep = (t <= end) & np.append(t[1:] > t[:-1], True)
        t, slope = t[keep], np.tile(one.slope[live], copies)[keep]
        change = np.append(True, slope[1:] != slope[:-1])
        t, slope = t[change], slope[change]
        value = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(t))])
        return Segments(t, value, value, slope, end)


def _operands(op: str, curves: Iterable[Curve]) -> tuple:
    """The operands of ``op`` and the longest gate period among their
    leaves, None when there is none; refused when there are no operands."""
    curves = tuple(curves)
    if not curves:
        raise ValueError(f"{op} of an empty curve list")
    return curves, max((c.period for c in curves if c.period is not None), default=None)


class Pointwise(Curve):
    """Pointwise min, max or sum of curves (``_pointwise``): a sum on one
    union grid, adding the sandwiches, a min or max folded two at a time."""

    __slots__ = ("op", "curves")

    def __init__(self, op: str, curves: Sequence[Curve]):
        curves, period = _operands(op, curves)
        super().__init__(period=period)
        self.op = op
        self.curves = curves

    def _build(self, end: float) -> Segments:
        return _pointwise([_segments_on(c, end) for c in self.curves], self.op).compress()

    def _bounds(self) -> Sandwich:
        bounds = [c.sandwich for c in self.curves]
        return Sandwich(*map(sum, zip(*bounds))) if self.op == "sum" else _extreme_bounds(self.op, bounds)


class Scale(Curve):
    """Pointwise factor * f(t); negative factors build the subtracted terms of
    leftover-service expressions and must be closed afterwards.  A negative
    factor swaps the sandwich's upper and lower offsets."""

    __slots__ = ("factor", "curve")

    def __init__(self, factor: float, curve: Curve):
        super().__init__(period=curve.period)
        self.factor = float(factor)
        self.curve = curve

    def _build(self, end: float) -> Segments:
        seg = _segments_on(self.curve, end)
        f = self.factor
        return Segments(seg.t, seg.at * f, seg.right * f, seg.slope * f, seg.end)

    def _bounds(self) -> Sandwich:
        f, (rate, hi, lo) = self.factor, self.curve.sandwich
        return Sandwich(f * rate, f * hi, f * lo) if f >= 0.0 else Sandwich(f * rate, -f * lo, -f * hi)


class UpClosure(Curve):
    """[f(t)]_up^+ = max(0, max_{0<=s<=t} f(s)): the non-decreasing closure,
    above f and below rate*t + max(0, hi), or max(0, hi) if f's rate < 0."""

    __slots__ = ("curve",)

    def __init__(self, curve: Curve):
        super().__init__(period=curve.period)
        self.curve = curve

    def _build(self, end: float) -> Segments:
        return _up_closure_segments(_segments_on(self.curve, end))

    def _bounds(self) -> Sandwich:
        rate, hi, lo = self.curve.sandwich
        return Sandwich(max(0.0, rate), max(0.0, hi), lo)


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------
#
# Each returns a Closed curve when its operands have closed forms and the
# result has one, folded from theirs with the floating-point operations of
# the node it stands for; else the node.

def _pointwise_of(op: str, curves: Iterable[Curve]) -> Curve:
    curves, _ = _operands(op, curves)
    envs = [c.envelope for c in curves]
    for env in envs:
        if env is None:
            return Pointwise(op, curves)
    if op == "sum":
        env = _sum_envelopes(envs)
    else:
        sense = 1 if op == "min" else -1
        env = None if any(e.sense == -sense for e in envs) else _hull(
            sense, [line for e in envs for line in e.lines])
    if env is None:
        return Pointwise(op, curves)
    return Closed(env)


def min_of(curves: Iterable[Curve]) -> Curve:
    return _pointwise_of("min", curves)


def max_of(curves: Iterable[Curve]) -> Curve:
    return _pointwise_of("max", curves)


def sum_of(curves: Iterable[Curve]) -> Curve:
    return _pointwise_of("sum", curves)


def scale(factor: float, curve: Curve) -> Curve:
    env = curve.envelope
    if env is None:
        return Scale(factor, curve)
    f = float(factor)
    sense = env.sense if f > 0.0 else -env.sense
    # a single line (sense 0) is its own lower envelope
    return Closed(_hull(sense or 1, [(d * f, s * f) for d, s in env.lines]))


def up_closure(curve: Curve) -> Curve:
    env = curve.envelope
    if env is None:
        return UpClosure(curve)
    # a max of lines that starts at or below 0 at 0+: max(0, f) is convex
    # with its minimum at 0, so it is already non-decreasing
    if env.sense <= 0 and env.start <= 0.0:
        return Closed(_hull(-1, env.lines + ((0.0, 0.0),)))
    # no line falls, and f(0+) >= 0 = f(0): the curve is its own closure
    if env.start >= 0.0 and env.lines[0][1] >= 0.0 and env.lines[-1][1] >= 0.0:
        return curve
    return UpClosure(curve)


def leftover(line: Curve, terms) -> Curve:
    """[line + sum of factor*curve over the (factor, curve) ``terms``]_up^+:
    the service a line leaves after the terms, closed to be non-decreasing.
    ``build_leftovers`` builds many with one staircase term at once."""
    return up_closure(sum_of([line] + [scale(f, c) for f, c in terms]))


def zero() -> Curve:
    return Affine(0.0, 0.0)


def deviations(alpha: Curve, beta: Curve) -> Deviation:
    """Both deviations of an arrival and a service curve, with witnesses.

    Two cases, each exact over all t and sampling nothing: a concave
    arrival against a convex service from the line crossings of their
    closed forms; a gated pair from the segments on a window that the
    pair's sandwiches certify (``_segment_deviations``).  Raises
    InstabilityError when the deviations are unbounded, and ValueError for
    any other pair of gate-free curves.
    """
    ra, rb = alpha.long_term_rate(), beta.long_term_rate()
    if ra > rb + slack(rb):
        raise InstabilityError(f"arrival rate {ra:.6g} bits/us exceeds service rate {rb:.6g} bits/us")
    closed = _closed_deviations(alpha, beta)
    return closed if closed is not None else _segment_deviations(alpha, beta)


def _segment_deviations(alpha: Curve, beta: Curve) -> Deviation:
    """Deviations of a gated pair from the segments on a window that holds
    both.  With K = hi_alpha + lo_beta and g = rho_beta - rho_alpha,
    alpha(t) - beta(t) <= v for t >= t_v = (K - v)/g, beta(t + h) >=
    alpha(t) for t >= t_h = (K - rho_beta*h)/g, and beta reaches by t_h + h
    every level alpha reaches by t_h.  So v and h read on a window W (h over
    the levels of alpha that beta reaches within W) hold for all t once W >=
    max(t_v, t_h + h) = (K - min(v, rho_alpha*h))/g.  The first window is
    WINDOW_PERIODS times the pair's longest gate period; a pair it does not
    certify is read once more on the window asked for, which certifies
    itself, as v and h only grow with the window.  A service rate within
    rounding of the arrival rate, or below it, raises InstabilityError."""
    _, period = _operands("deviations", (alpha, beta))
    if period is None:
        raise ValueError("deviations of gate-free curves outside the concave-arrival, convex-service case")
    rate_a, hi, _ = alpha.sandwich
    rate_b, _, lo = beta.sandwich
    if rate_b - rate_a <= slack(rate_b):
        raise InstabilityError(f"arrival rate {rate_a:.6g} bits/us reaches service rate {rate_b:.6g} bits/us")
    window = WINDOW_PERIODS * period
    dev = _deviations_of(_segments_on(alpha, window), _segments_on(beta, window))
    need = (hi + lo - min(dev.vertical, rate_a * dev.horizontal)) / (rate_b - rate_a)
    if need <= window:
        return dev
    return _deviations_of(_segments_on(alpha, need), _segments_on(beta, need))


def _deviations_of(a: Segments, b: Segments) -> Deviation:
    """Deviations of two segment functions on one window."""
    if not np.isfinite(a.right).all():
        raise ValueError("arrival curve must be finite")
    if not a.is_nondecreasing() or not b.is_nondecreasing():
        raise ValueError("deviations require non-decreasing curves")
    h, wh = _hdev_segments(a, b)
    v, wv = _vdev_segments(a, b)
    return Deviation(horizontal=h, vertical=v, argmax_h=wh, argmax_v=wv, window=a.end)
