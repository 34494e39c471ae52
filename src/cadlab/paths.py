"""Exact algebra of real-valued cadlag paths on a finite horizon.

A path is stored as a partition of [0, horizon) into half-open intervals,
each carrying either a constant or an affine segment, plus the value at the
horizon itself.  Every operation (evaluation, left limits, jumps, addition,
composition with a nondecreasing path) stays inside this family, so chains
of operations are short rational-arithmetic computations rather than
numerical approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CONST",
    "LINEAR",
    "Segment",
    "CadlagPath",
    "TimeGrid",
    "PathDomainError",
    "step_path",
    "piecewise_linear",
    "constant_path",
    "identity_path",
    "combine",
    "compose",
]

CONST = "const"
LINEAR = "linear"

#: absolute tolerance for exact-algebra identities (short chains of
#: rational arithmetic in double precision)
EXACT_TOL = 1e-12


class PathDomainError(ValueError):
    """Raised when a time or argument falls outside a path's domain."""


@dataclass(frozen=True)
class Segment:
    """One piece of a path on a half-open interval [a, b).

    ``v`` is the value at the left endpoint; for a linear segment ``w`` is
    the left limit at the right endpoint.  A constant segment has ``w == v``.
    """

    kind: str
    v: float
    w: float

    def __post_init__(self):
        if self.kind not in (CONST, LINEAR):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind == CONST and self.v != self.w:
            raise ValueError("constant segment with v != w")

    @staticmethod
    def const(v: float) -> "Segment":
        return Segment(CONST, float(v), float(v))

    @staticmethod
    def linear(v: float, w: float) -> "Segment":
        if v == w:
            return Segment.const(v)
        return Segment(LINEAR, float(v), float(w))

    def value_at(self, a: float, b: float, t: float) -> float:
        """Value at t in [a, b]; at b this returns the left limit w."""
        if self.kind == CONST:
            return self.v
        if t >= b:
            return self.w
        return self.v + (self.w - self.v) * (t - a) / (b - a)

    def slope(self, a: float, b: float) -> float:
        if self.kind == CONST:
            return 0.0
        return (self.w - self.v) / (b - a)


class CadlagPath:
    """Right-continuous path with left limits on [0, horizon].

    Segment ``i`` covers ``[breakpoints[i], breakpoints[i+1])`` with the
    convention that the final interval ends at the horizon;
    ``terminal_value`` is the value at the horizon itself.  Breakpoints at
    which nothing changes are canonicalized away on construction, so a
    breakpoint index is also a potential discontinuity or kink.

    Instances are immutable; all module operations are pure functions.
    """

    __slots__ = ("horizon", "breakpoints", "segments", "terminal_value")

    def __init__(
        self,
        horizon: float,
        breakpoints: Sequence[float],
        segments: Sequence[Segment],
        terminal_value: float,
    ):
        horizon = float(horizon)
        if not np.isfinite(horizon) or horizon < 0:
            raise PathDomainError(f"horizon must be finite and >= 0, got {horizon}")
        bps = [float(b) for b in breakpoints]
        segs = list(segments)
        if horizon == 0:
            if bps not in ([], [0.0]):
                raise PathDomainError("zero-horizon path admits no interior structure")
            bps, segs = [], []
        else:
            if len(bps) != len(segs):
                raise PathDomainError(
                    f"{len(bps)} breakpoints but {len(segs)} segments"
                )
            if not bps or bps[0] != 0.0:
                raise PathDomainError("first breakpoint must be 0")
            for a, b in zip(bps, bps[1:]):
                if not a < b:
                    raise PathDomainError("breakpoints must be strictly increasing")
            if bps[-1] > horizon:
                raise PathDomainError("breakpoint beyond horizon")
            if bps[-1] == horizon:
                # zero-length final interval carries no information
                bps, segs = bps[:-1], segs[:-1]
                if not bps:
                    raise PathDomainError("no segment covers (0, horizon)")
            if not all(np.isfinite(b) for b in bps):
                raise PathDomainError("breakpoints must be finite")
            bps, segs = _merge_redundant(bps, segs, horizon)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "terminal_value", float(terminal_value))

    def __setattr__(self, name, value):
        raise AttributeError("CadlagPath is immutable")

    def __repr__(self):
        return (
            f"CadlagPath(horizon={self.horizon}, {len(self.segments)} segments, "
            f"terminal={self.terminal_value})"
        )

    def __eq__(self, other):
        if not isinstance(other, CadlagPath):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.breakpoints == other.breakpoints
            and self.segments == other.segments
            and self.terminal_value == other.terminal_value
        )

    def __hash__(self):
        return hash((self.horizon, self.breakpoints, self.segments, self.terminal_value))

    # -- interval helpers -------------------------------------------------

    def _interval(self, i: int) -> tuple[float, float]:
        a = self.breakpoints[i]
        b = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else self.horizon
        return a, b

    def _segment_index(self, t: float) -> int:
        lo, hi = 0, len(self.breakpoints) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- evaluation -------------------------------------------------------

    def eval(self, t: float) -> float:
        """x(t), right-continuous at every breakpoint."""
        t = float(t)
        if t < 0 or t > self.horizon:
            raise PathDomainError(f"t={t} outside [0, {self.horizon}]")
        if t == self.horizon:
            return self.terminal_value
        i = self._segment_index(t)
        a, b = self._interval(i)
        return self.segments[i].value_at(a, b, t)

    def eval_many(self, ts) -> np.ndarray:
        """Vectorized :meth:`eval` over an array of times."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0 or ts.max() > self.horizon):
            raise PathDomainError("times outside [0, horizon]")
        if self.horizon == 0:
            return np.full(ts.shape, self.terminal_value)
        bps = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(bps, ts, side="right") - 1, 0, None)
        starts = bps[idx]
        ends = np.append(bps[1:], self.horizon)[idx]
        v = np.array([s.v for s in self.segments])[idx]
        w = np.array([s.w for s in self.segments])[idx]
        with np.errstate(invalid="ignore"):
            out = v + (w - v) * (ts - starts) / (ends - starts)
        at_end = ts == self.horizon
        if np.any(at_end):
            out = np.where(at_end, self.terminal_value, out)
        return out

    def left_limit(self, t: float) -> float:
        """x(t-) for t in (0, horizon]."""
        t = float(t)
        if t <= 0:
            raise PathDomainError("no left limit at or before the origin")
        if t > self.horizon:
            raise PathDomainError(f"t={t} beyond horizon {self.horizon}")
        i = self._segment_index(t) if t < self.horizon else len(self.segments) - 1
        a, b = self._interval(i)
        if t == a:
            # t is a breakpoint: limit comes from the previous segment
            i -= 1
            a, b = self._interval(i)
        return self.segments[i].value_at(a, b, min(t, b))

    def jump(self, t: float) -> float:
        """x(t) - x(t-)."""
        return self.eval(t) - self.left_limit(t)

    def jump_times(self) -> list[float]:
        """Times in (0, horizon] carrying a nonzero jump."""
        out = []
        for t in list(self.breakpoints[1:]) + [self.horizon]:
            if self.eval(t) != self.left_limit(t):
                out.append(t)
        return out

    # -- shape predicates -------------------------------------------------

    def is_nondecreasing(self) -> bool:
        """True iff all slopes and all jumps are >= 0."""
        for i, seg in enumerate(self.segments):
            if seg.w < seg.v:
                return False
        for t in list(self.breakpoints[1:]) + [self.horizon]:
            if self.jump(t) < 0:
                return False
        return True


def _merge_redundant(bps: list[float], segs: list[Segment], horizon: float):
    """Drop breakpoints at which neither value nor slope changes."""
    out_b = [bps[0]]
    out_s = [segs[0]]
    for i in range(1, len(bps)):
        prev = out_s[-1]
        a = out_b[-1]
        b = bps[i]
        c = bps[i + 1] if i + 1 < len(bps) else horizon
        cur = segs[i]
        continuous = prev.w == cur.v
        same_slope = prev.slope(a, b) == cur.slope(b, c)
        if continuous and same_slope:
            out_s[-1] = Segment.linear(prev.v, cur.w)
        else:
            out_b.append(b)
            out_s.append(cur)
    return out_b, out_s


# -- constructors ---------------------------------------------------------


def step_path(times: Iterable[float], values: Iterable[float], horizon: float) -> CadlagPath:
    """Staircase path: value ``values[i]`` on ``[times[i], times[i+1])``.

    ``times`` must start at 0; the terminal value is the last step value.
    """
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    if len(times) != len(values):
        raise PathDomainError("times and values must have equal length")
    segs = [Segment.const(v) for v in values]
    return CadlagPath(horizon, times, segs, values[-1])


def piecewise_linear(times: Sequence[float], values: Sequence[float]) -> CadlagPath:
    """Continuous piecewise-linear interpolation through (times, values)."""
    if len(times) != len(values) or len(times) < 2:
        raise PathDomainError("need at least two knots")
    segs = [Segment.linear(values[i], values[i + 1]) for i in range(len(times) - 1)]
    return CadlagPath(times[-1], times[:-1], segs, values[-1])


def constant_path(value: float, horizon: float) -> CadlagPath:
    if horizon == 0:
        return CadlagPath(0.0, [], [], value)
    return CadlagPath(horizon, [0.0], [Segment.const(value)], value)


def identity_path(horizon: float) -> CadlagPath:
    return piecewise_linear([0.0, horizon], [0.0, horizon])


# -- binary operations ----------------------------------------------------


def _merged_times(a: CadlagPath, b: CadlagPath) -> list[float]:
    return sorted(set(a.breakpoints) | set(b.breakpoints))


def combine(a: CadlagPath, b: CadlagPath, op: str) -> CadlagPath:
    """Pointwise ``add``, ``sub`` or ``pointwise-scale`` (product) of two paths.

    The product of two genuinely linear pieces is quadratic and not
    representable here; in that case a :class:`PathDomainError` is raised.
    A scalar multiple is the product with a :func:`constant_path`.
    """
    if a.horizon != b.horizon:
        raise PathDomainError(
            f"mismatched horizons {a.horizon} != {b.horizon}"
        )
    if op not in ("add", "sub", "pointwise-scale"):
        raise PathDomainError(f"unknown op {op!r}")
    if a.horizon == 0:
        return CadlagPath(0.0, [], [], _apply(op, a.terminal_value, b.terminal_value))
    times = _merged_times(a, b)
    segs = []
    for i, s in enumerate(times):
        e = times[i + 1] if i + 1 < len(times) else a.horizon
        va, wa = a.eval(s), a.left_limit(e)
        vb, wb = b.eval(s), b.left_limit(e)
        if op == "pointwise-scale":
            lin_a = wa != va
            lin_b = wb != vb
            if lin_a and lin_b:
                raise PathDomainError(
                    "product of two linear pieces is not piecewise affine"
                )
        segs.append(Segment.linear(_apply(op, va, vb), _apply(op, wa, wb)))
    term = _apply(op, a.terminal_value, b.terminal_value)
    return CadlagPath(a.horizon, times, segs, term)


def _apply(op: str, u: float, v: float) -> float:
    if op == "add":
        return u + v
    if op == "sub":
        return u - v
    return u * v


def compose(x: CadlagPath, y: CadlagPath) -> CadlagPath:
    """Exact composition x(y(t)) for a nondecreasing time change y.

    The result is sampled on the breakpoints of y together with the
    preimages under y of the breakpoints of x, so that within each refined
    interval y maps into a single segment of x and the composition of two
    affine pieces is again affine.
    """
    if not y.is_nondecreasing():
        raise PathDomainError("time change must be nondecreasing")
    lo, hi = _range_bounds(y)
    if lo < 0 or hi > x.horizon:
        raise PathDomainError(
            f"time-change range [{lo}, {hi}] escapes [0, {x.horizon}]"
        )
    if y.horizon == 0:
        return CadlagPath(0.0, [], [], x.eval(y.terminal_value))

    cut = set(y.breakpoints)
    x_cuts = set(x.breakpoints[1:]) | {x.horizon}
    # remember which x-breakpoint each inserted preimage targets, so the
    # y-value there can be snapped back to it (the preimage time itself is
    # rounded, which would otherwise open a spurious sub-ulp jump)
    targets: dict[float, float] = {}
    for i in range(len(y.segments)):
        a, b = y._interval(i)
        seg = y.segments[i]
        if seg.w == seg.v:
            continue
        for c in x_cuts:
            if seg.v < c < seg.w:
                t = a + (c - seg.v) * (b - a) / (seg.w - seg.v)
                if a < t < b:
                    cut.add(t)
                    targets[t] = c
    times = sorted(cut)

    def _y_at(t: float, left: bool) -> float:
        raw = y.left_limit(t) if left else y.eval(t)
        c = targets.get(t)
        if c is not None and abs(raw - c) <= EXACT_TOL * max(1.0, abs(c)):
            return c
        return raw

    segs = []
    for i, s in enumerate(times):
        e = times[i + 1] if i + 1 < len(times) else y.horizon
        v, w = _y_at(s, left=False), _y_at(e, left=True)
        if v == w:
            segs.append(Segment.const(x.eval(v)))
        else:
            # y-image [v, w) sits inside one x-segment; the value "at w from
            # the left" is the x-segment affine formula extended to w
            segs.append(Segment.linear(x.eval(v), _eval_closure(x, v, w)))
    term = x.eval(y.terminal_value)
    return CadlagPath(y.horizon, times, segs, term)


def _eval_closure(x: CadlagPath, v: float, w: float) -> float:
    """x's affine formula on the segment containing [v, w), evaluated at w.

    Equals x(w-) when w is a breakpoint of x, x(w) otherwise.
    """
    i = x._segment_index(v)
    a, b = x._interval(i)
    return x.segments[i].value_at(a, b, min(w, b))


def _range_bounds(y: CadlagPath) -> tuple[float, float]:
    vals = [y.terminal_value]
    for i, seg in enumerate(y.segments):
        vals.extend([seg.v, seg.w])
    return min(vals), max(vals)


# -- time grid ------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k/n for k = 0 .. floor(n * horizon)."""

    n: int
    horizon: float

    def __post_init__(self):
        if self.n < 1:
            raise PathDomainError("grid resolution n must be >= 1")
        if self.horizon <= 0:
            raise PathDomainError("grid horizon must be > 0")

    @property
    def num_cells(self) -> int:
        return int(np.floor(self.n * self.horizon + 1e-12))

    def points(self) -> np.ndarray:
        return np.arange(self.num_cells + 1) / self.n

    def index_at(self, t: float) -> int:
        """floor(n t), clipped to the grid."""
        if t < 0 or t > self.horizon:
            raise PathDomainError(f"t={t} outside [0, {self.horizon}]")
        return min(int(np.floor(self.n * t + 1e-12)), self.num_cells)
