"""Exact algebra of real-valued cadlag paths on a finite horizon.

A path is stored as a partition of [0, horizon) into half-open intervals,
each carrying an affine piece given by a (v, w) pair, plus the value at the
horizon itself.  Every operation (evaluation, left limits, jumps, addition,
composition with a nondecreasing path) stays inside this family, so chains
of operations are short rational-arithmetic computations rather than
numerical approximations.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
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

#: absolute tolerance for exact-algebra identities (short chains of
#: rational arithmetic in double precision)
EXACT_TOL = 1e-12


class PathDomainError(ValueError):
    """Raised when a time or argument falls outside a path's domain."""


def _piece_value(a: float, b: float, v: float, w: float, t: float) -> float:
    """Value at t in [a, b] of the piece (a, b, v, w); at b the left limit w."""
    if v == w:
        return v
    if t >= b:
        return w
    return v + (w - v) * (t - a) / (b - a)


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class CadlagPath:
    """Right-continuous path with left limits on [0, horizon].

    Piece ``i`` covers ``[breakpoints[i], breakpoints[i+1])``, the last one
    ending at the horizon, and ``segments[i]`` is its ``(v, w)`` pair: ``v``
    the value at its start and ``w`` the left limit at its end, affine in
    between, so the piece is constant exactly when ``v == w``.  Both are
    read-only float arrays, of shapes ``(k,)`` and ``(k, 2)``;
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
        segments: Sequence[tuple[float, float]],
        terminal_value: float,
    ):
        horizon = float(horizon)
        if not math.isfinite(horizon) or horizon < 0:
            raise PathDomainError(f"horizon must be finite and >= 0, got {horizon}")
        bps = np.array(breakpoints, dtype=float)
        segs = np.array(segments, dtype=float)
        if not segs.size:  # an empty sequence of pairs
            segs = segs.reshape(0, 2)
        if bps.ndim != 1 or segs.shape != (len(bps), 2):
            raise PathDomainError(
                f"breakpoints of shape {bps.shape} need segments of shape "
                f"(k, 2) for k breakpoints, got {segs.shape}"
            )
        if horizon == 0:
            if bps.tolist() not in ([], [0.0]):
                raise PathDomainError("zero-horizon path admits no interior structure")
            bps, segs = bps[:0], segs[:0]
        else:
            bps, segs = bps.tolist(), segs.tolist()
            if not bps or bps[0] != 0.0:
                raise PathDomainError("first breakpoint must be 0")
            if not all(a < b for a, b in zip(bps, bps[1:])):
                raise PathDomainError("breakpoints must be strictly increasing")
            if bps[-1] > horizon:
                raise PathDomainError("breakpoint beyond horizon")
            if bps[-1] == horizon:
                # zero-length final interval carries no information
                bps, segs = bps[:-1], segs[:-1]
                if not bps:
                    raise PathDomainError("no segment covers (0, horizon)")
            bps, segs = _merge_redundant(bps, segs, horizon)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "breakpoints", _read_only(bps))
        object.__setattr__(self, "segments", _read_only(segs))
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
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.segments, other.segments)
            and self.terminal_value == other.terminal_value
        )

    def pieces(self) -> Iterator[tuple[float, float, float, float]]:
        """(a, b, v, w) for each piece in time order, as Python floats."""
        ends = self.breakpoints[1:].tolist() + [self.horizon]
        return zip(self.breakpoints.tolist(), ends, *self.segments.T.tolist())

    def _value(self, t: float, find) -> float:
        """The value at t of the last piece that starts at or before t
        (``find`` is ``bisect_right``) or strictly before it (``bisect_left``)."""
        bps = self.breakpoints
        i = find(bps, t) - 1
        b = bps[i + 1] if i + 1 < len(bps) else self.horizon
        return _piece_value(float(bps[i]), float(b), *self.segments[i].tolist(), t)

    # -- evaluation -------------------------------------------------------

    def eval(self, t: float) -> float:
        """x(t), right-continuous at every breakpoint."""
        t = float(t)
        if t < 0 or t > self.horizon:
            raise PathDomainError(f"t={t} outside [0, {self.horizon}]")
        if t == self.horizon:
            return self.terminal_value
        return self._value(t, bisect_right)

    def eval_many(self, ts) -> np.ndarray:
        """Vectorized :meth:`eval` over an array of times."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0 or ts.max() > self.horizon):
            raise PathDomainError("times outside [0, horizon]")
        if self.horizon == 0:
            return np.full(ts.shape, self.terminal_value)
        bps = self.breakpoints
        idx = np.clip(np.searchsorted(bps, ts, side="right") - 1, 0, None)
        starts = bps[idx]
        ends = np.append(bps[1:], self.horizon)[idx]
        v, w = self.segments[:, 0][idx], self.segments[:, 1][idx]
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
        return self._value(t, bisect_left)

    def jump(self, t: float) -> float:
        """x(t) - x(t-)."""
        return self.eval(t) - self.left_limit(t)

    def jump_times(self) -> list[float]:
        """Times in (0, horizon] carrying a nonzero jump; none on a zero
        horizon, where (0, 0] is empty."""
        v, w = self.segments.T
        out = self.breakpoints[1:][v[1:] != w[:-1]].tolist()
        if len(w) and self.terminal_value != w[-1]:
            out.append(self.horizon)
        return out

    # -- shape predicates -------------------------------------------------

    def is_nondecreasing(self) -> bool:
        """True iff all slopes and all jumps are >= 0."""
        v, w = self.segments.T
        falls = (w < v).any() or (v[1:] < w[:-1]).any()  # in a piece or a jump
        return not (falls or (len(w) and self.terminal_value < w[-1]))


def _merge_redundant(bps: list[float], segs: list[list[float]], horizon: float):
    """Drop breakpoints at which neither value nor slope changes."""
    out_b = [bps[0]]
    out_s = [segs[0]]
    for i in range(1, len(bps)):
        (v0, w0), (v, w) = out_s[-1], segs[i]
        a, b = out_b[-1], bps[i]
        c = bps[i + 1] if i + 1 < len(bps) else horizon
        if w0 == v and (w0 - v0) / (b - a) == (w - v) / (c - b):
            out_s[-1] = [v0, w]
        else:
            out_b.append(b)
            out_s.append(segs[i])
    return out_b, out_s


# -- constructors ---------------------------------------------------------


def step_path(times: Sequence[float], values: Sequence[float], horizon: float) -> CadlagPath:
    """Staircase path: value ``values[i]`` on ``[times[i], times[i+1])``.

    ``times`` must start at 0; the terminal value is the last step value.
    """
    values = np.asarray(values, dtype=float)
    if len(times) != len(values):
        raise PathDomainError("times and values must have equal length")
    return CadlagPath(horizon, times, np.column_stack([values, values]), values[-1])


def piecewise_linear(times: Sequence[float], values: Sequence[float]) -> CadlagPath:
    """Continuous piecewise-linear interpolation through (times, values)."""
    if len(times) != len(values) or len(times) < 2:
        raise PathDomainError("need at least two knots")
    segs = np.column_stack([values[:-1], values[1:]])
    return CadlagPath(times[-1], times[:-1], segs, values[-1])


def constant_path(value: float, horizon: float) -> CadlagPath:
    return CadlagPath(horizon, [0.0], [(value, value)], value)


def identity_path(horizon: float) -> CadlagPath:
    return piecewise_linear([0.0, horizon], [0.0, horizon])


# -- binary operations ----------------------------------------------------


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
    times = sorted(set(a.breakpoints.tolist()) | set(b.breakpoints.tolist()))
    segs = []
    for i, s in enumerate(times):
        e = times[i + 1] if i + 1 < len(times) else a.horizon
        va, wa = a.eval(s), a.left_limit(e)
        vb, wb = b.eval(s), b.left_limit(e)
        if op == "pointwise-scale" and wa != va and wb != vb:
            raise PathDomainError(
                "product of two linear pieces is not piecewise affine"
            )
        segs.append((_apply(op, va, vb), _apply(op, wa, wb)))
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
    values = y.segments.ravel().tolist() + [y.terminal_value]
    lo, hi = min(values), max(values)
    if lo < 0 or hi > x.horizon:
        raise PathDomainError(
            f"time-change range [{lo}, {hi}] escapes [0, {x.horizon}]"
        )

    cut = set(y.breakpoints.tolist())
    x_cuts = set(x.breakpoints[1:].tolist()) | {x.horizon}
    # remember which x-breakpoint each inserted preimage targets, so the
    # y-value there can be snapped back to it (the preimage time itself is
    # rounded, which would otherwise open a spurious sub-ulp jump)
    targets: dict[float, float] = {}
    for a, b, v, w in y.pieces():
        for c in x_cuts:
            if v < c < w:
                t = a + (c - v) * (b - a) / (w - v)
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
        # the y-image [v, w) sits inside one x-piece, whose affine formula
        # at w is x(w-)
        xv = x.eval(v)
        segs.append((xv, xv if v == w else x.left_limit(w)))
    term = x.eval(y.terminal_value)
    return CadlagPath(y.horizon, times, segs, term)


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
