"""First-passage inverse of nondecreasing paths.

For a nondecreasing path A the inverse is tau(s) = inf{t >= 0 : A(t) > s}.
The input families here (staircases and piecewise-linear nondecreasing
paths) admit a closed-form inverse segment by segment, so tau is produced
as an exact :class:`~cadlab.paths.CadlagPath` rather than by root finding:
jumps of A become flat segments of tau, flat stretches of A become jumps
of tau, and strictly increasing affine pieces invert to affine pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import CadlagPath, PathDomainError, Segment

__all__ = [
    "InversePair",
    "InsufficientHorizonError",
    "inverse",
]


class InsufficientHorizonError(PathDomainError):
    """A(horizon) does not exceed the requested inverse level."""


@dataclass(frozen=True)
class InversePair:
    A: CadlagPath
    tau: CadlagPath
    s_max: float


def _level_pieces(A: CadlagPath):
    """Yield (u, v, piece) covering the level axis in increasing order.

    ``piece`` is either ("flat", t) for a flat stretch of tau on levels
    [u, v) at time t (a jump of A), or ("affine", a, b) for levels [u, v)
    reached along the strictly increasing affine stretch of A from time a
    to time b.
    """
    if A.eval(0.0) > 0:
        yield 0.0, A.eval(0.0), ("flat", 0.0)
    level = A.eval(0.0)
    for i in range(len(A.segments)):
        a = A.breakpoints[i]
        b = A.breakpoints[i + 1] if i + 1 < len(A.breakpoints) else A.horizon
        seg = A.segments[i]
        if seg.v > level:  # jump of A entering this segment
            yield level, seg.v, ("flat", a)
            level = seg.v
        if seg.w > seg.v:
            yield seg.v, seg.w, ("affine", a, b)
            level = seg.w
    if A.terminal_value > level:  # terminal jump at the horizon
        yield level, A.terminal_value, ("flat", A.horizon)


def inverse(A: CadlagPath, s_max: float) -> InversePair:
    """Exact first-passage inverse of A on the level interval [0, s_max].

    Requires A nondecreasing with A(0) >= 0 and A(horizon) > s_max, so
    that passage above every level up to s_max happens inside the horizon.
    """
    if not A.is_nondecreasing():
        raise PathDomainError("A must be nondecreasing")
    if A.eval(0.0) < 0:
        raise PathDomainError("A must start at a nonnegative value")
    s_max = float(s_max)
    if s_max < 0:
        raise PathDomainError("s_max must be >= 0")
    if A.terminal_value <= s_max:
        raise InsufficientHorizonError(
            f"A(horizon)={A.terminal_value} must exceed s_max={s_max}; "
            "extend the horizon of A"
        )

    bps: list[float] = []
    segs: list[Segment] = []
    terminal: float | None = None
    for u, v, piece in _level_pieces(A):
        if u > s_max:
            break
        hi = min(v, s_max)
        if piece[0] == "flat":
            t = piece[1]
            if u < hi:
                bps.append(u)
                segs.append(Segment.const(t))
            if v > s_max:
                terminal = t
        else:
            a, b = piece[1], piece[2]
            width = v - u
            t_hi = a + (hi - u) * (b - a) / width
            if u < hi:
                bps.append(u)
                segs.append(Segment.linear(a, t_hi))
            if v > s_max:
                terminal = t_hi
    if terminal is None:
        # s_max coincides with a piece boundary: tau(s_max) is the start
        # time of the first piece above level s_max
        for u, v, piece in _level_pieces(A):
            if v > s_max:
                terminal = piece[1]
                break
    if terminal is None:  # pragma: no cover - excluded by the horizon check
        raise InsufficientHorizonError("no passage above s_max inside the horizon")

    if not bps:
        tau = CadlagPath(s_max, [], [], terminal) if s_max == 0 else CadlagPath(
            s_max, [0.0], [Segment.const(terminal)], terminal
        )
    else:
        tau = CadlagPath(s_max, bps, segs, terminal)
    return InversePair(A=A, tau=tau, s_max=s_max)
