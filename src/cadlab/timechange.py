"""First-passage inverse of nondecreasing paths.

For a nondecreasing path A the inverse is tau(s) = inf{t >= 0 : A(t) > s}.
The input families here (staircases and piecewise-linear nondecreasing
paths) admit a closed-form inverse segment by segment, so tau is produced
as an exact :class:`~cadlab.paths.CadlagPath` rather than by root finding.
The level axis is cut into pieces [u, v), each passed along one affine
stretch of time from t_u to t_v: a strictly increasing affine piece of A
inverts to the affine piece from its start time to its end time, and a jump
of A at time t to the flat piece t_u = t_v = t.  Flat stretches of A lie
between pieces and become jumps of tau.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import CadlagPath, PathDomainError

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
    """Yield (u, v, t_u, t_v) covering the level axis in increasing order:
    levels [u, v) are passed along the affine stretch of time from t_u to
    t_v, a flat piece t_u = t_v at a jump of A."""
    if A.eval(0.0) > 0:
        yield 0.0, A.eval(0.0), 0.0, 0.0
    level = A.eval(0.0)
    for a, b, v, w in A.pieces():
        if v > level:  # jump of A entering this piece
            yield level, v, a, a
            level = v
        if w > v:
            yield v, w, a, b
            level = w
    if A.terminal_value > level:  # terminal jump at the horizon
        yield level, A.terminal_value, A.horizon, A.horizon


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
    segs: list[tuple[float, float]] = []
    for u, v, t_u, t_v in _level_pieces(A):
        hi = min(v, s_max)
        t_hi = t_u + (hi - u) * (t_v - t_u) / (v - u)
        if u < hi:
            bps.append(u)
            segs.append((t_u, t_hi))
        if v > s_max:  # bps is empty only if s_max == 0: pieces start at 0
            return InversePair(A, CadlagPath(s_max, bps, segs, t_hi), s_max)
    # the pieces cover [0, A(horizon)), past s_max, unless A takes NaN values
    raise InsufficientHorizonError("no passage above s_max inside the horizon")
