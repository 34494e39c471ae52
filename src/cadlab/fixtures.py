"""Deterministic path fixtures used by the demonstration checks and tests.

The composition counterexample pairs a tent-shaped Lipschitz path with a
family of strictly increasing time changes that steepen near the end of
the window: each composition is continuous, yet the monotone-kind modulus
stays at 1 however small the window, because the tent is traversed both
ways inside a shrinking interval.
"""

from __future__ import annotations

from .paths import CadlagPath, PathDomainError, piecewise_linear

__all__ = ["tent_path", "steep_ramp", "ramp_limit", "composed_ramp"]

HORIZON = 2.0


def tent_path() -> CadlagPath:
    """0 on [0, 1], rises linearly to 1 at 1.5, falls back to 0 at 2."""
    return piecewise_linear([0.0, 1.0, 1.5, 2.0], [0.0, 0.0, 1.0, 0.0])


def steep_ramp(n: int) -> CadlagPath:
    """Strictly increasing Lipschitz time change: slope 1/(2 - 1/n) up to
    2 - 1/n, then slope n up to the horizon."""
    if n < 1:
        raise PathDomainError("n must be >= 1")
    knee = 2.0 - 1.0 / n
    return piecewise_linear([0.0, knee, HORIZON], [0.0, 1.0, 2.0])


def ramp_limit() -> CadlagPath:
    """Pointwise limit of the ramps: slope 1/2 on [0, 2) with a jump to 2
    at the horizon."""
    return CadlagPath(HORIZON, [0.0], [(0.0, 1.0)], 2.0)


def composed_ramp(n: int) -> CadlagPath:
    """The composition tent(steep_ramp_n(t)), computed exactly."""
    from .paths import compose

    return compose(tent_path(), steep_ramp(n))
