"""Triple functionals, path moduli and the composition-continuity check.

The three triple functionals measure, for an ordered triple of values
(x1, x2, x3), how far the middle value strays: the uniform kind looks at
|x3 - x1|, the jump kind at the smaller of the two gaps around x2, and the
monotone kind at the distance from x2 to the segment spanned by x1 and x3.
The associated modulus takes the supremum of the functional over time
triples t1 < t2 < t3 within a window of width delta.

Suprema are computed by candidate-point enumeration: breakpoint values,
left limits and evenly spaced interior points of every affine piece.  A
constant piece needs no interior points, since each of them has the value
that the piece's start and its left limit at the end already carry, at
times that are no worse for the window.  So for pure step paths the
suprema are exact; for piecewise-linear paths they are a certified lower
bound, from ``_REFINE - 1`` interior points of each affine piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .paths import CadlagPath, PathDomainError, _piece_value

__all__ = [
    "TripleKind",
    "triple",
    "modulus",
    "oscillation",
    "composition_condition",
    "CompositionVerdict",
    "ModulusReport",
    "empirical_tightness",
]


class TripleKind(str, Enum):
    C = "C"
    J = "J"
    M = "M"


def triple(kind: TripleKind, x1: float, x2: float, x3: float) -> float:
    """Evaluate one triple functional at scalar values."""
    kind = TripleKind(kind)
    if kind is TripleKind.C:
        return abs(x3 - x1)
    if kind is TripleKind.J:
        return min(abs(x2 - x1), abs(x2 - x3))
    lo, hi = min(x1, x3), max(x1, x3)
    return max(0.0, lo - x2, x2 - hi)


# -- candidate enumeration -------------------------------------------------


#: an affine piece gets interior candidates at fractions j / _REFINE of it
_REFINE = 8


def _candidates(x: CadlagPath, T: float) -> list[tuple[float, int, float]]:
    """(time, tag, value) candidates on [0, T], sorted.

    tag 0 marks a left-limit candidate (value attained just before its
    nominal time), tag 1 an attained value.  Sorting by (time, tag) puts
    each left limit immediately before the value at the same instant.
    """
    pts: dict[tuple[float, int], float] = {}
    for a, b, v, w in x.pieces():
        if a >= T:  # a piece starting at T adds only x(T), put below
            break
        b_eff = min(b, T)
        pts[(a, 1)] = v
        for j in range(1, _REFINE if v != w else 0):  # affine pieces only
            t = a + (b_eff - a) * j / _REFINE
            if a < t < b_eff:
                pts[(t, 1)] = _piece_value(a, b, v, w, t)
        # left limit entering the piece end (or entering T)
        pts[(b_eff, 0)] = _piece_value(a, b, v, w, b_eff)
    pts[(T, 1)] = x.eval(T)
    return sorted((t, tag, v) for (t, tag), v in pts.items())


def _window_ok(t1: float, t3: float, tag3: int, delta: float) -> bool:
    # the strict constraint t3 - t1 < delta; a left-limit candidate at t3 is
    # attained at times arbitrarily close below t3, relaxing it to <=
    if tag3 == 0:
        return t3 - t1 <= delta
    return t3 - t1 < delta


def modulus(
    x: CadlagPath,
    kind: TripleKind,
    delta: float,
    T: float,
) -> float:
    """sup of triple(kind, x(t1), x(t2), x(t3)) over t1 < t2 < t3 <= T
    with t3 - t1 < delta (strict)."""
    if delta <= 0:
        raise PathDomainError("delta must be > 0")
    if T <= 0 or T > x.horizon:
        raise PathDomainError(f"T={T} outside (0, {x.horizon}]")
    kind = TripleKind(kind)
    if kind is TripleKind.C:
        # the uniform kind is evaluated in its dominating pair form
        return oscillation(x, delta, T)
    cand = _candidates(x, T)
    n = len(cand)
    best = 0.0
    for i in range(n):
        t1, _, v1 = cand[i]
        for k in range(i + 2, n):
            t3, tag3, v3 = cand[k]
            if not _window_ok(t1, t3, tag3, delta):
                break
            for j in range(i + 1, k):
                val = triple(kind, v1, cand[j][2], v3)
                if val > best:
                    best = val
    return best


def oscillation(x: CadlagPath, delta: float, T: float) -> float:
    """Uniform modulus: sup |x(t) - x(s)| over s < t <= T with t - s < delta.

    This pair form dominates both printed triple variants of the uniform
    functional and is the one used for C-tightness reports.
    """
    if delta <= 0:
        raise PathDomainError("delta must be > 0")
    if T <= 0 or T > x.horizon:
        raise PathDomainError(f"T={T} outside (0, {x.horizon}]")
    cand = _candidates(x, T)
    n = len(cand)
    best = 0.0
    for i in range(n):
        t1, _, v1 = cand[i]
        for k in range(i + 1, n):
            t3, tag3, v3 = cand[k]
            if not _window_ok(t1, t3, tag3, delta):
                break
            best = max(best, abs(v3 - v1))
    # pairs inside one affine piece admit a closed-form supremum
    for a, b, v, w in x.pieces():
        if a >= T:
            break
        span = min(b, T) - a
        rate = abs((w - v) / (b - a))
        if rate > 0 and span > 0:
            best = max(best, rate * min(delta, span))
    return best


# -- composition condition -------------------------------------------------


@dataclass(frozen=True)
class CompositionVerdict:
    holds: bool
    fails_at: float | None = None

    def __bool__(self):
        return self.holds


def _monotone_on(x: CadlagPath, lo: float, hi: float) -> bool:
    """Is x monotone on [lo, hi]?  Exact, via slopes and jump signs."""
    pos = neg = False

    def note(d: float):
        nonlocal pos, neg
        if d > 0:
            pos = True
        elif d < 0:
            neg = True

    for a, b, v, w in x.pieces():
        s, e = max(a, lo), min(b, hi)
        if s < e:
            note(_piece_value(a, b, v, w, e) - _piece_value(a, b, v, w, s))
    for t in x.jump_times():
        if lo < t <= hi:
            note(x.jump(t))
    return not (pos and neg)


def composition_condition(x: CadlagPath, y: CadlagPath) -> CompositionVerdict:
    """Check that x is monotone on [y(t-), y(t)] at every discontinuity of y.

    Returns the first violating discontinuity time if the condition fails.
    """
    if not y.is_nondecreasing():
        raise PathDomainError("y must be nondecreasing")
    for t in y.jump_times():
        lo, hi = y.left_limit(t), y.eval(t)
        if not _monotone_on(x, lo, hi):
            return CompositionVerdict(False, fails_at=t)
    return CompositionVerdict(True)


# -- empirical tightness ---------------------------------------------------


@dataclass
class ModulusEntry:
    n: int
    delta: float
    T: float
    epsilon: float
    exceed_fraction: float
    samples: int


@dataclass
class ModulusReport:
    """Exceedance table: empirical proxy for the lim-limsup tightness bound."""

    kind: TripleKind
    entries: list[ModulusEntry] = field(default_factory=list)


def empirical_tightness(
    sampler: Callable[[int, int], CadlagPath],
    kind: TripleKind,
    n_list: Sequence[int],
    delta_list: Sequence[float],
    T: float,
    epsilon: float,
    samples: int,
) -> ModulusReport:
    """Fraction of sampled paths whose modulus exceeds epsilon.

    ``sampler(n, replicate)`` must return a path deterministically for a
    given replicate index, which makes the whole table reproducible and
    independent of any parallel scheduling.
    """
    if samples < 1:
        raise PathDomainError("samples must be >= 1")
    kind = TripleKind(kind)
    report = ModulusReport(kind=kind)
    for n in n_list:
        mods = []
        for r in range(samples):
            path = sampler(n, r)
            row = []
            for delta in delta_list:
                row.append(modulus(path, kind, delta, T))
            mods.append(row)
        arr = np.asarray(mods)
        for j, delta in enumerate(delta_list):
            frac = float(np.mean(arr[:, j] > epsilon))
            report.entries.append(
                ModulusEntry(n=n, delta=float(delta), T=float(T),
                             epsilon=float(epsilon), exceed_fraction=frac,
                             samples=samples)
            )
    return report
