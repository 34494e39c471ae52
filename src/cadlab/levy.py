"""Samplers for subordinators and subordinated Brownian motion, plus the
closed-form characteristic functions used as verification oracles.

Subordinators are sampled by exact increment laws on a uniform grid: each
grid cell receives an independent draw from the increment distribution of
the process over that cell, so every sampled path is a nondecreasing
staircase starting at 0 (a pure drift gives an exact linear path instead).
An optional deterministic nondecreasing clock ell(t) makes the increments
inhomogeneous in time.

The positive stable sampler is normalized so that E exp(-u A(1)) equals
exp(-u^alpha); the inverse Gaussian parameters follow the mean/shape
convention (increment over elapsed clock time h is IG with mean mu*h and
shape lambda*h^2, the convolution-stable scaling of the IG process).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .paths import CadlagPath, PathDomainError, Segment, TimeGrid

__all__ = [
    "RngStream",
    "SubordinatorSpec",
    "GammaSpec",
    "InverseGaussianSpec",
    "StableSpec",
    "CompoundPoissonSpec",
    "DriftSpec",
    "CompositeSpec",
    "spec_from_dict",
    "sample_subordinator",
    "sample_subordinator_increments",
    "sample_brownian",
    "subordinate",
    "subordinate_terminal",
    "linnik_cf",
    "gamma_subordinated_cf",
    "weighted_gamma_subordinated_cf",
    "rescaling_check",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: (master_seed, stream_index) fixes it."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index,)
        )
        return np.random.default_rng(seq)

    def child(self, index: int) -> "RngStream":
        # derive a distinct, reproducible substream
        return RngStream(self.master_seed, self.stream_index * 1_000_003 + index + 1)


# -- specs -----------------------------------------------------------------


class SubordinatorSpec:
    """Base class: a parametric nondecreasing Levy process description."""

    time_change: Optional[CadlagPath] = None

    def increments(self, rng: np.random.Generator, dl: np.ndarray) -> np.ndarray:
        """Independent increments for cells of clock length ``dl``.

        ``dl`` may be any shape; the draw is elementwise independent.
        """
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Expected increment per unit clock time (may be inf)."""
        raise NotImplementedError

    def is_deterministic(self) -> bool:
        return False

    def to_dict(self) -> dict:
        raise NotImplementedError


def _check_positive(name: str, value: float):
    if not value > 0:
        raise PathDomainError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class GammaSpec(SubordinatorSpec):
    """Gamma subordinator: increment over h is Gamma(shape_rate*h, scale)."""

    shape_rate: float
    scale: float = 1.0
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        _check_positive("shape_rate", self.shape_rate)
        _check_positive("scale", self.scale)

    def increments(self, rng, dl):
        # the shape of a broadcast clock row is formed once per row, so the
        # draw is the only batch-sized array
        dl = np.asarray(dl, dtype=float)
        row = dl[tuple(slice(None, 1) if s == 0 else slice(None)
                       for s in dl.strides)]
        shape = np.broadcast_to(self.shape_rate * row, dl.shape)
        return rng.gamma(shape, self.scale)

    def mean_rate(self):
        return self.shape_rate * self.scale

    def to_dict(self):
        return {"kind": "gamma", "shape_rate": self.shape_rate, "scale": self.scale}


@dataclass(frozen=True)
class InverseGaussianSpec(SubordinatorSpec):
    """IG subordinator: increment over h is IG(mean mu*h, shape lam*h^2)."""

    mu: float
    lam: float
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        _check_positive("mu", self.mu)
        _check_positive("lam", self.lam)

    def increments(self, rng, dl):
        dl = np.asarray(dl, dtype=float)
        out = np.zeros_like(dl)
        pos = dl > 0
        out[pos] = rng.wald(self.mu * dl[pos], self.lam * dl[pos] ** 2)
        return out

    def mean_rate(self):
        return self.mu

    def to_dict(self):
        return {"kind": "inverse_gaussian", "mu": self.mu, "lam": self.lam}


@dataclass(frozen=True)
class StableSpec(SubordinatorSpec):
    """Positive alpha-stable subordinator, alpha in (0, 1) exclusive.

    Normalization: E exp(-u * A(1)) = exp(-scale * u^alpha).
    """

    alpha: float
    scale: float = 1.0
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise PathDomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        _check_positive("scale", self.scale)

    def increments(self, rng, dl):
        dl = np.asarray(dl, dtype=float)
        s = _positive_stable(rng, self.alpha, dl.shape)
        # self-similarity: A(h) = (scale * h)^(1/alpha) * S
        return np.where(dl > 0, (self.scale * dl) ** (1.0 / self.alpha) * s, 0.0)

    def mean_rate(self):
        return math.inf

    def to_dict(self):
        return {"kind": "stable", "alpha": self.alpha, "scale": self.scale}


def _positive_stable(rng: np.random.Generator, alpha: float, shape) -> np.ndarray:
    """Kanter sampler for the one-sided stable law with E e^{-uS} = e^{-u^alpha}."""
    u = rng.uniform(0.0, 1.0, size=shape)
    e = rng.exponential(1.0, size=shape)
    pu = np.pi * u
    a = (
        np.sin(alpha * pu) ** (alpha / (1.0 - alpha))
        * np.sin((1.0 - alpha) * pu)
        / np.sin(pu) ** (1.0 / (1.0 - alpha))
    )
    # S = (a(U)/E)^((1-alpha)/alpha) with a(u) as above
    return (a / e) ** ((1.0 - alpha) / alpha)


@dataclass(frozen=True)
class CompoundPoissonSpec(SubordinatorSpec):
    """Poisson(rate*h) many exponential(jump_mean) jumps per cell."""

    rate: float
    jump_mean: float
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_mean", self.jump_mean)

    def increments(self, rng, dl):
        counts = rng.poisson(self.rate * np.asarray(dl, dtype=float))
        # sum of N iid exponential(jump_mean) jumps is Gamma(N, jump_mean)
        return rng.gamma(counts.astype(float), self.jump_mean)

    def mean_rate(self):
        return self.rate * self.jump_mean

    def to_dict(self):
        return {"kind": "compound_poisson", "rate": self.rate,
                "jump_mean": self.jump_mean}


@dataclass(frozen=True)
class DriftSpec(SubordinatorSpec):
    """Deterministic drift component with slope >= 0."""

    slope: float
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        if self.slope < 0:
            raise PathDomainError(f"drift slope must be >= 0, got {self.slope}")

    def increments(self, rng, dl):
        return self.slope * np.asarray(dl, dtype=float)

    def mean_rate(self):
        return self.slope

    def is_deterministic(self):
        return True

    def to_dict(self):
        return {"kind": "drift", "slope": self.slope}


@dataclass(frozen=True)
class CompositeSpec(SubordinatorSpec):
    """Independent sum of component subordinators."""

    parts: tuple
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        if not self.parts:
            raise PathDomainError("composite spec needs at least one part")

    def increments(self, rng, dl):
        total = np.zeros_like(np.asarray(dl, dtype=float))
        for p in self.parts:
            total = total + p.increments(rng, dl)
        return total

    def mean_rate(self):
        return sum(p.mean_rate() for p in self.parts)

    def is_deterministic(self):
        return all(p.is_deterministic() for p in self.parts)

    def to_dict(self):
        return {"kind": "composite", "parts": [p.to_dict() for p in self.parts]}


_SPEC_KINDS = {
    "gamma": GammaSpec,
    "inverse_gaussian": InverseGaussianSpec,
    "stable": StableSpec,
    "compound_poisson": CompoundPoissonSpec,
    "drift": DriftSpec,
    "composite": CompositeSpec,
}


def _check_keys(doc: dict, allowed, what: str):
    """Raise on a key of ``doc`` outside ``allowed`` and "kind"."""
    unknown = sorted(set(doc) - set(allowed) - {"kind"})
    if unknown:
        raise PathDomainError(f"unknown key {unknown[0]!r} for {what}")


def spec_from_dict(doc: dict) -> SubordinatorSpec:
    """Spec from its ``to_dict`` form: "kind" plus the spec's fields,
    ``time_change`` excepted."""
    kind = doc.get("kind")
    if kind not in _SPEC_KINDS:
        raise PathDomainError(f"unknown subordinator kind {kind!r}")
    cls = _SPEC_KINDS[kind]
    params = {k: v for k, v in doc.items() if k != "kind"}
    _check_keys(params, {f.name for f in fields(cls)} - {"time_change"},
                f"a {kind} spec")
    if kind == "composite":
        params["parts"] = tuple(spec_from_dict(p)
                                for p in params.get("parts", ()))
    return cls(**params)


# -- sampling --------------------------------------------------------------


def _clock_increments(spec: SubordinatorSpec, pts: np.ndarray) -> np.ndarray:
    """Clock length of each cell between consecutive time points ``pts``."""
    if spec.time_change is None:
        return np.diff(pts)
    ell = spec.time_change
    vals = ell.eval_many(np.minimum(pts, ell.horizon))
    d = np.diff(vals)
    if np.any(d < 0):
        raise PathDomainError("time change must be nondecreasing")
    return d


def sample_subordinator_increments(
    spec: SubordinatorSpec, grid: TimeGrid, rng: RngStream, samples: int = 1
) -> np.ndarray:
    """(samples, cells) array of independent grid-cell increments."""
    dl = _clock_increments(spec, grid.points())
    gen = rng.generator()
    return spec.increments(gen, np.broadcast_to(dl, (samples, dl.size)))


def _staircase_from_increments(grid: TimeGrid, inc: np.ndarray) -> CadlagPath:
    values = np.concatenate([[0.0], np.cumsum(inc)])
    pts = grid.points()
    segs = [Segment.const(v) for v in values[:-1]]
    bps = list(pts[:-1])
    terminal = float(values[-1])
    if pts[-1] < grid.horizon:
        bps.append(float(pts[-1]))
        segs.append(Segment.const(terminal))
    return CadlagPath(grid.horizon, bps, segs, terminal)


def sample_subordinator(
    spec: SubordinatorSpec, grid: TimeGrid, rng: RngStream
) -> CadlagPath:
    """One nondecreasing path: staircase for random specs, exact linear
    segments for a pure drift."""
    if isinstance(spec, DriftSpec) and spec.time_change is None:
        return CadlagPath(
            grid.horizon,
            [0.0],
            [Segment.linear(0.0, spec.slope * grid.horizon)],
            spec.slope * grid.horizon,
        )
    inc = sample_subordinator_increments(spec, grid, rng, samples=1)[0]
    return _staircase_from_increments(grid, inc)


def sample_brownian(grid: TimeGrid, rng: RngStream) -> CadlagPath:
    """Piecewise-linear Brownian path with exact N(0, 1/n) grid increments."""
    gen = rng.generator()
    pts = grid.points()
    inc = gen.normal(0.0, np.sqrt(np.diff(pts)))
    values = np.concatenate([[0.0], np.cumsum(inc)])
    segs = [Segment.linear(values[i], values[i + 1]) for i in range(len(inc))]
    bps = list(pts[:-1])
    terminal = float(values[-1])
    if pts[-1] < grid.horizon:
        bps.append(float(pts[-1]))
        segs.append(Segment.const(terminal))
    return CadlagPath(grid.horizon, bps, segs, terminal)


def subordinate(
    spec: SubordinatorSpec, grid: TimeGrid, rng: RngStream
) -> tuple[CadlagPath, CadlagPath]:
    """Sample the clock A and the time-changed Brownian staircase M.

    Given the clock increments dA per cell, M gains conditionally
    independent N(0, dA) increments, which is the law of a Brownian motion
    read off at the clock on the grid (random rescaling).
    """
    gen = rng.generator()
    dl = _clock_increments(spec, grid.points())
    da = spec.increments(gen, dl)
    dm = gen.normal(0.0, 1.0, size=da.shape) * np.sqrt(da)
    A = _staircase_from_increments(grid, da)
    M = _staircase_from_increments(grid, dm)
    return A, M


def subordinate_terminal(
    spec: SubordinatorSpec,
    grid: TimeGrid,
    rng: RngStream,
    samples: int,
    t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws of (A(t), M(t)) for the subordinated pair."""
    t = grid.horizon if t is None else t
    k = grid.index_at(t)
    gen = rng.generator()
    dl = _clock_increments(spec, grid.points())[:k]
    da = spec.increments(gen, np.broadcast_to(dl, (samples, k)))
    a_t = da.sum(axis=1)
    m_t = gen.normal(0.0, 1.0, size=samples) * np.sqrt(a_t)
    return a_t, m_t


# -- characteristic function oracles --------------------------------------


def linnik_cf(t: float, lam: float) -> complex:
    """E exp(i lam M(t)) for the gamma-subordinated Brownian limit."""
    return gamma_subordinated_cf(t, lam)


def gamma_subordinated_cf(
    t: float, lam: float, shape_rate: float = 1.0, scale: float = 1.0
) -> complex:
    if t <= 0:
        raise PathDomainError("t must be > 0")
    return complex((1.0 + scale * lam * lam / 2.0) ** (-shape_rate * t))


def weighted_gamma_subordinated_cf(
    t: float,
    lam: float,
    Q,
    shape_rate: float = 1.0,
    scale: float = 1.0,
) -> complex:
    """CF of W composed with the weighted gamma clock int_0^t Q^2 dA.

    ``Q`` is a callable deterministic weight profile on [0, t].  The log-CF
    integral is evaluated by adaptive quadrature to absolute tolerance 1e-10.
    """
    if t <= 0:
        raise PathDomainError("t must be > 0")

    def integrand(u):
        q = Q(u)
        return math.log1p(scale * lam * lam * q * q / 2.0)

    val = _adaptive_gauss_legendre(integrand, 0.0, t, 1e-10)
    return complex(math.exp(-shape_rate * val))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
#: bisections after which a panel is accepted as it is.  Its width is then
#: 2^-50 of the interval, so a jump of f inside it, which no rule resolves,
#: costs an error of about the jump times that width.
_GL_MAX_DEPTH = 50


def _adaptive_gauss_legendre(f, a: float, b: float, tol: float) -> float:
    """int_a^b f(u) du for a scalar callable ``f``, to absolute tolerance
    ``tol``, by adaptive 20-point Gauss-Legendre.

    A panel is accepted when its two halves agree with the whole within
    the panel's share of ``tol`` (its width over b - a); otherwise each
    half is refined.  A non-finite value is accepted as it is.
    """

    def rule(lo, hi):
        half = (hi - lo) / 2.0
        fx = [f(u) for u in lo + half * (_GL_NODES + 1.0)]
        return half * float(np.dot(_GL_WEIGHTS, fx))

    total = 0.0
    panels = [(a, b, rule(a, b), 0)]
    while panels:
        lo, hi, whole, depth = panels.pop()
        mid = (lo + hi) / 2.0
        left, right = rule(lo, mid), rule(mid, hi)
        share = tol * (hi - lo) / (b - a)
        if depth == _GL_MAX_DEPTH or not abs(left + right - whole) > share:
            total += left
            total += right
        else:
            panels += [(mid, hi, right, depth + 1), (lo, mid, left, depth + 1)]
    return total


# -- random rescaling check ------------------------------------------------


def rescaling_check(
    spec: SubordinatorSpec,
    s: float,
    t: float,
    samples: int,
    rng: RngStream,
    grid_n: int = 1000,
) -> float:
    """Two-sample KS statistic for the random rescaling equality in law.

    Side one runs the path pipeline: the clock and the subordinated motion
    are sampled on a grid and the increment W(A(t)) - W(A(s)) is read off.
    Side two draws a plain Brownian increment over [s, t] and rescales it
    by sqrt((A(t) - A(s)) / (t - s)) with an independent clock.
    """
    from .convtest import ks_two_sample

    if not 0 <= s < t:
        raise PathDomainError("need 0 <= s < t")
    grid = TimeGrid(grid_n, t)
    k_s = grid.index_at(s)
    k_t = grid.index_at(t)

    dl = _clock_increments(spec, grid.points())

    def window_gaps(gen, count):
        # clock increase over [s, t], drawn in memory-bounded chunks
        rows = max(1, 20_000_000 // max(dl.size, 1))
        parts = []
        done = 0
        while done < count:
            take = min(rows, count - done)
            da = spec.increments(gen, np.broadcast_to(dl, (take, dl.size)))
            parts.append(da[:, k_s:k_t].sum(axis=1))
            done += take
        return np.concatenate(parts)

    gen1 = rng.child(1).generator()
    side1 = gen1.normal(0.0, 1.0, size=samples) * np.sqrt(window_gaps(gen1, samples))

    gen2 = rng.child(2).generator()
    a_gap = window_gaps(gen2, samples)
    w_inc = gen2.normal(0.0, math.sqrt(t - s), size=samples)
    side2 = w_inc * np.sqrt(a_gap / (t - s))

    return ks_two_sample(side1, side2)
