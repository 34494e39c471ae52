"""Samplers for subordinators, the random rescaling check of subordinated
Brownian motion, and the closed-form characteristic functions used as
verification oracles.

Subordinators are sampled by exact increment laws on a uniform grid: each
grid cell receives an independent draw from the increment distribution of
the process over that cell, so every sampled path is a nondecreasing
staircase starting at 0 (a pure drift gives an exact linear path instead).
An optional deterministic nondecreasing clock ell(t) makes the increments
inhomogeneous in time.

Every spec draws a batch of replicates of one clock row as a stream of row
blocks (:meth:`SubordinatorSpec.blocks`), consuming its generator in the
order of a whole-batch draw.  Only the variates that a later draw must
follow are held for the whole batch: the stable sampler's uniforms, the
compound Poisson counts and every part of a composite but the last.  The
last-drawn variate, and every array formed from it, exists one block at a
time.  The batch and block sizes that the array layer shares live here.

The positive stable sampler is normalized so that E exp(-u A(1)) equals
exp(-u^alpha); the inverse Gaussian parameters follow the mean/shape
convention (increment over elapsed clock time h is IG with mean mu*h and
shape lambda*h^2, the convolution-stable scaling of the IG process).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterator, Optional

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


_BATCH_CELLS = 20_000_000  # cells per batch of replicates
_BLOCK_CELLS = 2**17  # cells per row block that a batch is read in


def _batches(samples: int, cells: int) -> Iterator[tuple[int, slice]]:
    """(b, rows) for the batches of _BATCH_CELLS // cells rows that cover
    ``samples`` rows.  The array samplers draw batch b from
    ``rng.child(b)``; a side of rescaling_check draws its batches in turn
    from its one generator."""
    size = max(1, _BATCH_CELLS // max(cells, 1))
    for b, r0 in enumerate(range(0, samples, size)):
        yield b, slice(r0, min(r0 + size, samples))


def _row_blocks(samples: int, cells: int) -> Iterator[slice]:
    """Row slices of about _BLOCK_CELLS cells that cover ``samples`` rows;
    a single empty slice when there are none."""
    rows = max(1, _BLOCK_CELLS // max(cells, 1))
    for r0 in range(0, max(samples, 1), rows):
        yield slice(r0, min(r0 + rows, samples))


# -- specs -----------------------------------------------------------------


class SubordinatorSpec:
    """Base class: a parametric nondecreasing Levy process description."""

    time_change: Optional[CadlagPath] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each kind holds ``increments`` in its own namespace, where
        # perfbench/tracing.py wraps it kind by kind
        cls.increments = SubordinatorSpec.increments

    def blocks(self, gen: np.random.Generator, dl: np.ndarray,
               rows: int) -> Iterator[np.ndarray]:
        """Increments of ``rows`` replicates of the cells of clock length
        ``dl`` (one row), yielded in the row blocks of
        ``_row_blocks(rows, dl.size)``.

        ``gen`` is consumed in the order of a whole-batch draw: a variate
        that a later draw must follow is drawn for all ``rows`` first, and
        the last-drawn variate block by block.  Each block is a fresh array
        or a read-only broadcast of one row.
        """
        raise NotImplementedError

    def increments(self, gen: np.random.Generator, dl: np.ndarray,
                   rows: int) -> np.ndarray:
        """(rows, dl.size) independent increments for cells of clock length
        ``dl``, one clock row shared by every replicate: the blocks of
        :meth:`blocks` in one array.

        Besides the result, only the variates that a later draw must follow
        are held for all ``rows``: the stable uniforms, the compound Poisson
        counts, and each part of a composite but the last.
        """
        out = np.empty((rows, dl.size))
        for r, blk in zip(_row_blocks(rows, dl.size), self.blocks(gen, dl, rows)):
            out[r] = blk
        return out

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

    def blocks(self, gen, dl, rows):
        shape = self.shape_rate * dl
        for r in _row_blocks(rows, dl.size):
            yield gen.gamma(np.broadcast_to(shape, (r.stop - r.start, dl.size)),
                            self.scale)

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

    def blocks(self, gen, dl, rows):
        # only cells of positive clock length draw, in row-major order
        pos = dl > 0
        mean, shape = self.mu * dl[pos], self.lam * dl[pos] ** 2
        for r in _row_blocks(rows, dl.size):
            out = np.zeros((r.stop - r.start, dl.size))
            out[:, pos] = gen.wald(np.broadcast_to(mean, (len(out), mean.size)),
                                   shape)
            yield out

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

    def blocks(self, gen, dl, rows):
        # self-similarity: A(h) = (scale * h)^(1/alpha) * S
        factor = (self.scale * dl) ** (1.0 / self.alpha)
        for s in _positive_stable(gen, self.alpha, rows, dl.size):
            yield np.where(dl > 0, factor * s, 0.0)

    def to_dict(self):
        return {"kind": "stable", "alpha": self.alpha, "scale": self.scale}


def _positive_stable(gen: np.random.Generator, alpha: float, rows: int,
                     cells: int) -> Iterator[np.ndarray]:
    """Kanter sampler for the one-sided stable law with E e^{-uS} = e^{-u^alpha},
    (rows, cells) draws in the row blocks of ``_row_blocks(rows, cells)``.

    The uniforms are drawn for the whole batch, since the exponentials
    follow them; the exponentials and the rest are formed block by block.
    """
    u = gen.uniform(0.0, 1.0, size=(rows, cells))
    for r in _row_blocks(rows, cells):
        e = gen.exponential(1.0, size=u[r].shape)
        pu = np.pi * u[r]
        a = (
            np.sin(alpha * pu) ** (alpha / (1.0 - alpha))
            * np.sin((1.0 - alpha) * pu)
            / np.sin(pu) ** (1.0 / (1.0 - alpha))
        )
        # S = (a(U)/E)^((1-alpha)/alpha) with a(u) as above
        yield (a / e) ** ((1.0 - alpha) / alpha)


@dataclass(frozen=True)
class CompoundPoissonSpec(SubordinatorSpec):
    """Poisson(rate*h) many exponential(jump_mean) jumps per cell."""

    rate: float
    jump_mean: float
    time_change: Optional[CadlagPath] = None

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_mean", self.jump_mean)

    def blocks(self, gen, dl, rows):
        # the counts are drawn for the whole batch, since the jumps follow
        counts = gen.poisson(np.broadcast_to(self.rate * dl, (rows, dl.size)))
        for r in _row_blocks(rows, dl.size):
            # sum of N iid exponential(jump_mean) jumps is Gamma(N, jump_mean)
            yield gen.gamma(counts[r].astype(float), self.jump_mean)

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

    def blocks(self, gen, dl, rows):
        inc = self.slope * dl
        for r in _row_blocks(rows, dl.size):
            yield np.broadcast_to(inc, (r.stop - r.start, dl.size))

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

    def blocks(self, gen, dl, rows):
        # every part but the last is drawn for the whole batch, since the
        # next part's draws follow it; the sum runs in part order
        *held, last = self.parts
        held = [p.increments(gen, dl, rows) for p in held]
        for r, blk in zip(_row_blocks(rows, dl.size),
                          last.blocks(gen, dl, rows)):
            yield sum((h[r] for h in held), 0.0) + blk

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


#: how each type of a config object's value is named in an error
_TYPE_NAMES = {int: "an int", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _check_keys(doc: dict, keys: dict, what: str):
    """Raise on a key of ``doc`` outside ``keys`` and "kind", and on a
    value whose type is not its key's: an int passes for a float, and a
    bool passes for neither."""
    unknown = sorted(set(doc) - set(keys) - {"kind"})
    if unknown:
        raise PathDomainError(f"unknown key {unknown[0]!r} for {what}")
    for key, typ in keys.items():
        if key in doc and type(doc[key]) not in (
                (int, float) if typ is float else (typ,)):
            raise PathDomainError(f"{key} must be {_TYPE_NAMES[typ]}, got "
                                  f"{json.dumps(doc[key])} in {what}")


#: the type a spec field takes in a config object, by its annotation
_FIELD_TYPES = {"float": float, "tuple": list}


def spec_from_dict(doc: dict) -> SubordinatorSpec:
    """Spec from its ``to_dict`` form: "kind" plus the spec's fields,
    ``time_change`` excepted."""
    kind = doc.get("kind")
    if kind not in _SPEC_KINDS:
        raise PathDomainError(f"unknown subordinator kind {kind!r}")
    cls = _SPEC_KINDS[kind]
    params = {k: v for k, v in doc.items() if k != "kind"}
    _check_keys(params, {f.name: _FIELD_TYPES[f.type] for f in fields(cls)
                         if f.name != "time_change"}, f"a {kind} spec")
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
    return spec.increments(rng.generator(), dl, samples)


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
        # clock increase over [s, t], summed block by block; every batch
        # draws from the side's one generator
        gaps = np.empty(count)
        for _, batch in _batches(count, dl.size):
            take = batch.stop - batch.start
            for r, da in zip(_row_blocks(take, dl.size),
                             spec.blocks(gen, dl, take)):
                gaps[batch.start + r.start:batch.start + r.stop] = (
                    da[:, k_s:k_t].sum(axis=1))
        return gaps

    gen1 = rng.child(1).generator()
    side1 = gen1.normal(0.0, 1.0, size=samples) * np.sqrt(window_gaps(gen1, samples))

    gen2 = rng.child(2).generator()
    a_gap = window_gaps(gen2, samples)
    w_inc = gen2.normal(0.0, math.sqrt(t - s), size=samples)
    side2 = w_inc * np.sqrt(a_gap / (t - s))

    return ks_two_sample(side1, side2)
