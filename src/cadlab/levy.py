"""Samplers for subordinators, the random rescaling check of subordinated
Brownian motion, and the closed-form characteristic functions used as
verification oracles.

Subordinators are sampled by exact increment laws on a uniform grid: each
grid cell receives an independent draw from the increment distribution of
the process over that cell, so every sampled path is a nondecreasing
staircase starting at 0 (a pure drift gives an exact linear path instead).

Every spec draws the replicates of one clock row as a stream of row blocks
from one generator (:meth:`SubordinatorSpec.blocks`), the Linnik array's
unit gamma clock included.  A gamma clock also has a second sampler, its
truncated jump series (:meth:`GammaSpec.jumps`), which draws no cells and
serves reads of the clock's values at a few fixed times and of running
sups, whose readers bin the jumps into grid cells.  Nothing is
held past a row block: a compound Poisson block draws its counts and then
its jumps, and a composite block draws one block of each part in part
order.  Uniforms that a later draw follows, the stable sampler's, are
jumped past (:func:`_jump`) and drawn block by block, as the last-drawn
variate and every array formed from it are, where numpy allows into
buffers reused from block to block (:func:`_block_buffers`).

The positive stable sampler is normalized so that E exp(-u A(1)) equals
exp(-u^alpha); the inverse Gaussian parameters follow the mean/shape
convention (increment over elapsed clock time h is IG with mean mu*h and
shape lambda*h^2, the convolution-stable scaling of the IG process).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Iterator

import numpy as np

from .paths import (CadlagPath, PathDomainError, TimeGrid, piecewise_linear,
                    step_path)

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


_BLOCK_CELLS = 2**15  # cells per row block that a draw is read in


def _jump(gen: np.random.Generator, k: int) -> np.random.Generator:
    """A copy of ``gen`` for its next ``k`` 64-bit draws, as many uniforms,
    and ``gen`` moved past them in O(log k) steps.  ``advance`` clears the
    32-bit half that PCG64 keeps for the next 32-bit draw, so it is put
    back: ``gen`` ends as if it had drawn the ``k`` values."""
    ahead = copy.deepcopy(gen)
    bits = gen.bit_generator
    half = {key: bits.state[key] for key in ("has_uint32", "uinteger")}
    bits.advance(k)
    bits.state = {**bits.state, **half}
    return ahead


def _block_rows(cells: int) -> int:
    """Rows of a row block of ``cells`` cells a row: about _BLOCK_CELLS
    cells."""
    return max(1, _BLOCK_CELLS // max(cells, 1))


def _row_blocks(samples: int, cells: int) -> Iterator[slice]:
    """Row slices of ``_block_rows(cells)`` rows that cover ``samples``
    rows; a single empty slice when there are none."""
    rows = _block_rows(cells)
    for r0 in range(0, max(samples, 1), rows):
        yield slice(r0, min(r0 + rows, samples))


def _block_buffers(samples: int, cells: int) -> Iterator[np.ndarray]:
    """For each slice of ``_row_blocks(samples, cells)``, a view of its
    rows of one reused zeroed buffer of a block's shape.  A view is
    overwritten by the next one."""
    buf = np.zeros((min(samples, _block_rows(cells)), cells))
    for r in _row_blocks(samples, cells):
        yield buf[:r.stop - r.start]


# -- specs -----------------------------------------------------------------


class SubordinatorSpec:
    """Base class: a parametric nondecreasing Levy process description."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each kind holds ``increments`` in its own namespace, where
        # perfbench/tracing.py wraps it kind by kind
        if "increments" not in cls.__dict__:
            cls.increments = SubordinatorSpec.increments

    def blocks(self, gen: np.random.Generator, dl: np.ndarray,
               rows: int) -> Iterator[np.ndarray]:
        """Increments of ``rows`` replicates of the cells of clock length
        ``dl`` (one row), yielded in the row blocks of
        ``_row_blocks(rows, dl.size)``.

        ``gen`` is consumed block by block, each block's variates in turn,
        except the stable uniforms, which the exponentials follow: ``gen``
        jumps past those of every replicate (:func:`_jump`).  Nothing is
        held past a block.  A block is valid until the next one is asked
        for: it may be a reused buffer (see :func:`_block_buffers`), a
        fresh array or a read-only broadcast.
        """
        raise NotImplementedError

    def increments(self, gen: np.random.Generator, dl: np.ndarray,
                   rows: int) -> np.ndarray:
        """(rows, dl.size) increments: the blocks of :meth:`blocks` in one
        array."""
        out = np.empty((rows, dl.size))
        for r, blk in zip(_row_blocks(rows, dl.size),
                          self.blocks(gen, dl, rows)):
            out[r] = blk
        return out


def _check_positive(name: str, value: float):
    if not value > 0:
        raise PathDomainError(f"{name} must be > 0, got {value}")


#: the series cut of :meth:`GammaSpec.jumps`: a path holds no jump up to
#: the first positive time read with probability at most e^-_SERIES_CUT
_SERIES_CUT = 37.0


@dataclass(frozen=True)
class GammaSpec(SubordinatorSpec):
    """Gamma subordinator: increment over h is Gamma(shape_rate*h, scale).

    Besides its grid cells (:meth:`blocks`), the process is a series of
    jumps (:meth:`jumps`; Bondesson 1982, *On simulation from infinitely
    divisible distributions*; Rosinski 2001, *Series representations of
    Levy processes from the perspective of point processes*).  With
    a = shape_rate and b = scale, on [0, T]

        A(s) = sum_i b exp(-G_i / (aT)) V_i 1{U_i T <= s}

    for unit Poisson arrivals G_i, V_i ~ Exp(1) and U_i ~ U(0, 1).  The
    series is cut at G_i <= aTK, so a path holds Poisson(aTK) jumps, and,
    given their number, the kept G_i / (aTK) are i.i.d. uniform.  With s1
    the smallest positive time read, K = 37 max(1, 1/(a s1)): then A(s) = 0
    with probability at most e^-37 at every time s >= s1 read, and the
    dropped mass has mean abT e^-K <= abT e^-37.

    A running sup read from the series errs by as little.  The dropped
    part of A is nondecreasing, so its sup over [0, T] is its value at T,
    of mean abT e^-K.  Given the jumps, the dropped part of
    M(s) = sum_i sqrt(x_i) Z_i 1{U_i T <= s} is a martingale in s, so by
    Doob's L^2 inequality E sup_{s <= T} |M(s) - M_K(s)|^2 <= 4 abT e^-K
    for the series M_K cut at K.  A profile weight q multiplies both
    bounds by max q^2.
    """

    shape_rate: float
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("shape_rate", self.shape_rate)
        _check_positive("scale", self.scale)

    def jumps(self, gen: np.random.Generator, horizon: float, first: float,
              rows: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray,
                                           np.ndarray]]:
        """The truncated jump series of ``rows`` paths on [0, ``horizon``],
        cut for the smallest positive time read, ``first`` (see the class
        docstring), as (rows, counts, sizes, times) per row block.

        A block holds ``_block_rows(ceil(aTK))`` rows, about _BLOCK_CELLS
        jumps.  ``counts`` holds each row's number of jumps, and ``sizes``
        and ``times`` the jumps of its rows, row after row.  ``gen`` draws,
        block by block, the counts, the arrivals, the exponentials and the
        uniform times.  The sizes and times are drawn in place into arrays
        of their block's own, which a reader may overwrite.
        """
        cut = _SERIES_CUT * max(1.0, 1.0 / (self.shape_rate * first))
        mean = self.shape_rate * horizon * cut
        for r in _row_blocks(rows, math.ceil(mean)):
            counts = gen.poisson(mean, r.stop - r.start)
            sizes = gen.random(int(counts.sum()))
            v = gen.standard_exponential(sizes.size)
            # b * exp(-K * g) * V, in place
            np.multiply(sizes, -cut, out=sizes)
            np.exp(sizes, out=sizes)
            if self.scale != 1.0:
                sizes *= self.scale
            sizes *= v
            times = gen.random(out=v)
            times *= horizon
            yield r, counts, sizes, times

    def blocks(self, gen, dl, rows):
        # gamma(a, scale) is scale * standard_gamma(a), the same bits; one
        # scalar shape for equal cells gives them too, and draws faster
        shape = self.shape_rate * dl
        if shape.size and not np.count_nonzero(shape != shape[0]):
            shape = shape[0]
        for out in _block_buffers(rows, dl.size):
            gen.standard_gamma(shape, out=out)
            if self.scale != 1.0:
                out *= self.scale
            yield out


@dataclass(frozen=True)
class InverseGaussianSpec(SubordinatorSpec):
    """IG subordinator: increment over h is IG(mean mu*h, shape lam*h^2)."""

    mu: float
    lam: float

    def __post_init__(self):
        _check_positive("mu", self.mu)
        _check_positive("lam", self.lam)

    def blocks(self, gen, dl, rows):
        # wald has no out=, so each block is its own array
        mean, shape = self.mu * dl, self.lam * dl ** 2
        for r in _row_blocks(rows, dl.size):
            yield gen.wald(np.broadcast_to(mean, (r.stop - r.start, dl.size)),
                           shape)


@dataclass(frozen=True)
class StableSpec(SubordinatorSpec):
    """Positive alpha-stable subordinator, alpha in (0, 1) exclusive.

    Normalization: E exp(-u * A(1)) = exp(-scale * u^alpha).
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise PathDomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        _check_positive("scale", self.scale)

    def blocks(self, gen, dl, rows):
        # self-similarity: A(h) = (scale * h)^(1/alpha) * S
        factor = (self.scale * dl) ** (1.0 / self.alpha)
        for s in _positive_stable(gen, self.alpha, rows, dl.size):
            s *= factor
            yield s


def _positive_stable(gen: np.random.Generator, alpha: float, rows: int,
                     cells: int) -> Iterator[np.ndarray]:
    """Kanter sampler for the one-sided stable law with E e^{-uS} = e^{-u^alpha},
    (rows, cells) draws in the row blocks of ``_row_blocks(rows, cells)``.

    The exponentials follow all the uniforms, so ``gen`` jumps past them
    (:func:`_jump`) and a copy of it draws them block by block.  The
    uniforms, the exponentials and the transform live in three reused
    block buffers (:func:`_block_buffers`), and a yielded block is one of
    them; nothing is held past a block.
    """
    ahead = _jump(gen, rows * cells)
    for u, a, e in zip(*(_block_buffers(rows, cells) for _ in range(3))):
        ahead.random(out=u)  # uniform(0, 1), the same bits
        # a(u) = sin(alpha pu)^(alpha/(1-alpha)) sin((1-alpha) pu)
        #        / sin(pu)^(1/(1-alpha)) for pu = pi u, in place
        u *= np.pi
        np.multiply(u, alpha, out=a)
        np.sin(a, out=a)
        a **= alpha / (1.0 - alpha)
        np.multiply(u, 1.0 - alpha, out=e)
        np.sin(e, out=e)
        a *= e
        np.sin(u, out=u)
        u **= 1.0 / (1.0 - alpha)
        a /= u
        # S = (a(U)/E)^((1-alpha)/alpha); exponential(1.0) is 1.0 times
        # standard_exponential, the same bits
        a /= gen.standard_exponential(out=e)
        a **= (1.0 - alpha) / alpha
        yield a


@dataclass(frozen=True)
class CompoundPoissonSpec(SubordinatorSpec):
    """Poisson(rate*h) many exponential(jump_mean) jumps per cell."""

    rate: float
    jump_mean: float

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_mean", self.jump_mean)

    def blocks(self, gen, dl, rows):
        # a block's counts, then its jumps: the sum of N iid
        # exponential(jump_mean) jumps is Gamma(N, jump_mean); Gamma(0) is
        # 0 and draws nothing, so only nonzero counts draw
        mean = self.rate * dl
        for r in _row_blocks(rows, dl.size):
            n = gen.poisson(np.broadcast_to(mean, (r.stop - r.start, dl.size)))
            out = np.zeros(n.shape)
            jumps = n > 0
            out[jumps] = gen.gamma(n[jumps], self.jump_mean)
            yield out


@dataclass(frozen=True)
class DriftSpec(SubordinatorSpec):
    """Deterministic drift component with slope >= 0."""

    slope: float

    def __post_init__(self):
        if self.slope < 0:
            raise PathDomainError(f"drift slope must be >= 0, got {self.slope}")

    def blocks(self, gen, dl, rows):
        inc = self.slope * dl
        for r in _row_blocks(rows, dl.size):
            yield np.broadcast_to(inc, (r.stop - r.start, dl.size))


@dataclass(frozen=True)
class CompositeSpec(SubordinatorSpec):
    """Independent sum of component subordinators."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise PathDomainError("composite spec needs at least one part")

    def blocks(self, gen, dl, rows):
        # each part's one block, in part order, added into a reused buffer
        for out in _block_buffers(rows, dl.size):
            out.fill(0.0)
            for p in self.parts:
                for blk in p.blocks(gen, dl, out.shape[0]):
                    out += blk
            yield out


_SPEC_KINDS = {
    "gamma": GammaSpec,
    "inverse_gaussian": InverseGaussianSpec,
    "stable": StableSpec,
    "compound_poisson": CompoundPoissonSpec,
    "drift": DriftSpec,
    "composite": CompositeSpec,
}


#: by annotation: the JSON types a config value may take, how an error
#: names them, and a list's item annotation.  An int passes for a float and
#: becomes one, and a bool passes for neither.  A tuple is a composite's
#: parts, a list of spec objects.
_VALUE_TYPES = {
    "int": ((int,), "an int", None),
    "float": ((int, float), "a number", None),
    "Optional[float]": ((int, float, type(None)), "a number or null", None),
    "bool": ((bool,), "true or false", None),
    "str": ((str,), "a string", None),
    "list[int]": ((list,), "a non-empty list", "int"),
    "list[float]": ((list,), "a non-empty list", "float"),
    "tuple": ((list,), "a non-empty list", "SubordinatorSpec"),
}
#: each family of config objects, by the annotation of a value that holds
#: one: its name in errors, and its classes by "kind"
_FAMILIES = {"SubordinatorSpec": ("spec", _SPEC_KINDS)}


def _a(noun: str) -> str:
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


def _read(value, annotation: str, families: dict, key: str, where=""):
    """Config value ``value`` read as annotation ``annotation`` says: an
    object of a family of ``families`` by :func:`_from_config`, a list item
    by item, and any other value checked against its ``_VALUE_TYPES`` row.
    A wrong value raises PathDomainError "``key`` must be ...``where``"."""
    if annotation in families:
        return _from_config(value, annotation, families)
    types, name, item = _VALUE_TYPES[annotation]
    if type(value) not in types or value == []:
        raise PathDomainError(f"{key} must be {name}, got "
                              f"{json.dumps(value)}{where}")
    if item:
        value = [_read(v, item, families, f"each item of {key}", where)
                 for v in value]
        return tuple(value) if annotation == "tuple" else value
    return value if value is None or float not in types else float(value)


def _from_config(doc: dict, family: str, families: dict):
    """The object that config object ``doc`` describes, of the class that
    its "kind" names in ``families[family]``.

    The other keys of ``doc`` are the class's dataclass init fields, and a
    field without a default is required.  Each value is read by
    :func:`_read` as its field's annotation says.  A value that is no
    object, an unknown kind, an unknown or missing key and a wrongly typed
    value raise PathDomainError naming it.
    """
    noun, kinds = families[family]
    if type(doc) is not dict:
        raise PathDomainError(f"{_a(noun)} must be an object, got "
                              f"{json.dumps(doc)}")
    kind = doc.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise PathDomainError(f"unknown {noun} kind {kind!r}" if "kind" in doc
                              else f"missing key 'kind' for {_a(noun)}")
    cls, what = kinds[kind], _a(f"{kind} {noun}")
    keys = {f.name for f in fields(cls) if f.init}
    unknown = sorted(set(doc) - keys - {"kind"})
    if unknown:
        raise PathDomainError(f"unknown key {unknown[0]!r} for {what}")
    params = {}
    for f in fields(cls):
        if f.name == "kind":  # a weight's kind is one of its fields
            params["kind"] = kind
        elif f.name in doc:
            params[f.name] = _read(doc[f.name], f.type, families, f.name,
                                   f" in {what}")
        elif f.default is MISSING:
            raise PathDomainError(f"missing key {f.name!r} for {what}")
    return cls(**params)


def spec_from_dict(doc: dict) -> SubordinatorSpec:
    """Spec from its config object: "kind" plus the spec's fields; see
    :func:`_from_config`."""
    return _from_config(doc, "SubordinatorSpec", _FAMILIES)


# -- sampling --------------------------------------------------------------


def sample_subordinator_increments(
    spec: SubordinatorSpec, grid: TimeGrid, rng: RngStream, samples: int = 1
) -> np.ndarray:
    """(samples, cells) array of independent grid-cell increments."""
    dl = np.diff(grid.points())
    return spec.increments(rng.generator(), dl, samples)


def _staircase_from_increments(grid: TimeGrid, inc: np.ndarray) -> CadlagPath:
    # a last grid point at (or a rounding past) the horizon leaves a
    # zero-length last step, which the path drops
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return step_path(np.minimum(grid.points(), grid.horizon), values, grid.horizon)


def sample_subordinator(
    spec: SubordinatorSpec, grid: TimeGrid, rng: RngStream
) -> CadlagPath:
    """One nondecreasing path: staircase for random specs, exact linear
    segments for a pure drift."""
    if isinstance(spec, DriftSpec):
        return piecewise_linear([0.0, grid.horizon],
                                [0.0, spec.slope * grid.horizon])
    inc = sample_subordinator_increments(spec, grid, rng, samples=1)[0]
    return _staircase_from_increments(grid, inc)


# -- characteristic function oracles --------------------------------------


def linnik_cf(t: float, lam: float) -> complex:
    """E exp(i lam M(t)) = (1 + lam^2/2)^(-t) for Brownian motion M run on
    the unit gamma clock, the Linnik process."""
    if t <= 0:
        raise PathDomainError("t must be > 0")
    return complex((1.0 + lam * lam / 2.0) ** (-t))


def weighted_gamma_subordinated_cf(t: float, lam: float, Q) -> complex:
    """CF of W composed with the weighted unit gamma clock int_0^t Q^2 dA.

    ``Q`` is a callable deterministic weight profile on [0, t].  The log-CF
    integral is evaluated by adaptive quadrature to absolute tolerance 1e-10.
    """
    if t <= 0:
        raise PathDomainError("t must be > 0")

    def integrand(u):
        q = Q(u)
        return math.log1p(lam * lam * q * q / 2.0)

    val = _adaptive_gauss_legendre(integrand, 0.0, t, 1e-10)
    return complex(math.exp(-val))


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

    dl = np.diff(grid.points())

    def window_gaps(gen, count):
        # clock increase over [s, t], summed block by block
        gaps = np.empty(count)
        for rows, da in zip(_row_blocks(count, dl.size),
                            spec.blocks(gen, dl, count)):
            gaps[rows] = da[:, k_s:k_t].sum(axis=1)
        return gaps

    gen1 = rng.child(1).generator()
    side1 = gen1.normal(0.0, 1.0, size=samples) * np.sqrt(window_gaps(gen1, samples))

    gen2 = rng.child(2).generator()
    a_gap = window_gaps(gen2, samples)
    w_inc = gen2.normal(0.0, math.sqrt(t - s), size=samples)
    side2 = w_inc * np.sqrt(a_gap / (t - s))

    return ks_two_sample(side1, side2)
