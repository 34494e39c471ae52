"""Samplers for subordinators, the random rescaling check of subordinated
Brownian motion, and the closed-form characteristic functions used as
verification oracles.

Subordinators are sampled by exact increment laws on a uniform grid: each
grid cell receives an independent draw from the increment distribution of
the process over that cell, so every sampled path is a nondecreasing
staircase starting at 0 (a pure drift gives an exact linear path instead).

Every spec draws a batch of replicates of one clock row as a stream of row
blocks (:meth:`SubordinatorSpec.blocks`), consuming its generator in the
order of a whole-batch draw; they are the only clock samplers, the
Linnik array's unit gamma clock included.  A batch holds only: the
compound Poisson counts (one byte a cell at small rates); the sum of a
composite's parts, which its blocks are read from; the steps of a
random-walk transform.  No clock is held for the normals that an array
puts on it: they come from a child generator, block by block beside
their clock block.
Uniforms that a later draw follows are jumped past (:func:`_jump`) and
drawn block by block, as the last-drawn variate and every array formed
from it are, where numpy allows into buffers reused from block to block
(:func:`_block_buffers`).

An array held for a whole batch gets its own private anonymous mapping
(:func:`_batch_array`), unless it is smaller than one row block, and is
filled row block by row block.  Freeing it returns its pages to the system
at once.  From malloc, a batch of 20 to 30 MiB would instead raise glibc's
mmap threshold once freed, and the next batches would come from the heap,
which does not shrink.

The positive stable sampler is normalized so that E exp(-u A(1)) equals
exp(-u^alpha); the inverse Gaussian parameters follow the mean/shape
convention (increment over elapsed clock time h is IG with mean mu*h and
shape lambda*h^2, the convolution-stable scaling of the IG process).
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import mmap
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Iterable, Iterator

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


_BATCH_CELLS = 20_000_000  # cells per batch of replicates
_BLOCK_CELLS = 2**15  # cells per row block that a batch is read in

#: a private anonymous mapping, None where mmap lacks the flags.  A shared
#: one gets 4 KiB pages: 25 times the page faults on a 100 MB array.
_MAP_FLAGS = (mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
              if hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MAP_ANONYMOUS")
              else None)


def _batch_array(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array in its own anonymous mapping, unmapped when
    the last view of it is gone.  ``np.empty`` below one row block
    (_BLOCK_CELLS cells), where a mapping costs more than the draw, as
    for a one-row path, and without ``_MAP_FLAGS``."""
    cells = math.prod(shape)
    if _MAP_FLAGS is None or cells < _BLOCK_CELLS:
        return np.empty(shape, dtype)
    buf = mmap.mmap(-1, cells * np.dtype(dtype).itemsize, flags=_MAP_FLAGS)
    # the advice is optional: a kernel built without transparent huge
    # pages rejects it with EINVAL
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):
            buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape)


def _fill(blocks: Iterable[np.ndarray], shape: tuple) -> np.ndarray:
    """A :func:`_batch_array` of ``shape`` filled from ``blocks``, in the
    row blocks of ``_row_blocks(*shape)``."""
    out = _batch_array(shape)
    for r, blk in zip(_row_blocks(*shape), blocks):
        out[r] = blk
    return out


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


def _batched_blocks(samples: int, cells: int,
                    blocks_of: Callable[[int, int], Iterable]) -> Iterator:
    """(rows, block) pairs covering ``samples`` rows in order.

    The rows go in batches of _BATCH_CELLS // cells rows, and batch b, of
    ``take`` rows, is read from ``blocks_of(b, take)`` in the row blocks of
    ``_row_blocks(take, cells)``, so two batches are never alive at once.
    The array samplers draw batch b from ``rng.child(b)``; a side of
    rescaling_check draws its batches in turn from its one generator.
    """
    size = max(1, _BATCH_CELLS // max(cells, 1))
    for b, r0 in enumerate(range(0, samples, size)):
        take = min(size, samples - r0)
        for r, blk in zip(_row_blocks(take, cells), blocks_of(b, take)):
            yield slice(r0 + r.start, r0 + r.stop), blk


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

        ``gen`` is consumed in the order of a whole-batch draw: a variate
        that a later draw follows is drawn for all ``rows`` first (the
        compound Poisson counts) or jumped past (the stable uniforms, see
        :func:`_jump`), and the rest block by block.  A block is valid
        until the next one is asked for: it may be a reused buffer (see
        :func:`_block_buffers`), a fresh array or a read-only broadcast.
        """
        raise NotImplementedError

    def increments(self, gen: np.random.Generator, dl: np.ndarray,
                   rows: int) -> np.ndarray:
        """(rows, dl.size) increments: the blocks of :meth:`blocks` in one
        :func:`_batch_array`, filled block by block, so no batch-sized
        temporary comes from malloc.  A composite sums its parts into the
        first part's array."""
        return _fill(self.blocks(gen, dl, rows), (rows, dl.size))


def _check_positive(name: str, value: float):
    if not value > 0:
        raise PathDomainError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class GammaSpec(SubordinatorSpec):
    """Gamma subordinator: increment over h is Gamma(shape_rate*h, scale)."""

    shape_rate: float
    scale: float = 1.0

    def __post_init__(self):
        _check_positive("shape_rate", self.shape_rate)
        _check_positive("scale", self.scale)

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
            yield factor * s


def _positive_stable(gen: np.random.Generator, alpha: float, rows: int,
                     cells: int) -> Iterator[np.ndarray]:
    """Kanter sampler for the one-sided stable law with E e^{-uS} = e^{-u^alpha},
    (rows, cells) draws in the row blocks of ``_row_blocks(rows, cells)``.

    The exponentials follow the uniforms of the whole batch, so ``gen``
    jumps past the uniforms (:func:`_jump`) and a copy of it draws them
    block by block, into one reused buffer; nothing is held for the batch.
    """
    ahead = _jump(gen, rows * cells)
    for u in _block_buffers(rows, cells):
        ahead.random(out=u)  # uniform(0, 1), the same bits
        e = gen.exponential(1.0, size=u.shape)
        pu = np.pi * u
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

    def __post_init__(self):
        _check_positive("rate", self.rate)
        _check_positive("jump_mean", self.jump_mean)

    def blocks(self, gen, dl, rows):
        # the counts are drawn for the whole batch, since the jumps follow;
        # each row block is held in the narrowest type that holds its largest
        mean = self.rate * dl
        counts = []
        for r in _row_blocks(rows, dl.size):
            n = gen.poisson(np.broadcast_to(mean, (r.stop - r.start, dl.size)))
            counts.append(n.astype(np.min_scalar_type(n.max(initial=0))))
        for n in counts:
            # sum of N iid exponential(jump_mean) jumps is Gamma(N, jump_mean);
            # Gamma(0) is 0 and draws nothing, so only nonzero counts draw
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
        # copies, so that a reader that holds a block does not keep the sum
        # alive while the next batch is drawn
        total = self.increments(gen, dl, rows)
        for r in _row_blocks(rows, dl.size):
            yield total[r].copy()

    def increments(self, gen, dl, rows):
        # the first part's array, then each later part's blocks added into
        # it in place, in part order: one batch held, for any number of parts
        first, *rest = self.parts
        total = first.increments(gen, dl, rows)
        for p in rest:
            for r, blk in zip(_row_blocks(rows, dl.size),
                              p.blocks(gen, dl, rows)):
                total[r] += blk
        return total


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
    if kind not in kinds:
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
        # clock increase over [s, t], summed block by block; every batch
        # draws from the side's one generator
        gaps = np.empty(count)
        for rows, da in _batched_blocks(
                count, dl.size, lambda b, take: spec.blocks(gen, dl, take)):
            gaps[rows] = da[:, k_s:k_t].sum(axis=1)
        return gaps

    gen1 = rng.child(1).generator()
    side1 = gen1.normal(0.0, 1.0, size=samples) * np.sqrt(window_gaps(gen1, samples))

    gen2 = rng.child(2).generator()
    a_gap = window_gaps(gen2, samples)
    w_inc = gen2.normal(0.0, math.sqrt(t - s), size=samples)
    side2 = w_inc * np.sqrt(a_gap / (t - s))

    return ks_two_sample(side1, side2)
