"""Martingale array constructors, their compensators, and hypothesis checks.

Every array kind produces staircase trajectories on the grid k/n together
with closed-form compensator increments, so the compensator is never
estimated numerically:

* subordinator arrays: increments sqrt(xi_k) Z_k for a subordinator's
  grid-cell increments xi_k, compensator increment xi_k; the Linnik array
  is the one of the unit gamma clock, xi_k ~ Gamma(1/n, 1);
* the signed-harmonic (Polya-type) array: increments Y_i Z_{i-1}/sqrt(n)
  built from a Rademacher sequence, compensator increment Z_{i-1}^2/n,
  which here coincides exactly with the quadratic variation increment;
* the sparse two-point array: increments xi_k/a_n with
  P(xi_k = +-k^(alpha/2)) = 1/(2 k^beta), deterministic compensator
  increment k^(delta-1)/a_n^2 where delta = alpha - beta + 1;
* transforms: predictable weights Q_{n,k} multiply the base increments,
  compensator increments pick up the factor Q_{n,k}^2;
* drifted arrays add a predictable part O = mu * A on top of a base array.

Sampling is vectorized over replicates and streamed: each kind's ``_draw``
yields its increments in row blocks from one generator, and the readers
keep only the values they need.  Nothing is held past a row block: a
random-walk transform draws each block's steps after its base block, and
uniforms that a later draw follows, the Lindeberg hits among them, are
jumped past (``levy._jump``) and drawn block by block.
Every clock is drawn by its subordinator spec's ``blocks``, the Linnik
array's too, and the normals that a subordinator array puts on it come
from a child generator spawned for the draw, block by block beside their
clock block (:meth:`SubordinatorArray._draw`), so no clock is held.  The
exception is M and A on a gamma clock, of a subordinator array, the
Linnik array included, or of a profile transform or a drifted array built
on one (:func:`_series_clock` decides): :func:`marginal_samples` and
:func:`running_sup_samples` read them from the clock's jump series
(``levy.GammaSpec.jumps``) with one normal a jump, and draw no grid
cells; a running sup bins the jumps into the grid cells it reads.  Single
realizations are materialized as exact :class:`~cadlab.paths.CadlagPath`
staircases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import levy
from .levy import (_FAMILIES as _SPEC_FAMILIES, RngStream, SubordinatorSpec,
                   _block_buffers, _block_rows, _from_config, _row_blocks,
                   _staircase_from_increments)
from .paths import CadlagPath, PathDomainError, TimeGrid
from . import timechange

__all__ = [
    "WeightSpec",
    "deterministic_profile",
    "random_walk_profile",
    "ArraySpec",
    "LinnikArray",
    "PolyaArray",
    "LindebergArray",
    "SubordinatorArray",
    "TransformArray",
    "DriftedArray",
    "array_from_dict",
    "IncrementBatch",
    "ArrayRealization",
    "sample_increments",
    "realize",
    "marginal_samples",
    "HypEstimate",
    "check_hyp_c",
    "check_hyp_d",
    "LindebergReport",
    "lindeberg_statistic",
    "check_lindeberg",
    "check_mcleish",
    "check_jump_decomposition",
]

#: increments a kind's _draw yields: path name -> IncrementBatch attribute
_INCREMENTS = {"M": "dX", "A": "dA", "QV": "dQV", "O": "dO"}
_FIELDS = frozenset(_INCREMENTS)


# -- weight profiles -------------------------------------------------------

_PROFILES: dict[str, tuple[Callable[[float], float], float, float]] = {
    "one": (lambda u: 1.0, 1.0, 1.0),
    "two_plus_cos": (lambda u: 2.0 + math.cos(2.0 * math.pi * u), 1.0, 3.0),
}


#: the values of WeightSpec.kind
_WEIGHT_KINDS = ("profile", "random_walk")


@dataclass(frozen=True)
class WeightSpec:
    """Predictable weight description for martingale transforms.

    ``kind`` is "profile" (deterministic, Q_{n,k} = Q((k-1)/n)) or
    "random_walk" (Q_{n,k} = Q(sigma * S_{k-1} / sqrt(n)) for a standard
    random walk S independent of the base array).  Q is the named profile
    or, when ``const`` is given, that constant; it must stay inside bounds
    0 < lo <= hi < inf.
    """

    kind: str
    name: str = "one"
    const: Optional[float] = None
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise PathDomainError(f"unknown weight kind {self.kind!r}")
        lo, hi = self.bounds()
        if not (0 < lo <= hi < math.inf):
            raise PathDomainError(
                f"weight profile must be bounded away from 0, got [{lo}, {hi}]"
            )

    def resolve(self) -> Callable[[float], float]:
        if self.const is not None:
            c = float(self.const)
            return lambda u: c
        return _PROFILES[self.name][0]

    def bounds(self) -> tuple[float, float]:
        if self.const is not None:
            return abs(self.const), abs(self.const)
        if self.name not in _PROFILES:
            raise PathDomainError(f"unknown weight profile {self.name!r}")
        _, lo, hi = _PROFILES[self.name]
        return lo, hi


def deterministic_profile(name: str = "one",
                          const: float | None = None) -> WeightSpec:
    return WeightSpec(kind="profile", name=name, const=const)


def random_walk_profile(name: str, sigma: float = 1.0) -> WeightSpec:
    return WeightSpec(kind="random_walk", name=name, sigma=sigma)


# -- array specs -----------------------------------------------------------


class ArraySpec:
    """Base class for martingale array descriptions; each kind is a frozen
    dataclass with a grid resolution ``n`` and a ``horizon``."""

    n: int
    horizon: float

    def __post_init__(self):
        if self.n < 1:
            raise PathDomainError("n must be >= 1")
        if self.horizon <= 0:
            raise PathDomainError("horizon must be > 0")

    @property
    def cells(self) -> int:
        return TimeGrid(self.n, self.horizon).num_cells

    def grid(self) -> TimeGrid:
        return TimeGrid(self.n, self.horizon)

    def _draw(self, gen: np.random.Generator, samples: int, first: int,
              cells: int, fields) -> "Iterator[IncrementBatch]":
        """Increments of grid cells first+1 .. first+cells of each replicate,
        yielded in the row blocks of ``_row_blocks(samples, cells)``.

        ``fields`` names the increments wanted, among "M", "A", "QV" and
        "O"; the others may be None.  One generator, ``gen``, is consumed
        in the order of the blocks, and nothing is held past a block;
        uniforms that a later draw follows are jumped past (``levy._jump``).
        Draws that no wanted increment needs are skipped, so the state the
        generator is left in may depend on ``fields``; a subordinator
        array's normals come from a child generator, so its clock leaves
        the same state either way.

        A yielded block is valid until the next one is asked for: its
        arrays may be block buffers that the next block overwrites, so a
        reader consumes or copies a block before it asks for the next.

        ``first=0, cells=self.cells`` draws the whole horizon.  Cells past
        the horizon continue the same array on the grid k/n, so a path can
        be extended block by block from the generator that drew its prefix.
        Kinds whose later cells depend on the drawn prefix raise
        InsufficientHorizonError for ``first > 0``.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class IncrementBatch:
    """Per-cell increments for a batch of replicates; shape (samples, cells).

    dX are the martingale increments, dA the compensator increments, dQV
    the squared increments, dO the predictable drift increments (None for
    pure-martingale arrays).  A block drawn without some field holds None
    for it.
    """

    dX: Optional[np.ndarray]
    dA: Optional[np.ndarray]
    dQV: Optional[np.ndarray]
    dO: Optional[np.ndarray] = None


@dataclass(frozen=True, kw_only=True)
class PolyaArray(ArraySpec):
    """Signed-harmonic array: increments Y_i Z_{i-1} / sqrt(n).

    Z_{i-1} is the partial sum of Y_j / j (with Z_0 = 1), so the squared
    increment is predictable and quadratic variation equals the compensator
    exactly.
    """

    n: int
    horizon: float = 1.0

    def _draw(self, gen, samples, first, cells, fields):
        if first:
            raise timechange.InsufficientHorizonError(
                "a Polya path cannot be extended past its horizon: its later "
                "cells depend on the drawn prefix; use a larger horizon"
            )
        # no later draw follows the signs, so they are drawn block by block
        j = np.arange(1, cells + 1, dtype=float)
        for rows in _row_blocks(samples, cells):
            signs = gen.integers(0, 2, size=(rows.stop - rows.start, cells))
            y = signs.astype(float) * 2.0 - 1.0
            partial = np.cumsum(y / j, axis=1)
            zprev = np.empty_like(partial)
            zprev[:, 0] = 1.0
            zprev[:, 1:] = partial[:, :-1]
            da = zprev * zprev / self.n
            yield IncrementBatch(
                dX=y * zprev / math.sqrt(self.n) if "M" in fields else None,
                dA=da, dQV=da.copy() if "QV" in fields else None)


def _a_n_sq(n: int, delta: float) -> float:
    """a_n^2 of the sparse two-point array: n^delta, or log n at delta = 0,
    where n = 1 would give 0 and raises PathDomainError."""
    if delta == 0 and n == 1:
        raise PathDomainError("n must be >= 2 at delta = 0: a_n^2 = log n")
    return float(n) ** delta if delta > 0 else math.log(n)


@dataclass(frozen=True, kw_only=True)
class LindebergArray(ArraySpec):
    """Sparse two-point array with deterministic compensator.

    xi_k = +-k^(alpha/2) with probability 1/(2 k^beta) each, else 0;
    increments are xi_k / a_n with a_n^2 = n^delta for delta > 0 and
    a_n^2 = log n for delta = 0, where delta = alpha - beta + 1.
    """

    n: int
    alpha: float
    beta: float
    horizon: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.beta < 0:
            raise PathDomainError("beta must be >= 0")
        if self.delta < 0:
            raise PathDomainError(
                f"delta = alpha - beta + 1 = {self.delta} must be >= 0"
            )
        _a_n_sq(self.n, self.delta)
        if self.delta == 0:
            warnings.warn(
                "delta = 0 uses log-n scaling; the compensator limit is "
                "degenerate and limit checks are not meaningful here",
                stacklevel=2,
            )

    @property
    def delta(self) -> float:
        return self.alpha - self.beta + 1.0

    @property
    def a_n_sq(self) -> float:
        return _a_n_sq(self.n, self.delta)

    def compensator_increments(self, first: int = 0,
                               cells: int | None = None) -> np.ndarray:
        """k^(delta-1) / a_n^2 for cells k = first+1 .. first+cells."""
        m = self.cells if cells is None else cells
        k = np.arange(first + 1, first + m + 1, dtype=float)
        return k ** (self.delta - 1.0) / self.a_n_sq

    def _draw(self, gen, samples, first, cells, fields):
        k = np.arange(first + 1, first + cells + 1, dtype=float)
        da = self.compensator_increments(first, cells)
        jumps = "M" in fields or "QV" in fields
        if jumps:
            # the signs follow every replicate's hit uniforms, which gen jumps
            hits = levy._jump(gen, samples * cells)
            u = _block_buffers(samples, cells)
            p = 1.0 / k**self.beta
            size = k ** (self.alpha / 2.0)
            a_n = math.sqrt(self.a_n_sq)
        for rows in _row_blocks(samples, cells):
            dx = None
            if jumps:
                hit = hits.random(out=next(u)) < p  # uniform(0, 1)'s bits
                sign = np.where(gen.uniform(size=hit.shape) < 0.5, -1.0, 1.0)
                dx = np.where(hit, sign * size, 0.0) / a_n
            yield IncrementBatch(
                dX=dx, dA=np.broadcast_to(da, (rows.stop - rows.start, cells)),
                dQV=dx * dx if "QV" in fields else None)


@functools.lru_cache
def _cell_lengths(n: int, first: int, cells: int) -> np.ndarray:
    """Lengths of grid cells first+1 .. first+cells of the grid k/n, the
    ``np.diff`` of their points; read-only, as it is shared."""
    dl = np.diff(np.arange(first, first + cells + 1) / n)
    dl.flags.writeable = False
    return dl


@dataclass(frozen=True, kw_only=True)
class SubordinatorArray(ArraySpec):
    """Increments sqrt(xi_k) Z_k for the grid-cell increments xi_k of the
    subordinator ``spec`` and independent standard normals Z_k; the
    compensator increment is xi_k."""

    n: int
    spec: SubordinatorSpec
    horizon: float = 1.0

    def _draw(self, gen, samples, first, cells, fields):
        """Blocks of sqrt(xi) Z for the clock xi that ``spec.blocks`` draws
        from ``gen`` over cells whose lengths are ``np.diff`` of their grid
        points.

        The normals Z, drawn only for M or QV, come block by block from
        ``gen.spawn(1)[0]``, beside their own clock block, so no clock is
        held and the clock's bits do not depend on ``fields``.  Spawning
        leaves ``gen``'s state as it is, and a later draw from the same
        ``gen`` (a path extended past its horizon) spawns the next child.
        A single row is one block of the same path.
        """
        dl = _cell_lengths(self.n, first, cells)
        clock = self.spec.blocks(gen, dl, samples)
        if "M" not in fields and "QV" not in fields:
            for da in clock:
                yield IncrementBatch(dX=None, dA=da, dQV=None)
            return
        normals = gen.spawn(1)[0]
        zs, xs, qs = (_block_buffers(samples, cells) for _ in range(3))
        for da, z in zip(clock, zs):
            normals.standard_normal(out=z)
            z += 0.0  # normal(0, 1) is 0.0 + 1.0 * z, which makes -0.0 +0.0
            dx = dqv = None
            if "M" in fields:
                dx = np.sqrt(da, out=next(xs))
                dx *= z
            if "QV" in fields:
                dqv = np.multiply(da, z, out=next(qs))
                dqv *= z
            yield IncrementBatch(dX=dx, dA=da if "A" in fields else None,
                                 dQV=dqv)


@dataclass(frozen=True, kw_only=True)
class LinnikArray(SubordinatorArray):
    """The subordinator array of the unit gamma clock: Gamma(1/n, 1) clock
    increments times independent standard normals.  Its clock is fixed, so
    ``spec`` is neither an argument nor a config key.  Its values at fixed
    times, M(t) and A(t), are read from the clock's jump series (see
    :func:`marginal_samples`), at a cost that does not grow with n."""

    spec: SubordinatorSpec = field(default=levy.GammaSpec(1.0), init=False,
                                   repr=False)


class _OnBase(ArraySpec):
    """An array built on the array ``base``, on its grid."""

    n = property(lambda self: self.base.n)
    horizon = property(lambda self: self.base.horizon)


@dataclass(frozen=True)
class TransformArray(_OnBase):
    """Martingale transform of a base array by predictable weights."""

    base: ArraySpec
    weight: WeightSpec

    def __post_init__(self):
        if self.weight is None:
            raise PathDomainError("weight spec required")

    def _profile(self, first: int, cells: int) -> np.ndarray:
        """Profile weights Q((k-1)/n) of cells k = first+1 .. first+cells."""
        q = self.weight.resolve()
        return np.array([q(v) for v in
                         np.arange(first, first + cells, dtype=float) / self.n])

    def _weights(self, gen, first, cells) -> Callable[[int], np.ndarray]:
        """Weights Q_{n,k} of a row block, as a function of its row count.

        Each call draws a block's random-walk steps from ``gen``; ``_draw``
        calls it after the block's base increments are drawn.
        """
        if self.weight.kind == "profile":
            row = self._profile(first, cells)
            return lambda rows: row
        q = self.weight.resolve()
        if first:
            raise timechange.InsufficientHorizonError(
                "a random-walk transform cannot be extended past its horizon: "
                "its weights depend on the drawn prefix; use a larger horizon"
            )
        vec = np.vectorize(q, otypes=[float])

        def block(rows):
            walk = np.zeros((rows, cells))
            walk[:, 1:] = np.cumsum(gen.normal(0.0, 1.0, size=(rows, cells))
                                    [:, :-1], axis=1)
            walk *= self.weight.sigma / math.sqrt(self.n)
            return vec(walk)

        return block

    def _draw(self, gen, samples, first, cells, fields):
        weights = self._weights(gen, first, cells)
        base = self.base._draw(gen, samples, first, cells, fields)
        for b, rows in zip(base, _row_blocks(samples, cells)):
            q = weights(rows.stop - rows.start)
            yield IncrementBatch(
                dX=None if b.dX is None else q * b.dX,
                dA=None if b.dA is None else q * q * b.dA,
                dQV=None if b.dQV is None else q * q * b.dQV,
                dO=None if b.dO is None else q * b.dO,
            )


@dataclass(frozen=True)
class DriftedArray(_OnBase):
    """Base array plus predictable drift mu * A; N = M + O."""

    base: ArraySpec
    mu: float

    def _draw(self, gen, samples, first, cells, fields):
        drift = "O" in fields
        wanted = set(fields) - {"O"} | ({"A"} if drift else set())
        for b in self.base._draw(gen, samples, first, cells, wanted):
            yield IncrementBatch(dX=b.dX, dA=b.dA, dQV=b.dQV,
                                 dO=self.mu * b.dA if drift else None)


#: the families of config objects: levy's specs, arrays and weights
_FAMILIES = {
    **_SPEC_FAMILIES,
    "ArraySpec": ("array", {"linnik": LinnikArray, "polya": PolyaArray,
                            "lindeberg": LindebergArray,
                            "subordinator": SubordinatorArray,
                            "transform": TransformArray,
                            "drifted": DriftedArray}),
    "WeightSpec": ("weight", dict.fromkeys(_WEIGHT_KINDS, WeightSpec)),
}


def array_from_dict(doc: dict) -> ArraySpec:
    """Array from its config object: "kind" plus the array's fields; see
    :func:`levy._from_config`."""
    return _from_config(doc, "ArraySpec", _FAMILIES)


# -- sampling --------------------------------------------------------------


def sample_increments(spec: ArraySpec, rng: RngStream, samples: int) -> IncrementBatch:
    """Every increment of ``samples`` replicates, drawn from one generator."""
    cells = spec.cells
    out = {}
    blocks = spec._draw(rng.generator(), samples, 0, cells, _FIELDS)
    for rows, blk in zip(_row_blocks(samples, cells), blocks):
        for attr in _INCREMENTS.values():
            inc = getattr(blk, attr)
            if inc is not None:
                out.setdefault(attr, np.empty((samples, cells)))[rows] = inc
    return IncrementBatch(**out)


def _compensator_row(spec: ArraySpec, gen: np.random.Generator,
                     first: int, cells: int) -> np.ndarray:
    """Compensator increments of cells first+1 .. first+cells of a single
    replicate."""
    return next(spec._draw(gen, 1, first, cells, {"A"})).dA[0]


@dataclass(frozen=True)
class ArrayRealization:
    """One trajectory of an array with all its derived staircases."""

    spec: ArraySpec
    M: CadlagPath
    A: CadlagPath
    QV: CadlagPath
    O: CadlagPath
    N: CadlagPath


def realize(spec: ArraySpec, rng: RngStream) -> ArrayRealization:
    batch = sample_increments(spec, rng, 1)
    grid = spec.grid()
    m_path = _staircase_from_increments(grid, batch.dX[0])
    a_path = _staircase_from_increments(grid, batch.dA[0])
    qv_path = _staircase_from_increments(grid, batch.dQV[0])
    if batch.dO is None:
        o_path = _staircase_from_increments(grid, np.zeros(spec.cells))
        n_path = m_path
    else:
        o_path = _staircase_from_increments(grid, batch.dO[0])
        n_path = _staircase_from_increments(grid, batch.dX[0] + batch.dO[0])
    return ArrayRealization(spec=spec, M=m_path, A=a_path, QV=qv_path,
                            O=o_path, N=n_path)


def _stream(spec: ArraySpec, rng: RngStream, samples: int,
            fields) -> Iterator[tuple[slice, IncrementBatch]]:
    """(rows, block) pairs covering ``samples`` replicates in order, every
    row block drawn from the one generator of ``rng.child(0)``."""
    return zip(_row_blocks(samples, spec.cells), spec._draw(
        rng.child(0).generator(), samples, 0, spec.cells, fields))


#: increments each path of marginal_samples is summed from
_PATH_FIELDS = {"M": {"M"}, "A": {"A"}, "QV": {"QV"}, "O": {"O"},
                "N": {"M", "O"}}


def _series_clock(spec: ArraySpec, fields
                  ) -> Optional[tuple[levy.GammaSpec, Optional[np.ndarray]]]:
    """The gamma clock whose jump series gives ``fields`` of ``spec``, and
    the weights q of its grid cells (None when every weight is 1); None
    when they are read from the grid.

    Fields within "M" and "A" are read from the series for a subordinator
    array on a :class:`levy.GammaSpec` clock, the Linnik array included,
    and for a profile transform or a drifted array built on such an array.
    These draw from their base's stream, so each reads its base's jump
    list: a jump x at a time in grid cell k carries q_k sqrt(x) Z into M
    and q_k^2 x into A.  Every other read draws grid cells.
    """
    if not set(fields) <= {"M", "A"}:
        return None
    q = None
    while isinstance(spec, (TransformArray, DriftedArray)):
        if isinstance(spec, TransformArray):
            if spec.weight.kind != "profile":
                return None
            row = spec._profile(0, spec.cells)
            q = row if q is None else q * row
        spec = spec.base
    if (isinstance(spec, SubordinatorArray)
            and isinstance(spec.spec, levy.GammaSpec)):
        return spec.spec, q
    return None


def _series_jumps(series, n: int, k: int, first: float, samples: int,
                  rng: RngStream, fields, cells: bool):
    """The jump series that ``series``, a result of :func:`_series_clock`,
    reads for ``samples`` paths on [0, k/n], cut for the smallest positive
    time read, ``first``, from the generator of ``rng.child(0)``.

    Returns the row blocks (rows, counts, sizes, at) of
    :meth:`levy.GammaSpec.jumps` and ``block``, which turns a block's
    (counts, sizes, at) into (cell, increments):

    - ``cell`` is each jump's grid cell ceil(at n), clipped to 1 .. k, as
      a 0-based index written over ``at``; it is None, and ``at`` is kept,
      unless ``cells`` is set or the cells carry weights;
    - ``increments`` yields (field, increment of each jump), A before M.
      M puts one standard normal on each jump, from ``gen.spawn(1)[0]``,
      as :meth:`SubordinatorArray._draw` puts one on a cell, and
      overwrites ``sizes`` once A is read.

    A reader reads each block in a call of its own, so that a block's
    arrays are gone before the next is drawn.
    """
    clock, q = series
    gen = rng.child(0).generator()
    normals = gen.spawn(1)[0] if "M" in fields else None

    def increments(sizes, qc):
        if "A" in fields:
            yield "A", sizes if qc is None else sizes * qc * qc
        if "M" in fields:
            z = normals.standard_normal(sizes.size)
            np.sqrt(sizes, out=sizes)
            sizes *= z
            if qc is not None:
                sizes *= qc
            yield "M", sizes

    def block(counts, sizes, at):
        if not cells and q is None:
            return None, increments(sizes, None)
        at *= n
        np.ceil(at, out=at)
        np.clip(at, 1, k, out=at)
        cell = at.astype(np.intp)
        cell -= 1
        return cell, increments(sizes, None if q is None else q[cell])

    return clock.jumps(gen, k / n, first, samples), block


def marginal_samples(
    spec: ArraySpec,
    times: Sequence[float],
    samples: int,
    rng: RngStream,
    fields: Sequence[str] = ("M", "A"),
) -> dict[str, np.ndarray]:
    """Vectorized draws of path values at fixed times.

    Returns arrays of shape (samples, len(times)) keyed by field name
    ("M", "A", "QV", "O", "N"), read at the grid times k/n at or before
    ``times``.  Only the increments these paths need are drawn, and each
    block is summed over the cells up to the last time.

    Fields among "M" and "A" of an array on a gamma clock
    (:func:`_series_clock`: the Linnik array, a subordinator array on a
    gamma clock, and profile transforms and drifted arrays built on one)
    draw no cells: they are summed from the clock's jump series
    (:func:`_series_marginals`), at a cost independent of n.
    """
    grid = spec.grid()
    idx = np.array([grid.index_at(t) for t in times], dtype=int)
    series = _series_clock(spec, fields)
    if series is not None:
        return _series_marginals(series, spec.n, idx, samples, rng, fields)
    k = int(idx.max(initial=0))
    wanted = set().union(*(_PATH_FIELDS[f] for f in fields))
    out = {f: np.empty((samples, idx.size)) for f in fields}
    # per path, a block of running sums after a column of zeros, reused
    sums = {f: np.zeros((min(samples, _block_rows(spec.cells)), k + 1))
            for f in fields}
    for rows, blk in _stream(spec, rng, samples, wanted):
        for f in out:
            if f == "O" and blk.dO is None:
                out[f][rows] = 0.0
                continue
            if f == "N":
                inc = blk.dX[:, :k] + (0.0 if blk.dO is None else blk.dO[:, :k])
            else:
                inc = getattr(blk, _INCREMENTS[f])[:, :k]
            cs = sums[f][:rows.stop - rows.start]
            np.cumsum(inc, axis=1, out=cs[:, 1:])
            out[f][rows] = cs[:, idx]
    return out


def _series_marginals(series, n: int, idx: np.ndarray, samples: int,
                      rng: RngStream,
                      fields: Sequence[str]) -> dict[str, np.ndarray]:
    """:func:`marginal_samples` at grid indices ``idx`` of the grid k/n,
    for fields among "M" and "A", from the jump series that ``series``
    reads up to the last index (:func:`_series_jumps`).

    A value at time s is the sum of a row's jumps at times <= s, in jump
    order (``np.bincount``); at time 0 it is 0.
    """
    out = {f: np.zeros((samples, idx.size)) for f in fields}
    k = int(idx.max(initial=0))
    if not k:
        return out
    times = idx / n
    read = [j for j, s in enumerate(times) if s > 0]
    blocks, block = _series_jumps(series, n, k, times[read].min(), samples,
                                  rng, fields, False)

    def read_block(rows, counts, sizes, at):
        row = np.repeat(np.arange(counts.size), counts)
        # the jumps read at each time, all of them at the last; before
        # block() reads the cells of weighted jumps in place of ``at``
        kept = {j: None if idx[j] == k else at <= times[j] for j in read}
        _, inc = block(counts, sizes, at)
        for f, x in inc:
            for j, keep in kept.items():
                out[f][rows, j] = np.bincount(
                    row if keep is None else row[keep],
                    x if keep is None else x[keep], counts.size)

    for blk in blocks:
        read_block(*blk)
    return out


def _series_cells(series, n: int, k: int, samples: int, rng: RngStream,
                  field: str) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, increments) blocks of ``field`` over grid cells 1 .. k,
    binned (``np.bincount``) from the jump list that ``marginal_samples``
    at time k/n reads from ``rng``; a block holds at most
    ``_block_rows(k)`` rows."""
    blocks, block = _series_jumps(series, n, k, k / n, samples, rng,
                                  {field}, True)

    def binned(rows, counts, sizes, at):
        flat, [(_, x)] = block(counts, sizes, at)
        # each jump's cell in its block's rows of k cells
        flat += np.repeat(np.arange(0, counts.size * k, k), counts)
        ends = np.concatenate([[0], np.cumsum(counts)])
        for sub in _row_blocks(counts.size, k):
            lo, hi = ends[sub.start], ends[sub.stop]
            size = sub.stop - sub.start
            yield (slice(rows.start + sub.start, rows.start + sub.stop),
                   np.bincount(flat[lo:hi] - sub.start * k, x[lo:hi],
                               size * k).reshape(size, k))

    for blk in blocks:
        yield from binned(*blk)


def _running_sup(spec: ArraySpec, t: float, samples: int, rng: RngStream,
                 fields, increments: Callable[[IncrementBatch], np.ndarray]
                 ) -> np.ndarray:
    """sup_{s <= t} |X(s)| for the staircase X summed from ``increments``;
    for the one field of ``fields`` where :func:`_series_clock` reads it
    from a jump series, from that field's jumps binned into grid cells
    (:func:`_series_cells`)."""
    k = spec.grid().index_at(t)
    sup = np.zeros(samples)
    if not k:
        return sup
    series = _series_clock(spec, fields)
    if series is not None:
        [field] = fields
        blocks = _series_cells(series, spec.n, k, samples, rng, field)
    else:
        blocks = ((rows, increments(blk)[:, :k])
                  for rows, blk in _stream(spec, rng, samples, fields))
    for rows, inc in blocks:
        inc = np.cumsum(inc, axis=1)
        sup[rows] = np.max(np.abs(inc, out=inc), axis=1)
    return sup


def running_sup_samples(
    spec: ArraySpec,
    t: float,
    samples: int,
    rng: RngStream,
    field: str = "M",
) -> np.ndarray:
    """Vectorized draws of sup_{s <= t} |X(s)| for staircase trajectories.

    Exact over grid points, which exhaust the attainable values of a
    staircase on [0, t].  M and A of an array on a gamma clock
    (:func:`_series_clock`) are binned from the jump list that
    ``marginal_samples(spec, [t], samples, rng)`` reads, so the sup is at
    least |M(t)| and the sup of A is A(t), up to the order in which the
    jumps are summed.  A read at another t draws its own jump list.
    """
    attr = _INCREMENTS[field]
    return _running_sup(spec, t, samples, rng, {field},
                        lambda blk: getattr(blk, attr))


# -- hypothesis checks -----------------------------------------------------


@dataclass(frozen=True)
class HypEstimate:
    estimate: float
    stderr: float
    exceedance: float | None = None


def check_hyp_c(spec: ArraySpec, t: float, samples: int, rng: RngStream) -> HypEstimate:
    """Monte Carlo estimate of E{A(tau(A(t))) - A(t)}.

    The gap is the compensator increment carried by the first jump of the
    martingale after time t: the first positive cell of the compensator
    tail after t.  Reading the cell itself, rather than A(tau) - A(t),
    keeps increments far below the magnitude of A(t) exact.  Replicate r
    draws only the compensator of one path from ``rng.child(r)``.
    """
    if t >= spec.horizon:
        raise PathDomainError("t must be < horizon")
    k = spec.grid().index_at(t)
    gaps = np.empty(samples)
    for r in range(samples):
        tail = _compensator_row(spec, rng.child(r).generator(), 0,
                                spec.cells)[k:]
        rises = tail > 0
        if not rises.any():
            raise timechange.InsufficientHorizonError(
                "compensator does not increase after t; use a larger horizon"
            )
        gaps[r] = tail[np.argmax(rises)]
    est = float(np.mean(gaps))
    se = float(np.std(gaps, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return HypEstimate(estimate=est, stderr=se)


#: horizon doublings after which check_hyp_d gives up on a path
_MAX_DOUBLINGS = 6


def check_hyp_d(spec: ArraySpec, t: float, samples: int,
                rng: RngStream) -> HypEstimate:
    """Monte Carlo estimate of E{A(tau(t))}, with the exceedance
    E{A(tau(t))} - t >= 0.

    tau(t) = inf{s : A(s) > t} is the first passage of the compensator
    staircase above level t, so A(tau(t)) is the first grid value of A
    above t.  Replicate r reads it off one path of the array, drawn from
    ``rng.child(r)``.

    A path that has not passed t by the spec's horizon is extended, never
    redrawn: the next cells of the same path are appended from the same
    generator, each time doubling its length.  After ``_MAX_DOUBLINGS``
    extensions InsufficientHorizonError is raised.  (Redrawing such a path
    on a longer horizon would average a mixture of conditional laws, which
    overestimates E{A(tau(t))} for a gamma clock.)

    Only the compensator is drawn: a subordinator array's normals come
    from a child generator, so its clock continues the same whether or not
    they are drawn.  Extension needs compensator increments that do not
    depend on the drawn prefix.  That holds for the Linnik, subordinator
    and Lindeberg arrays, and for profile transforms and drifted arrays
    built on them.
    The Polya array and random-walk transforms raise
    InsufficientHorizonError instead of extending; give them a horizon at
    which A passes t.
    """
    if t < 0:
        raise PathDomainError("t must be >= 0")
    vals = np.empty(samples)
    for r in range(samples):
        gen = rng.child(r).generator()
        da = _compensator_row(spec, gen, 0, spec.cells)
        level = np.cumsum(da)
        for _ in range(_MAX_DOUBLINGS):
            if level.size and level[-1] > t:
                break
            more = _compensator_row(spec, gen, da.size, max(da.size, 1))
            da = np.concatenate([da, more])
            level = np.cumsum(da)
        if not (level.size and level[-1] > t):
            raise timechange.InsufficientHorizonError(
                f"compensator failed to pass level {t} after "
                f"{_MAX_DOUBLINGS} horizon doublings"
            )
        vals[r] = level[np.argmax(level > t)]
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return HypEstimate(estimate=est, stderr=se, exceedance=est - t)


@dataclass(frozen=True)
class LindebergReport:
    holds_in_limit: bool
    statistic_by_n: dict[int, float]
    epsilon: float


def lindeberg_statistic(alpha: float, beta: float, n: int, epsilon: float) -> float:
    """Exact truncated-second-moment sum for the two-point array.

    a_n^{-2} * sum over k <= n with |xi_k| = k^(alpha/2) > a_n*epsilon of
    k^(delta-1); no sampling is involved since the array's conditional
    moments are deterministic.
    """
    delta = alpha - beta + 1.0
    if delta < 0:
        raise PathDomainError("delta must be >= 0")
    a_n_sq = _a_n_sq(n, delta)
    cut = a_n_sq * epsilon * epsilon  # k^alpha > a_n^2 eps^2
    k = np.arange(1, n + 1, dtype=float)
    mask = k**alpha > cut
    return float(np.sum(k[mask] ** (delta - 1.0)) / a_n_sq)


def check_lindeberg(alpha: float, beta: float, epsilon: float,
                    n_ladder: Sequence[int]) -> LindebergReport:
    """Evaluate the truncated-moment condition across a growing n ladder.

    The verdict is numerical: the statistic must be nonincreasing along the
    ladder and end below a small threshold to count as holding.
    """
    stats = {int(n): lindeberg_statistic(alpha, beta, n, epsilon) for n in n_ladder}
    vals = [stats[int(n)] for n in n_ladder]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    holds = nonincreasing and vals[-1] < 1e-2
    return LindebergReport(holds_in_limit=holds, statistic_by_n=stats,
                           epsilon=epsilon)


def check_mcleish(
    spec: ArraySpec,
    t: float,
    samples: int,
    rng: RngStream,
    epsilons: Sequence[float] = (0.05, 0.1, 0.2),
) -> dict[float, float]:
    """P{sup_{s<=t} |[M]_s - A(s)| > eps} estimated by Monte Carlo.

    The supremum is exact over grid points since both processes are
    staircases constant between them.
    """
    sup = _running_sup(spec, t, samples, rng, {"QV", "A"},
                       lambda blk: blk.dQV - blk.dA)
    return {float(e): float(np.mean(sup > e)) for e in epsilons}


def check_jump_decomposition(real: ArrayRealization, tol: float = 1e-10) -> bool:
    """Quadratic variation at the horizon equals the sum of squared jumps."""
    total = sum(real.M.jump(s) ** 2 for s in real.M.jump_times())
    return abs(real.QV.terminal_value - total) <= tol
