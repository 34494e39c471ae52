import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from cadlab import levy
from cadlab.arrays import deterministic_profile
from cadlab.levy import (
    CompositeSpec,
    CompoundPoissonSpec,
    DriftSpec,
    GammaSpec,
    InverseGaussianSpec,
    RngStream,
    StableSpec,
    linnik_cf,
    rescaling_check,
    sample_subordinator,
    sample_subordinator_increments,
    spec_from_dict,
    weighted_gamma_subordinated_cf,
)
from cadlab.paths import PathDomainError, TimeGrid

SEED = 20260824


def test_rng_stream_reproducible_and_independent():
    a = RngStream(SEED, 0)
    b = RngStream(SEED, 0)
    assert a.generator().normal(size=5) == pytest.approx(
        b.generator().normal(size=5))
    c = a.child(0)
    d = a.child(1)
    assert c != d
    assert not np.allclose(c.generator().normal(size=5),
                           d.generator().normal(size=5))


def test_gamma_increments_moments():
    spec = GammaSpec(shape_rate=2.0, scale=0.5)
    grid = TimeGrid(10, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 1),
                                         samples=20000)
    assert inc.shape == (20000, 10)
    assert np.all(inc >= 0.0)
    # Gamma(2 * 0.1, 0.5): mean 0.1, variance 0.05
    assert inc.mean() == pytest.approx(0.1, abs=0.003)
    assert inc.var() == pytest.approx(0.05, abs=0.003)


def test_inverse_gaussian_increments_moments():
    spec = InverseGaussianSpec(mu=1.0, lam=2.0)
    grid = TimeGrid(4, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 2),
                                         samples=40000)
    # IG(mean mu h, shape lam h^2): mean mu h, var mu^3 h / lam
    h = 0.25
    assert inc.mean() == pytest.approx(h, rel=0.02)
    assert inc.var() == pytest.approx(h / 2.0, rel=0.05)


def test_stable_laplace_transform():
    spec = StableSpec(alpha=0.5, scale=1.0)
    grid = TimeGrid(1, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 3),
                                         samples=200000)[:, 0]
    for u in (0.5, 1.0, 2.0):
        emp = np.mean(np.exp(-u * inc))
        assert emp == pytest.approx(math.exp(-u ** 0.5), abs=0.004)


def test_stable_self_similarity():
    spec = StableSpec(alpha=0.5, scale=1.0)
    grid = TimeGrid(4, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 4),
                                         samples=200000)[:, 0]
    # increment over h has Laplace transform exp(-h u^alpha)
    for u in (1.0, 2.0):
        emp = np.mean(np.exp(-u * inc))
        assert emp == pytest.approx(math.exp(-0.25 * u ** 0.5), abs=0.004)


def test_compound_poisson_increments():
    spec = CompoundPoissonSpec(rate=2.0, jump_mean=0.5)
    grid = TimeGrid(5, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 5),
                                         samples=50000)
    # cells with zero jump count contribute exactly zero
    assert np.mean(inc == 0.0) == pytest.approx(math.exp(-0.4), abs=0.01)
    assert inc.mean() == pytest.approx(0.4 * 0.5, rel=0.03)


def test_drift_path_is_exact_line():
    spec = DriftSpec(slope=1.5)
    path = sample_subordinator(spec, TimeGrid(10, 2.0), RngStream(SEED, 6))
    for t in np.linspace(0.0, 2.0, 21):
        assert path.eval(t) == pytest.approx(1.5 * t, abs=1e-12)


def test_composite_sums_components():
    spec = CompositeSpec((DriftSpec(slope=1.0), GammaSpec(shape_rate=1.0)))
    grid = TimeGrid(4, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 7),
                                         samples=50000)
    assert np.all(inc >= 0.25)  # drift floor per cell
    assert inc.mean() == pytest.approx(0.5, rel=0.03)


def test_spec_from_dict_builds_each_kind():
    gamma = {"kind": "gamma", "shape_rate": 1.0}
    cases = [
        ({"kind": "gamma", "shape_rate": 2, "scale": 0.5},
         GammaSpec(shape_rate=2.0, scale=0.5)),
        ({"kind": "inverse_gaussian", "mu": 1.0, "lam": 2.0},
         InverseGaussianSpec(mu=1.0, lam=2.0)),
        ({"kind": "stable", "alpha": 0.7, "scale": 1.2},
         StableSpec(alpha=0.7, scale=1.2)),
        ({"kind": "compound_poisson", "rate": 3.0, "jump_mean": 0.25},
         CompoundPoissonSpec(rate=3.0, jump_mean=0.25)),
        ({"kind": "drift", "slope": 1.0}, DriftSpec(slope=1.0)),
        ({"kind": "composite", "parts": [
            {"kind": "drift", "slope": 1.0},
            {"kind": "composite", "parts": [gamma]}]},
         CompositeSpec((DriftSpec(slope=1.0),
                        CompositeSpec((GammaSpec(shape_rate=1.0),))))),
    ]
    for doc, spec in cases:
        assert spec_from_dict(doc) == spec


def test_spec_validation():
    with pytest.raises(PathDomainError):
        GammaSpec(shape_rate=0.0)
    with pytest.raises(PathDomainError):
        StableSpec(alpha=1.0)
    with pytest.raises(PathDomainError):
        DriftSpec(slope=-1.0)
    with pytest.raises(PathDomainError):
        spec_from_dict({"kind": "nope"})


def test_subordinator_path_is_nondecreasing_staircase():
    path = sample_subordinator(GammaSpec(shape_rate=1.0), TimeGrid(50, 1.0),
                               RngStream(SEED, 8))
    assert path.is_nondecreasing()
    assert path.eval(0.0) == 0.0


def test_cf_oracles_consistency():
    # unit weight reduces the weighted oracle to the plain one
    w = weighted_gamma_subordinated_cf(1.3, 0.7, lambda u: 1.0)
    assert w == pytest.approx(linnik_cf(1.3, 0.7), abs=1e-10)
    with pytest.raises(PathDomainError):
        linnik_cf(0.0, 1.0)


def test_weighted_cf_two_plus_cos_value():
    # independent quadrature of the log-CF integral, trapezoid at high
    # resolution, frozen as a reference value
    lam = 1.0
    q = lambda u: 2.0 + math.cos(2.0 * math.pi * u)
    us = np.linspace(0.0, 1.0, 20001)
    integrand = np.log1p(lam * lam * np.vectorize(q)(us) ** 2 / 2.0)
    ref = math.exp(-np.trapezoid(integrand, us))
    val = weighted_gamma_subordinated_cf(1.0, lam, q)
    assert val.real == pytest.approx(ref, abs=1e-6)
    assert val.imag == 0.0


def _log_cf_integrand(lam, q):
    return lambda u: math.log1p(lam * lam * q(u) ** 2 / 2.0)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_weighted_cf_constant_and_step_profiles_closed_form(lam):
    t, c, jump = 1.3, 1.7, 0.3717
    exact = (1.0 + lam * lam * c * c / 2.0) ** -t
    assert abs(weighted_gamma_subordinated_cf(t, lam, lambda u: c)
               - exact) <= 1e-12
    # Q = 1 before the jump and 2 after it
    step = lambda u: 1.0 if u < jump else 2.0
    exact = math.exp(-jump * math.log1p(lam * lam / 2.0)
                     - (t - jump) * math.log1p(2.0 * lam * lam))
    assert abs(weighted_gamma_subordinated_cf(t, lam, step) - exact) <= 1e-12


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_weighted_cf_kinked_profile_matches_split_quadrature(lam):
    # quad at its default relative tolerance missed this by 1.4e-7
    t, kink = 1.3, 0.41
    q = lambda u: 1.0 + abs(u - kink)
    f = _log_cf_integrand(lam, q)
    val = sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13)[0]
              for a, b in ((0.0, kink), (kink, t)))
    assert abs(weighted_gamma_subordinated_cf(t, lam, q)
               - math.exp(-val)) <= 1e-10


def test_weighted_cf_two_plus_cos_matches_quad_on_the_cli_grid():
    # the shipped profile is smooth, so quad's values, which the oracle
    # used to return, are kept to within a few ulps
    q = deterministic_profile("two_plus_cos").resolve()
    for lam in np.arange(-3.0, 3.0 + 0.125, 0.25):  # the CLI's default grid
        f = _log_cf_integrand(lam, q)
        val = integrate.quad(f, 0.0, 1.0, epsabs=1e-10, limit=200)[0]
        assert abs(weighted_gamma_subordinated_cf(1.0, lam, q)
                   - math.exp(-val)) <= 1e-14, lam


def test_rescaling_check_small():
    stat = rescaling_check(GammaSpec(shape_rate=1.0), 0.0, 1.0, 20000,
                           RngStream(SEED, 12), grid_n=100)
    # 1% two-sample critical value at 2 x 20000
    assert stat < 1.63 * math.sqrt(2.0 / 20000)


# -- streamed samplers against the whole-batch reference -------------------
#
# _reference_increments is the whole-batch sampler each spec had before it
# streamed: every variate drawn for all of ``dl`` at once.  The streamed
# samplers must reproduce its values and leave the generator in its state.


def _reference_increments(spec, gen, dl):
    """Whole-batch increments for cells of clock length ``dl`` (any shape)."""
    dl = np.asarray(dl, dtype=float)
    if isinstance(spec, GammaSpec):
        return gen.gamma(spec.shape_rate * dl, spec.scale)
    if isinstance(spec, InverseGaussianSpec):
        out = np.zeros_like(dl)
        pos = dl > 0
        out[pos] = gen.wald(spec.mu * dl[pos], spec.lam * dl[pos] ** 2)
        return out
    if isinstance(spec, StableSpec):
        a, u = spec.alpha, gen.uniform(0.0, 1.0, size=dl.shape)
        e = gen.exponential(1.0, size=dl.shape)
        pu = np.pi * u
        k = (np.sin(a * pu) ** (a / (1.0 - a)) * np.sin((1.0 - a) * pu)
             / np.sin(pu) ** (1.0 / (1.0 - a)))
        s = (k / e) ** ((1.0 - a) / a)
        return np.where(dl > 0, (spec.scale * dl) ** (1.0 / a) * s, 0.0)
    if isinstance(spec, CompoundPoissonSpec):
        counts = gen.poisson(spec.rate * dl)
        return gen.gamma(counts.astype(float), spec.jump_mean)
    if isinstance(spec, DriftSpec):
        return spec.slope * dl
    if isinstance(spec, CompositeSpec):
        total = np.zeros_like(dl)
        for p in spec.parts:
            total = total + _reference_increments(p, gen, dl)
        return total
    raise TypeError(spec)


def _reference_rescaling(spec, s, t, samples, rng, grid_n):
    """rescaling_check with the whole-batch sampler: each side draws its
    batches of _BATCH_CELLS // cells rows one after the other from its one
    generator, each batch whole."""
    from cadlab.convtest import ks_two_sample

    grid = TimeGrid(grid_n, t)
    k_s, k_t = grid.index_at(s), grid.index_at(t)
    dl = np.diff(grid.points())
    rows = max(1, levy._BATCH_CELLS // dl.size)

    def gaps(gen):
        return np.concatenate([
            _reference_increments(spec, gen, np.broadcast_to(
                dl, (min(rows, samples - r0), dl.size)))[:, k_s:k_t].sum(axis=1)
            for r0 in range(0, samples, rows)])

    gen1 = rng.child(1).generator()
    side1 = gen1.normal(0.0, 1.0, size=samples) * np.sqrt(gaps(gen1))
    gen2 = rng.child(2).generator()
    a_gap = gaps(gen2)
    w_inc = gen2.normal(0.0, math.sqrt(t - s), size=samples)
    return ks_two_sample(side1, w_inc * np.sqrt(a_gap / (t - s)))


ORACLE_SPECS = [
    GammaSpec(shape_rate=1.3, scale=0.7),
    InverseGaussianSpec(mu=1.0, lam=2.0),
    StableSpec(alpha=0.6),
    CompoundPoissonSpec(rate=3.0, jump_mean=0.5),
    # about 312 jumps a cell on 64 cells: counts wider than a byte
    CompoundPoissonSpec(rate=2e4, jump_mean=0.5),
    DriftSpec(slope=1.5),
    CompositeSpec((InverseGaussianSpec(mu=1.0, lam=2.0),
                   CompoundPoissonSpec(rate=3.0, jump_mean=0.5))),
]
ORACLE_IDS = ["gamma", "ig", "stable", "cp", "cp_wide", "drift", "composite"]
#: ids of the cases drawn on the plain grid k/n
PLAIN_IDS = [f"{i}-plain" for i in ORACLE_IDS]


@pytest.mark.parametrize("rows", [1, 7, 3000])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=PLAIN_IDS)
def test_increments_match_whole_batch_reference(spec, rows):
    grid = TimeGrid(64, 1.0)
    dl = np.diff(grid.points())
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 30), rows)
    gen = RngStream(SEED, 30).generator()
    ref = _reference_increments(spec, gen, np.broadcast_to(dl, (rows, dl.size)))
    assert np.array_equal(inc, ref)
    # the generator ends where the whole-batch draw left it
    got = RngStream(SEED, 30).generator()
    spec.increments(got, dl, rows)
    assert np.array_equal(got.random(4), gen.random(4))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=PLAIN_IDS)
def test_rescaling_check_matches_whole_batch_reference(spec, monkeypatch):
    args = (spec, 0.25, 1.0, 600, RngStream(SEED, 31))
    assert rescaling_check(*args, grid_n=50) == _reference_rescaling(*args, 50)
    # several batches per side, each read in several blocks, with partial
    # last ones; the batches of a side share its one generator
    monkeypatch.setattr(levy, "_BATCH_CELLS", 5_011)
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 700)
    assert rescaling_check(*args, grid_n=50) == _reference_rescaling(*args, 50)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_increments_across_blocks_match_reference(spec, monkeypatch):
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 100)
    dl = np.diff(TimeGrid(64, 1.0).points())
    got = RngStream(SEED, 32).generator()
    gen = RngStream(SEED, 32).generator()
    # integers(0, 2) draws 32 bits and buffers the other half of its
    # 64-bit draw, which the jump past the stable uniforms must keep; the
    # whole state is compared, since random(4) draws 64 bits and cannot
    # see the buffered half
    assert np.array_equal(got.integers(0, 2, size=3),
                          gen.integers(0, 2, size=3))
    assert got.bit_generator.state["has_uint32"]
    assert np.array_equal(spec.increments(got, dl, 301),
                          _reference_increments(spec, gen, np.broadcast_to(
                              dl, (301, dl.size))))
    assert got.bit_generator.state == gen.bit_generator.state


@pytest.fixture
def malloc_batches(monkeypatch):
    """Batch-held arrays from ``np.empty``, which tracemalloc sees; it does
    not see the mappings of ``levy._batch_array``, which every batch-held
    array of ``levy`` and ``arrays`` of at least one row block comes
    from."""
    monkeypatch.setattr(levy, "_batch_array", np.empty)


def _peak_bytes(fn, *args, **kwargs) -> int:
    """tracemalloc's peak over one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, least, most", [
    (StableSpec(alpha=0.6), 0.0, 0.25),
    (ORACLE_SPECS[-1], 1.0, 1.25),
], ids=["stable", "composite"])
def test_rescaling_check_memory_at_mix_scale(spec, least, most,
                                             malloc_batches):
    # mix's rescaling checks: 3000 samples on a grid of 1000.  The whole-
    # batch samplers held five or six (samples, 1000) arrays (138 and
    # 117 MiB).  Streamed, the composite holds its inverse Gaussian part
    # and its Poisson counts, one byte a cell.  The stable sampler held its
    # uniforms until the generator jumped past them: it holds no batch.
    batch_bytes = 3000 * 1000 * 8
    peak = _peak_bytes(rescaling_check, spec, 0.25, 1.0, 3000,
                       RngStream(SEED, 33))
    assert least * batch_bytes <= peak <= most * batch_bytes, (
        peak / 2**20, batch_bytes / 2**20)
