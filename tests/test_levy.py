import math

import numpy as np
import pytest
from scipy import integrate

from cadlab.arrays import deterministic_profile
from cadlab.levy import (
    CompositeSpec,
    CompoundPoissonSpec,
    DriftSpec,
    GammaSpec,
    InverseGaussianSpec,
    RngStream,
    StableSpec,
    gamma_subordinated_cf,
    linnik_cf,
    rescaling_check,
    sample_brownian,
    sample_subordinator,
    sample_subordinator_increments,
    spec_from_dict,
    subordinate,
    subordinate_terminal,
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
    assert spec.is_deterministic()


def test_composite_sums_components():
    spec = CompositeSpec((DriftSpec(slope=1.0), GammaSpec(shape_rate=1.0)))
    grid = TimeGrid(4, 1.0)
    inc = sample_subordinator_increments(spec, grid, RngStream(SEED, 7),
                                         samples=50000)
    assert np.all(inc >= 0.25)  # drift floor per cell
    assert inc.mean() == pytest.approx(0.5, rel=0.03)
    assert spec.mean_rate() == 2.0


def test_spec_serialization_round_trip():
    specs = [
        GammaSpec(shape_rate=2.0, scale=0.5),
        InverseGaussianSpec(mu=1.0, lam=2.0),
        StableSpec(alpha=0.7, scale=1.2),
        CompoundPoissonSpec(rate=3.0, jump_mean=0.25),
        DriftSpec(slope=1.0),
        CompositeSpec((DriftSpec(slope=1.0), GammaSpec(shape_rate=1.0))),
    ]
    for spec in specs:
        assert spec_from_dict(spec.to_dict()) == spec


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


def test_brownian_path_moments():
    grid = TimeGrid(100, 1.0)
    terminals = [sample_brownian(grid, RngStream(SEED, 9).child(i)).terminal_value
                 for i in range(4000)]
    terminals = np.asarray(terminals)
    assert terminals.mean() == pytest.approx(0.0, abs=0.05)
    assert terminals.var() == pytest.approx(1.0, rel=0.1)


def test_subordinate_pair_consistency():
    A, M = subordinate(GammaSpec(shape_rate=1.0), TimeGrid(20, 1.0),
                       RngStream(SEED, 10))
    assert A.is_nondecreasing()
    assert M.horizon == A.horizon
    grid_points = set(np.round(np.arange(21) / 20.0, 12))
    assert all(round(t, 12) in grid_points for t in M.jump_times())


def test_subordinate_terminal_matches_linnik_cf():
    grid = TimeGrid(64, 1.0)
    _, m = subordinate_terminal(GammaSpec(shape_rate=1.0), grid,
                                RngStream(SEED, 11), samples=200000)
    for lam in (0.5, 1.0, 2.0):
        emp = np.mean(np.exp(1j * lam * m))
        assert abs(emp - linnik_cf(1.0, lam)) < 0.01


def test_cf_oracles_consistency():
    assert linnik_cf(1.0, 1.0) == gamma_subordinated_cf(1.0, 1.0)
    # unit weight reduces the weighted oracle to the plain one
    w = weighted_gamma_subordinated_cf(1.3, 0.7, lambda u: 1.0)
    assert w == pytest.approx(gamma_subordinated_cf(1.3, 0.7), abs=1e-10)
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
