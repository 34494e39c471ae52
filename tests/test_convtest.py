import json
import math

import numpy as np
import pytest

from cadlab.arrays import LinnikArray, PolyaArray, deterministic_profile
from cadlab.convtest import (
    CheckEntry,
    ConvergenceReport,
    ecf_distance,
    fdd_test,
    ks_critical_value,
    ks_two_sample,
    lenglart_check,
    standardization_test,
    transform_cf_test,
)
from cadlab.levy import RngStream
from cadlab.paths import PathDomainError

SEED = 20260824


def test_ecf_distance_exact_point_mass():
    samples = np.zeros(100)
    # CF of a point mass at 0 is 1 everywhere: distance 0 against itself
    assert ecf_distance(samples, lambda lam: 1.0 + 0.0j, [0.5, 1.0]) == 0.0
    # against the CF of N(0,1) the gap at lam=2 is 1 - e^{-2}
    d = ecf_distance(samples, lambda lam: math.exp(-lam * lam / 2.0), [2.0])
    assert d == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


def _ecf_distance_per_lambda(samples, cf, grid):
    """ecf_distance with the sample side computed at every lambda."""
    best = 0.0
    for lam in np.asarray(grid, dtype=float):
        re = float(np.mean(np.cos(lam * samples)))
        im = float(np.mean(np.sin(lam * samples)))
        model = complex(cf(float(lam)))
        best = max(best, math.hypot(re - model.real, im - model.imag))
    return best


@pytest.mark.parametrize("grid", [
    np.arange(-3, 3.125, 0.25),
    [2.0, -0.5, 0.0, 0.5, -1.25, 1.0, 3.0, -2.0, 0.75],
], ids=["symmetric", "asymmetric"])
def test_ecf_distance_reuses_the_sample_side_at_minus_lambda_exactly(grid):
    x = np.random.default_rng(SEED).standard_t(3, size=5000) + 0.3

    def cf(lam):  # complex valued, so the sign of the sine side matters
        return complex(math.exp(-lam * lam / 2.0), 0.2 * math.sin(lam))

    # every prefix, so each lambda that raises the sup is compared
    for k in range(1, len(grid) + 1):
        assert (ecf_distance(x, cf, grid[:k])
                == _ecf_distance_per_lambda(x, cf, grid[:k]))


def test_ecf_distance_validation():
    with pytest.raises(PathDomainError):
        ecf_distance(np.array([]), lambda lam: 1.0, [1.0])
    with pytest.raises(PathDomainError):
        ecf_distance(np.array([1.0]), lambda lam: 1.0, [])


def test_ks_two_sample_hand_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([3.5, 4.5, 5.5, 6.5])
    # all of a is below 3.5: the ecdf gap there is 1 - 1/4
    assert ks_two_sample(a, b) == pytest.approx(0.75)
    assert ks_two_sample(a, a) == 0.0


def test_ks_two_sample_matches_scipy():
    from scipy import stats

    gen = np.random.default_rng(SEED)
    a = gen.normal(size=500)
    b = gen.normal(0.3, 1.0, size=700)
    ours = ks_two_sample(a, b)
    ref = stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_critical_value():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.628
    v = ks_critical_value(0.01, 10000, 10000)
    assert v == pytest.approx(1.6276 * math.sqrt(2.0 / 10000), rel=1e-3)
    with pytest.raises(PathDomainError):
        ks_critical_value(0.0, 10, 10)


def test_report_serialization():
    report = ConvergenceReport(experiment_id="demo", seed=1, samples=10)
    report.add(CheckEntry("alpha", 4, "t=1", 0.5, 1.0, True, 0.1, 7, 10))
    doc = json.loads(report.to_json())
    assert doc["experiment_id"] == "demo"
    assert doc["entries"][0]["check_name"] == "alpha"
    lines = report.to_csv().splitlines()
    assert lines[0] == "check_name,n,param,statistic,threshold,pass,se,seed,samples"
    assert lines[1].startswith("alpha,4,t=1,0.5,1.0,True")
    assert report.all_passed


def test_fdd_test_gamma_clock():
    spec = LinnikArray(n=128, horizon=1.0)
    entry = fdd_test(spec, [0.5, 1.0], [1.0, -0.5],
                     lambda gen, size: gen.gamma(0.5, 1.0, size=size)
                     - 0.5 * gen.gamma(0.5, 1.0, size=size),
                     20000, RngStream(SEED, 0))
    assert entry.passed
    assert entry.check_name == "fdd"


def test_fdd_test_validation():
    spec = LinnikArray(n=16, horizon=1.0)
    with pytest.raises(PathDomainError):
        fdd_test(spec, [1.0, 0.5], [1.0, 1.0], lambda g, s: g.normal(size=s),
                 100, RngStream(SEED, 1))
    with pytest.raises(PathDomainError):
        fdd_test(spec, [0.5, 1.0], [1.0], lambda g, s: g.normal(size=s),
                 100, RngStream(SEED, 1))


def test_standardization_gamma_clock():
    spec = LinnikArray(n=128, horizon=1.0)
    entry = standardization_test(spec, 1.0, 20000, RngStream(SEED, 2))
    assert entry.passed
    assert entry.statistic <= ks_critical_value(0.01, 20000, 20000)


def test_standardization_polya_converges_slowly():
    # For this array the normalizer shares every source of randomness with
    # the martingale, which leaves a negative bias in the standardized
    # ratio (exact enumeration gives mean -0.091, -0.245, -0.303 at n = 3,
    # 8, 16).  The bias decays slowly: like n^(-0.17) from n = 10^2 to 10^4
    # and n^(-0.24) from 10^3 to 10^5.  The ratio drifts toward N(0,1) as
    # n grows but is still visibly non-normal at n=10^4.
    small = standardization_test(PolyaArray(n=1000, horizon=1.0), 1.0,
                                 10000, RngStream(SEED, 3))
    large = standardization_test(PolyaArray(n=10000, horizon=1.0), 1.0,
                                 10000, RngStream(SEED, 3))
    assert large.statistic < small.statistic
    assert not large.passed
    assert large.statistic < 0.1


def test_lenglart_bound_holds():
    spec = LinnikArray(n=64, horizon=1.0)
    entry = lenglart_check(spec, epsilon=1.0, eta=0.5, t=1.0,
                           samples=20000, rng=RngStream(SEED, 4))
    assert entry.passed
    # the bound direction: empirical LHS stays below the budgeted RHS
    assert entry.statistic <= entry.threshold


def test_transform_cf_unit_weight_reduces_to_plain():
    base = LinnikArray(n=64, horizon=1.0)
    entry = transform_cf_test(base, deterministic_profile("one"), 1.0,
                              50000, RngStream(SEED, 5),
                              np.arange(-3.0, 3.01, 0.5), threshold=0.03)
    assert entry.passed
