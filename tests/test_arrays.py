import concurrent.futures
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from cadlab import arrays, levy
from cadlab.arrays import (
    DriftedArray,
    LindebergArray,
    LinnikArray,
    PolyaArray,
    SubordinatorArray,
    TransformArray,
    WeightSpec,
    array_from_dict,
    check_hyp_c,
    check_hyp_d,
    check_jump_decomposition,
    check_lindeberg,
    check_mcleish,
    deterministic_profile,
    lindeberg_statistic,
    marginal_samples,
    random_walk_profile,
    realize,
    running_sup_samples,
    sample_increments,
)
from cadlab.levy import (CompositeSpec, CompoundPoissonSpec, DriftSpec,
                         GammaSpec, InverseGaussianSpec, RngStream, StableSpec,
                         _staircase_from_increments)
from cadlab.paths import PathDomainError, TimeGrid
from cadlab.timechange import InsufficientHorizonError, inverse
from test_levy import BLOCK_BYTES, _peak_bytes, _reference_increments

SEED = 20260824


def test_linnik_increment_moments():
    spec = LinnikArray(n=50, horizon=1.0)
    batch = sample_increments(spec, RngStream(SEED, 0), 20000)
    assert batch.dX.shape == (20000, 50)
    # compensator increments are the gamma clock draws themselves
    assert batch.dA.mean() == pytest.approx(1.0 / 50, rel=0.03)
    assert batch.dX.mean() == pytest.approx(0.0, abs=0.002)
    assert (batch.dX ** 2).mean() == pytest.approx(1.0 / 50, rel=0.05)


def test_linnik_compensator_mean_at_t():
    spec = LinnikArray(n=64, horizon=1.0)
    marg = marginal_samples(spec, [0.5, 1.0], 40000, RngStream(SEED, 1),
                            fields=("A",))
    assert marg["A"][:, 0].mean() == pytest.approx(32 / 64, rel=0.02)
    assert marg["A"][:, 1].mean() == pytest.approx(1.0, rel=0.02)


def test_polya_compensator_equals_quadratic_variation():
    spec = PolyaArray(n=200, horizon=1.0)
    batch = sample_increments(spec, RngStream(SEED, 2), 100)
    assert np.allclose(batch.dA, batch.dQV)
    assert np.allclose(batch.dX ** 2, batch.dQV)


def test_polya_compensator_mean_close_to_pi_squared_over_six():
    spec = PolyaArray(n=10000, horizon=1.0)
    marg = marginal_samples(spec, [1.0], 2000, RngStream(SEED, 3), fields=("A",))
    # E A(1) = (1/n) sum E Z_{k-1}^2 -> E Z_inf^2 = pi^2/6, with a
    # truncation correction from the early terms
    assert marg["A"][:, 0].mean() == pytest.approx(math.pi ** 2 / 6.0, rel=0.05)


def test_lindeberg_array_derived_quantities():
    spec = LindebergArray(n=1000, alpha=1.0, beta=0.5, horizon=1.0)
    assert spec.delta == 1.5
    assert spec.a_n_sq == pytest.approx(1000.0 ** 1.5)
    # deterministic compensator: A(1) = n^{-1.5} sum k^{0.5}
    a1 = spec.compensator_increments().sum()
    assert a1 == pytest.approx(sum(k ** 0.5 for k in range(1, 1001)) / 1000 ** 1.5)
    assert abs(a1 - 1.0 / 1.5) <= 0.01


def test_lindeberg_array_delta_validation():
    with pytest.raises(PathDomainError):
        LindebergArray(n=100, alpha=0.5, beta=2.0, horizon=1.0)
    with pytest.warns(UserWarning):
        LindebergArray(n=100, alpha=1.0, beta=2.0, horizon=1.0)
    # at delta = 0, a_n^2 = log n is 0 at n = 1
    with pytest.raises(PathDomainError, match="n must be >= 2 at delta = 0"):
        LindebergArray(n=1, alpha=1.0, beta=2.0, horizon=1.0)
    with pytest.raises(PathDomainError, match="n must be >= 2 at delta = 0"):
        lindeberg_statistic(1.0, 2.0, 1, 0.1)


def test_subordinator_array_uses_clock_increments():
    spec = SubordinatorArray(n=20, spec=DriftSpec(slope=1.0), horizon=1.0)
    batch = sample_increments(spec, RngStream(SEED, 4), 5)
    assert np.allclose(batch.dA, 1.0 / 20)


def test_transform_array_scales_compensator_by_squared_weight():
    base = LinnikArray(n=16, horizon=1.0)
    spec = TransformArray(base, deterministic_profile("two_plus_cos"))
    batch = sample_increments(spec, RngStream(SEED, 5), 10)
    q = np.array([2.0 + math.cos(2.0 * math.pi * k / 16) for k in range(16)])
    base_batch = sample_increments(base, RngStream(SEED, 5), 10)
    # same stream: the weights are deterministic, so the draws line up
    assert np.allclose(batch.dA, q ** 2 * base_batch.dA)
    assert np.allclose(batch.dX, q * base_batch.dX)


def test_random_walk_weights_bounded():
    w = random_walk_profile("two_plus_cos", sigma=1.0)  # Q in [1, 3]
    # deterministic unit-rate clock: dA = Q_{n,k}^2 / n exposes the weights
    base = SubordinatorArray(n=64, spec=DriftSpec(slope=1.0), horizon=1.0)
    spec = TransformArray(base, w)
    batch = sample_increments(spec, RngStream(SEED, 6), 50)
    q_sq = batch.dA * 64
    assert np.all(q_sq >= 1.0 - 1e-9)
    assert np.all(q_sq <= 9.0 + 1e-9)
    assert q_sq.std() > 0.0  # the walk actually moves the weights


def test_weight_spec_validation():
    with pytest.raises(PathDomainError):
        WeightSpec(kind="profile", name="nope")
    with pytest.raises(PathDomainError):
        random_walk_profile("nope", sigma=1.0)
    with pytest.raises(PathDomainError):
        deterministic_profile(const=0.0)


def test_drifted_array_components():
    base = LinnikArray(n=32, horizon=1.0)
    spec = DriftedArray(base, mu=2.0)
    real = realize(spec, RngStream(SEED, 7))
    for t in [0.25, 0.5, 1.0]:
        assert real.O.eval(t) == pytest.approx(2.0 * real.A.eval(t), abs=1e-12)
        assert real.N.eval(t) == pytest.approx(real.M.eval(t) + real.O.eval(t),
                                               abs=1e-12)


def test_array_from_dict_builds_each_kind():
    linnik = {"kind": "linnik", "n": 8}
    cases = [
        (linnik, LinnikArray(n=8, horizon=1.0)),
        ({"kind": "polya", "n": 100, "horizon": 2},
         PolyaArray(n=100, horizon=2.0)),
        ({"kind": "lindeberg", "n": 100, "alpha": 1.0, "beta": 0.5},
         LindebergArray(n=100, alpha=1.0, beta=0.5, horizon=1.0)),
        ({"kind": "subordinator", "n": 10, "horizon": 0.5, "spec": {
            "kind": "composite", "parts": [
                {"kind": "gamma", "shape_rate": 1.0},
                {"kind": "stable", "alpha": 0.6}]}},
         SubordinatorArray(n=10, horizon=0.5, spec=CompositeSpec(
             (GammaSpec(shape_rate=1.0), StableSpec(alpha=0.6))))),
        ({"kind": "transform", "base": linnik,
          "weight": {"kind": "profile", "name": "two_plus_cos"}},
         TransformArray(LinnikArray(n=8),
                        deterministic_profile("two_plus_cos"))),
        ({"kind": "transform", "base": linnik,
          "weight": {"kind": "profile", "const": 2}},
         TransformArray(LinnikArray(n=8), deterministic_profile(const=2.0))),
        ({"kind": "transform", "base": linnik,
          "weight": {"kind": "profile", "name": "two_plus_cos",
                     "const": None}},
         TransformArray(LinnikArray(n=8),
                        deterministic_profile("two_plus_cos"))),
        ({"kind": "transform", "base": linnik, "weight": {
            "kind": "random_walk", "name": "two_plus_cos", "sigma": 0.5}},
         TransformArray(LinnikArray(n=8),
                        random_walk_profile("two_plus_cos", sigma=0.5))),
        ({"kind": "drifted", "mu": 1.5, "base": {"kind": "transform",
                                                "base": linnik,
                                                "weight": {"kind": "profile"}}},
         DriftedArray(TransformArray(LinnikArray(n=8),
                                     deterministic_profile()), mu=1.5)),
    ]
    for doc, spec in cases:
        assert array_from_dict(doc) == spec
    # an int in a float field becomes a float
    assert type(array_from_dict(cases[1][0]).horizon) is float


def test_realize_staircase_structure():
    spec = LinnikArray(n=10, horizon=1.0)
    real = realize(spec, RngStream(SEED, 8))
    assert real.M.eval(0.0) == 0.0
    assert real.A.is_nondecreasing()
    assert real.QV.is_nondecreasing()
    # values are constant between grid points
    assert real.M.eval(0.05) == real.M.eval(0.0)
    assert real.M.eval(0.15) == real.M.eval(0.1)


def test_jump_decomposition_exact():
    for spec in (LinnikArray(n=25, horizon=1.0),
                 PolyaArray(n=25, horizon=1.0),
                 LindebergArray(n=25, alpha=1.0, beta=0.5, horizon=1.0)):
        real = realize(spec, RngStream(SEED, 9))
        assert check_jump_decomposition(real)


def test_check_hyp_c_linnik():
    spec = LinnikArray(n=64, horizon=1.0)
    est = check_hyp_c(spec, 0.7, 1500, RngStream(SEED, 10))
    assert abs(est.estimate - 1.0 / 64) <= 4.0 * est.stderr


def test_check_hyp_c_drift_exact():
    spec = SubordinatorArray(n=10, spec=DriftSpec(slope=1.0), horizon=1.0)
    est = check_hyp_c(spec, 0.55, 3, RngStream(SEED, 11))
    # the gap is exactly one deterministic grid increment
    assert est.estimate == pytest.approx(0.1, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def _hyp_c_by_exact_inverse(spec, t, samples, rng):
    """check_hyp_c through the exact first-passage inverse: the gap is
    B(tau_B(0)) for the tail staircase B(s) = A(t + s) - A(t)."""
    grid = spec.grid()
    k = grid.index_at(t)
    gaps = np.empty(samples)
    for r in range(samples):
        tail = sample_increments(spec, rng.child(r), 1).dA[0, k:]
        B = _staircase_from_increments(
            TimeGrid(spec.n, spec.horizon - grid.points()[k]), tail)
        gaps[r] = B.eval(inverse(B, 0.0).tau.terminal_value)
    return float(np.mean(gaps)), float(np.std(gaps, ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("spec", [
    LinnikArray(n=64, horizon=1.0),
    LinnikArray(n=256, horizon=1.0),
    SubordinatorArray(n=64, spec=GammaSpec(shape_rate=1.0), horizon=1.0),
    LindebergArray(n=64, alpha=1.0, beta=0.5, horizon=1.0),
])
def test_check_hyp_c_matches_exact_inverse(spec):
    # the first positive tail cell is the value the exact inverse reads,
    # and drawing only A leaves that cell unchanged
    est = check_hyp_c(spec, 0.7, 300, RngStream(SEED, 24))
    oracle = _hyp_c_by_exact_inverse(spec, 0.7, 300, RngStream(SEED, 24))
    assert (est.estimate, est.stderr) == oracle


def test_check_hyp_d_drift_exact():
    spec = SubordinatorArray(n=10, spec=DriftSpec(slope=1.0), horizon=2.0)
    est = check_hyp_d(spec, 1.0, 3, RngStream(SEED, 12))
    # first passage above 1 happens at the grid point 1.1
    assert est.estimate == pytest.approx(1.1, abs=1e-12)
    assert est.exceedance == pytest.approx(0.1, abs=1e-12)
    # and at 1.01 on linnik.json's hyp_d array
    spec = SubordinatorArray(n=100, spec=DriftSpec(slope=1.0), horizon=2.0)
    est = check_hyp_d(spec, 1.0, 50, RngStream(SEED, 12))
    assert est.estimate == pytest.approx(1.01, abs=1e-12)


def test_check_hyp_d_resamples_insufficient_horizon():
    # horizon 1 rarely suffices for a Gamma(1, .) clock to pass level 2;
    # the check extends each such path past the horizon instead of failing
    spec = LinnikArray(n=16, horizon=1.0)
    est = check_hyp_d(spec, 2.0, 50, RngStream(SEED, 13))
    assert est.estimate > 2.0


def test_check_hyp_d_linnik_matches_wald_oracle():
    # Wald's identity for i.i.d. Gamma(1/n) cells: E{A(tau(t))} = E{N}/n,
    # where N is the first cell index with A > t and
    # E{N} = 1 + sum_{k>=1} P(Gamma(k/n) <= t).  At horizon 0.5 about 84%
    # of the paths have not passed t = 1 yet and must be extended; drawing
    # them afresh on a longer horizon instead biases the mean by +0.03 to
    # +0.05, more than 4 standard errors at this replicate count.
    n, t = 64, 1.0
    oracle = (1.0 + gammainc(np.arange(1, 60 * n) / n, t).sum()) / n
    est = check_hyp_d(LinnikArray(n=n, horizon=0.5), t, 16_000,
                      RngStream(SEED, 19))
    assert abs(est.estimate - oracle) <= 4.0 * est.stderr
    assert est.exceedance == pytest.approx(est.estimate - t)


def _hyp_d_from_all_fields(spec, t, samples, rng):
    """check_hyp_d's (estimate, stderr) read off draws of every field,
    each path extended from its generator as check_hyp_d extends it."""
    vals = np.empty(samples)
    for r in range(samples):
        gen = rng.child(r).generator()

        def cells(first, count):
            return next(spec._draw(gen, 1, first, count,
                                   arrays._FIELDS)).dA[0]
        da = cells(0, spec.cells)
        while np.cumsum(da)[-1] <= t:
            da = np.concatenate([da, cells(da.size, da.size)])
        level = np.cumsum(da)
        vals[r] = level[np.argmax(level > t)]
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("spec", [
    LinnikArray(n=64, horizon=0.5),
    SubordinatorArray(n=32, spec=GammaSpec(shape_rate=2.0, scale=0.5),
                      horizon=0.25),
], ids=["linnik", "gamma"])
def test_check_hyp_d_reads_the_compensator_of_all_field_draws(spec):
    # check_hyp_d draws only A; the normals of an all-field draw come from
    # a child generator, so the extensions' clocks, and the estimate, keep
    # their bits.  Most paths pass t = 1 only after an extension
    assert sample_increments(spec, RngStream(SEED, 0), 1).dA.sum() <= 1.0
    est = check_hyp_d(spec, 1.0, 200, RngStream(SEED, 38))
    assert (est.estimate, est.stderr) == _hyp_d_from_all_fields(
        spec, 1.0, 200, RngStream(SEED, 38))


@pytest.mark.parametrize("short, long_, t", [
    (LindebergArray(n=16, alpha=1.0, beta=0.5, horizon=1.0),
     LindebergArray(n=16, alpha=1.0, beta=0.5, horizon=4.0), 2.0),
    (TransformArray(SubordinatorArray(n=10, spec=DriftSpec(slope=1.0),
                                      horizon=0.5),
                    deterministic_profile("two_plus_cos")),
     TransformArray(SubordinatorArray(n=10, spec=DriftSpec(slope=1.0),
                                      horizon=2.0),
                    deterministic_profile("two_plus_cos")), 3.0),
    (DriftedArray(LindebergArray(n=16, alpha=1.0, beta=0.5, horizon=1.0), 0.5),
     DriftedArray(LindebergArray(n=16, alpha=1.0, beta=0.5, horizon=4.0), 0.5),
     2.0),
])
def test_check_hyp_d_extension_continues_the_same_path(short, long_, t):
    # deterministic compensators whose increments depend on the cell index:
    # a path extended past its horizon is, cell for cell, the path drawn
    # on a horizon long enough to need no extension
    assert sample_increments(short, RngStream(SEED, 0), 1).dA.sum() <= t
    extended = check_hyp_d(short, t, 3, RngStream(SEED, 20))
    direct = check_hyp_d(long_, t, 3, RngStream(SEED, 20))
    assert extended.estimate == direct.estimate
    assert extended.stderr == 0.0


def test_linnik_array_is_the_unit_gamma_subordinator_array():
    # at n = 100 the np.diff cells differ from 1/n by an ulp, and level 2
    # lies past most paths' horizon, so check_hyp_d extends them
    linnik = LinnikArray(n=100, horizon=1.0)
    gamma = SubordinatorArray(n=100, spec=GammaSpec(shape_rate=1.0))
    got = sample_increments(linnik, RngStream(SEED, 29), 50)
    want = sample_increments(gamma, RngStream(SEED, 29), 50)
    for a, b in zip(vars(got).values(), vars(want).values()):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert (check_hyp_d(linnik, 2.0, 20, RngStream(SEED, 30))
            == check_hyp_d(gamma, 2.0, 20, RngStream(SEED, 30)))


def test_hyp_checks_raise_on_a_clock_that_never_rises():
    # a zero drift: no cell after t is positive, and no extension passes t
    spec = SubordinatorArray(n=10, spec=DriftSpec(slope=0.0), horizon=1.0)
    with pytest.raises(InsufficientHorizonError, match="does not increase"):
        check_hyp_c(spec, 0.5, 3, RngStream(SEED, 21))
    with pytest.raises(InsufficientHorizonError,
                       match=f"{arrays._MAX_DOUBLINGS} horizon doublings"):
        check_hyp_d(spec, 0.5, 3, RngStream(SEED, 21))


def test_check_hyp_d_raises_where_extension_needs_the_prefix():
    # a Polya path (|Z| <= H_16 < 3.4, so A(1) < 12) and a random-walk
    # transform carry state from their prefix: they cannot be extended
    for spec in (PolyaArray(n=16, horizon=1.0),
                 TransformArray(LinnikArray(n=16, horizon=1.0),
                                random_walk_profile("two_plus_cos"))):
        with pytest.raises(InsufficientHorizonError):
            check_hyp_d(spec, 100.0, 5, RngStream(SEED, 21))
    # inside the horizon the Polya array is fine: the first cell already
    # carries A = Z_0^2 / n = 1/16 > 0
    est = check_hyp_d(PolyaArray(n=16, horizon=1.0), 0.0, 5, RngStream(SEED, 21))
    assert est.estimate == 1.0 / 16


def _polya_exact_ratio_mean(n: int) -> float:
    """Mean of M(1)/sqrt(A(1)) over all 2^n equally likely sign sequences."""
    y = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    z = np.cumsum(y / np.arange(1, n + 1), axis=1)
    zprev = np.hstack([np.ones((2 ** n, 1)), z[:, :-1]])
    # the 1/sqrt(n) scale of M and the 1/n scale of A cancel in the ratio
    ratio = (y * zprev).sum(axis=1) / np.sqrt((zprev ** 2).sum(axis=1))
    return float(ratio.mean())


def test_polya_standardized_ratio_matches_exact_enumeration():
    # the non-normality of M/sqrt(A) at finite n belongs to the array, not
    # to the sampler: the sampled mean matches the exact one
    for i, n in enumerate((3, 8, 16)):
        marg = marginal_samples(PolyaArray(n=n, horizon=1.0), [1.0], 200_000,
                                RngStream(SEED, 22 + i), fields=("M", "A"))
        ratio = marg["M"][:, 0] / np.sqrt(marg["A"][:, 0])
        se = ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(ratio.mean() - _polya_exact_ratio_mean(n)) <= 4.0 * se


@pytest.mark.parametrize("alpha, eps", [(1.0, 0.1), (0.0, 0.05), (-0.5, 0.1)])
def test_lindeberg_statistic_closed_form(alpha, eps):
    # beta = 0: every xi is two-point, the truncated sum is computable by hand
    n, beta = 100, 0.0
    delta = alpha - beta + 1.0
    a_n_sq = n ** delta
    expect = sum(k ** (delta - 1.0) for k in range(1, n + 1)
                 if k ** alpha > a_n_sq * eps * eps) / a_n_sq
    assert lindeberg_statistic(alpha, beta, n, eps) == pytest.approx(expect)


def test_check_lindeberg_verdicts():
    ladder = [2 ** k for k in range(10, 19, 2)]
    assert check_lindeberg(1.0, 0.5, 0.1, ladder).holds_in_limit
    assert not check_lindeberg(1.0, 1.0, 0.1, ladder).holds_in_limit
    assert not check_lindeberg(2.0, 2.0, 0.1, ladder).holds_in_limit


def test_check_mcleish_polya_degenerate():
    # quadratic variation equals the compensator exactly for this array
    spec = PolyaArray(n=100, horizon=1.0)
    fractions = check_mcleish(spec, 1.0, 200, RngStream(SEED, 14))
    assert all(v == 0.0 for v in fractions.values())


def test_check_mcleish_linnik_does_not_vanish():
    # the gamma-clock array keeps an O(1) gap between [M] and A however
    # large n gets: the exceedance fraction stays bounded away from 0
    big = check_mcleish(LinnikArray(n=256, horizon=1.0), 1.0, 2000,
                        RngStream(SEED, 15), epsilons=(0.5,))
    assert big[0.5] > 0.2


def test_check_mcleish_sparse_two_point_shrinks():
    small = check_mcleish(LindebergArray(n=256, alpha=1.0, beta=0.5, horizon=1.0),
                          1.0, 2000, RngStream(SEED, 18), epsilons=(0.1,))
    large = check_mcleish(LindebergArray(n=4096, alpha=1.0, beta=0.5, horizon=1.0),
                          1.0, 2000, RngStream(SEED, 18), epsilons=(0.1,))
    assert large[0.1] <= small[0.1]


def test_running_sup_samples_monotone_in_t():
    # pathwise across two calls: a grid read at t draws a prefix of the
    # stream that a read at a later t draws
    spec = SubordinatorArray(n=32, spec=InverseGaussianSpec(mu=1.0, lam=2.0))
    s_half = running_sup_samples(spec, 0.5, 500, RngStream(SEED, 16))
    s_full = running_sup_samples(spec, 1.0, 500, RngStream(SEED, 16))
    assert np.all(s_full >= s_half)


def test_series_running_sup_bounds_the_value_at_t():
    # a series read at t draws its own jump list, the one that
    # marginal_samples at t reads from the same stream: the sup of |M| is
    # at least |M(t)| and the sup of A is A(t).  The two sum the same jumps
    # in a different order, so they may differ by a few ulps
    spec, t, samples = LinnikArray(n=32), 0.75, 5_000
    for field in ("M", "A"):
        sup = running_sup_samples(spec, t, samples, RngStream(SEED, 16), field)
        end = marginal_samples(spec, [t], samples, RngStream(SEED, 16),
                               fields=(field,))[field][:, 0]
        assert np.all(sup >= np.abs(end) * (1 - 1e-12)), field
        if field == "A":
            np.testing.assert_allclose(sup, end, rtol=1e-12, atol=0.0)


def test_marginal_samples_deterministic_per_stream():
    spec = LinnikArray(n=32, horizon=1.0)
    a = marginal_samples(spec, [1.0], 100, RngStream(SEED, 17), fields=("M",))
    b = marginal_samples(spec, [1.0], 100, RngStream(SEED, 17), fields=("M",))
    assert np.array_equal(a["M"], b["M"])


# -- a gamma clock's jump series against its laws --------------------------
#
# marginal_samples reads M and A of a subordinator array on a gamma clock
# from the clock's truncated jump series (levy.GammaSpec.jumps).  The
# oracles are scipy's laws and the grid sampler.


def test_series_values_follow_the_gamma_law():
    # A(s) is Gamma(a s, b) at every time read alone and at each of a joint
    # read, whose increments are independent Gamma(a ds, b)
    a, b = 2.5, 0.4
    spec = SubordinatorArray(n=256, spec=GammaSpec(a, b), horizon=2.0)
    for i, s in enumerate((1 / 256, 19 / 64, 1.0, 2.0)):
        got = marginal_samples(spec, [s], 20_000, RngStream(SEED, 50 + i),
                               fields=("A",))["A"][:, 0]
        assert stats.kstest(got, stats.gamma(a * s, scale=b).cdf).pvalue > 1e-3
    times = (19 / 64, 1.0, 2.0)
    got = marginal_samples(spec, times, 20_000, RngStream(SEED, 54),
                           fields=("A",))["A"]
    for ds, inc in zip(np.diff((0.0,) + times), np.diff(got, axis=1,
                                                        prepend=0.0).T):
        assert stats.kstest(inc, stats.gamma(a * ds, scale=b).cdf).pvalue > 1e-3


def test_series_linnik_values_follow_their_laws():
    # given the clock, M(1) is N(0, A(1)), and M(1) of the unit gamma clock
    # is Laplace with scale 1/sqrt(2): its CF is 1 / (1 + lambda^2 / 2)
    got = marginal_samples(LinnikArray(n=64), [1.0], 20_000,
                           RngStream(SEED, 55), fields=("M", "A"))
    m, a = got["M"][:, 0], got["A"][:, 0]
    assert np.all(a > 0)
    assert stats.kstest(m / np.sqrt(a), "norm").pvalue > 1e-3
    laplace = stats.laplace(scale=1 / math.sqrt(2.0))
    assert stats.kstest(m, laplace.cdf).pvalue > 1e-3


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_series_m_matches_the_grid_sampler(n):
    # the grid cells of sample_increments, drawn in four parts of 1000
    # rows, against the series, at a coarse, a shipped and a fine grid
    spec = LinnikArray(n=n)
    grid = np.concatenate([
        sample_increments(spec, RngStream(SEED, 60 + i), 1000).dX.sum(axis=1)
        for i in range(4)])
    series = marginal_samples(spec, [1.0], 20_000, RngStream(SEED, 56),
                              fields=("M",))["M"][:, 0]
    assert stats.ks_2samp(series, grid).pvalue > 1e-3


def test_series_leaves_no_early_time_without_a_jump():
    # the cut grows as 1 / (a s1) for the first time read, s1: a path
    # holds Poisson(37) jumps up to s1, so A(s1) holds no jump with
    # probability e^-37 < 1e-6.  A fixed cut of 37 would hold Poisson(37 s1)
    # jumps there and give A(1/256) = 0 in 87% of paths
    s1 = 1 / 256
    gen = RngStream(SEED, 57).generator()
    early = np.concatenate([
        np.bincount(np.repeat(np.arange(counts.size), counts),
                    times <= s1, counts.size)
        for _, counts, _, times in GammaSpec(1.0).jumps(gen, 1.0, s1, 2000)])
    assert early.mean() == pytest.approx(37.0, abs=3 * math.sqrt(37 / 2000))
    assert math.exp(-early.mean()) < 1e-6
    # Gamma(1/256) puts 5.5% of its mass below the least positive double,
    # so A(1/256) reads 0.0 that often whatever the sampler, and no more
    got = marginal_samples(LinnikArray(n=256), [s1, 1.0], 2000,
                           RngStream(SEED, 58), fields=("A",))["A"]
    tiny = gammainc(s1, np.nextafter(0.0, 1.0))
    assert np.mean(got[:, 0] == 0.0) == pytest.approx(
        tiny, abs=4 * math.sqrt(tiny / 2000))
    assert stats.kstest(got[:, 1], stats.gamma(1.0).cdf).pvalue > 1e-3


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_series_running_sup_matches_the_grid_sampler(n):
    # sup_{s <= 1} |M(s)| from the jumps binned into grid cells against the
    # running sup of the grid cells of sample_increments
    spec = LinnikArray(n=n)
    grid = np.concatenate([
        np.max(np.abs(np.cumsum(sample_increments(
            spec, RngStream(SEED, 70 + i), 1000).dX, axis=1)), axis=1)
        for i in range(4)])
    series = running_sup_samples(spec, 1.0, 20_000, RngStream(SEED, 74))
    assert stats.ks_2samp(series, grid).pvalue > 1e-3


def test_series_profile_transform_matches_the_grid_and_its_cf():
    # M(1) of the two_plus_cos transform of a Linnik array, a jump in cell k
    # weighted by Q((k-1)/n): against the grid cells of sample_increments,
    # and against the weighted-clock CF oracle
    spec = TransformArray(LinnikArray(n=128),
                          deterministic_profile("two_plus_cos"))
    grid = np.concatenate([
        sample_increments(spec, RngStream(SEED, 75 + i), 1000).dX.sum(axis=1)
        for i in range(4)])
    series = marginal_samples(spec, [1.0], 20_000, RngStream(SEED, 79),
                              fields=("M",))["M"][:, 0]
    assert stats.ks_2samp(series, grid).pvalue > 1e-3
    q = spec.weight.resolve()
    lam = np.arange(-3, 3.125, 0.25)
    ecf = np.exp(1j * np.outer(lam, series)).mean(axis=1)
    cf = [levy.weighted_gamma_subordinated_cf(1.0, x, q) for x in lam]
    # the ECF's standard error is at most 1/sqrt(20 000) = 0.007 a lambda
    assert np.max(np.abs(ecf - cf)) < 0.03


def test_series_values_do_not_depend_on_n():
    # the series draws no cells: M(1) and A(1) from the same stream are the
    # same bits at n = 64 and n = 2**16
    got = [marginal_samples(LinnikArray(n=n), [1.0], 5_000,
                            RngStream(SEED, 59), fields=("M", "A"))
           for n in (64, 2**16)]
    for f in ("M", "A"):
        assert np.array_equal(got[0][f], got[1][f])


# -- streamed sampling against the whole-batch reference -------------------
#
# The reference below draws every variate of all replicates in one call,
# sums the full rows and gathers the requested columns.  The streamed
# samplers must reproduce its values bit for bit.


def _reference_draw(spec, gen, samples, normals=None):
    """(dX, dA, dQV, dO) of ``samples`` whole paths, each variate drawn
    for all replicates at once, except a random walk's steps.  A
    subordinator array's normals come from ``normals``, by default a child
    spawned from ``gen``."""
    m = spec.cells
    if isinstance(spec, SubordinatorArray):  # the Linnik array among them
        dl = np.diff(np.arange(m + 1) / spec.n)
        xi = _reference_increments(spec.spec, gen,
                                   np.broadcast_to(dl, (samples, m)))
        if normals is None:
            normals = gen.spawn(1)[0]
        z = normals.normal(0.0, 1.0, size=(samples, m))
        return np.sqrt(xi) * z, xi, xi * z * z, None
    if isinstance(spec, PolyaArray):
        y = gen.integers(0, 2, size=(samples, m)).astype(float) * 2.0 - 1.0
        partial = np.cumsum(y / np.arange(1, m + 1, dtype=float), axis=1)
        zprev = np.hstack([np.ones((samples, 1)), partial[:, :-1]])
        da = zprev * zprev / spec.n
        return y * zprev / math.sqrt(spec.n), da, da.copy(), None
    if isinstance(spec, LindebergArray):
        k = np.arange(1, m + 1, dtype=float)
        hit = gen.uniform(0.0, 1.0, size=(samples, m)) < 1.0 / k ** spec.beta
        sign = np.where(gen.uniform(size=(samples, m)) < 0.5, -1.0, 1.0)
        dx = np.where(hit, sign * k ** (spec.alpha / 2.0), 0.0) / math.sqrt(
            spec.a_n_sq)
        da = np.broadcast_to(spec.compensator_increments(), (samples, m)).copy()
        return dx, da, dx * dx, None
    if isinstance(spec, TransformArray):
        q = spec.weight.resolve()
        if spec.weight.kind == "profile":
            qmat = np.broadcast_to([q(u) for u in np.arange(m) / spec.n],
                                   (samples, m))
            dx, da, dqv, do = _reference_draw(spec.base, gen, samples)
        else:
            # row block by row block: the base's block, then its steps.
            # The base is drawn whole a block at a time, which a base that
            # draws from ``gen`` block by block, such as the Linnik array,
            # allows; its normals are one child's, read block by block
            normals, per = gen.spawn(1)[0], []
            rows = max(1, levy._BLOCK_CELLS // m)
            for r0 in range(0, max(samples, 1), rows):
                take = min(rows, samples - r0)
                base = _reference_draw(spec.base, gen, take, normals)
                steps = gen.normal(0.0, 1.0, size=(take, m))
                walk = np.zeros((take, m))
                walk[:, 1:] = np.cumsum(steps[:, :-1], axis=1)
                walk *= spec.weight.sigma / math.sqrt(spec.n)
                per.append((np.vectorize(q, otypes=[float])(walk), *base))
            qmat, dx, da, dqv, do = (
                None if parts[0] is None else np.concatenate(parts)
                for parts in zip(*per))
        return (qmat * dx, qmat * qmat * da, qmat * qmat * dqv,
                None if do is None else qmat * do)
    if isinstance(spec, DriftedArray):
        dx, da, dqv, _ = _reference_draw(spec.base, gen, samples)
        return dx, da, dqv, spec.mu * da
    raise TypeError(spec)


def _reference_paths(spec, rng, samples):
    """Dict of per-path increments of ``samples`` replicates, all drawn
    from the one generator of rng.child(0)."""
    dx, da, dqv, do = _reference_draw(spec, rng.child(0).generator(), samples)
    do = np.zeros_like(dx) if do is None else do
    return {"M": dx, "A": da, "QV": dqv, "O": do, "N": dx + do}


def _series_base(spec, fields):
    """(gamma subordinator array, profile transforms above it) when
    marginal_samples and running_sup_samples read ``fields`` of ``spec``
    from its clock's jump series: M and A of a subordinator array on a
    gamma clock, or of profile transforms and drifted arrays built on one;
    None otherwise."""
    if not set(fields) <= {"M", "A"}:
        return None
    transforms = []
    while isinstance(spec, (TransformArray, DriftedArray)):
        if isinstance(spec, TransformArray):
            if spec.weight.kind != "profile":
                return None
            transforms.append(spec)
        spec = spec.base
    if isinstance(spec, SubordinatorArray) and isinstance(spec.spec, GammaSpec):
        return spec, transforms
    return None


def _reads_series(spec, fields):
    """Whether ``fields`` of ``spec`` are read from a gamma clock's jump
    series."""
    return _series_base(spec, fields) is not None


def _reference_jumps(spec, k, first, samples, rng, fields):
    """Each row's jumps of the truncated jump series of the gamma clock
    under ``spec`` on [0, k/n], cut for the first positive time read,
    ``first``, as (row, times, cells, {field: increments}).

    Each row block draws its counts, arrivals g, exponentials V and
    uniform times u from rng.child(0); a jump is b exp(-K g) V at time
    u T, in grid cell ceil(u T n) clipped to 1 .. k.  M puts one normal,
    from a child spawned from that generator, on each jump.  A jump in
    cell j carries q_j^2 x into A and q_j sqrt(x) Z into M, for the
    product q of the profile weights of the transforms above the clock."""
    sub, transforms = _series_base(spec, fields)
    clock, n, last = sub.spec, sub.n, k / sub.n
    q = np.ones(k)
    for t in transforms:
        q = q * np.array([t.weight.resolve()(j / n) for j in range(k)])
    a, b = clock.shape_rate, clock.scale
    cut = 37.0 * max(1.0, 1.0 / (a * first))
    mean = a * last * cut
    rows = max(1, levy._BLOCK_CELLS // math.ceil(mean))
    gen = rng.child(0).generator()
    normals = gen.spawn(1)[0]
    for r0 in range(0, samples, rows):
        counts = gen.poisson(mean, min(rows, samples - r0))
        g = gen.random(counts.sum())
        v = gen.standard_exponential(counts.sum())
        at = gen.random(counts.sum()) * last
        x = b * np.exp(-cut * g) * v
        cells = np.minimum(np.maximum(np.ceil(at * n), 1), k).astype(int)
        qc = q[cells - 1]
        w = {"A": x * qc * qc}
        if "M" in fields:
            w["M"] = np.sqrt(x) * normals.standard_normal(x.size) * qc
        ends = np.cumsum(counts)
        for i, (lo, hi) in enumerate(zip(ends - counts, ends)):
            yield r0 + i, at[lo:hi], cells[lo:hi], {
                f: w[f][lo:hi] for f in fields}


def _reference_series(spec, times, samples, rng, fields):
    """Values of M and A at the grid times of ``times`` from the jump
    series of :func:`_reference_jumps`: a row's jumps at times <= s,
    summed in jump order."""
    idx = np.array([spec.grid().index_at(t) for t in times])
    s = idx / spec.n
    out = {f: np.zeros((samples, s.size)) for f in fields}
    if not idx.max(initial=0):
        return out
    for r, at, _, w in _reference_jumps(spec, idx.max(), s[s > 0].min(),
                                        samples, rng, fields):
        for j, sj in enumerate(s):
            kept = at <= sj
            for f in fields:
                sums = np.cumsum(np.concatenate([[0.0], w[f][kept]]))
                out[f][r, j] = sums[-1]
    return out


def _reference_series_sup(spec, t, samples, rng, field):
    """sup over the grid times up to t of |X| for ``field``, from each
    row's jumps of :func:`_reference_jumps` added one by one into their
    grid cells."""
    k = spec.grid().index_at(t)
    sup = np.zeros(samples)
    if not k:
        return sup
    for r, _, cells, w in _reference_jumps(spec, k, k / spec.n, samples,
                                           rng, {field}):
        inc = np.zeros(k)
        for j, x in zip(cells, w[field]):
            inc[j - 1] += x
        sup[r] = np.max(np.abs(np.cumsum(inc)))
    return sup


def _reference_marginal(spec, times, samples, rng, fields):
    if _reads_series(spec, fields):
        return _reference_series(spec, times, samples, rng, fields)
    idx = [spec.grid().index_at(t) for t in times]
    per = _reference_paths(spec, rng, samples)
    out = {}
    for f in fields:
        cs = np.cumsum(per[f], axis=1)
        padded = np.concatenate([np.zeros((cs.shape[0], 1)), cs], axis=1)
        out[f] = padded[:, idx]
    return out


def _reference_sup(spec, t, samples, rng, fields, path):
    """sup_{s <= t} |X(s)| for X = ``path`` of the reference's paths, or
    from the jump series when ``fields`` are read from one."""
    if _reads_series(spec, fields):
        [field] = fields
        return _reference_series_sup(spec, t, samples, rng, field)
    k = spec.grid().index_at(t)
    per = _reference_paths(spec, rng, samples)
    return np.max(np.abs(np.cumsum(path(per)[:, :k], axis=1)), axis=1)


STREAM_SPECS = [
    LinnikArray(n=64, horizon=1.0),
    PolyaArray(n=32, horizon=1.0),
    LindebergArray(n=64, alpha=1.0, beta=0.5, horizon=1.0),
    SubordinatorArray(n=32, spec=GammaSpec(shape_rate=1.0), horizon=1.0),
    SubordinatorArray(n=32, spec=InverseGaussianSpec(mu=1.0, lam=2.0)),
    SubordinatorArray(n=32, spec=StableSpec(alpha=0.6)),
    SubordinatorArray(n=32, spec=CompoundPoissonSpec(rate=3.0, jump_mean=0.5)),
    SubordinatorArray(n=32, spec=CompositeSpec((
        InverseGaussianSpec(mu=1.0, lam=2.0),
        CompoundPoissonSpec(rate=3.0, jump_mean=0.5)))),
    TransformArray(LinnikArray(n=32, horizon=1.0),
                   deterministic_profile("two_plus_cos")),
    TransformArray(LinnikArray(n=16, horizon=1.0),
                   random_walk_profile("two_plus_cos")),
    DriftedArray(LinnikArray(n=32, horizon=1.0), mu=1.5),
]
STREAM_IDS = ["linnik", "polya", "lindeberg", "subordinator",
              "subordinator_ig", "subordinator_stable", "subordinator_cp",
              "subordinator_composite",
              "transform_profile", "transform_walk", "drifted"]
FIELD_SETS = [("M", "A", "QV", "O", "N"), ("A",), ("M",), ("QV", "N")]


def _assert_streams_match_reference(spec, samples):
    rng = RngStream(SEED, 25)
    batch = sample_increments(spec, rng, samples)
    ref = _reference_draw(spec, rng.generator(), samples)
    for got, want in zip((batch.dX, batch.dA, batch.dQV, batch.dO), ref):
        assert (got is None and want is None) or np.array_equal(got, want)
    for fields in FIELD_SETS:
        for times in ((0.0, 0.3, 0.7), (0.5, 1.0)):
            got = marginal_samples(spec, times, samples, rng, fields)
            want = _reference_marginal(spec, times, samples, rng, fields)
            for f in fields:
                assert np.array_equal(got[f], want[f]), (fields, times, f)
    for field in ("M", "A"):
        got = running_sup_samples(spec, 0.7, samples, rng, field=field)
        want = _reference_sup(spec, 0.7, samples, rng, {field},
                              lambda p: p[field])
        assert np.array_equal(got, want), field
    eps = (0.05, 0.1, 0.2)
    sup = _reference_sup(spec, 0.7, samples, rng, {"QV", "A"},
                         lambda p: p["QV"] - p["A"])
    assert check_mcleish(spec, 0.7, samples, rng, epsilons=eps) == {
        e: float(np.mean(sup > e)) for e in eps}


@pytest.mark.parametrize("samples", [1, 7, 3000])
@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_match_whole_batch_reference(spec, samples):
    _assert_streams_match_reference(spec, samples)


def _subordinator(spec):
    """The subordinator array that ``spec`` is built on, or None."""
    while not isinstance(spec, SubordinatorArray):
        spec = getattr(spec, "base", None)
        if spec is None:
            return None
    return spec


def _clock_rows(monkeypatch, spec) -> list:
    """The clock rows that each block of ``spec``'s subordinator clock
    yields while the test runs, recorded by wrapping the ``blocks`` of its
    spec kind; empty for an array with no subordinator."""
    rows, sub = [], _subordinator(spec)
    if sub is not None:
        real = type(sub.spec).blocks

        def counted(self, gen, dl, samples):
            for blk in real(self, gen, dl, samples):
                rows.append(blk.shape[0])
                yield blk
        monkeypatch.setattr(type(sub.spec), "blocks", counted)
    return rows


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_match_reference_across_batches(spec, monkeypatch):
    # a draw of several former batches' worth of cells, now one generator
    # read in many blocks with a partial last block
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    _assert_streams_match_reference(spec, 3000)


@pytest.mark.parametrize("draw_cells", [500, 20_011],
                         ids=["below_a_block", "mid_batch"])
@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_replay_clock_rows_across_batches(spec, draw_cells,
                                                           monkeypatch):
    # each clock row of a grid read is drawn once, none a second time, in
    # a draw below one row block and in a draw of many blocks whose last
    # one ends mid block; the normals come from their own child generator,
    # so no clock is held or replayed for them, and the values are the
    # reference's.  A read of M and A on a gamma clock sums the clock's
    # jump series and draws no grid clock row, and so does a running sup of
    # M or A there, while mcleish (QV) and hyp_c still draw every row
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    rows = _clock_rows(monkeypatch, spec)
    samples = max(1, draw_cells // spec.cells)
    blocks = -(-samples // levy._block_rows(spec.cells))
    assert (blocks == 1) == (draw_cells < 1_000)
    assert draw_cells < 1_000 or samples % levy._block_rows(spec.cells)
    marginal_samples(spec, [1.0], samples, RngStream(SEED, 25),
                     fields=("M", "A", "QV"))
    grid_rows = 0 if _subordinator(spec) is None else samples
    assert sum(rows) == grid_rows
    series = _reads_series(spec, ("M", "A"))
    rows.clear()
    marginal_samples(spec, [1.0], samples, RngStream(SEED, 25),
                     fields=("M", "A"))
    assert sum(rows) == (0 if series else grid_rows)
    for field in ("M", "A"):
        rows.clear()
        running_sup_samples(spec, 1.0, samples, RngStream(SEED, 25), field)
        assert sum(rows) == (0 if series else grid_rows), field
    if series:
        rows.clear()
        check_mcleish(spec, 1.0, samples, RngStream(SEED, 25))
        assert sum(rows) == samples
        rows.clear()
        check_hyp_c(spec, 0.5, 20, RngStream(SEED, 25))
        assert rows == [1] * 20
    _assert_streams_match_reference(spec, samples)


@pytest.mark.parametrize("spec", [s for s in STREAM_SPECS if _subordinator(s)],
                         ids=[i for s, i in zip(STREAM_SPECS, STREAM_IDS)
                              if _subordinator(s)])
def test_a_draw_has_the_same_bits_with_or_without_normals(spec, monkeypatch):
    # the normals come from a child generator, so dA and the state that
    # the draw leaves the generator in do not depend on the fields drawn
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    got = []
    for fields in ({"A"}, arrays._FIELDS):
        gen = RngStream(SEED, 37).generator()
        da = np.concatenate([b.dA.copy() for b in spec._draw(
            gen, 301, 0, spec.cells, fields)])
        got.append((da, gen.bit_generator.state))
    (da_a, state_a), (da_all, state_all) = got
    assert da_a.shape == (301, spec.cells)
    assert np.array_equal(da_a, da_all)
    assert state_a == state_all


def test_lindeberg_jump_keeps_a_buffered_32_bit_half(monkeypatch):
    # the hit uniforms are jumped past; integers(0, 2) leaves half of a
    # 64-bit draw buffered, which the jump must keep, as a whole-batch
    # draw of the uniforms does
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    spec, samples = LindebergArray(n=64, alpha=1.0, beta=0.5), 301
    got, gen = RngStream(SEED, 36).generator(), RngStream(SEED, 36).generator()
    assert np.array_equal(got.integers(0, 2, size=3), gen.integers(0, 2, size=3))
    assert got.bit_generator.state["has_uint32"]
    blocks = [(b.dX.copy(), b.dA.copy(), b.dQV.copy()) for b in spec._draw(
        got, samples, 0, spec.cells, arrays._FIELDS)]
    assert len(blocks) > 1
    for inc, want in zip(zip(*blocks), _reference_draw(spec, gen, samples)):
        assert np.array_equal(np.concatenate(inc), want)
    assert got.bit_generator.state == gen.bit_generator.state


def test_a_closed_or_raising_draw_keeps_no_held_clock():
    # a draw for M holds no clock, only its block buffers, and they are
    # gone once the draw is closed or has raised
    block = levy._BLOCK_CELLS * 8
    spec, samples = LinnikArray(n=64), 40 * levy._block_rows(64)

    class FailingNormals(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            raise RuntimeError("no normals")

    tracemalloc.start()
    try:
        blocks = spec._draw(np.random.default_rng(1), samples, 0, spec.cells,
                            {"M"})
        next(blocks)
        # the clock block, the normals and M, with no 40-block clock
        assert tracemalloc.get_traced_memory()[0] <= 4 * block
        blocks.close()
        assert tracemalloc.get_traced_memory()[0] <= block / 8
        with pytest.raises(RuntimeError, match="no normals"):
            next(spec._draw(FailingNormals(np.random.PCG64(1)), samples, 0,
                            spec.cells, {"M"}))
        assert tracemalloc.get_traced_memory()[0] <= block / 8
    finally:
        tracemalloc.stop()


def test_concurrent_draws_give_their_serial_values():
    # four Linnik draws for M at once, more threads than a two-core host
    # runs, switching often: each draw spawns its normals from its own
    # generator, so each gives the values it gives alone
    specs, samples = (LinnikArray(n=64), LinnikArray(n=128)) * 2, 20_000

    def draw(i):
        return marginal_samples(specs[i], [0.5, 1.0], samples,
                                RngStream(SEED, 40 + i), fields=("M",))["M"]

    serial = [draw(i) for i in range(len(specs))]
    start = threading.Barrier(len(specs), timeout=60)

    def contend(i):
        start.wait()
        return draw(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(specs)) as pool:
            got = list(pool.map(contend, range(len(specs)), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for g, want in zip(got, serial):
        assert np.array_equal(g, want)


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_sample_increments_of_no_replicates(spec):
    batch = sample_increments(spec, RngStream(SEED, 27), 0)
    assert batch.dX.shape == batch.dA.shape == (0, spec.cells)


def test_marginal_samples_memory_is_capped_clock_draws():
    # the whole-batch code held five or six batch-sized arrays (~489 MiB
    # here).  No clock is held: the normals come from their own child
    # generator, a compound Poisson block draws its counts and then its
    # jumps, and a composite block adds one block of each part.  The
    # counts (12.2 MiB) and a composite's sum (97.7 MiB) were held, and the
    # compound Poisson clock batch (97.7 MiB) besides its counts
    samples = 50_000
    for spec in (
            SubordinatorArray(n=256, spec=CompoundPoissonSpec(
                rate=3.0, jump_mean=0.5)),
            SubordinatorArray(n=256, spec=CompositeSpec((
                InverseGaussianSpec(mu=1.0, lam=2.0),
                GammaSpec(shape_rate=1.0)))),
            SubordinatorArray(n=256, spec=CompositeSpec((
                InverseGaussianSpec(mu=1.0, lam=2.0),
                CompoundPoissonSpec(rate=3.0, jump_mean=0.5))))):
        peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                           RngStream(SEED, 26), fields=("M",))
        # a few row blocks and the (samples, 1) result
        assert peak - samples * 8 <= 10 * BLOCK_BYTES, (spec, peak / 2**20)


@pytest.mark.parametrize("spec, blocks", [
    (LinnikArray(n=256, horizon=1.0), 8),
    (SubordinatorArray(n=256, spec=InverseGaussianSpec(mu=1.0, lam=2.0)), 8),
    (SubordinatorArray(n=256, spec=StableSpec(alpha=0.6)), 14),
    (SubordinatorArray(n=256, spec=CompoundPoissonSpec(rate=3.0,
                                                       jump_mean=0.5)), 10),
    (SubordinatorArray(n=256, spec=CompositeSpec((
        InverseGaussianSpec(mu=1.0, lam=2.0), GammaSpec(shape_rate=1.0)))),
     10),
    (SubordinatorArray(n=256, spec=CompositeSpec((
        InverseGaussianSpec(mu=1.0, lam=2.0),
        CompoundPoissonSpec(rate=3.0, jump_mean=0.5)))), 10),
    (TransformArray(LinnikArray(n=256, horizon=1.0),
                    random_walk_profile("two_plus_cos")), 20),
], ids=["linnik", "ig", "stable", "cp", "ig_gamma", "ig_cp", "walk"])
def test_m_draw_peak_does_not_grow_with_samples(spec, blocks):
    # the normals are drawn beside their clock block, each compound Poisson
    # and composite block is drawn whole, and a random walk's steps beside
    # their base block, so a draw for M holds a few row blocks (256 KiB
    # each; the stable sampler's and the walk's temporaries take more) and
    # its (samples, 1) result at any sample count.  At 50 000 samples a
    # Linnik draw held 64 MiB of clock for its normals, and the compound
    # Poisson, the two composite and the walk draws 14.7, 99.3, 111.2 and
    # 102.1 MiB
    for samples in (2_000, 50_000):
        peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                           RngStream(SEED, 26), fields=("M",))
        assert peak - samples * 8 <= blocks * BLOCK_BYTES, (
            samples, peak / 2**20)


def test_lindeberg_array_holds_no_batch():
    # the hit uniforms, which the signs follow, were a (samples, cells)
    # bool batch (12.2 MiB here); the generator now jumps past them and a
    # copy of it draws them block by block
    spec, samples = LindebergArray(n=256, alpha=1.0, beta=0.5), 50_000
    peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                       RngStream(SEED, 29), fields=("M",))
    # a few row blocks of 256 KiB and the (samples, 1) result: about 2 MiB
    assert peak <= 10 * BLOCK_BYTES, peak / 2**20


def test_check_mcleish_polya_memory_is_below_one_batch_of_signs():
    # mix's mcleish check; the signs used to be held for the whole batch
    # (65.8 MiB), and no later draw follows them
    spec, samples = PolyaArray(n=256, horizon=1.0), 30_000
    peak = _peak_bytes(check_mcleish, spec, 1.0, samples, RngStream(SEED, 28))
    assert peak <= 0.25 * samples * spec.cells * 8, peak / 2**20
