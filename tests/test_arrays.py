import concurrent.futures
import math
import mmap
import sys
import threading
import weakref

import numpy as np
import pytest
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
from test_levy import _peak_bytes, _reference_increments, malloc_batches  # noqa: F401

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


@pytest.fixture
def mmap_calls(monkeypatch):
    """The sizes of the ``mmap.mmap`` calls made while the test runs."""
    calls, real = [], mmap.mmap

    def counted(fileno, size, *args, **kwargs):
        calls.append(size)
        return real(fileno, size, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counted)
    return calls


def test_batch_draws_survive_a_rejected_hugepage_advice(monkeypatch,
                                                        mmap_calls):
    # a kernel built without transparent huge pages rejects MADV_HUGEPAGE
    # with EINVAL, as it rejects any advice it does not know.  3000 x 16
    # clock cells are more than a row block, so they are mapped and advised
    spec = LinnikArray(n=16, horizon=1.0)
    want = marginal_samples(spec, [1.0], 3000, RngStream(SEED, 9),
                            fields=("M",))
    monkeypatch.setattr(mmap, "MADV_HUGEPAGE", 12345, raising=False)
    got = marginal_samples(spec, [1.0], 3000, RngStream(SEED, 9),
                           fields=("M",))
    assert np.array_equal(got["M"], want["M"])
    assert mmap_calls or levy._MAP_FLAGS is None


def test_one_row_draws_map_no_memory(mmap_calls):
    # linnik.json's hyp_d array: each replicate draws one row of 200 cells,
    # less than a row block, which np.empty serves far faster than a mapping
    spec = SubordinatorArray(n=100, spec=DriftSpec(slope=1.0), horizon=2.0)
    est = check_hyp_d(spec, 1.0, 50, RngStream(SEED, 12))
    assert est.estimate == pytest.approx(1.01)
    assert mmap_calls == []


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
    spec = LinnikArray(n=32, horizon=1.0)
    s_half = running_sup_samples(spec, 0.5, 500, RngStream(SEED, 16))
    s_full = running_sup_samples(spec, 1.0, 500, RngStream(SEED, 16))
    assert np.all(s_full >= s_half)


def test_marginal_samples_deterministic_per_stream():
    spec = LinnikArray(n=32, horizon=1.0)
    a = marginal_samples(spec, [1.0], 100, RngStream(SEED, 17), fields=("M",))
    b = marginal_samples(spec, [1.0], 100, RngStream(SEED, 17), fields=("M",))
    assert np.array_equal(a["M"], b["M"])


# -- streamed sampling against the whole-batch reference -------------------
#
# The reference below draws every variate of a batch in one call, sums the
# full rows and gathers the requested columns.  The streamed samplers must
# reproduce its values bit for bit.


def _reference_draw(spec, gen, samples):
    """(dX, dA, dQV, dO) of ``samples`` whole paths, each variate drawn
    for the whole batch at once."""
    m = spec.cells
    if isinstance(spec, SubordinatorArray):  # the Linnik array among them
        dl = np.diff(np.arange(m + 1) / spec.n)
        xi = _reference_increments(spec.spec, gen,
                                   np.broadcast_to(dl, (samples, m)))
        z = gen.normal(0.0, 1.0, size=(samples, m))
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
        else:
            steps = gen.normal(0.0, 1.0, size=(samples, m))
            walk = np.zeros((samples, m))
            walk[:, 1:] = np.cumsum(steps[:, :-1], axis=1)
            walk *= spec.weight.sigma / math.sqrt(spec.n)
            qmat = np.vectorize(q)(walk)
        dx, da, dqv, do = _reference_draw(spec.base, gen, samples)
        return (qmat * dx, qmat * qmat * da, qmat * qmat * dqv,
                None if do is None else qmat * do)
    if isinstance(spec, DriftedArray):
        dx, da, dqv, _ = _reference_draw(spec.base, gen, samples)
        return dx, da, dqv, spec.mu * da
    raise TypeError(spec)


def _reference_batched(spec, rng, samples):
    """Dicts of per-path increments for each batch, batch b from rng.child(b)."""
    rows = max(1, levy._BATCH_CELLS // max(spec.cells, 1))
    for b, start in enumerate(range(0, samples, rows)):
        take = min(rows, samples - start)
        dx, da, dqv, do = _reference_draw(spec, rng.child(b).generator(), take)
        do = np.zeros_like(dx) if do is None else do
        yield {"M": dx, "A": da, "QV": dqv, "O": do, "N": dx + do}


def _reference_marginal(spec, times, samples, rng, fields):
    idx = [spec.grid().index_at(t) for t in times]
    out = {f: [] for f in fields}
    for per in _reference_batched(spec, rng, samples):
        for f in fields:
            cs = np.cumsum(per[f], axis=1)
            padded = np.concatenate([np.zeros((cs.shape[0], 1)), cs], axis=1)
            out[f].append(padded[:, idx])
    return {f: np.concatenate(v) for f, v in out.items()}


def _reference_sup(spec, t, samples, rng, path):
    k = spec.grid().index_at(t)
    return np.concatenate([
        np.max(np.abs(np.cumsum(path(per)[:, :k], axis=1)), axis=1)
        for per in _reference_batched(spec, rng, samples)])


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
        want = _reference_sup(spec, 0.7, samples, rng, lambda p: p[field])
        assert np.array_equal(got, want), field
    eps = (0.05, 0.1, 0.2)
    sup = _reference_sup(spec, 0.7, samples, rng, lambda p: p["QV"] - p["A"])
    assert check_mcleish(spec, 0.7, samples, rng, epsilons=eps) == {
        e: float(np.mean(sup > e)) for e in eps}


@pytest.mark.parametrize("samples", [1, 7, 3000])
@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_match_whole_batch_reference(spec, samples):
    _assert_streams_match_reference(spec, samples)


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_match_reference_across_batches(spec, monkeypatch):
    # several batches, each read in several blocks, with a partial last
    # batch and partial last blocks
    monkeypatch.setattr(levy, "_BATCH_CELLS", 20_011)
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    _assert_streams_match_reference(spec, 3000)


def _replays(spec) -> bool:
    """Whether ``spec`` draws its normals after a clock that it can draw
    twice."""
    while not isinstance(spec, SubordinatorArray):
        spec = getattr(spec, "base", None)
        if spec is None:
            return False
    return spec.spec._replays


@pytest.fixture
def clock_holds(monkeypatch):
    """(cells, weak reference) of each clock that ``SubordinatorArray._draw``
    holds while the test runs, recorded by wrapping ``levy._batch_array``;
    the arrays that ``levy._fill`` holds are left out."""
    holds, real = [], levy._batch_array

    def record(shape, *args, **kwargs):
        a = real(shape, *args, **kwargs)
        if sys._getframe(1).f_code is SubordinatorArray._draw.__code__:
            holds.append((a.size, weakref.ref(a)))
        return a
    monkeypatch.setattr(levy, "_batch_array", record)
    return holds


def _replayed_since(before: int) -> int:
    """Clock cells drawn twice by the draws since ``arrays._replayed`` had
    ``before`` entries."""
    return sum(arrays._replayed[before:])


@pytest.mark.parametrize("held", [500, 10_000], ids=["below_a_block",
                                                     "mid_batch"])
@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_streamed_samplers_replay_clock_rows_across_batches(spec, held,
                                                           monkeypatch,
                                                           clock_holds):
    # the clock rows before the last levy._HELD_CELLS cells are drawn
    # again, not held: all but at most a partial last block, or the rows
    # before a row block mid-batch.  The default cap, under which the test
    # above holds every row, is that test.
    monkeypatch.setattr(levy, "_BATCH_CELLS", 20_011)
    monkeypatch.setattr(levy, "_BLOCK_CELLS", 1_000)
    monkeypatch.setattr(levy, "_HELD_CELLS", held)
    rows = levy._BATCH_CELLS // spec.cells
    before = len(arrays._replayed)
    marginal_samples(spec, [1.0], rows, RngStream(SEED, 25), fields=("M",))
    replayed = _replayed_since(before) // spec.cells
    kept = sum(cells for cells, _ in clock_holds) // spec.cells
    if _replays(spec):
        # the held rows start at the first row-block boundary whose
        # remaining cells fit in the cap
        assert 0 < replayed and replayed + kept == rows
        assert kept * spec.cells <= held
        assert (kept + levy._block_rows(spec.cells)) * spec.cells > held
        assert held < 1_000 or replayed < rows
    else:
        assert replayed == kept == 0
    _assert_streams_match_reference(spec, 3000)


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


_HOLD_SPECS = (LinnikArray(n=64), LinnikArray(n=128)) * 2
_HOLD_SAMPLES = (20_000,) * 3 + (100,)


def _hold_draw(i: int) -> np.ndarray:
    """M of the i-th of four Linnik draws, three larger than the 12-block
    cap of the tests below and the last smaller."""
    return marginal_samples(_HOLD_SPECS[i], [0.5, 1.0], _HOLD_SAMPLES[i],
                            RngStream(SEED, 40 + i), fields=("M",))["M"]


def _serial_hold_draws() -> list:
    """The four draws in sequence under the default cap, which holds every
    clock whole."""
    before = len(arrays._replayed)
    serial = [_hold_draw(i) for i in range(len(_HOLD_SPECS))]
    assert _replayed_since(before) == 0
    return serial


def _assert_hold_draws(clock_holds, cap: int) -> int:
    """Check one hold a draw: the whole small draw, and of each larger one
    ``cap`` to within one row block (levy._BLOCK_CELLS cells for either n).
    The cells the draws replay, which it returns, are the rest of their
    clocks."""
    small, *large = sorted(cells for cells, _ in clock_holds)
    assert small == _HOLD_SAMPLES[-1] * _HOLD_SPECS[-1].cells
    assert len(large) == 3
    assert all(cap - levy._BLOCK_CELLS < c <= cap for c in large)
    clock_holds.clear()
    return sum(_HOLD_SAMPLES[i] * _HOLD_SPECS[i].cells
               for i in range(3)) - sum(large)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_draw_holds_at_most_a_jobs_squared_th_of_the_cap(jobs, monkeypatch,
                                                          clock_holds):
    # under --jobs k a draw holds the tail of its clock from the first
    # row-block boundary whose remaining cells fit in levy._HELD_CELLS //
    # k**2, so the k workers, one draw each, hold at most a k-th of the
    # cap; no value depends on it
    serial = _serial_hold_draws()
    monkeypatch.setattr(levy, "_HELD_CELLS", 12 * levy._BLOCK_CELLS)
    monkeypatch.setattr(arrays, "_workers", jobs)
    clock_holds.clear()
    before = len(arrays._replayed)
    for i in range(len(_HOLD_SPECS)):
        assert np.array_equal(_hold_draw(i), serial[i])
    replayed = _assert_hold_draws(clock_holds, levy._HELD_CELLS // jobs**2)
    assert _replayed_since(before) == replayed


def test_concurrent_draws_share_one_clock_budget(monkeypatch, clock_holds):
    # four draws at once under --jobs 2 hold a quarter of levy._HELD_CELLS
    # each, so together at most the cap: each holds and replays what it
    # holds alone, since the rule reads neither the other draws nor the
    # thread schedule, and the values are those of the serial draws
    serial = _serial_hold_draws()
    monkeypatch.setattr(levy, "_HELD_CELLS", 12 * levy._BLOCK_CELLS)
    monkeypatch.setattr(arrays, "_workers", 2)
    clock_holds.clear()
    before = len(arrays._replayed)
    for i in range(len(_HOLD_SPECS)):
        _hold_draw(i)
    replayed = _assert_hold_draws(clock_holds, levy._HELD_CELLS // 4)
    assert _replayed_since(before) == replayed
    # four threads, more than a two-core host runs at once, switching
    # often
    start = threading.Barrier(len(_HOLD_SPECS), timeout=60)

    def contend(i):
        start.wait()
        return _hold_draw(i)

    before = len(arrays._replayed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(_HOLD_SPECS)) as pool:
            futures = [pool.submit(contend, i)
                       for i in range(len(_HOLD_SPECS))]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for g, want in zip(got, serial):
        assert np.array_equal(g, want)
    assert sum(cells for cells, _ in clock_holds) <= levy._HELD_CELLS
    assert _assert_hold_draws(clock_holds, levy._HELD_CELLS // 4) == replayed
    assert _replayed_since(before) == replayed


def test_split_clock_budget_peak_does_not_follow_the_schedule(monkeypatch,
                                                             clock_holds):
    # the two workers of --jobs 2 split levy._HELD_CELLS: each draw holds
    # the whole row blocks of its tail that fit in a quarter of it, one
    # block of six, so the most held is the same in every schedule; the
    # whole cap would let one draw hold six blocks alone
    monkeypatch.setattr(levy, "_HELD_CELLS", 6 * levy._BLOCK_CELLS)
    specs = (LinnikArray(n=64), LinnikArray(n=128))
    # 40 row blocks of either, so that every tail is whole blocks
    samples = 40 * levy._block_rows(128)

    def draw(i):
        return marginal_samples(specs[i], [1.0], samples,
                                RngStream(SEED, 50 + i), fields=("M",))["M"]

    serial = [draw(i) for i in range(len(specs))]
    monkeypatch.setattr(arrays, "_workers", 2)
    for _ in range(3):
        clock_holds.clear()
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            got = list(pool.map(draw, range(len(specs))))
        for g, want in zip(got, serial):
            assert np.array_equal(g, want)
        assert [cells for cells, _ in clock_holds] == [levy._BLOCK_CELLS] * 2


def test_a_closed_or_raising_draw_keeps_no_held_clock(monkeypatch,
                                                      clock_holds):
    monkeypatch.setattr(levy, "_HELD_CELLS", 3 * levy._BLOCK_CELLS)
    # 40 row blocks, of which the last three are held
    spec, samples = LinnikArray(n=64), 40 * levy._block_rows(64)
    blocks = spec._draw(np.random.default_rng(1), samples, 0, spec.cells,
                        {"M"})
    next(blocks)
    [(cells, held)] = clock_holds
    assert cells == 3 * levy._BLOCK_CELLS and held() is not None
    blocks.close()
    assert held() is None

    class FailingNormals(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            raise RuntimeError("no normals")

    clock_holds.clear()
    gen = FailingNormals(np.random.PCG64(1))
    with pytest.raises(RuntimeError, match="no normals"):
        next(spec._draw(gen, samples, 0, spec.cells, {"M"}))
    [(cells, held)] = clock_holds
    assert cells == 3 * levy._BLOCK_CELLS and held() is None


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=STREAM_IDS)
def test_sample_increments_of_no_replicates(spec):
    batch = sample_increments(spec, RngStream(SEED, 27), 0)
    assert batch.dX.shape == batch.dA.shape == (0, spec.cells)


def test_marginal_samples_memory_is_capped_clock_draws(malloc_batches,
                                                       monkeypatch):
    # the whole-batch code held five or six batch-sized arrays (~489 MiB
    # here).  A clock that its normals follow is held, but of a gamma,
    # inverse Gaussian, stable or Linnik clock at most levy._HELD_CELLS
    # cells: the earlier rows of the batch (97.7 MiB here) are drawn again
    # instead.  The stable clock held its batch and its uniforms outside
    # the cap (2.25 batches allowed) until the generator jumped past them.
    # The other levy specs held two to six batches (IG 403 MiB).  Now each
    # holds its clock batch and only what a later draw must follow: the
    # compound Poisson counts (one byte a cell), and a composite's first
    # part, into which the others are added in place.
    samples = 50_000
    held = levy._HELD_CELLS * 8
    for spec in (LinnikArray(n=256, horizon=1.0),
                 SubordinatorArray(n=256, spec=GammaSpec(shape_rate=1.0)),
                 SubordinatorArray(n=256, spec=InverseGaussianSpec(
                     mu=1.0, lam=2.0)),
                 SubordinatorArray(n=256, spec=StableSpec(alpha=0.6))):
        assert samples * spec.cells * 8 > held
        peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                           RngStream(SEED, 26), fields=("M",))
        assert held <= peak <= 1.25 * held, (spec, peak / 2**20)
    # a reader holds each block until it asks for the next, which draws the
    # next batch's clock; a block that viewed the held clock kept two
    with monkeypatch.context() as m:
        m.setattr(levy, "_BATCH_CELLS", 30_000 * 256)
        batch = 30_000 * 256 * 8
        peak = _peak_bytes(marginal_samples, LinnikArray(n=256, horizon=1.0),
                           [1.0], samples, RngStream(SEED, 26),
                           fields=("M", "A"))
        assert batch <= peak <= 1.25 * batch, peak / 2**20
    for spec, budget in (
            (SubordinatorArray(n=256, spec=CompoundPoissonSpec(
                rate=3.0, jump_mean=0.5)), 1.25),
            (SubordinatorArray(n=256, spec=CompositeSpec((
                InverseGaussianSpec(mu=1.0, lam=2.0),
                GammaSpec(shape_rate=1.0)))), 1.25),
            (SubordinatorArray(n=256, spec=CompositeSpec((
                InverseGaussianSpec(mu=1.0, lam=2.0),
                CompoundPoissonSpec(rate=3.0, jump_mean=0.5)))), 1.25)):
        rows = min(samples, levy._BATCH_CELLS // spec.cells)
        clock_bytes = rows * spec.cells * 8
        peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                           RngStream(SEED, 26), fields=("M",))
        # the clock is held, since the normals follow it
        assert clock_bytes <= peak <= budget * clock_bytes, (
            spec, peak / 2**20, clock_bytes / 2**20)


def test_lindeberg_array_holds_no_batch(malloc_batches):
    # the hit uniforms, which the signs follow, were a (samples, cells)
    # bool batch (12.2 MiB here); the generator now jumps past them and a
    # copy of it draws them block by block
    spec, samples = LindebergArray(n=256, alpha=1.0, beta=0.5), 50_000
    peak = _peak_bytes(marginal_samples, spec, [1.0], samples,
                       RngStream(SEED, 29), fields=("M",))
    # a few row blocks of 256 KiB and the (samples, 1) result: about 2 MiB
    assert peak <= 10 * levy._BLOCK_CELLS * 8, peak / 2**20


def test_check_mcleish_polya_memory_is_below_one_batch_of_signs(
        malloc_batches):
    # mix's mcleish check; the signs used to be held for the whole batch
    # (65.8 MiB), and no later draw follows them
    spec, samples = PolyaArray(n=256, horizon=1.0), 30_000
    peak = _peak_bytes(check_mcleish, spec, 1.0, samples, RngStream(SEED, 28))
    assert peak <= 0.25 * samples * spec.cells * 8, peak / 2**20
