import numpy as np
import pytest

from cadlab import fixtures
from cadlab.paths import (
    CadlagPath,
    PathDomainError,
    combine,
    constant_path,
    identity_path,
    piecewise_linear,
    step_path,
)
from cadlab.skorohod import (
    TripleKind,
    composition_condition,
    empirical_tightness,
    modulus,
    oscillation,
    triple,
)


def test_triple_functionals_scalar():
    assert triple(TripleKind.C, 0.0, 5.0, 1.0) == 1.0
    assert triple(TripleKind.J, 0.0, 5.0, 1.0) == 4.0
    assert triple(TripleKind.M, 0.0, 5.0, 1.0) == 4.0
    # middle value inside the spanned segment: monotone kind vanishes
    assert triple(TripleKind.M, 0.0, 0.5, 1.0) == 0.0
    assert triple(TripleKind.M, 1.0, 0.5, 0.0) == 0.0
    assert triple(TripleKind.J, 0.0, 0.5, 1.0) == 0.5


def test_triple_dominance_m_le_j():
    gen = np.random.default_rng(42)
    for _ in range(500):
        x1, x2, x3 = gen.normal(size=3)
        assert triple(TripleKind.M, x1, x2, x3) <= triple(TripleKind.J, x1, x2, x3) + 1e-15


def test_modulus_single_step():
    x = step_path([0.0, 1.0], [0.0, 1.0], horizon=2.0)
    # uniform kind sees the jump inside any window
    assert modulus(x, TripleKind.C, 0.1, 2.0) == 1.0
    # an isolated jump is invisible to the jump and monotone kinds
    assert modulus(x, TripleKind.J, 0.1, 2.0) == 0.0
    assert modulus(x, TripleKind.M, 0.1, 2.0) == 0.0


def test_modulus_up_down_step():
    x = step_path([0.0, 1.0, 1.05], [0.0, 1.0, 0.0], horizon=2.0)
    # both jumps fall inside a 0.1-window: the excursion is fully visible
    assert modulus(x, TripleKind.J, 0.2, 2.0) == 1.0
    assert modulus(x, TripleKind.M, 0.2, 2.0) == 1.0
    # a window too narrow to hold both jumps sees only isolated jumps
    assert modulus(x, TripleKind.M, 0.04, 2.0) == 0.0


def test_modulus_window_strictness():
    # jumps exactly delta apart: open window excludes the pair
    x = step_path([0.0, 1.0, 1.5], [0.0, 1.0, 0.0], horizon=2.0)
    assert modulus(x, TripleKind.M, 0.5, 2.0) == 0.0
    assert modulus(x, TripleKind.M, 0.5000001, 2.0) == 1.0


def test_oscillation_linear_path():
    x = identity_path(1.0)
    assert oscillation(x, 0.1, 1.0) == pytest.approx(0.1, abs=1e-12)
    assert modulus(x, TripleKind.C, 0.1, 1.0) == pytest.approx(0.1, abs=1e-12)


def test_oscillation_time_bound():
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.0, 10.0])
    assert oscillation(x, 0.5, 1.0) == 0.0
    assert oscillation(x, 0.5, 2.0) == pytest.approx(5.0, abs=1e-12)


def test_modulus_argument_validation():
    x = identity_path(1.0)
    with pytest.raises(PathDomainError):
        modulus(x, TripleKind.M, 0.0, 1.0)
    with pytest.raises(PathDomainError):
        modulus(x, TripleKind.M, 0.1, 1.5)


def test_composed_ramp_modulus_is_exactly_one():
    for n in (3, 5, 10):
        z = fixtures.composed_ramp(n)
        assert z.jump_times() == []
        assert modulus(z, TripleKind.M, 0.5, 2.0) == 1.0
        assert modulus(z, TripleKind.J, 0.5, 2.0) == 1.0


def test_composed_ramp_small_window_still_one():
    # the excursion shrinks into an interval of width 1/n, so any window
    # wider than 1/n keeps the monotone modulus at 1
    z = fixtures.composed_ramp(10)
    assert modulus(z, TripleKind.M, 0.2, 2.0) == 1.0


def test_composition_condition_fails_for_ramp_limit():
    verdict = composition_condition(fixtures.tent_path(), fixtures.ramp_limit())
    assert not verdict.holds
    assert verdict.fails_at == 2.0
    assert not bool(verdict)


def test_composition_condition_holds_for_monotone_section():
    # a jump landing inside a monotone stretch of x is fine
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    y = step_path([0.0, 1.0], [0.2, 0.8], horizon=2.0)
    verdict = composition_condition(x, y)
    assert verdict.holds
    assert verdict.fails_at is None


def test_composition_condition_reads_the_jumps_of_x_in_a_window():
    # x is constant between its jumps, so only their signs decide: up at
    # 0.5, down at 1.0
    x = step_path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], horizon=2.0)
    up = composition_condition(x, step_path([0.0, 1.0], [0.2, 0.8], 2.0))
    assert up.holds
    both = composition_condition(x, step_path([0.0, 1.5], [0.2, 1.2], 2.0))
    assert (both.holds, both.fails_at) == (False, 1.5)


def test_composition_condition_requires_monotone_clock():
    with pytest.raises(PathDomainError):
        composition_condition(identity_path(2.0),
                              piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0]))


def test_subadditivity_on_random_step_pairs():
    gen = np.random.default_rng(20260824)
    for _ in range(500):
        k1 = int(gen.integers(1, 6))
        k2 = int(gen.integers(1, 6))
        t1 = np.sort(gen.uniform(0.0, 1.0, size=k1))
        t2 = np.sort(gen.uniform(0.0, 1.0, size=k2))
        x = step_path([0.0, *t1], gen.normal(size=k1 + 1), horizon=1.0)
        y = step_path([0.0, *t2], gen.normal(size=k2 + 1), horizon=1.0)
        from cadlab.paths import combine

        s = combine(x, y, "add")
        delta = float(gen.uniform(0.05, 0.6))
        for kind in TripleKind:
            lhs = modulus(s, kind, delta, 1.0)
            rhs = modulus(x, kind, delta, 1.0) + oscillation(y, delta, 1.0)
            assert lhs <= rhs + 1e-10


def test_modulus_dominance_on_random_step_paths():
    gen = np.random.default_rng(7)
    for _ in range(200):
        k = int(gen.integers(1, 8))
        t = np.sort(gen.uniform(0.0, 1.0, size=k))
        x = step_path([0.0, *t], gen.normal(size=k + 1), horizon=1.0)
        delta = float(gen.uniform(0.05, 0.6))
        m = modulus(x, TripleKind.M, delta, 1.0)
        j = modulus(x, TripleKind.J, delta, 1.0)
        c = modulus(x, TripleKind.C, delta, 1.0)
        assert m <= j + 1e-10
        assert j <= c + 1e-10


def test_empirical_tightness_report():
    report = empirical_tightness(
        lambda n, r: fixtures.composed_ramp(n),
        TripleKind.M, [3, 10], [0.5, 0.25], T=2.0, epsilon=0.5, samples=1,
    )
    # every composed ramp keeps its full excursion inside these windows
    assert report.kind is TripleKind.M
    assert [(e.n, e.delta, e.exceed_fraction) for e in report.entries] == [
        (3, 0.5, 1.0), (3, 0.25, 1.0), (10, 0.5, 1.0), (10, 0.25, 1.0)]
    assert all((e.T, e.epsilon, e.samples) == (2.0, 0.5, 1)
               for e in report.entries)


def test_modulus_takes_the_left_limit_at_a_breakpoint_at_T():
    # rises from 0 towards 1 on [0, 0.5) and drops back to 0 at 0.5: with
    # T = 0.5 the triple (x(0), x(0.5-), x(0.5)) gives the supremum 1
    x = CadlagPath(1.0, [0.0, 0.5], [(0.0, 1.0), (0.0, 0.0)], 0.0)
    for T in (0.5, 0.75):
        assert modulus(x, TripleKind.M, 0.9, T) == 1.0
        assert modulus(x, TripleKind.J, 0.9, T) == 1.0


def test_composition_condition_on_a_zero_horizon_clock():
    assert composition_condition(identity_path(1.0), constant_path(0.5, 0.0))


# -- oracle: every piece refined ------------------------------------------


def _refined_candidates(x, T, refine=8):
    """(time, tag, value) candidates with ``refine`` interior points on
    every piece, constant pieces included."""
    pts = {}
    for a, b, v, w in x.pieces():
        if a >= T:
            break
        b_eff = min(b, T)
        pts[(a, 1)] = v
        for j in range(1, refine):
            t = a + (b_eff - a) * j / refine
            if a < t < b_eff:
                pts[(t, 1)] = v if v == w else v + (w - v) * (t - a) / (b - a)
        pts[(b_eff, 0)] = (w if v == w or b_eff >= b
                           else v + (w - v) * (b_eff - a) / (b - a))
    pts[(T, 1)] = x.eval(T)
    return sorted((t, tag, v) for (t, tag), v in pts.items())


def _in_window(t1, t3, tag3, delta):
    return t3 - t1 <= delta if tag3 == 0 else t3 - t1 < delta


def _refined_modulus(x, kind, delta, T):
    cand = _refined_candidates(x, T)
    best = 0.0
    for i, (t1, _, v1) in enumerate(cand):
        for k in range(i + 2, len(cand)):
            t3, tag3, v3 = cand[k]
            if not _in_window(t1, t3, tag3, delta):
                break
            for j in range(i + 1, k):
                best = max(best, triple(kind, v1, cand[j][2], v3))
    return best


def _refined_oscillation(x, delta, T):
    cand = _refined_candidates(x, T)
    best = 0.0
    for i, (t1, _, v1) in enumerate(cand):
        for t3, tag3, v3 in cand[i + 1:]:
            if not _in_window(t1, t3, tag3, delta):
                break
            best = max(best, abs(v3 - v1))
    for a, b, v, w in x.pieces():
        if a < T and v != w:
            best = max(best, abs((w - v) / (b - a)) * min(delta, min(b, T) - a))
    return best


def _random_paths(gen):
    def times(k):
        return [0.0, *np.sort(gen.uniform(0.0, 1.0, size=k))]

    def step(k_max=5):
        k = int(gen.integers(1, k_max + 1))
        # rounded values repeat, so some neighbouring steps merge
        return step_path(times(k), np.round(gen.normal(size=k + 1), 1), 1.0)

    def linear(k_max=4):
        k = int(gen.integers(1, k_max + 1))
        values = gen.normal(size=k + 2)
        values[gen.uniform(size=k + 2) < 0.3] = 0.0  # flat stretches
        return piecewise_linear([*times(k), 1.0], values)

    return [step(), linear(), combine(step(), step(), "add"),
            combine(step(3), linear(2), "add"),
            combine(step(3), linear(2), "pointwise-scale")]


def test_moduli_match_the_every_piece_refined_oracle():
    gen = np.random.default_rng(20261018)
    for _ in range(10):
        for x in _random_paths(gen):
            for T in (1.0, float(gen.uniform(0.2, 1.0))):
                for delta in (0.05, float(gen.uniform(0.05, 0.5)), 0.7):
                    for kind in (TripleKind.M, TripleKind.J):
                        assert (modulus(x, kind, delta, T)
                                == _refined_modulus(x, kind, delta, T))
                    assert (oscillation(x, delta, T)
                            == _refined_oscillation(x, delta, T))
