import numpy as np
import pytest

from cadlab.paths import (
    CadlagPath,
    PathDomainError,
    identity_path,
    piecewise_linear,
    step_path,
)
from cadlab.timechange import (
    InsufficientHorizonError,
    _level_pieces,
    inverse,
)


def random_staircase(gen, horizon=2.0):
    """Nondecreasing staircase with random flats and jumps, ending above 3."""
    k = int(gen.integers(1, 8))
    times = np.sort(gen.uniform(0.0, horizon, size=k))
    jumps = gen.uniform(0.0, 1.0, size=k + 1)
    values = np.cumsum(jumps)
    values = values - values[0] * float(gen.integers(0, 2))  # sometimes A(0) > 0
    x = step_path([0.0, *times], values, horizon=horizon)
    # guarantee passage above every tested level
    return CadlagPath(horizon, x.breakpoints, x.segments,
                      float(values[-1] + 3.0))


def scan_inverse(A, s, step=1e-4):
    """Grid-scan oracle: first grid time with A(t) > s, refined to the exact
    passage instant using the staircase structure."""
    ts = np.arange(0.0, A.horizon + step, step)
    ts[-1] = A.horizon
    vals = A.eval_many(ts)
    above = np.nonzero(vals > s)[0]
    if above.size == 0:
        return None
    t_hi = ts[above[0]]
    # snap to the exact breakpoint or affine crossing inside the cell
    candidates = [b for b in list(A.breakpoints) + [A.horizon]
                  if t_hi - step <= b <= t_hi]
    for b in candidates:
        if A.eval(b) > s:
            return b
    return t_hi


def test_inverse_of_identity():
    A = identity_path(2.0)
    pair = inverse(A, 1.5)
    for s in np.linspace(0.0, 1.5, 31):
        assert pair.tau.eval(s) == pytest.approx(s, abs=1e-12)


def test_inverse_of_affine():
    A = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    pair = inverse(A, 2.5)
    assert pair.tau.eval(0.5) == pytest.approx(0.5, abs=1e-12)
    assert pair.tau.eval(1.0) == pytest.approx(1.0, abs=1e-12)
    assert pair.tau.eval(2.0) == pytest.approx(1.5, abs=1e-12)


def test_jump_of_clock_becomes_flat_of_inverse():
    A = step_path([0.0, 1.0], [0.0, 2.0], horizon=2.0)
    terminal = CadlagPath(2.0, A.breakpoints, A.segments, 3.0)
    pair = inverse(terminal, 1.5)
    # every level in [0, 2) is first passed at t = 1
    for s in [0.0, 0.5, 1.0, 1.4999]:
        assert pair.tau.eval(s) == 1.0


def test_flat_of_clock_becomes_jump_of_inverse():
    A = piecewise_linear([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
    pair = inverse(A, 1.5)
    assert pair.tau.eval(0.9999) == pytest.approx(0.9999, abs=1e-12)
    # passing level 1 requires waiting out the flat stretch
    assert pair.tau.eval(1.0) == 2.0
    assert 1.0 in pair.tau.jump_times()


def test_insufficient_horizon():
    A = identity_path(1.0)
    with pytest.raises(InsufficientHorizonError):
        inverse(A, 1.0)
    with pytest.raises(PathDomainError):
        inverse(step_path([0.0, 0.5], [1.0, 0.0], horizon=1.0), 0.5)


def test_flat_spot_length():
    # the flat time left at level A(t) is tau(A(t)) - t
    A = piecewise_linear([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
    tau = inverse(A, 1.5).tau
    assert tau.eval(A.eval(1.0)) - 1.0 == pytest.approx(1.0, abs=1e-12)
    assert tau.eval(A.eval(0.5)) - 0.5 == pytest.approx(0.0, abs=1e-12)


def test_starts_at_zero():
    A = identity_path(2.0)
    assert inverse(A, 1.0).tau.eval(0.0) == 0.0
    # B waits at level 0 until t = 1, so tau(0) = 1
    B = step_path([0.0, 1.0], [0.0, 1.0], horizon=2.0)
    B = CadlagPath(2.0, B.breakpoints, B.segments, 2.0)
    assert inverse(B, 0.5).tau.eval(0.0) == 1.0
    # on the empty level range (0, 0] tau has no jumps and does not fall
    tau = inverse(B, 0.0).tau
    assert (tau.horizon, tau.eval(0.0), tau.jump_times()) == (0.0, 1.0, [])
    assert tau.is_nondecreasing()


def test_inverse_identities_continuous_clock():
    A = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    tau = inverse(A, 2.5).tau
    # A(tau(A(t))) = A(t) at every t with A(t) <= s_max
    for t in (0.0, 0.5, 1.0, 1.5):
        assert A.eval(tau.eval(A.eval(t))) == pytest.approx(A.eval(t),
                                                            abs=1e-10)
    # tau starts at 0, so inverting it again gives A back
    assert tau.eval(0.0) == 0.0
    back = inverse(tau, tau.terminal_value * (1 - 1e-9)).tau
    for t in (0.0, 0.5, 1.0, 1.5):
        assert back.eval(t) == pytest.approx(A.eval(t), abs=1e-10)


def test_inverse_identities_flat_clock():
    A = piecewise_linear([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
    tau = inverse(A, 1.5).tau
    # A(tau(A(t))) = A(t) still holds at a flat (the level is unchanged)
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert A.eval(tau.eval(A.eval(t))) == pytest.approx(A.eval(t),
                                                            abs=1e-10)


def test_inverse_matches_grid_scan_oracle_on_random_staircases():
    gen = np.random.default_rng(20260824)
    for _ in range(1000):
        A = random_staircase(gen)
        s_max = float(A.terminal_value - 2.0)
        pair = inverse(A, s_max)
        levels = gen.uniform(0.0, s_max, size=5)
        for s in levels:
            expect = scan_inverse(A, s)
            assert pair.tau.eval(float(s)) == pytest.approx(expect, abs=1e-10)


def test_galois_property_on_random_staircases():
    # tau(s) <= t  iff  A(t) > s, for the strict first-passage inverse
    gen = np.random.default_rng(99)
    for _ in range(300):
        A = random_staircase(gen)
        s_max = float(A.terminal_value - 2.0)
        pair = inverse(A, s_max)
        for s in gen.uniform(0.0, s_max, size=4):
            for t in gen.uniform(0.0, A.horizon, size=4):
                lhs = pair.tau.eval(float(s)) <= t
                rhs = A.eval(float(t)) > s
                assert lhs == rhs


def test_round_trip_on_strictly_increasing_staircase_levels():
    # for grid staircases, tau(A(t)) lands on the next grid point
    n = 10
    times = [k / n for k in range(n)]
    values = [(k + 1) / n for k in range(n)]
    A = step_path(times, values, horizon=1.0)
    A = CadlagPath(1.0, A.breakpoints, A.segments, 1.0 + 1.0 / n)
    pair = inverse(A, 1.0)
    for t in [0.0, 0.05, 0.31, 0.77]:
        level = A.eval(t)
        expect = (np.floor(n * t) + 1) / n
        assert pair.tau.eval(level) == pytest.approx(expect, abs=1e-10)


def test_inverse_at_every_level_piece_boundary_matches_grid_scan_oracle():
    # s_max at a piece boundary is where tau(s_max) is the start of the
    # next piece up; every boundary up to s_max is checked
    gen = np.random.default_rng(20261020)
    for _ in range(200):
        A = random_staircase(gen)
        bounds = sorted({u for u, *_ in _level_pieces(A)})
        expect = {s: scan_inverse(A, s) for s in bounds}
        for s_max in bounds:
            tau = inverse(A, s_max).tau
            for s in bounds:
                if s <= s_max:
                    assert tau.eval(s) == pytest.approx(expect[s], abs=1e-10)


def test_nan_valued_path_raises_insufficient_horizon():
    # CadlagPath takes NaN values, and no comparison with them holds, so
    # the level pieces stop short of s_max
    A = CadlagPath(1.0, [0.0], [(0.0, np.nan)], np.nan)
    with pytest.raises(InsufficientHorizonError, match="no passage"):
        inverse(A, 0.5)
