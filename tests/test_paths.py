import numpy as np
import pytest

from cadlab.paths import (
    CadlagPath,
    PathDomainError,
    Segment,
    TimeGrid,
    combine,
    compose,
    constant_path,
    identity_path,
    piecewise_linear,
    step_path,
)


def test_step_path_evaluation():
    x = step_path([0.0, 1.0, 2.5], [0.0, 2.0, -1.0], horizon=3.0)
    assert x.eval(0.0) == 0.0
    assert x.eval(0.999) == 0.0
    assert x.eval(1.0) == 2.0
    assert x.eval(2.5) == -1.0
    assert x.eval(3.0) == -1.0
    assert x.left_limit(1.0) == 0.0
    assert x.left_limit(2.5) == 2.0
    assert x.jump(1.0) == 2.0
    assert x.jump(2.5) == -3.0


def test_piecewise_linear_evaluation():
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert x.eval(0.5) == 1.0
    assert x.eval(1.0) == 2.0
    assert x.eval(1.5) == 1.0
    assert x.eval(2.0) == 0.0
    assert x.left_limit(1.0) == 2.0
    assert x.jump_times() == []


def test_eval_many_matches_eval():
    x = step_path([0.0, 0.3, 1.1, 2.0], [1.0, -1.0, 0.5, 3.0], horizon=2.5)
    ts = np.linspace(0.0, 2.5, 101)
    many = x.eval_many(ts)
    for t, v in zip(ts, many):
        assert v == x.eval(t)


def test_breakpoints_canonicalized():
    # a breakpoint where nothing changes must disappear
    x = CadlagPath(2.0, [0.0, 1.0], [Segment.const(5.0), Segment.const(5.0)], 5.0)
    assert x.breakpoints == (0.0,)
    assert len(x.segments) == 1


def test_invalid_paths_rejected():
    with pytest.raises(PathDomainError):
        CadlagPath(1.0, [0.5], [Segment.const(0.0)], 0.0)
    with pytest.raises(PathDomainError):
        CadlagPath(1.0, [0.0, 0.7, 0.7], [Segment.const(0.0)] * 3, 0.0)
    with pytest.raises(PathDomainError):
        CadlagPath(1.0, [0.0, 2.0], [Segment.const(0.0)] * 2, 0.0)
    with pytest.raises(PathDomainError):
        step_path([0.0, 1.0], [1.0], horizon=2.0)


def test_domain_errors_on_eval():
    x = constant_path(1.0, 2.0)
    with pytest.raises(PathDomainError):
        x.eval(-0.1)
    with pytest.raises(PathDomainError):
        x.eval(2.1)
    with pytest.raises(PathDomainError):
        x.left_limit(0.0)


def test_terminal_jump_counts():
    x = CadlagPath(1.0, [0.0], [Segment.const(0.0)], 4.0)
    assert x.jump_times() == [1.0]
    assert x.jump(1.0) == 4.0


def test_is_nondecreasing():
    assert identity_path(3.0).is_nondecreasing()
    assert step_path([0.0, 1.0], [0.0, 2.0], horizon=2.0).is_nondecreasing()
    assert not step_path([0.0, 1.0], [0.0, -1.0], horizon=2.0).is_nondecreasing()
    assert not piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.5]).is_nondecreasing()


def test_combine_add_sub_exact():
    x = step_path([0.0, 1.0], [1.0, 3.0], horizon=2.0)
    y = piecewise_linear([0.0, 2.0], [0.0, 4.0])
    s = combine(x, y, "add")
    d = combine(x, y, "sub")
    for t in [0.0, 0.5, 1.0, 1.5, 2.0]:
        assert s.eval(t) == x.eval(t) + y.eval(t)
        assert d.eval(t) == x.eval(t) - y.eval(t)


def test_combine_product_step_by_linear():
    x = step_path([0.0, 1.0], [2.0, -1.0], horizon=2.0)
    y = piecewise_linear([0.0, 2.0], [0.0, 4.0])
    p = combine(x, y, "pointwise-scale")
    for t in [0.0, 0.5, 1.0, 1.7, 2.0]:
        assert p.eval(t) == x.eval(t) * y.eval(t)


def test_combine_product_linear_linear_rejected():
    y = piecewise_linear([0.0, 2.0], [0.0, 4.0])
    with pytest.raises(PathDomainError):
        combine(y, y, "pointwise-scale")


def test_combine_horizon_mismatch():
    with pytest.raises(PathDomainError):
        combine(constant_path(1.0, 1.0), constant_path(1.0, 2.0), "add")


def test_scale():
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, -1.0])
    # a scalar multiple is the product with a constant path
    y = combine(x, constant_path(-2.0, 2.0), "pointwise-scale")
    for t in [0.0, 0.25, 1.0, 1.5, 2.0]:
        assert y.eval(t) == -2.0 * x.eval(t)


def test_compose_identity():
    x = step_path([0.0, 0.4, 1.3], [0.0, 2.0, 5.0], horizon=2.0)
    z = compose(x, identity_path(2.0))
    for t in np.linspace(0.0, 2.0, 41):
        assert z.eval(t) == x.eval(t)


def test_compose_affine_time_change_exact():
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    y = piecewise_linear([0.0, 4.0], [0.0, 2.0])  # slope 1/2
    z = compose(x, y)
    for t in np.linspace(0.0, 4.0, 81):
        assert z.eval(t) == pytest.approx(x.eval(y.eval(t)), abs=1e-15)


def test_compose_jumping_clock():
    x = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    y = step_path([0.0, 1.0], [0.5, 1.5], horizon=2.0)
    z = compose(x, y)
    assert z.eval(0.0) == 0.5
    assert z.eval(0.999) == 0.5
    assert z.eval(1.0) == 0.5
    assert z.left_limit(1.0) == 0.5
    assert z.jump(1.0) == 0.0  # tent(0.5) == tent(1.5)


def test_compose_range_escape_rejected():
    x = piecewise_linear([0.0, 1.0], [0.0, 1.0])
    y = piecewise_linear([0.0, 1.0], [0.0, 2.0])
    with pytest.raises(PathDomainError):
        compose(x, y)


def test_compose_nonmonotone_clock_rejected():
    x = identity_path(2.0)
    y = piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    with pytest.raises(PathDomainError):
        compose(x, y)


def test_time_grid():
    g = TimeGrid(4, 1.0)
    assert g.num_cells == 4
    assert list(g.points()) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert g.index_at(0.0) == 0
    assert g.index_at(0.25) == 1
    assert g.index_at(0.26) == 1
    assert g.index_at(1.0) == 4
    with pytest.raises(PathDomainError):
        g.index_at(1.5)


def test_zero_horizon_path():
    x = constant_path(7.0, 0.0)
    assert x.eval(0.0) == 7.0
    assert x.horizon == 0.0
