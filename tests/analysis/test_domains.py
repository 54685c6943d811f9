"""Unit tests for the analyzer's interval abstract domain.

Soundness property checked throughout: for concrete samples drawn from the
argument intervals, every op's concrete result lies inside the abstract
result (or the result's ``may_nan`` flag is set).
"""

import math

import numpy as np
import pytest

from repro.analysis.domains import Interval
from repro.nn import Tensor, functional as F
from repro.nn.opinfo import OpContext, transfer

INF = math.inf


class TestConstruction:
    def test_point_and_unbounded(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)
        top = Interval.unbounded()
        assert top.lo == -INF and top.hi == INF and not top.may_nan

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_bounds_collapse_to_top(self):
        bad = Interval(float("nan"), 1.0)
        assert bad == Interval.unbounded(may_nan=True)

    def test_from_data_masks_nonfinite(self):
        data = np.array([1.0, -3.0, np.nan, np.inf])
        envelope = Interval.from_data(data)
        assert envelope.lo == -3.0 and envelope.hi == INF
        assert envelope.may_nan

    def test_from_data_empty(self):
        assert Interval.from_data(np.array([])) == Interval.point(0.0)


class TestArithmetic:
    def test_add_sub(self):
        a, b = Interval(-1.0, 2.0), Interval(3.0, 4.0)
        assert a.add(b) == Interval(2.0, 6.0)
        assert a.sub(b) == Interval(-5.0, -1.0)

    def test_mul_sign_cases(self):
        assert Interval(-2.0, 3.0).mul(Interval(-1.0, 4.0)) == Interval(-8.0, 12.0)

    def test_mul_zero_times_inf_is_zero(self):
        # The interval rule, not IEEE: 0 * [0, inf] stays [0, 0].
        assert Interval.point(0.0).mul(Interval(0.0, INF)) == Interval.point(0.0)

    def test_square_is_tighter_than_mul(self):
        x = Interval(-2.0, 3.0)
        assert x.square() == Interval(0.0, 9.0)
        assert x.mul(x).lo == -6.0  # relational blindness of plain mul

    def test_div_by_nonzero(self):
        assert Interval(1.0, 2.0).div(Interval(2.0, 4.0)) == Interval(0.25, 1.0)

    def test_div_by_zero_containing_interval_is_top_nan(self):
        out = Interval(1.0, 2.0).div(Interval(-1.0, 1.0))
        assert out == Interval.unbounded(may_nan=True)

    def test_scale_fixed_and_varying_counts(self):
        x = Interval(-1.0, 2.0)
        assert x.scale(5) == Interval(-5.0, 10.0)
        hull = x.scale(2, 6)
        assert hull.lo == -6.0 and hull.hi == 12.0


class TestElementwise:
    def test_exp_overflow_saturates_to_inf(self):
        out = Interval(0.0, 1000.0).exp()
        assert out.hi == INF and not out.may_nan

    def test_log_of_nonpositive_flags_nan(self):
        out = Interval(-1.0, 4.0).log()
        assert out.may_nan and out.lo == -INF
        assert Interval(2.0, 8.0).log().may_nan is False

    def test_sqrt_of_negative_flags_nan(self):
        assert Interval(-4.0, 9.0).sqrt().may_nan
        assert Interval(0.0, 9.0).sqrt() == Interval(0.0, 3.0)

    def test_bounded_activations(self):
        wide = Interval(-50.0, 50.0)
        assert wide.tanh().lo >= -1.0 and wide.tanh().hi <= 1.0
        sig = wide.sigmoid()
        assert 0.0 <= sig.lo <= sig.hi <= 1.0
        assert wide.relu() == Interval(0.0, 50.0)

    def test_clip(self):
        assert Interval(-10.0, 10.0).clip(-1.0, 1.0) == Interval(-1.0, 1.0)

    def test_power_even_integer_includes_zero(self):
        assert Interval(-2.0, 3.0).power(2.0) == Interval(0.0, 9.0)

    def test_power_fractional_of_negative_is_top_nan(self):
        assert Interval(-2.0, 3.0).power(0.5) == Interval.unbounded(may_nan=True)

    def test_power_negative_exponent_through_zero_is_top_nan(self):
        assert Interval(-1.0, 1.0).power(-1.0) == Interval.unbounded(may_nan=True)

    def test_odd_power_and_root_monotone(self):
        x = Interval(-8.0, 27.0)
        cubed = x.odd_power(3.0)
        assert cubed.lo == -512.0 and cubed.hi == pytest.approx(19683.0)
        root = x.odd_root(3.0)
        assert root.lo == pytest.approx(-2.0) and root.hi == pytest.approx(3.0)

    def test_leaky_relu(self):
        assert Interval(-10.0, 5.0).leaky_relu(0.1) == Interval(-1.0, 5.0)
        assert Interval(1.0, 5.0).leaky_relu(0.1) == Interval(1.0, 5.0)
        assert Interval(-10.0, -2.0).leaky_relu(0.5) == Interval(-5.0, -1.0)
        # A negative slope folds the negative side up; 0 is then the minimum.
        assert Interval(-10.0, 5.0).leaky_relu(-0.5) == Interval(0.0, 5.0)
        # slope 0 on an unbounded side is 0, not NaN.
        assert Interval(-math.inf, 1.0).leaky_relu(0.0) == Interval(0.0, 1.0)
        assert Interval(-1.0, 1.0, may_nan=True).leaky_relu(0.1).may_nan

    def test_maximum_minimum(self):
        a, b = Interval(-1.0, 2.0), Interval(0.0, 5.0)
        assert a.maximum(b) == Interval(0.0, 5.0)
        assert a.minimum(b) == Interval(-1.0, 2.0)


class TestSoundnessSampling:
    """Concrete sampling check for the composite transfers."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops_sound(self, op):
        rng = np.random.default_rng(hash(op) % 2**32)
        a, b = Interval(-2.0, 3.0), Interval(0.5, 4.0)
        abstract = getattr(a, op)(b)
        xs = rng.uniform(a.lo, a.hi, size=200)
        ys = rng.uniform(b.lo, b.hi, size=200)
        concrete = {"add": xs + ys, "sub": xs - ys,
                    "mul": xs * ys, "div": xs / ys}[op]
        assert (concrete >= abstract.lo - 1e-12).all()
        assert (concrete <= abstract.hi + 1e-12).all()

    @pytest.mark.parametrize("lo,hi,slope", [(-3.0, 2.0, 0.1), (-3.0, -1.0, 0.1),
                                             (0.5, 2.0, 0.1), (-3.0, 2.0, -0.4)])
    def test_leaky_relu_transfer_sound_and_tight(self, lo, hi, slope):
        x = Tensor(np.linspace(lo, hi, 201))
        concrete = F.leaky_relu(x, slope).data
        ctx = OpContext("leaky_relu", [Interval(lo, hi)],
                        {"negative_slope": slope}, [x.shape], x.shape)
        abstract = transfer(ctx)
        assert abstract == Interval(concrete.min(), concrete.max())
        assert ctx.issues == []

    def test_union_is_hull(self):
        merged = Interval(-1.0, 0.0).union(Interval(5.0, 6.0, may_nan=True))
        assert merged == Interval(-1.0, 6.0, may_nan=True)
