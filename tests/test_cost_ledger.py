"""Property tests for the hardware cost ledger's integer units.

The ledger counts exact integer units of ``2**-1074`` seconds.  These
properties pin that the conversion is lossless, that sums in units are
the exact rational sums (so any regrouping converts back to the same
float), that the O(1) running total always equals the re-summed exact
total, and that non-finite seconds are rejected as ``Fraction`` rejects
them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware.cost_model import (
    UNITS_PER_SECOND,
    HardwareModel,
    to_units,
    units_to_fraction,
)

SMALLEST = 5e-324
SUBNORMALS = (SMALLEST, 2 * SMALLEST, sys.float_info.min / 3, sys.float_info.min)

finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
#: Seconds whose sums over a short list stay inside the float range.
moderate = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from(SUBNORMALS),
)


class _Model(HardwareModel):
    @property
    def name(self) -> str:
        return "ledger-test"


def _float_of_exact_sum(values) -> float:
    return float(sum(map(Fraction, values), Fraction(0)))


class TestUnits:
    @settings(max_examples=300, deadline=None)
    @given(finite)
    @example(SMALLEST)
    @example(sys.float_info.min)
    @example(sys.float_info.min / 3)
    @example(sys.float_info.max)
    @example(0.0)
    @example(1.0)
    def test_conversion_is_exact(self, x):
        assert to_units(x) == Fraction(x) * 2**1074
        assert units_to_fraction(to_units(x)) == Fraction(x)
        assert to_units(x) / UNITS_PER_SECOND == x

    def test_smallest_subnormal_is_one_unit(self):
        assert to_units(SMALLEST) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(finite, st.sampled_from(SUBNORMALS)),
                    min_size=1, max_size=30),
           st.data())
    def test_any_regrouping_converts_to_the_exact_sum(self, xs, data):
        order = data.draw(st.permutations(range(len(xs))))
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(xs)), max_size=len(xs))
        ))
        bounds = [0, *cuts, len(xs)]
        groups = [
            sum(to_units(xs[i]) for i in order[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        total = sum(groups)
        assert total == sum(to_units(x) for x in xs)
        try:
            expected = _float_of_exact_sum(xs)
        except OverflowError:
            with pytest.raises(OverflowError):
                total / UNITS_PER_SECOND
        else:
            assert total / UNITS_PER_SECOND == expected

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_fraction(self, x):
        with pytest.raises(Exception) as fraction_error:
            Fraction(x)
        with pytest.raises(fraction_error.type):
            to_units(x)


class TestRunningTotal:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abc"), moderate),
                    max_size=40))
    def test_total_equals_resummed_exact_total_after_every_accrual(
        self, accruals
    ):
        model = _Model()
        seen: dict[str, list[float]] = {}
        for phase, seconds in accruals:
            assert model.account("cpu", "work", phase, seconds) == seconds
            seen.setdefault(phase, []).append(seconds)
            everything = [x for xs in seen.values() for x in xs]
            assert model.total_seconds == _float_of_exact_sum(everything)
            assert model.phase_seconds == {
                p: _float_of_exact_sum(xs) for p, xs in seen.items()
            }
        assert len(model.events) == len(accruals)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_accrual_raises_and_leaves_the_model(self, x):
        model = _Model()
        model.account("cpu", "work", "a", 0.25)
        with pytest.raises((ValueError, OverflowError)):
            model.account("cpu", "work", "a", x)
        assert model.total_seconds == 0.25
        assert model.phase_seconds == {"a": 0.25}
        assert len(model.events) == 1

    def test_event_components_are_exact_fractions(self):
        model = _Model()
        model.account(
            "kernel", "k", "a", 0.3,
            parts=(("launch", to_units(0.1)),), residual="memory",
        )
        (event,) = model.events
        assert event.seconds_exact == Fraction(0.3)
        components = dict(event.components)
        assert all(isinstance(v, Fraction) for v in components.values())
        assert components["launch"] == Fraction(0.1)
        assert sum(components.values()) == event.seconds_exact
