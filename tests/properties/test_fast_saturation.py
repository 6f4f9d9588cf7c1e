"""The one-pass saturation helpers against the five-pass originals.

``_saturate_array`` and the array path of ``fx_from_float`` decide with
one min/max whether anything is out of range and clip and count only
then. The five-pass versions they replaced are copied below verbatim;
on any int64 or float array, NaN, +/-inf and out-of-range values
included, both must return the same values and dtype and leave the
same ``checked`` total and per-format ``clipped`` counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import FixedPointOverflowError
from repro.fixedpoint import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    SaturationStats,
    fx_from_float,
    fx_saturate,
    observe_saturation,
)
from repro.fixedpoint.fixed import FixedFormat

FORMATS = [FLEXON_FORMAT, MEMBRANE_FORMAT, FixedFormat(8, 4, signed=False)]


# -- the five-pass originals ---------------------------------------------


def _old_saturate_array(raw, fmt, strict, stats=None):
    if strict:
        if np.any(raw > fmt.raw_max) or np.any(raw < fmt.raw_min):
            raise FixedPointOverflowError(f"array value saturates format {fmt}")
        return raw
    sink = stats
    if sink is not None:
        over = int(np.count_nonzero(raw > fmt.raw_max))
        under = int(np.count_nonzero(raw < fmt.raw_min))
        sink.record(fmt, raw.size, over + under)
    return np.clip(raw, fmt.raw_min, fmt.raw_max)


def _old_fx_from_float_array(value, fmt, stats):
    lo, hi = 2.0 * fmt.min_value - 1.0, 2.0 * fmt.max_value + 1.0
    arr = np.nan_to_num(
        np.asarray(value, dtype=np.float64), nan=0.0, posinf=hi, neginf=lo
    )
    raw = np.floor(np.clip(arr, lo, hi) * fmt.scale + 0.5)
    raw = raw.astype(np.int64)
    return _old_saturate_array(raw, fmt, False, stats)


# -- strategies -----------------------------------------------------------

_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12)

int_arrays = hnp.arrays(
    np.int64,
    _shapes,
    elements=st.one_of(
        st.integers(-(1 << 33), 1 << 33),
        st.integers(-(1 << 62), 1 << 62),
        st.sampled_from(
            [fmt.raw_min for fmt in FORMATS]
            + [fmt.raw_max for fmt in FORMATS]
            + [fmt.raw_max + 1 for fmt in FORMATS]
            + [fmt.raw_min - 1 for fmt in FORMATS]
        ),
    ),
)

float_arrays = hnp.arrays(
    np.float64,
    _shapes,
    elements=st.one_of(
        st.floats(-4096.0, 4096.0),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.sampled_from([np.nan, np.inf, -np.inf, 511.9999999, -512.0, 2.0]),
    ),
)

formats = st.sampled_from(FORMATS)


def _stats_tuple(stats):
    return stats.checked, list(stats.clipped.items())


class TestSaturateArray:
    @settings(max_examples=300)
    @given(int_arrays, formats)
    def test_int_arrays_match_five_pass(self, raw, fmt):
        new_stats, old_stats = SaturationStats(), SaturationStats()
        new = fx_saturate(raw.copy(), fmt, stats=new_stats)
        old = _old_saturate_array(raw.copy(), fmt, False, old_stats)
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)
        assert _stats_tuple(new_stats) == _stats_tuple(old_stats)

    @settings(max_examples=300)
    @given(float_arrays, formats)
    def test_float_arrays_match_five_pass(self, raw, fmt):
        new_stats, old_stats = SaturationStats(), SaturationStats()
        new = fx_saturate(raw.copy(), fmt, stats=new_stats)
        old = _old_saturate_array(raw.copy(), fmt, False, old_stats)
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)
        assert _stats_tuple(new_stats) == _stats_tuple(old_stats)

    @settings(max_examples=200)
    @given(int_arrays, formats)
    def test_strict_mode_raises_exactly_when_five_pass_does(self, raw, fmt):
        try:
            _old_saturate_array(raw, fmt, True)
        except FixedPointOverflowError:
            with pytest.raises(FixedPointOverflowError):
                fx_saturate(raw, fmt, strict=True)
        else:
            np.testing.assert_array_equal(
                fx_saturate(raw, fmt, strict=True), raw
            )

    @settings(max_examples=100)
    @given(int_arrays, formats)
    def test_active_sink_receives_the_same_counts(self, raw, fmt):
        new_stats, old_stats = SaturationStats(), SaturationStats()
        with observe_saturation(new_stats):
            fx_saturate(raw, fmt)
        _old_saturate_array(raw, fmt, False, old_stats)
        assert _stats_tuple(new_stats) == _stats_tuple(old_stats)


class TestFromFloatArray:
    @settings(max_examples=400)
    @given(float_arrays, formats)
    def test_matches_five_pass_quantiser(self, values, fmt):
        new_stats, old_stats = SaturationStats(), SaturationStats()
        with np.errstate(over="ignore"):
            with observe_saturation(new_stats):
                new = fx_from_float(values.copy(), fmt)
        old = _old_fx_from_float_array(values.copy(), fmt, old_stats)
        assert new.dtype == old.dtype == np.int64
        np.testing.assert_array_equal(new, old)
        assert _stats_tuple(new_stats) == _stats_tuple(old_stats)

    @given(float_arrays)
    def test_input_is_not_modified(self, values):
        before = values.copy()
        with np.errstate(over="ignore"):
            fx_from_float(values, FLEXON_FORMAT)
        np.testing.assert_array_equal(values, before)


class TestTieRounding:
    """Scalar and array quantisers break ties differently; both are
    pinned by the spike digests, so neither may change silently."""

    LSB = 1.0 / FLEXON_FORMAT.scale

    def test_scalar_rounds_ties_away_from_zero(self):
        assert fx_from_float(-0.5 * self.LSB, FLEXON_FORMAT) == -1
        assert fx_from_float(0.5 * self.LSB, FLEXON_FORMAT) == 1
        assert fx_from_float(-2.5 * self.LSB, FLEXON_FORMAT) == -3

    def test_array_rounds_ties_up(self):
        values = np.array([-0.5, 0.5, -2.5, 2.5]) * self.LSB
        np.testing.assert_array_equal(
            fx_from_float(values, FLEXON_FORMAT), [0, 1, -2, 3]
        )
