"""Tests for repro.nn.quantize."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.quantize import (
    QuantParams,
    qdtype,
    qrange,
    quantization_error,
    quantize_tensor,
    requantize_shift,
)
from repro.errors import QuantizationError


class TestRanges:
    def test_qrange_values(self):
        assert qrange(8) == (-128, 127)
        assert qrange(16) == (-32768, 32767)
        assert qrange(32) == (-(2**31), 2**31 - 1)

    def test_qdtype(self):
        assert qdtype(8) == np.int8
        assert qdtype(16) == np.int16

    def test_unsupported_width(self):
        with pytest.raises(QuantizationError):
            qrange(12)
        with pytest.raises(QuantizationError):
            qdtype(64)


class TestQuantParams:
    def test_from_tensor_uses_peak(self):
        params = QuantParams.from_tensor(np.array([0.5, -2.0, 1.0]), bits=8)
        assert params.scale == pytest.approx(2.0 / 127)

    def test_zero_tensor_gets_unit_peak(self):
        params = QuantParams.from_tensor(np.zeros(4), bits=8)
        assert params.scale > 0

    def test_bad_scale_rejected(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=0.0)
        with pytest.raises(QuantizationError):
            QuantParams(scale=-1.0)
        with pytest.raises(QuantizationError):
            QuantParams(scale=float("nan"))

    def test_quantize_saturates(self):
        params = QuantParams(scale=1.0, bits=8)
        quantized = params.quantize(np.array([1000.0, -1000.0]))
        assert quantized.tolist() == [127, -128]

    def test_quantize_rounds_half_away(self):
        params = QuantParams(scale=1.0, bits=8)
        assert params.quantize(np.array([0.5]))[0] == 1
        assert params.quantize(np.array([-0.5]))[0] == -1

    def test_dequantize_inverts_scale(self):
        params = QuantParams(scale=0.25, bits=16)
        assert params.dequantize(np.array([4], dtype=np.int16))[0] == 1.0

    @given(
        hnp.arrays(
            np.float64, st.integers(1, 40),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=200)
    def test_round_trip_error_bounded(self, values):
        """Round-trip error never exceeds half a quantization step.

        Dequantization runs in float32, so allow its relative rounding
        (~2^-24 of the value) on top of the exact half-step bound.
        """
        quantized, params = quantize_tensor(values, bits=16)
        restored = params.dequantize(quantized)
        bound = params.scale / 2 + np.abs(values) * 1e-6 + 1e-9
        assert np.all(np.abs(values - restored) <= bound)

    @given(
        hnp.arrays(
            np.float64, st.integers(1, 40),
            elements=st.floats(-1000, 1000, allow_nan=False),
        )
    )
    @settings(max_examples=200)
    def test_quantized_values_in_range(self, values):
        quantized, params = quantize_tensor(values, bits=8)
        lo, hi = qrange(8)
        assert quantized.min() >= lo
        assert quantized.max() <= hi
        assert quantized.dtype == np.int8


def _formula_quantize(params, values):
    """The float64 formula ``QuantParams.quantize`` computed before it
    kept one working array: the oracle it must equal."""
    lo, hi = qrange(params.bits)
    scaled = np.asarray(values, dtype=np.float64) / params.scale
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.clip(rounded, lo, hi).astype(qdtype(params.bits))


def _formula_from_tensor(values, bits):
    """``QuantParams.from_tensor`` with its peak taken through ``np.abs``."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    _, hi = qrange(bits)
    scale = peak / hi
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0 / hi
    return QuantParams(scale=scale, bits=bits)


_WIDTHS = st.sampled_from([8, 16, 32])

#: Magnitudes from subnormal to far past every width's saturation point.
_VALUES = st.floats(-1e12, 1e12, allow_nan=False, width=64) | st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 127.5, -128.5, 32767.5, -32768.5,
     2.0**31 - 0.5, -(2.0**31) - 0.5, 5e-324, -5e-324]
)


class TestQuantizeAgainstTheFormula:
    """``quantize`` and ``from_tensor`` equal the formulas they replaced."""

    @given(
        hnp.arrays(
            st.sampled_from([np.float32, np.float64]), st.integers(0, 40),
            elements=_VALUES,
        ),
        _WIDTHS,
        st.floats(2.0**-20, 2.0**10) | st.sampled_from([1.0, 0.5, 0.25]),
    )
    @settings(max_examples=300)
    def test_quantize_matches(self, values, bits, scale):
        params = QuantParams(scale=scale, bits=bits)
        got, want = params.quantize(values), _formula_quantize(params, values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(
        st.lists(st.integers(-(2**33), 2**33), max_size=30),
        _WIDTHS,
        st.sampled_from([1.0, 0.5, 0.25, 2.0**-8]),
    )
    @settings(max_examples=200)
    def test_exact_halves_round_away_from_zero(self, steps, bits, scale):
        values = (np.array(steps, dtype=np.float64) + 0.5) * scale
        params = QuantParams(scale=scale, bits=bits)
        assert np.array_equal(
            params.quantize(values), _formula_quantize(params, values)
        )
        assert np.array_equal(
            params.quantize(-values), _formula_quantize(params, -values)
        )

    def test_saturates_and_signs_zero_at_every_width(self):
        for bits in (8, 16, 32):
            lo, hi = qrange(bits)
            params = QuantParams(scale=1.0, bits=bits)
            values = np.array([0.0, -0.0, 2.0 * hi, 2.0 * lo, np.inf, -np.inf])
            assert params.quantize(values).tolist() == [0, 0, hi, lo, hi, lo]
            assert np.array_equal(
                params.quantize(values), _formula_quantize(params, values)
            )

    @given(
        hnp.arrays(
            st.sampled_from([np.float32, np.float64]), st.integers(0, 40),
            elements=_VALUES,
        ),
        _WIDTHS,
    )
    @settings(max_examples=300)
    def test_from_tensor_matches(self, values, bits):
        assert QuantParams.from_tensor(values, bits) == _formula_from_tensor(
            values, bits
        )

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("values", [
        np.zeros(5), np.array([-0.0, 0.0]), np.array([]),
        np.array([1.0, np.nan, -3.0]), np.array([np.nan, np.nan]),
        np.array([np.inf, 2.0]), np.array([5e-324, -5e-324]),
    ], ids=["zeros", "signed-zeros", "empty", "nan", "all-nan", "inf",
            "subnormal"])
    def test_fallback_scale(self, values, bits):
        """All-zero, NaN, infinite and subnormal-peak tensors fall back
        to unit scale, as before."""
        params = QuantParams.from_tensor(values, bits)
        assert params == _formula_from_tensor(values, bits)
        assert params.scale == 1.0 / qrange(bits)[1]


class TestRequantizeShift:
    def test_algorithm_2_clamp(self):
        acc = np.array([32, -32, 32 * 40000, -32 * 40000], dtype=np.int64)
        out = requantize_shift(acc)
        assert out.tolist() == [1, -1, 32767, -32767]

    def test_truncates_toward_zero(self):
        acc = np.array([-33, 33, -63, 63], dtype=np.int64)
        out = requantize_shift(acc, 32)
        assert out.tolist() == [-1, 1, -1, 1]

    def test_custom_divisor(self):
        assert requantize_shift(np.array([100]), 10, 1000)[0] == 10

    def test_bad_parameters(self):
        with pytest.raises(QuantizationError):
            requantize_shift(np.array([1]), 0)
        with pytest.raises(QuantizationError):
            requantize_shift(np.array([1]), 32, 0)

    @given(
        hnp.arrays(
            np.int64, st.integers(1, 30),
            elements=st.integers(-(2**40), 2**40),
        )
    )
    @settings(max_examples=200)
    def test_output_always_clamped(self, acc):
        out = requantize_shift(acc)
        assert np.all(np.abs(out) <= 32767)

    @given(
        hnp.arrays(
            st.sampled_from([np.int64, np.float64]), st.integers(0, 60),
            elements=st.integers(-(2**40), 2**40),
        ),
        st.integers(1, 4096),
        st.integers(1, 40000),
    )
    @settings(max_examples=300)
    def test_matches_the_masked_negation(self, acc, divisor, clamp):
        """The sign multiply equals the masked ``np.negative`` it replaced."""
        want = np.array(acc, dtype=np.int64)
        negative = want < 0
        np.abs(want, out=want)
        want //= divisor
        np.minimum(want, clamp, out=want)
        np.negative(want, out=want, where=negative)
        got = requantize_shift(acc, divisor, clamp)
        assert got.dtype == np.int32
        assert np.array_equal(got, want.astype(np.int32))

    def test_matches_c_semantics_against_python(self):
        """Trunc-toward-zero matches int(x/32) for representative values."""
        for value in (-1000, -33, -1, 0, 1, 33, 1000, 10**6):
            assert requantize_shift(np.array([value]))[0] == max(
                -32767, min(32767, int(value / 32))
            )


class TestQuantizationError:
    def test_error_zero_on_exact_grid(self):
        values = np.array([0.0, 1.0, -1.0])
        # peak 1.0 at 8 bits: scale 1/127; grid contains these values?
        # use values already at scale multiples
        error = quantization_error(values * 127, bits=8)
        assert error < 1e-9

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        assert quantization_error(values, 16) < quantization_error(values, 8)
