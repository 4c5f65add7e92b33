"""Differential tests of the host half of the YOLO layer path.

``gemm_fast``, ``requantize_shift`` and ``im2col`` are held bit for bit
to the formulas they replaced, which are kept here as oracles:

* ``gemm_fast`` multiplies in float64 when every partial sum is an exact
  integer below 2**53, and in int64 otherwise; the oracle is the int64
  product.  The BLAS thread count must not change a result, so the GEMM
  cases also run in child processes under ``OPENBLAS_NUM_THREADS`` 1 and 4.
* ``requantize_shift`` works on one int64 copy in place; the oracle is
  the sign/abs/floor-divide/clip formula.
* ``im2col`` is one strided copy; the oracle copies one row per
  (channel, ky, kx) tap.
* ``lower_layer_input`` quantizes a layer's input, then lowers it; the
  oracle lowers the float input and quantizes the im2col matrix.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from repro.core.mapping_yolo import (
    accumulator_divisor,
    lower_layer_input,
    weight_bound,
)
from repro.errors import WorkloadError
from repro.nn.gemm import gemm_fast
from repro.nn.im2col import ConvGeometry, im2col
from repro.nn.models.darknet import Yolov3Model
from repro.nn.quantize import QuantParams, requantize_shift

INT16_MIN, INT16_MAX = -32768, 32767


# ---------------------------------------------------------------------- #
# oracles: the formulas before the change
# ---------------------------------------------------------------------- #


def _requantize_oracle(acc, divisor, clamp):
    acc = np.asarray(acc, dtype=np.int64)
    quotient = np.sign(acc) * (np.abs(acc) // divisor)
    return np.clip(quotient, -clamp, clamp).astype(np.int32)


def _gemm_oracle(alpha, a, b, divisor=32, clamp=32767):
    acc = (int(alpha) * a.astype(np.int64)) @ b.astype(np.int64)
    return _requantize_oracle(acc, divisor, clamp)


def _im2col_oracle(image, g):
    if g.padding:
        image = np.pad(
            image,
            ((0, 0), (g.padding, g.padding), (g.padding, g.padding)),
            mode="constant",
        )
    columns = np.empty((g.gemm_k, g.gemm_n), dtype=image.dtype)
    row = 0
    for channel in range(g.in_channels):
        for ky in range(g.kernel):
            for kx in range(g.kernel):
                patch = image[
                    channel,
                    ky : ky + g.out_height * g.stride : g.stride,
                    kx : kx + g.out_width * g.stride : g.stride,
                ]
                columns[row] = patch.reshape(-1)
                row += 1
    return columns


# ---------------------------------------------------------------------- #
# gemm_fast
# ---------------------------------------------------------------------- #


def _int16_operands(seed, m, k, n):
    """Full-range int16 operands that include both extremes."""
    rng = np.random.default_rng(seed)
    a = rng.integers(INT16_MIN, INT16_MAX + 1, size=(m, k)).astype(np.int16)
    b = rng.integers(INT16_MIN, INT16_MAX + 1, size=(k, n)).astype(np.int16)
    a[0, 0] = b[0, 0] = INT16_MIN
    a[-1, -1] = b[-1, -1] = INT16_MAX
    return a, b


GEMM_CASES = [
    # (m, k, n, alpha, divisor)
    (8, 26, 16, 1, 32),
    (8, 234, 4, 3, 64),
    (3, 1152, 64, -2, 1 << 20),
    (8, 9216, 16, 1, 1 << 24),
    (8, 9216, 16, 3, 96),
    (5, 9216, 7, -2, 1),
]


@pytest.mark.parametrize("m, k, n, alpha, divisor", GEMM_CASES)
def test_gemm_fast_matches_int64_oracle(m, k, n, alpha, divisor):
    a, b = _int16_operands(m * k + n, m, k, n)
    got = gemm_fast(alpha, a, b, divisor=divisor)
    assert got.dtype == np.int32
    assert np.array_equal(got, _gemm_oracle(alpha, a, b, divisor))


def test_gemm_fast_small_clamp_and_quantized_range():
    rng = np.random.default_rng(11)
    a = rng.integers(-127, 128, size=(8, 117)).astype(np.int16)
    b = rng.integers(-127, 128, size=(117, 16)).astype(np.int16)
    for alpha in (1, 3, -2):
        got = gemm_fast(alpha, a, b, divisor=3, clamp=100)
        assert np.array_equal(got, _gemm_oracle(alpha, a, b, 3, 100))


class _CastSpy(np.ndarray):
    """An ndarray that records the dtype ``gemm_fast`` multiplies it in."""

    casts: list = []

    def astype(self, dtype, *args, **kwargs):
        _CastSpy.casts.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kwargs)


def _product_dtype(alpha, a, b, **kwargs):
    _CastSpy.casts = []
    got = gemm_fast(alpha, a.view(_CastSpy), b, **kwargs)
    assert np.array_equal(got, _gemm_oracle(alpha, a, b, **kwargs))
    (dtype,) = set(_CastSpy.casts)
    return dtype


@pytest.mark.parametrize("alpha", [1, -2])
def test_gemm_fast_float64_up_to_the_2_53_edge(alpha):
    # |alpha| * K * max|a| * max|b| one below 2**53: float64 is exact.
    top = 2**53 - 1
    a = np.array([[top // abs(alpha)]], dtype=np.int64)
    b = np.array([[1]], dtype=np.int64)
    assert abs(alpha) * int(a[0, 0]) < 2**53
    kwargs = dict(divisor=1, clamp=2**62)
    assert _product_dtype(alpha, a, b, **kwargs) == np.float64
    # At the bound itself the product stays int64.
    edge = np.array([[2**52]], dtype=np.int64)
    assert _product_dtype(2, edge, b, **kwargs) == np.int64
    assert _product_dtype(1, edge * 2, b, **kwargs) == np.int64


def test_gemm_fast_wide_operands_keep_int64():
    """Partial sums above 2**53 that cancel: float64 would lose the 1."""
    big = 2**27
    a = np.array([[big, 1, -big]], dtype=np.int64)
    b = np.array([[big], [1], [big]], dtype=np.int64)
    assert _product_dtype(1, a, b, divisor=1) == np.int64
    assert gemm_fast(1, a, b, divisor=1)[0, 0] == 1
    # What the bound protects against: summed in float64, the 1 is lost.
    assert float(big * big) + 1.0 - float(big * big) == 0.0


def test_gemm_fast_int16_decides_by_dtype_without_scanning():
    a, b = _int16_operands(5, 4, 64, 8)
    assert _product_dtype(3, a, b) == np.float64


def test_gemm_fast_leaves_its_operands_alone():
    a, b = _int16_operands(9, 4, 32, 8)
    a_before, b_before = a.copy(), b.copy()
    gemm_fast(-2, a, b)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


_CHILD = """
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from test_gemm_im2col_exact import GEMM_CASES, _gemm_oracle, _int16_operands
from repro.nn.gemm import gemm_fast
for m, k, n, alpha, divisor in GEMM_CASES:
    a, b = _int16_operands(m * k + n, m, k, n)
    got = gemm_fast(alpha, a, b, divisor=divisor)
    assert np.array_equal(got, _gemm_oracle(alpha, a, b, divisor)), (m, k, n)
print("exact")
"""


@pytest.mark.parametrize("threads", ["1", "4"])
def test_gemm_fast_exact_under_blas_threads(threads):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(tests=str(tests))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "exact"


# ---------------------------------------------------------------------- #
# requantize_shift
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("divisor", [1, 3, 32, 96, 1000])
@pytest.mark.parametrize("clamp", [1, 7, 32767])
def test_requantize_matches_oracle(divisor, clamp):
    rng = np.random.default_rng(divisor * 31 + clamp)
    acc = rng.integers(-10**7, 10**7, size=(6, 33)).astype(np.int64)
    acc[0, :5] = [0, -1, 1, -divisor, divisor]
    acc[1, :4] = [-divisor - 1, divisor + 1, -(divisor * clamp), divisor * clamp]
    got = requantize_shift(acc, divisor, clamp)
    assert got.dtype == np.int32
    assert np.array_equal(got, _requantize_oracle(acc, divisor, clamp))


def test_requantize_accepts_floats_lists_and_leaves_input_alone():
    acc = np.array([[-97.0, -96.0, -1.0, 0.0, 95.0, 10**9]])
    before = acc.copy()
    got = requantize_shift(acc, 3, 20)
    assert np.array_equal(got, _requantize_oracle(acc, 3, 20))
    assert np.array_equal(acc, before)
    ints = np.array([-7, 0, 7], dtype=np.int64)
    requantize_shift(ints, 2, 2)
    assert ints.tolist() == [-7, 0, 7]
    assert requantize_shift([-5, 5], 2, 32767).tolist() == [-2, 2]


# ---------------------------------------------------------------------- #
# im2col
# ---------------------------------------------------------------------- #


def _geometries():
    for kernel in (1, 3, 5):
        for stride in (1, 2, 3):
            for padding in (0, 1, 2):
                for channels, height, width in ((3, 7, 11), (2, 12, 5)):
                    try:
                        yield ConvGeometry(
                            channels, height, width, kernel, stride, padding
                        )
                    except WorkloadError:
                        continue  # the kernel does not fit this input


@pytest.mark.parametrize("dtype", [np.float32, np.int16, np.int8])
@pytest.mark.parametrize("geometry", list(_geometries()), ids=str)
def test_im2col_matches_row_copy_oracle(geometry, dtype):
    rng = np.random.default_rng(geometry.kernel * 10 + geometry.stride)
    shape = (geometry.in_channels, geometry.in_height, geometry.in_width)
    values = rng.standard_normal(shape) * 1000
    if np.issubdtype(dtype, np.integer):
        values = values.clip(np.iinfo(dtype).min, np.iinfo(dtype).max)
    image = values.astype(dtype)
    got = im2col(image, geometry)
    want = _im2col_oracle(image, geometry)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # An array of its own, even where a view would hold the same values
    # (a 1x1 kernel at stride 1 without padding).
    assert got.flags.owndata and not np.shares_memory(got, image)
    assert got.flags.c_contiguous and got.flags.writeable


def test_im2col_returns_a_fresh_array_for_1x1_kernels():
    image = np.arange(2 * 4 * 3, dtype=np.float32).reshape(2, 4, 3)
    columns = im2col(image, ConvGeometry(2, 4, 3, 1))
    assert not np.shares_memory(columns, image)
    columns[0, 0] = -1.0
    assert image[0, 0, 0] == 0.0


# ---------------------------------------------------------------------- #
# lower_layer_input: quantize the layer input, then lower it
# ---------------------------------------------------------------------- #


def _lowering_oracle(x, geometry, a_q, alpha):
    """B as the layer routine built it before: lower the float input,
    then quantize the im2col matrix."""
    b = im2col(x, geometry)
    params = QuantParams.from_tensor(b, bits=8)
    b_q = params.quantize(b).astype(np.int16)
    return b_q, params, accumulator_divisor(a_q, b_q, alpha)


def _assert_lowers_like_oracle(x, geometry, alpha, seed):
    rng = np.random.default_rng(seed)
    a_q = rng.integers(-127, 128, size=(3, geometry.gemm_k)).astype(np.int16)
    want = _lowering_oracle(x, geometry, a_q, alpha)
    for a_bound in (None, weight_bound(a_q)):
        b_q, params, divisor = lower_layer_input(
            x, geometry, a_q, alpha, a_bound=a_bound
        )
        assert b_q.dtype == np.int16 and np.array_equal(b_q, want[0])
        assert params == want[1] and params.scale == want[1].scale
        assert divisor == want[2]


@settings(max_examples=300, deadline=None)
@given(
    channels=st.integers(1, 3),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    kernel=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
    alpha=st.sampled_from([1, -2, 250]),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 4e4]),
    seed=st.integers(0, 2**16),
)
def test_lower_layer_input_matches_quantizing_im2col(
    channels, height, width, kernel, stride, padding, alpha, scale, seed
):
    """Same B, scale and divisor as quantizing ``im2col(x)``, over both
    kernels, strides and paddings of the served layers, odd and even
    sizes, and all-zero inputs (``scale == 0``)."""
    try:
        geometry = ConvGeometry(channels, height, width, kernel, stride, padding)
    except WorkloadError:
        assume(False)  # the kernel does not fit this input
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((channels, height, width)) * scale).astype(
        np.float32
    )
    _assert_lowers_like_oracle(x, geometry, alpha, seed)


@pytest.mark.parametrize("alpha", [1, 250])
def test_lower_layer_input_ignores_pixels_no_window_reads(alpha):
    """At 8x8, k=3, stride 2 and no padding, no window reaches the last
    row or column; a peak there must not set the scale."""
    geometry = ConvGeometry(2, 8, 8, 3, 2, 0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 8, 8)).astype(np.float32)
    x[1, 7, 3] = x[0, 2, 7] = 1e4  # far above every read pixel
    assert np.abs(x[geometry.covered]).max() < 10
    _assert_lowers_like_oracle(x, geometry, alpha, 5)
    _, params, _ = lower_layer_input(x, geometry, np.ones((1, 18), np.int16), 1)
    assert params.scale < 10 / 127


def test_lower_layer_input_on_every_served_layer():
    """Each conv layer of the served YOLO model, on its own forward
    input, lowers as quantizing ``im2col`` did."""
    model = Yolov3Model(64, width_scale=0.05, seed=21)
    image = np.random.default_rng(4).random((3, 64, 64)).astype(np.float32)
    geometries = []

    def conv(plan, a, x):
        geometries.append(plan.geometry)
        assert plan.geometry.covered == (...,)  # every pixel is read
        _assert_lowers_like_oracle(x, plan.geometry, 1, plan.layer_index)
        return a @ im2col(x, plan.geometry)

    model.forward(image, conv_fn=conv)
    assert len(geometries) == 75
