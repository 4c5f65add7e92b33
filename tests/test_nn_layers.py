"""Tests for repro.nn.layers."""

import numpy as np
import pytest

from repro.nn.im2col import ConvGeometry
from repro.nn import layers
from repro.errors import WorkloadError


class TestConv2d:
    def test_identity_filter(self):
        g = ConvGeometry(1, 4, 4, kernel=1)
        image = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        weights = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = layers.conv2d(image, weights, g)
        assert np.allclose(out, image)

    def test_bias(self):
        g = ConvGeometry(1, 2, 2, kernel=1)
        image = np.zeros((1, 2, 2), dtype=np.float32)
        weights = np.ones((2, 1, 1, 1), dtype=np.float32)
        out = layers.conv2d(image, weights, g, bias=np.array([1.0, -1.0]))
        assert np.allclose(out[0], 1.0)
        assert np.allclose(out[1], -1.0)

    def test_weight_shape_validation(self):
        g = ConvGeometry(1, 4, 4, kernel=3, padding=1)
        with pytest.raises(WorkloadError):
            layers.conv2d(np.zeros((1, 4, 4)), np.zeros((2, 1, 5, 5)), g)


class TestPooling:
    def test_maxpool_basic(self):
        image = np.array([[[1, 2], [3, 4]]], dtype=np.float32)
        out = layers.maxpool2d(image, 2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4

    def test_maxpool_stride(self):
        image = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = layers.maxpool2d(image, 2, stride=2)
        assert out[0].tolist() == [[5, 7], [13, 15]]

    def test_maxpool_int(self):
        image = np.array([[[-5, -2], [-9, -1]]], dtype=np.int32)
        out = layers.maxpool2d_int(image, 2)
        assert out.dtype == np.int32
        assert out[0, 0, 0] == -1

    def test_pool_window_too_big(self):
        with pytest.raises(WorkloadError):
            layers.maxpool2d(np.zeros((1, 2, 2)), 4)


class TestBatchNorm:
    def make_params(self, n=3):
        return layers.BatchNormParams(
            w0=np.zeros(n), w1=np.ones(n), w2=np.full(n, 2.0),
            w3=np.full(n, 4.0), w4=np.full(n, 0.5),
        )

    def test_algorithm_1_chain(self):
        """(((x + W0 - W1) / W2) * W3) + W4."""
        bn = self.make_params()
        # x=5: ((5+0-1)/2)*4 + 0.5 = 8.5
        assert bn.apply(np.array([5.0]), 0)[0] == pytest.approx(8.5)

    def test_apply_all_matches_per_filter(self):
        bn = self.make_params(2)
        maps = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        all_at_once = bn.apply_all(maps)
        for j in range(2):
            assert np.allclose(all_at_once[j], bn.apply(maps[j], j))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(WorkloadError):
            layers.BatchNormParams(
                w0=np.zeros(2), w1=np.zeros(3), w2=np.ones(2),
                w3=np.ones(2), w4=np.zeros(2),
            )

    def test_zero_deviation_rejected(self):
        with pytest.raises(WorkloadError):
            layers.BatchNormParams(
                w0=np.zeros(2), w1=np.zeros(2), w2=np.array([1.0, 0.0]),
                w3=np.ones(2), w4=np.zeros(2),
            )

    def test_standard_batchnorm(self):
        x = np.ones((2, 2, 2), dtype=np.float32)
        out = layers.batchnorm_inference(
            x, mean=np.ones(2), variance=np.ones(2) - 1e-5,
            gamma=np.ones(2), beta=np.array([3.0, -3.0]),
        )
        assert np.allclose(out[0], 3.0, atol=1e-4)
        assert np.allclose(out[1], -3.0, atol=1e-4)


class TestActivations:
    def test_binary_activation(self):
        out = layers.binary_activation(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0, 1, 1]
        assert out.dtype == np.int8

    def test_leaky_relu(self):
        out = layers.leaky_relu(np.array([-10.0, 10.0]))
        assert out.tolist() == [-1.0, 10.0]

    def test_linear(self):
        x = np.array([1.5, -2.5])
        assert np.array_equal(layers.linear_activation(x), x.astype(np.float32))

    def test_sigmoid_range(self):
        out = layers.sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-6)


class TestSoftmax:
    def test_sums_to_one(self):
        probs = layers.softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.argmax(probs) == 2

    def test_stability_with_large_logits(self):
        probs = layers.softmax(np.array([1000.0, 1001.0]))
        assert np.isfinite(probs).all()
        assert probs[1] > probs[0]

    def test_batched(self):
        probs = layers.softmax(np.zeros((4, 10)))
        assert np.allclose(probs, 0.1)


class TestStructuralLayers:
    def test_upsample2x(self):
        image = np.array([[[1, 2], [3, 4]]], dtype=np.float32)
        up = layers.upsample2x(image)
        assert up.shape == (1, 4, 4)
        assert up[0, 0, 0] == up[0, 0, 1] == up[0, 1, 0] == 1

    def test_shortcut(self):
        a = np.ones((2, 2, 2))
        assert np.all(layers.shortcut(a, a) == 2)

    def test_shortcut_shape_mismatch(self):
        with pytest.raises(WorkloadError):
            layers.shortcut(np.ones((1, 2, 2)), np.ones((2, 2, 2)))

    def test_route_concatenates_channels(self):
        a = np.ones((2, 3, 3))
        b = np.zeros((4, 3, 3))
        assert layers.route([a, b]).shape == (6, 3, 3)

    def test_route_spatial_mismatch(self):
        with pytest.raises(WorkloadError):
            layers.route([np.ones((1, 2, 2)), np.ones((1, 3, 3))])

    def test_route_empty(self):
        with pytest.raises(WorkloadError):
            layers.route([])

    def test_fully_connected(self):
        weights = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = layers.fully_connected(np.array([3.0, 4.0]), weights)
        assert out.tolist() == [3.0, 8.0]

    def test_fully_connected_bias_and_validation(self):
        weights = np.eye(2)
        out = layers.fully_connected(
            np.array([1.0, 1.0]), weights, bias=np.array([1.0, -1.0])
        )
        assert out.tolist() == [2.0, 0.0]
        with pytest.raises(WorkloadError):
            layers.fully_connected(np.ones(3), weights)

    def test_fully_connected_equals_the_blas_product_on_binary_layers(self):
        """eBNN's classifier shape, +-1 weights and signs: the sums are
        exact integers, so the layer equals the float64 BLAS product bit
        for bit, whatever order it sums in."""
        rng = np.random.default_rng(3)
        weights = rng.choice(np.array([-1, 1], np.int8), size=(10, 3136))
        for density in (0.0, 0.3, 0.5, 1.0):
            signs = np.where(rng.random(3136) < density, 1.0, -1.0)
            want = weights.astype(np.float32).astype(np.float64) @ signs
            got = layers.fully_connected(signs, weights.astype(np.float32))
            assert got.dtype == np.float32
            assert np.array_equal(got, want.astype(np.float32))
