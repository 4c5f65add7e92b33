"""Tests for repro.nn.models (eBNN, YOLOv3/Darknet-53, AlexNet)."""

import numpy as np
import pytest

from repro.nn.models.alexnet import (
    ALEXNET_LAYERS,
    PAPER_TOTAL_OPS,
    total_macs,
    total_ops,
)
from repro.nn.im2col import im2col
from repro.nn.models.darknet import Yolov3Model, build_yolov3_layers
from repro.nn.models.ebnn import EbnnConfig, EbnnModel
from repro.errors import WorkloadError


class TestEbnnConfig:
    def test_default_shapes(self):
        cfg = EbnnConfig()
        assert cfg.conv_out == 28
        assert cfg.pooled_out == 14
        assert cfg.feature_count == 16 * 14 * 14
        assert cfg.conv_range == (-9, 9)

    def test_op_counts(self):
        cfg = EbnnConfig()
        assert cfg.conv_macs_per_image() == 16 * 28 * 28 * 9
        assert cfg.bn_outputs_per_image() == 16 * 14 * 14


class TestEbnnModel:
    def setup_method(self):
        self.model = EbnnModel()

    def test_deterministic_weights(self):
        other = EbnnModel()
        assert np.array_equal(self.model.conv_weights, other.conv_weights)
        assert np.array_equal(self.model.fc_weights, other.fc_weights)

    def test_different_seed_different_weights(self):
        other = EbnnModel(seed=99)
        assert not np.array_equal(self.model.conv_weights, other.conv_weights)

    def test_conv_pool_shapes_and_range(self):
        rng = np.random.default_rng(0)
        image = rng.random((28, 28)).astype(np.float32)
        pooled = self.model.conv_pool(image)
        assert pooled.shape == (16, 14, 14)
        assert pooled.min() >= -9 and pooled.max() <= 9

    def test_features_are_binary(self):
        rng = np.random.default_rng(1)
        features = self.model.features(rng.random((28, 28)))
        assert set(np.unique(features)) <= {0, 1}

    def test_classify_returns_distribution(self):
        rng = np.random.default_rng(2)
        label, probs = self.model.classify_features(
            self.model.features(rng.random((28, 28)))
        )
        assert 0 <= label < 10
        assert probs.sum() == pytest.approx(1.0)

    def test_predict_batch_shape(self):
        rng = np.random.default_rng(3)
        images = rng.random((5, 28, 28))
        preds = self.model.predict_batch(images)
        assert preds.shape == (5,)

    def test_wrong_image_shape(self):
        with pytest.raises(WorkloadError):
            self.model.conv_pool(np.zeros((32, 32)))


class TestYolov3Structure:
    def test_layer_counts(self):
        layers = build_yolov3_layers()
        assert len(layers) == 107
        assert sum(1 for l in layers if l.kind == "conv") == 75
        assert sum(1 for l in layers if l.kind == "shortcut") == 23
        assert sum(1 for l in layers if l.kind == "yolo") == 3
        assert sum(1 for l in layers if l.kind == "upsample") == 2
        assert sum(1 for l in layers if l.kind == "route") == 4

    def test_total_macs_match_published_network(self):
        """YOLOv3-416 is ~32.9 G MACs (65.9 GFLOPs)."""
        model = Yolov3Model(416)
        assert model.total_macs() == pytest.approx(32.9e9, rel=0.02)

    def test_gemm_shapes_first_and_last(self):
        model = Yolov3Model(416)
        shapes = model.gemm_shapes()
        assert shapes[0].m == 32 and shapes[0].k == 27
        assert shapes[0].n == 416 * 416
        assert shapes[-1].m == 255  # detection layer

    def test_widest_layer_is_1024_filters(self):
        model = Yolov3Model(416)
        assert max(s.m for s in model.gemm_shapes()) == 1024

    def test_input_must_be_multiple_of_32(self):
        with pytest.raises(WorkloadError):
            Yolov3Model(100)

    def test_width_scale_shrinks_channels(self):
        small = Yolov3Model(64, width_scale=0.1)
        full = Yolov3Model(64)
        assert small.total_macs() < full.total_macs() / 10


class TestYolov3Forward:
    def test_forward_output_shapes(self):
        model = Yolov3Model(64, width_scale=0.05, seed=5)
        image = np.random.default_rng(0).random((3, 64, 64)).astype(np.float32)
        outputs = model.forward(image)
        assert len(outputs) == 3
        assert outputs[0].shape == (255, 2, 2)    # 64/32
        assert outputs[1].shape == (255, 4, 4)
        assert outputs[2].shape == (255, 8, 8)

    def test_forward_deterministic(self):
        model_a = Yolov3Model(64, width_scale=0.05, seed=5)
        model_b = Yolov3Model(64, width_scale=0.05, seed=5)
        image = np.random.default_rng(1).random((3, 64, 64)).astype(np.float32)
        out_a = model_a.forward(image)
        out_b = model_b.forward(image)
        for a, b in zip(out_a, out_b):
            assert np.allclose(a, b)

    def test_conv_fn_hook_receives_gemm_operands(self):
        """The hook gets each layer's (M, K) weights and its CHW input,
        and lowering the input itself reproduces the hookless forward."""
        model = Yolov3Model(64, width_scale=0.05, seed=5)
        calls = []

        def spy(plan, a, x):
            g = plan.geometry
            calls.append(plan.layer_index)
            assert a.shape == (plan.gemm.m, plan.gemm.k)
            assert x.shape == (g.in_channels, g.in_height, g.in_width)
            return a @ im2col(x, g)

        image = np.random.default_rng(2).random((3, 64, 64)).astype(np.float32)
        hooked = model.forward(image, conv_fn=spy)
        assert calls == [plan.layer_index for plan in model.plans]
        assert len(calls) == 75
        for got, want in zip(hooked, model.forward(image), strict=True):
            assert np.array_equal(got, want)

    def test_wrong_input_shape(self):
        model = Yolov3Model(64, width_scale=0.05)
        with pytest.raises(WorkloadError):
            model.forward(np.zeros((3, 32, 32), dtype=np.float32))

    def test_decode_detections(self):
        model = Yolov3Model(64, width_scale=0.05, seed=5)
        image = np.random.default_rng(3).random((3, 64, 64)).astype(np.float32)
        outputs = model.forward(image)
        boxes = model.decode_detections(outputs, conf_threshold=0.0)
        assert boxes, "zero-threshold decode must produce candidates"
        for box in boxes[:10]:
            assert 0 <= box["class_id"] < 80
            assert 0.0 <= box["confidence"] <= 1.0


class TestAlexNet:
    def test_layer_count(self):
        assert len(ALEXNET_LAYERS) == 8

    def test_conv1_macs(self):
        conv1 = ALEXNET_LAYERS[0]
        assert conv1.macs == 96 * 3 * 11 * 11 * 55 * 55

    def test_total_macs_magnitude(self):
        assert 0.9e9 < total_macs() < 1.4e9

    def test_total_ops_near_paper_constant(self):
        """MAC x 2 lands within ~15% of the thesis's 2.59e9."""
        assert total_ops() == pytest.approx(PAPER_TOTAL_OPS, rel=0.15)

    def test_bad_multiplier(self):
        with pytest.raises(WorkloadError):
            total_ops(0)
