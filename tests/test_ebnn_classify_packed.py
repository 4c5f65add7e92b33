"""Differential tests of eBNN's packed read-out classifier.

:meth:`EbnnModel.classify_packed` computes the FC logits of a block of
bit-packed features as ``feature_count - 2 * popcount(a XOR w)`` and
takes the first maximum.  The oracle is the classifier it replaced,
kept here: unpack the bits, expand them to +-1, ``layers.fully_connected``
on float32 weights, ``softmax``, ``argmax``.

Cases cover the served config (3136 features, 392 whole bytes) and one
whose last byte is partial (75 features), with pad bits set, and tied
logits forced by repeated weight rows.  The logits of
:meth:`EbnnModel.packed_logits` are held to the oracle's exactly.
"""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.nn.layers import fully_connected, softmax
from repro.nn.models.ebnn import EbnnConfig, EbnnModel

SERVED = EbnnModel()
PARTIAL = EbnnModel(EbnnConfig(image_size=10, filters=3))
MODELS = {"served": SERVED, "partial": PARTIAL}


def _oracle_logits(model, bits):
    signs = np.where(bits > 0, 1.0, -1.0)
    return fully_connected(signs, model.fc_weights.astype(np.float32))


def _oracle_label(model, bits):
    return int(np.argmax(softmax(_oracle_logits(model, bits))))


def _pack(bits, pad_bits=False):
    """(n, feature_count) bits as the DPU packs them, pad bits optionally
    set to 1."""
    if pad_bits:
        width = -(-bits.shape[1] // 8) * 8
        bits = np.concatenate(
            [bits, np.ones((len(bits), width - bits.shape[1]), np.uint8)], axis=1
        )
    return np.packbits(bits, axis=1, bitorder="little")


def _bits(draw, model, n):
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(seed)
    size = (n, model.config.feature_count)
    return (rng.random(size) < density).astype(np.uint8)


@st.composite
def feature_blocks(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]
    bits = _bits(draw, model, draw(st.integers(1, 40)))
    # Rows that equal a weight row, or its negation, reach the extreme
    # logits +-feature_count.
    for row in draw(st.lists(st.integers(0, len(bits) - 1), max_size=3)):
        cls = draw(st.integers(0, model.config.classes - 1))
        bits[row] = (model.fc_weights[cls] > 0) ^ draw(st.booleans())
    return model, bits, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(feature_blocks())
def test_classify_packed_matches_the_float_classifier(case):
    model, bits, pad_bits = case
    packed = _pack(bits, pad_bits)
    labels = model.classify_packed(packed)
    assert labels.shape == (len(bits),)
    assert labels.tolist() == [_oracle_label(model, row) for row in bits]
    assert np.array_equal(
        model.packed_logits(packed), [_oracle_logits(model, row) for row in bits]
    )
    for row in bits[:4]:
        logits = model.logits(row)
        assert np.array_equal(logits, _oracle_logits(model, row))
        label, probs = model.classify_features(row)
        assert label == _oracle_label(model, row)
        assert np.array_equal(probs, softmax(_oracle_logits(model, row)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tied_logits_go_to_the_first_maximum(data):
    name = data.draw(st.sampled_from(sorted(MODELS)))
    config = MODELS[name].config
    model = EbnnModel(config, seed=data.draw(st.integers(0, 1000)))
    classes = config.classes
    first = data.draw(st.integers(0, classes - 2))
    copies = data.draw(
        st.sets(st.integers(first + 1, classes - 1), min_size=1)
    )
    weights = model.fc_weights.copy()
    for cls in copies:
        weights[cls] = weights[first]
    model.fc_weights = weights
    bits = _bits(data.draw, model, 8)
    # One row on the tied weights: their logit is feature_count, the top.
    bits[0] = weights[first] > 0
    labels = model.classify_packed(_pack(bits, data.draw(st.booleans())))
    assert labels[0] == first
    assert labels.tolist() == [_oracle_label(model, row) for row in bits]


def test_pad_bits_change_nothing():
    bits = np.random.default_rng(1).integers(
        0, 2, (64, PARTIAL.config.feature_count), dtype=np.uint8
    )
    for read in (PARTIAL.packed_logits, PARTIAL.classify_packed):
        assert np.array_equal(
            read(_pack(bits, pad_bits=True)), read(_pack(bits))
        )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4000).flatmap(
        lambda n: st.lists(
            st.integers(-n, n).map(lambda v, n=n: v - (v - n) % 2),
            min_size=2, max_size=12,
        )
    )
)
def test_float_softmax_argmax_equals_integer_argmax(logits):
    """All logits are ``n - 2k`` for one n, so they share n's parity and
    a unique maximum leads the next one by at least 2: softmax in
    float32 keeps it the largest, and a tie stays a tie."""
    logits = np.array(logits, dtype=np.int64)
    assert len({v % 2 for v in logits}) == 1
    assert int(np.argmax(softmax(logits.astype(np.float32)))) == int(
        np.argmax(logits)
    )


@pytest.mark.parametrize("shape", [(10,), (3, 9), (3, 11), (1, 10, 1)])
def test_a_block_of_the_wrong_width_is_refused(shape):
    with pytest.raises(WorkloadError):
        PARTIAL.classify_packed(np.zeros(shape, dtype=np.uint8))


def test_a_feature_vector_of_the_wrong_length_is_refused():
    with pytest.raises(WorkloadError):
        PARTIAL.logits(np.ones(74, dtype=np.uint8))
