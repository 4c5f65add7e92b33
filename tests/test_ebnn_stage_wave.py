"""The one-pass eBNN wave staging against the per-image path it replaced.

:func:`repro.core.mapping_ebnn.stage_wave` binarizes and packs a whole
wave in one pass (:func:`repro.nn.binary.pack_images`) and scatters one
zeroed block.  This file keeps the path it replaced, one
:func:`~repro.nn.binary.pack_image` per image joined and padded per DPU,
as the oracle, and holds the new routine to it over waves of 1 to
``len(dpus) * 16 + 5`` images (a partial last DPU, and more images than
the set holds), pixels of exactly 0.5, NaN, +-inf and negatives,
float32, float64 and uint8 payloads, and lists as well as arrays:

* every DPU's ``images`` and ``meta`` symbols, the returned counts and
  the returned set's size;
* the metrics of a zeroed ``GLOBAL_METRICS`` and the simulated clock.

An image of the wrong shape raises :class:`WorkloadError` before any DPU
is touched.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping_ebnn import EbnnDpuLayout, stage_wave
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.errors import WorkloadError
from repro.host.runtime import DpuSet, DpuSystem
from repro.nn.binary import pack_image
from repro.nn.models.ebnn import EbnnConfig
from tests.test_ebnn_wave_oracle import _fresh_metrics

N_DPUS = 4
ATTRIBUTES = UPMEM_ATTRIBUTES.scaled(N_DPUS)
LAYOUT = EbnnDpuLayout(EbnnConfig())
SIDE = LAYOUT.config.image_size
IMAGE = LAYOUT.build_image()
SYMBOLS = ("images", "meta")

#: Pixels at and around the 0.5 threshold and outside the [0, 1] range.
SPECIAL = [
    0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nan, np.inf,
    -np.inf, -0.5, -0.0, 0.0, 1.0,
]


def oracle_stage_wave(dpus, attributes, image, layout, images):
    """``stage_wave`` as it was: one ``pack_image`` per image."""
    per_dpu = layout.images_per_dpu
    n_active = min(len(dpus), -(-len(images) // per_dpu))
    view = DpuSet(list(dpus[:n_active]), attributes)
    view.load(image)
    chunks = [images[d * per_dpu : (d + 1) * per_dpu] for d in range(n_active)]
    view.scatter("images", [
        np.frombuffer(b"".join(
            pack_image(img).ljust(layout.image_bytes, b"\0") for img in chunk
        ).ljust(layout.images_bytes, b"\0"), dtype=np.uint8)
        for chunk in chunks
    ])
    view.scatter("meta", [np.array([len(c), 0], dtype=np.uint32) for c in chunks])
    return view, [len(c) for c in chunks]


def _memory(dpus):
    return [
        [dpu.mram.read(dpu.symbol(s).mram_addr, dpu.symbol(s).size)
         for s in SYMBOLS]
        for dpu in dpus
    ]


def _zeroed_metrics():
    with _fresh_metrics() as registry:
        pass
    return registry["metrics"]


def _stage(stage, images):
    """Stage ``images`` with ``stage`` on a fresh, loaded set; returns
    everything the staging leaves behind."""
    system = DpuSystem(ATTRIBUTES)
    dpu_set = system.allocate(N_DPUS)
    dpu_set.load(IMAGE)
    clock = dpu_set.clock
    start = clock.now
    with _fresh_metrics() as registry:
        view, counts = stage(dpu_set.dpus, ATTRIBUTES, IMAGE, LAYOUT, images)
    return {
        "counts": counts,
        "n_active": len(view),
        "memory": _memory(dpu_set.dpus),
        "metrics": registry["metrics"],
        "seconds": clock.now - start,
    }


@st.composite
def waves(draw):
    """A wave of images: its size, payload dtype, pixel mix and form."""
    n = draw(st.integers(1, N_DPUS * LAYOUT.images_per_dpu + 5))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.uint8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype is np.uint8:
        pixels = rng.choice(np.array([0, 1, 2, 128, 255], np.uint8), (n, SIDE, SIDE))
    else:
        pixels = rng.uniform(-1.5, 1.5, (n, SIDE, SIDE)).astype(dtype)
        special = rng.random(pixels.shape) < draw(st.floats(0.0, 1.0))
        pixels[special] = rng.choice(np.array(SPECIAL, dtype), special.sum())
    if draw(st.booleans()):  # strided views, as a payload may be
        pixels = pixels.swapaxes(1, 2)
    return list(pixels) if draw(st.booleans()) else pixels


@settings(max_examples=60, deadline=None)
@given(images=waves())
def test_matches_the_per_image_path(images):
    new = _stage(stage_wave, images)
    old = _stage(oracle_stage_wave, images)
    assert new == old
    staged = min(len(images), N_DPUS * LAYOUT.images_per_dpu)
    assert sum(new["counts"]) == staged


@pytest.mark.parametrize("shape", [
    (SIDE * SIDE,), (SIDE, SIDE + 1), (1, SIDE, SIDE), (SIDE,), (SIDE, 1),
])
@pytest.mark.parametrize("form", ["list", "array"])
def test_wrong_shaped_image_raises_before_any_dpu_is_touched(shape, form):
    good = [np.zeros((SIDE, SIDE))] * 20
    if form == "list":
        images = good[:17] + [np.ones(shape)] + good[17:]
    else:
        images = np.ones((20, *shape))
    system = DpuSystem(ATTRIBUTES)
    dpu_set = system.allocate(N_DPUS)
    dpu_set.load(IMAGE)
    before = (_memory(dpu_set.dpus), dpu_set.clock.now)
    with _fresh_metrics() as registry, pytest.raises(WorkloadError):
        stage_wave(dpu_set.dpus, ATTRIBUTES, IMAGE, LAYOUT, images)
    assert (_memory(dpu_set.dpus), dpu_set.clock.now) == before
    assert registry["metrics"] == _zeroed_metrics()
