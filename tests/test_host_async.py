"""Tests for the overlapped host/DPU timing model
(repro.pimmodel.equations.total_seconds_overlapped)."""

import pytest


class TestOverlapModel:
    def test_no_overlap_is_eq_5_1(self):
        from repro.pimmodel.equations import total_seconds, total_seconds_overlapped

        assert total_seconds_overlapped(0.3, 0.7, 0.0) == total_seconds(0.3, 0.7)

    def test_full_overlap_is_max(self):
        from repro.pimmodel.equations import total_seconds_overlapped

        assert total_seconds_overlapped(0.3, 0.7, 1.0) == pytest.approx(0.7)

    def test_interpolation_monotone(self):
        from repro.pimmodel.equations import total_seconds_overlapped

        values = [
            total_seconds_overlapped(0.4, 0.6, f)
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_bad_fraction(self):
        from repro.errors import ModelError
        from repro.pimmodel.equations import total_seconds_overlapped

        with pytest.raises(ModelError):
            total_seconds_overlapped(1.0, 1.0, 1.5)
