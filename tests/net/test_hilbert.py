"""Tests for the Hilbert curve mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.hilbert import HilbertCurve
from repro.net.ipv4 import Prefix


def d2xy(curve, distance):
    """One curve distance through the vectorised map."""
    x, y = curve.d2xy_array(np.array([distance], dtype=np.int64))
    return int(x[0]), int(y[0])


class TestBasics:
    def test_order_one(self):
        curve = HilbertCurve(1)
        coords = [d2xy(curve, d) for d in range(4)]
        # The four cells of a 2x2 grid, each visited once.
        assert sorted(coords) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_adjacent_distances_are_adjacent_cells(self):
        curve = HilbertCurve(4)
        for d in range(curve.length - 1):
            x1, y1 = d2xy(curve, d)
            x2, y2 = d2xy(curve, d + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            HilbertCurve(0)
        with pytest.raises(ValueError):
            HilbertCurve(17)

    def test_rejects_out_of_range_distance(self):
        curve = HilbertCurve(2)
        with pytest.raises(ValueError):
            d2xy(curve, 16)

    def test_rejects_out_of_range_xy(self):
        curve = HilbertCurve(2)
        with pytest.raises(ValueError):
            curve.xy2d_array(np.array([4]), np.array([0]))


class TestBijection:
    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=50)
    def test_roundtrip(self, order, data):
        curve = HilbertCurve(order)
        distance = data.draw(st.integers(min_value=0, max_value=curve.length - 1))
        x, y = d2xy(curve, distance)
        assert curve.xy2d_array(np.array([x]), np.array([y])).tolist() == [distance]

    def test_full_bijection_order_4(self):
        curve = HilbertCurve(4)
        d = np.arange(curve.length)
        x, y = curve.d2xy_array(d)
        assert len(set(zip(x.tolist(), y.tolist()))) == curve.length
        assert np.array_equal(curve.xy2d_array(x, y), d)


class TestForPrefix:
    def test_slash8_is_order_8(self):
        curve = HilbertCurve.for_prefix(Prefix.parse("10.0.0.0/8"))
        assert curve.order == 8
        assert curve.length == 2**16

    def test_slash16_is_order_4(self):
        curve = HilbertCurve.for_prefix(Prefix.parse("10.0.0.0/16"))
        assert curve.order == 4

    def test_odd_split_rejected(self):
        with pytest.raises(ValueError):
            HilbertCurve.for_prefix(Prefix.parse("10.0.0.0/9"))

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            HilbertCurve.for_prefix(Prefix.parse("10.0.0.0/25"))


class TestGrid:
    def test_contiguous_blocks_form_connected_region(self):
        # Hilbert locality: a run of consecutive blocks paints a
        # connected set of pixels (each consecutive pair adjacent).
        curve = HilbertCurve(5)
        run = np.arange(200, 264)
        x, y = curve.d2xy_array(run - 0)
        steps = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert (steps == 1).all()
