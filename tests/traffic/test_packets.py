"""Tests for packet size models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.packets import (
    PacketSizeModel,
    backscatter_size_model,
    dirty_dark_size_model,
    ibr_tcp_size_model,
    production_size_model,
    udp_ibr_size_model,
)


class TestPacketSizeModel:
    def test_mean(self):
        model = PacketSizeModel(sizes=(40, 60), weights=(0.5, 0.5))
        assert model.mean_size() == pytest.approx(50.0)

    def test_probabilities_normalised(self):
        model = PacketSizeModel(sizes=(40, 60), weights=(2.0, 2.0))
        assert model.probabilities().tolist() == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSizeModel(sizes=(40,), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PacketSizeModel(sizes=(), weights=())
        with pytest.raises(ValueError):
            PacketSizeModel(sizes=(40,), weights=(0.0,))

    def test_sample_totals_bounds(self, rng):
        model = PacketSizeModel(sizes=(40, 1500), weights=(0.9, 0.1))
        counts = np.array([1, 10, 100])
        totals = model.sample_totals(counts, rng)
        assert (totals >= counts * 40).all()
        assert (totals <= counts * 1500).all()

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=20)
    def test_sample_totals_mean_consistent(self, packets):
        rng = np.random.default_rng(0)
        model = ibr_tcp_size_model()
        totals = model.sample_totals(np.full(200, packets), rng)
        mean = totals.mean() / packets
        assert abs(mean - model.mean_size()) < 2.0


class TestCalibratedModels:
    def test_ibr_mean_close_to_table2(self):
        # Table 2 reports ~40.6-40.8 bytes mean TCP size at telescopes.
        assert 40.4 <= ibr_tcp_size_model().mean_size() <= 41.0

    def test_ibr_dominated_by_bare_syns(self):
        model = ibr_tcp_size_model()
        probs = dict(zip(model.sizes, model.probabilities()))
        assert probs[40] >= 0.93

    def test_production_mean_exceeds_threshold(self):
        # Any realistic data share pushes the mean above 44 bytes.
        for ack in (0.0, 0.3, 0.6):
            assert production_size_model(ack).mean_size() > 44.0

    def test_production_pure_ack_below_threshold(self):
        assert production_size_model(0.97).mean_size() < 44.0

    def test_production_rejects_bad_share(self):
        with pytest.raises(ValueError):
            production_size_model(1.0)
        with pytest.raises(ValueError):
            production_size_model(-0.1)

    def test_backscatter_small(self):
        assert backscatter_size_model().mean_size() < 44.0

    def test_dirty_dark_exceeds_threshold(self):
        assert dirty_dark_size_model().mean_size() > 44.0

    def test_udp_sizes_above_tcp_minimum(self):
        assert min(udp_ibr_size_model().sizes) > 40
