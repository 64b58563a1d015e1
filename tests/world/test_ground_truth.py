"""Tests for the ground-truth block index."""

import numpy as np
import pytest

from repro.bgp.asinfo import ASType
from repro.geo.countries import Continent
from repro.world.ground_truth import (
    BlockIndex,
    BlockState,
    country_index_of,
    type_index_of,
)


def make_index():
    return BlockIndex(
        blocks=np.array([10, 20, 30, 40]),
        asn=np.array([1, 1, 2, 3]),
        country_index=np.array(
            [country_index_of("US"), country_index_of("US"),
             country_index_of("DE"), country_index_of("CN")]
        ),
        type_index=np.array(
            [type_index_of(ASType.ISP), type_index_of(ASType.ISP),
             type_index_of(ASType.EDUCATION), type_index_of(ASType.DATA_CENTER)]
        ),
        state=np.array(
            [int(BlockState.DARK), int(BlockState.ACTIVE),
             int(BlockState.MIXED), int(BlockState.TELESCOPE)]
        ),
    )


class TestLookups:
    def test_positions(self):
        index = make_index()
        assert index.positions(np.array([20, 99, 10])).tolist() == [1, -1, 0]

    def test_known_mask(self):
        index = make_index()
        assert (index.positions(np.array([10, 15])) >= 0).tolist() == [True, False]

    def test_asn_of(self):
        index = make_index()
        assert index.asn_of(np.array([30, 99])).tolist() == [2, -1]

    def test_state_of(self):
        index = make_index()
        assert index.state_of(np.array([40]))[0] == int(BlockState.TELESCOPE)

    def test_country_codes(self):
        index = make_index()
        assert index.country_codes_of(np.array([30, 99])).tolist() == ["DE", "??"]

    def test_continents(self):
        index = make_index()
        assert index.continents_of(np.array([40])).tolist() == ["AS"]

    def test_as_types(self):
        index = make_index()
        types = index.as_types_of(np.array([40, 99]))
        assert types[0] is ASType.DATA_CENTER
        assert types[1] is None


class TestSelections:
    def test_blocks_in_state(self):
        index = make_index()
        assert index.blocks_in_state(BlockState.DARK).tolist() == [10]

    def test_truly_dark_includes_telescopes(self):
        index = make_index()
        assert index.truly_dark_blocks().tolist() == [10, 40]

    def test_truly_active_includes_mixed(self):
        index = make_index()
        assert index.truly_active_blocks().tolist() == [20, 30]

    def test_by_continent(self):
        index = make_index()
        assert index.blocks_of_continent(Continent.EUROPE).tolist() == [30]


class TestValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            BlockIndex(
                blocks=np.array([20, 10]),
                asn=np.array([1, 1]),
                country_index=np.array([0, 0]),
                type_index=np.array([0, 0]),
                state=np.array([0, 0]),
            )

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            BlockIndex(
                blocks=np.array([10, 20]),
                asn=np.array([1]),
                country_index=np.array([0, 0]),
                type_index=np.array([0, 0]),
                state=np.array([0, 0]),
            )
