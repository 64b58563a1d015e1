"""Tests for geo distribution, network types, prefix index, Hilbert viz."""

import numpy as np
import pytest

from repro.analysis.geo_dist import (
    country_counts,
    inventory_row,
)
from repro.analysis.hilbert_viz import (
    hilbert_grid,
    precision_inside_reference,
    render_hilbert_ascii,
)
from repro.analysis.nettypes import dark_share_by_type, type_continent_matrix
from repro.analysis.prefix_index import (
    index_values_by_group,
    prefix_index_distribution,
    share_exceeding,
)
from repro.bgp.asinfo import ASRegistry, ASType, AutonomousSystem
from repro.bgp.rib import Announcement, RoutingTable
from repro.datasets.geodb import GeoDatabase
from repro.datasets.ipinfo import AsClassification
from repro.datasets.pfx2as import PrefixToAsMap
from repro.net.ipv4 import Prefix, parse_ip


def geodb():
    return GeoDatabase(
        blocks=np.array([10, 11, 20]),
        country_codes=np.array(["US", "US", "DE"]),
    )


def routing():
    return RoutingTable(
        [
            Announcement(Prefix.parse("20.0.0.0/16"), 1),
            Announcement(Prefix.parse("21.0.0.0/16"), 2),
        ]
    )


def pfx2as():
    return PrefixToAsMap.from_routing_table(routing())


def classification():
    registry = ASRegistry.from_ases(
        [
            AutonomousSystem(1, "a", "O1", ASType.ISP, "US"),
            AutonomousSystem(2, "b", "O2", ASType.DATA_CENTER, "DE"),
        ]
    )
    rng = np.random.default_rng(0)
    return AsClassification.from_registry(registry, 0.0, rng)


class TestGeoDist:
    def test_country_counts_sorted(self):
        counts = country_counts(np.array([10, 11, 20]), geodb())
        assert counts == {"US": 2, "DE": 1}
        assert list(counts)[0] == "US"

    def test_unknown_skipped(self):
        counts = country_counts(np.array([10, 999]), geodb())
        assert counts == {"US": 1}

    def test_inventory_row(self):
        base20 = parse_ip("20.0.0.0") >> 8
        base21 = parse_ip("21.0.0.0") >> 8
        geo = GeoDatabase(
            blocks=np.array([base20, base21]),
            country_codes=np.array(["US", "DE"]),
        )
        row = inventory_row(np.array([base20, base21]), geo, pfx2as())
        assert row == (2, 2, 2)


class TestNetTypes:
    def test_matrix(self):
        base20 = parse_ip("20.0.0.0") >> 8
        base21 = parse_ip("21.0.0.0") >> 8
        geo = GeoDatabase(
            blocks=np.array([base20, base21]),
            country_codes=np.array(["US", "DE"]),
        )
        matrix = type_continent_matrix(
            np.array([base20, base21]), geo, pfx2as(), classification()
        )
        assert matrix["All"]["Total"] == 2
        assert matrix["NA"]["ISP"] == 1
        assert matrix["EU"]["Data Center"] == 1

    def test_dark_share_by_type(self):
        base20 = parse_ip("20.0.0.0") >> 8
        base21 = parse_ip("21.0.0.0") >> 8
        universe = np.array([base20, base20 + 1, base21, base21 + 1])
        shares = dark_share_by_type(
            np.array([base20]), universe, pfx2as(), classification()
        )
        assert shares["ISP"] == pytest.approx(0.5)
        assert shares["Data Center"] == 0.0


class TestPrefixIndex:
    def test_distribution(self):
        base20 = parse_ip("20.0.0.0") >> 8
        dark = np.arange(base20, base20 + 64)
        per_length = prefix_index_distribution(dark, routing(), lengths=(16,))
        entries = per_length[16]
        assert len(entries) == 2
        indices = {str(e.prefix): e.index for e in entries}
        assert indices["20.0.0.0/16"] == pytest.approx(64 / 256)
        assert indices["21.0.0.0/16"] == 0.0

    def test_share_exceeding(self):
        per_length = prefix_index_distribution(
            np.arange(parse_ip("20.0.0.0") >> 8, (parse_ip("20.0.0.0") >> 8) + 64),
            routing(),
            lengths=(16,),
        )
        assert share_exceeding(per_length[16], 0.05) == pytest.approx(0.5)
        assert share_exceeding([], 0.05) == 0.0

    def test_values_by_group(self):
        dark = np.arange(parse_ip("20.0.0.0") >> 8, (parse_ip("20.0.0.0") >> 8) + 64)
        groups = index_values_by_group(
            dark, routing(), {1: "ISP", 2: "DC"}, lengths=(16,)
        )
        assert groups["ISP"].tolist() == [pytest.approx(0.25)]
        assert groups["DC"].tolist() == [0.0]


class TestHilbert:
    def test_grid_marks(self):
        base = Prefix.parse("20.0.0.0/16")
        first = base.first_block()
        hmap = hilbert_grid(
            base,
            dark_blocks=np.array([first, first + 1]),
            reference_blocks=np.array([first, first + 5]),
        )
        assert (hmap.grid == 1).sum() == 2  # dark wins overlaps
        assert (hmap.grid == 2).sum() == 1
        assert hmap.dark_pixels() == 2

    def test_out_of_range_ignored(self):
        base = Prefix.parse("20.0.0.0/16")
        hmap = hilbert_grid(base, dark_blocks=np.array([0]))
        assert hmap.dark_pixels() == 0

    def test_precision(self):
        base = Prefix.parse("20.0.0.0/16")
        first = base.first_block()
        inside, outside = precision_inside_reference(
            base,
            dark_blocks=np.array([first, first + 1, first + 9]),
            reference_blocks=np.array([first, first + 1]),
        )
        assert (inside, outside) == (2, 1)

    def test_ascii_render(self):
        base = Prefix.parse("20.0.0.0/16")
        first = base.first_block()
        hmap = hilbert_grid(base, dark_blocks=np.array([first]))
        text = render_hilbert_ascii(hmap)
        assert "#" in text
        assert len(text.splitlines()) == 16

    def test_ascii_downsample(self):
        base = Prefix.parse("20.0.0.0/12")
        first = base.first_block()
        hmap = hilbert_grid(base, dark_blocks=np.arange(first, first + 50))
        text = render_hilbert_ascii(hmap, max_side=16)
        assert len(text.splitlines()) == 16
        assert "#" in text
