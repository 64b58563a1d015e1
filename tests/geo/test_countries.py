"""Tests for the country/continent registry."""

import pytest

from repro.geo.countries import (
    CONTINENTS,
    COUNTRIES,
    Continent,
    country_by_code,
)


class TestRegistry:
    def test_codes_unique(self):
        codes = [c.code for c in COUNTRIES]
        assert len(codes) == len(set(codes))

    def test_every_continent_populated(self):
        populated = {c.continent for c in COUNTRIES}
        assert populated == set(CONTINENTS)

    def test_lookup(self):
        assert country_by_code("US").name == "United States"

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            country_by_code("XX")

    def test_us_dominates_allocation(self):
        us = country_by_code("US")
        others = [c.allocation_weight for c in COUNTRIES if c.code != "US"]
        assert us.allocation_weight > max(others)

    def test_china_second(self):
        ranked = sorted(COUNTRIES, key=lambda c: -c.allocation_weight)
        assert [c.code for c in ranked[:2]] == ["US", "CN"]

    def test_weights_positive(self):
        assert all(c.allocation_weight > 0 for c in COUNTRIES)

    def test_legacy_share_bounded(self):
        assert all(0.0 <= c.legacy_share <= 1.0 for c in COUNTRIES)

    def test_continent_values_match_paper_labels(self):
        assert {c.value for c in CONTINENTS} == {
            "NA", "SA", "EU", "AS", "AF", "OC", "INT",
        }

    def test_small_countries_present(self):
        # The paper highlights visibility into small/unusual countries.
        for code in ("KP", "TD", "FJ"):
            assert country_by_code(code)
