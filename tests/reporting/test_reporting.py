"""Tests for the text rendering helpers."""

import numpy as np
import pytest

from repro.reporting.beanplot import render_bean_rows
from repro.reporting.ecdf import Ecdf, render_ecdf_rows
from repro.reporting.tables import format_table
from repro.reporting.worldmap import render_country_bars


class TestTables:
    def test_basic_alignment(self):
        text = format_table(["name", "count"], [["a", 10], ["bb", 2000]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "2,000" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_nan(self):
        assert "nan" in format_table(["v"], [[float("nan")]])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestEcdf:
    def test_at(self):
        ecdf = Ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ecdf.at(2.0) == pytest.approx(0.5)
        assert ecdf.at(0.0) == 0.0
        assert ecdf.at(10.0) == 1.0

    def test_render_rows(self):
        rows = render_ecdf_rows({"a": Ecdf(np.array([1.0]))}, np.array([0.5, 1.5]))
        assert rows[0] == [0.5, "0.000"]
        assert rows[1] == [1.5, "1.000"]


class TestBeanplot:
    def test_render(self):
        text = render_bean_rows([23, 80], ["NA", "EU"], np.array([[1.0, 0.5], [0.2, 0.0]]))
        lines = text.splitlines()
        assert len(lines) == 3
        assert "23" in lines[1]
        assert "█" in lines[1]

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            render_bean_rows([23], ["NA"], np.zeros((2, 2)))

    def test_zero_matrix(self):
        text = render_bean_rows([23], ["NA"], np.zeros((1, 1)))
        assert "23" in text


class TestWorldmap:
    def test_render(self):
        text = render_country_bars({"US": 1000, "DE": 10})
        lines = text.splitlines()
        assert lines[0].startswith("US")
        assert "1,000" in lines[0]

    def test_top_limits(self):
        text = render_country_bars({"US": 10, "DE": 5, "CN": 1}, top=2)
        assert len(text.splitlines()) == 2

    def test_empty(self):
        assert render_country_bars({}) == "(no data)"
