"""Tests for the markdown operator report."""

import pytest

from repro.core import MetaTelescope
from repro.reporting.report import generate_report


@pytest.fixture(scope="module")
def report_setup(integration_world, integration_observatory):
    world = integration_world
    telescope = MetaTelescope.for_world(world)
    views = integration_observatory.all_ixp_views(num_days=1)
    result = telescope.infer(views, use_spoofing_tolerance=True)
    return world, telescope, views, result


class TestReport:
    def test_full_report_sections(self, report_setup):
        world, telescope, views, result = report_setup
        text = generate_report(
            telescope,
            views,
            result,
            geodb=world.datasets.geodb,
            pfx2as=world.datasets.pfx2as,
            title="Test report",
        )
        assert text.startswith("# Test report")
        for heading in (
            "## Inference",
            "## Geography",
            "## Largest dark footprints per AS",
            "## Traffic toward the meta-telescope",
            "## Threat summary",
        ):
            assert heading in text
        assert f"{result.num_prefixes():,} meta-telescope /24 prefixes" in text
        assert "| observed /24 subnets |" in text

    def test_minimal_report_without_datasets(self, report_setup):
        _, telescope, views, result = report_setup
        text = generate_report(telescope, views, result)
        assert "## Geography" not in text
        assert "## Largest dark footprints" not in text
        assert "## Threat summary" in text

    def test_report_lists_vantages_and_window(self, report_setup):
        _, telescope, views, result = report_setup
        text = generate_report(telescope, views, result)
        assert "day 0–0" in text
        assert "CE1" in text

    def test_markdown_tables_well_formed(self, report_setup):
        world, telescope, views, result = report_setup
        text = generate_report(
            telescope, views, result,
            geodb=world.datasets.geodb, pfx2as=world.datasets.pfx2as,
        )
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
                assert line.count("|") >= 3

    def test_cli_report_command(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "report.md"
        assert main(
            ["report", "--scale", "micro", "--output", str(output)]
        ) == 0
        assert output.read_text().startswith("# Meta-telescope report")
