"""The ``scenarios`` CLI: catalog listing and the full regression gate."""

import json

from repro.cli import main


class TestScenariosList:
    def test_lists_the_catalog(self, capsys):
        assert main(["scenarios", "list", "--scale", "micro"]) == 0
        out = capsys.readouterr().out
        for name in ("padded-evasive", "targeted-spoof-flip",
                     "epidemic-outbreak", "route-leak",
                     "flash-reactivation"):
            assert name in out


class TestScenariosRun:
    def test_full_catalog_gate_passes_and_traces(self, capsys, tmp_path):
        """The acceptance run: the whole catalog through both engine
        paths (workers >= 2) and the served answers, every metric within
        its envelope, one traced verdict per scenario."""
        trace = tmp_path / "scenarios.jsonl"
        code = main([
            "scenarios", "run", "--scale", "micro",
            "--workers", "2", "--service-path", "--trace", str(trace),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "scenario gate: PASS" in out
        assert "VIOLATION" not in out

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        scenario_events = [e for e in events if e.get("kind") == "scenario"]
        names = [e["name"] for e in scenario_events]
        assert names == [
            "baseline", "padded-evasive", "targeted-spoof-flip",
            "epidemic-outbreak", "route-leak", "flash-reactivation",
        ]
        for event in scenario_events[1:]:
            observed = event["meta"]["observed"]
            assert {score["path"] for score in observed} == {
                "parallel", "online", "service"
            }
            assert event["meta"]["ok"] is True
