"""Tests for the declarative scenario runner and its CLI."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.mom.__main__ import main as mom_main
from repro.mom.scenario import run_scenario


def base_scenario(**overrides):
    scenario = {
        "topology": {"kind": "bus", "servers": 9, "domain_size": 3},
        "seed": 3,
        "agents": [
            {"name": "echo", "server": 7, "kind": "echo"},
            {
                "name": "driver",
                "server": 0,
                "kind": "pingpong",
                "target": "echo",
                "rounds": 5,
            },
        ],
    }
    scenario.update(overrides)
    return scenario


def ghost_send_scenario():
    return {
        "topology": {"kind": "flat", "servers": 3},
        "agents": [{"name": "a", "kind": "echo", "server": 0}],
        "sends": [{"from": "a", "to": "ghost"}],
    }


class TestRunScenario:
    def test_pingpong_scenario_completes(self):
        result = run_scenario(base_scenario())
        assert result.causal_ok
        driver = result.agents["driver"]
        assert driver.completed == 5
        assert result.metrics["bus.notifications"] == 10

    def test_explicit_domain_map(self):
        scenario = base_scenario(
            topology={
                "domains": {"A": [0, 1, 2], "B": [2, 3], "C": [3, 4, 5, 6, 7]}
            }
        )
        result = run_scenario(scenario)
        assert result.causal_ok

    def test_scripted_sends(self):
        scenario = {
            "topology": {"kind": "flat", "servers": 3},
            "agents": [
                {"name": "sink", "server": 2, "kind": "collector"},
                {"name": "src", "server": 0, "kind": "collector"},
            ],
            "sends": [
                {"at": 5.0, "from": "src", "to": "sink", "payload": "a"},
                {"at": 10.0, "from": "src", "to": "sink", "payload": "b"},
            ],
        }
        result = run_scenario(scenario)
        assert result.agents["sink"].log == ["a", "b"]

    def test_failures_applied(self):
        scenario = base_scenario(
            failures=[
                {"kind": "crash", "at": 50.0, "server": 7, "down_for": 150.0},
                {
                    "kind": "partition",
                    "at": 300.0,
                    "between": [0, 2],
                    "duration": 50.0,
                },
            ]
        )
        result = run_scenario(scenario)
        assert result.causal_ok
        assert result.agents["driver"].completed == 5
        assert result.bus.metrics.counter("server.crashes").value == 1

    def test_broadcast_agent(self):
        scenario = {
            "topology": {"kind": "flat", "servers": 4},
            "agents": [
                {"name": "e0", "server": 0, "kind": "echo"},
                {"name": "e1", "server": 1, "kind": "echo"},
                {"name": "e2", "server": 2, "kind": "echo"},
                {
                    "name": "blaster",
                    "server": 3,
                    "kind": "broadcast",
                    "rounds": 2,
                    "targets": ["e0", "e1", "e2"],
                },
            ],
        }
        result = run_scenario(scenario)
        assert result.agents["blaster"].completed == 2

    def test_uniform_latency_spec(self):
        scenario = base_scenario(
            latency={"kind": "uniform", "low": 0.1, "high": 20.0}
        )
        assert run_scenario(scenario).causal_ok

    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_scenario()))
        assert run_scenario(str(path)).causal_ok

    def test_duplicate_agent_names_rejected(self):
        scenario = base_scenario()
        scenario["agents"].append(
            {"name": "echo", "server": 1, "kind": "echo"}
        )
        with pytest.raises(ConfigurationError, match="unique name"):
            run_scenario(scenario)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(base_scenario(topology={"kind": "torus", "servers": 9}))
        scenario = base_scenario()
        scenario["agents"][0]["kind"] = "oracle"
        with pytest.raises(ConfigurationError):
            run_scenario(scenario)

    def test_pingpong_without_target_rejected(self):
        scenario = base_scenario()
        del scenario["agents"][1]["target"]
        with pytest.raises(ConfigurationError, match="target"):
            run_scenario(scenario)

    @pytest.mark.parametrize("end", ["from", "to"])
    def test_unknown_send_endpoint_rejected(self, end):
        scenario = base_scenario(sends=[{"from": "driver", "to": "echo"}])
        scenario["sends"][0][end] = "ghost"
        with pytest.raises(
            ConfigurationError, match=rf"sends\[0\]\.{end} .*'ghost'"
        ):
            run_scenario(scenario)

    def test_unknown_broadcast_target_rejected(self):
        scenario = base_scenario()
        scenario["agents"].append(
            {
                "name": "blaster",
                "server": 1,
                "kind": "broadcast",
                "targets": ["echo", "ghost"],
            }
        )
        with pytest.raises(
            ConfigurationError, match="broadcast agent 'blaster'.*'ghost'"
        ):
            run_scenario(scenario)

    def test_agent_without_server_rejected(self):
        scenario = base_scenario()
        del scenario["agents"][0]["server"]
        with pytest.raises(ConfigurationError, match="'echo' needs a server"):
            run_scenario(scenario)

    def test_run_false_returns_wired_bus(self):
        result = run_scenario(base_scenario(), run=False)
        assert result.bus.sim.now == 0.0
        result.bus.start()
        result.bus.run_until_idle()
        assert result.bus.check_app_causality().respects_causality


class TestShippedScenario:
    def test_router_outage_scenario_runs_clean(self):
        import pathlib

        path = (
            pathlib.Path(__file__).parent.parent
            / "examples"
            / "scenario_router_outage.json"
        )
        result = run_scenario(str(path))
        assert result.causal_ok
        assert result.agents["driver"].completed == 25
        assert result.agents["observer"].log == ["checkpoint-1", "checkpoint-2"]
        assert result.bus.metrics.counter("server.crashes").value == 1


class TestScenarioCli:
    def test_cli_runs_and_reports(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_scenario()))
        assert mom_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "causal delivery OK" in out

    def test_cli_stats_and_trace(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_scenario()))
        trace_path = tmp_path / "trace.jsonl"
        assert mom_main([str(path), "--stats", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "server" in out and "disk cells" in out
        assert trace_path.read_text().count("\n") >= 10

    def test_cli_exit_code_on_violation(self, tmp_path, capsys):
        """A cyclic topology with validate=False can violate; the CLI must
        signal it through the exit code."""
        scenario = {
            "topology": {"domains": {"d0": [0, 1], "d1": [1, 2], "d2": [2, 0]}},
            "validate": False,
            "agents": [
                {"name": "a", "server": 0, "kind": "collector"},
                {"name": "b", "server": 2, "kind": "collector"},
            ],
            "sends": [
                {"at": 0.0, "from": "a", "to": "b", "payload": "x"},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(scenario))
        # this particular schedule doesn't violate (single message), so
        # exit code is 0 — but the scenario loads and runs unvalidated
        assert mom_main([str(path)]) == 0

    def test_cli_bad_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"topology": {"kind": "torus", "servers": 3}}))
        assert mom_main([str(path)]) == 2

    def test_cli_unknown_agent_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(ghost_send_scenario()))
        assert mom_main([str(path)]) == 2
        assert "error: sends[0].to names unknown agent 'ghost'" in (
            capsys.readouterr().err
        )
