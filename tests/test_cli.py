"""Command-line interface."""

import importlib
import inspect

import pytest

from repro.cli import REGISTRY, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_registry_covers_paper_artifacts(self):
        for required in ("fig7_1_peak", "fig7_1_avg", "fig7_3", "fig5_1", "table6_1"):
            assert required in REGISTRY

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_entry_resolves(self, name):
        """The lazy registry's strings name a real function, and both
        budgets bind to its signature (checked without running it)."""
        _, module, function, full, quick = REGISTRY[name]
        runner = getattr(importlib.import_module(f"repro.experiments.{module}"), function)
        for budget in (full, quick):
            inspect.signature(runner).bind(**budget)


class TestRun:
    def test_run_fig5_1(self, capsys):
        assert main(["run", "fig5_1"]) == 0
        out = capsys.readouterr().out
        assert "cw" in out and "measured" in out

    def test_run_quick_quantum_ablation(self, capsys):
        assert main(["run", "abl_quantum", "--quick"]) == 0
        assert "quantum_256w" in capsys.readouterr().out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig5_1", "table6_1"]) == 0
        out = capsys.readouterr().out
        assert "fig5_1" in out and "table6_1" in out

    def test_unknown_name(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrace:
    def test_trace_quick(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "fig7_1_peak", "--quick",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "stage latency" in out
        assert "kernel self-profile" in out
        assert out_path.exists()

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown trace experiment" in capsys.readouterr().err

    def test_trace_leaves_telemetry_disabled(self):
        from repro.telemetry import runtime

        assert main(["trace", "fig7_1_peak", "--quick"]) == 0
        assert runtime.get() is None
