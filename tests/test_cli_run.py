"""The registry-backed CLI: repro run, repro experiments, --version, --set."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        from repro import __version__

        assert __version__ in out


class TestExperimentsListing:
    def test_lists_registered_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "scalability", "replication", "simulate"):
            assert name in out


class TestRunParser:
    def test_run_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "frobnicate"])
        assert excinfo.value.code == 2

    def test_every_registered_experiment_has_a_subparser(self):
        from repro.experiments import experiment_names

        for name in experiment_names():
            args = build_parser().parse_args(["run", name])
            assert args.experiment == name
            assert args.config is None and args.overrides == []

    def test_table1_run_options_parse(self):
        args = build_parser().parse_args(
            ["run", "table1", "--journal", "j.jsonl", "--resume", "--selfcheck"]
        )
        assert str(args.journal) == "j.jsonl"
        assert args.resume and args.selfcheck


class TestRunSimulate:
    def test_run_simulate_from_config_file(self, tmp_path, capsys):
        from repro.config import apply_overrides, save_config
        from repro.experiments import SimulateConfig

        config = apply_overrides(SimulateConfig(), ["scenario.duration_bins=200"])
        path = tmp_path / "sim.toml"
        save_config(config, path, experiment="simulate")
        out = tmp_path / "trace.npz"
        assert main(["run", "simulate", "--config", str(path), "--out", str(out)]) == 0
        assert "simulated 200 bins" in capsys.readouterr().out


class TestRunErrors:
    def test_bad_override_exits_two_with_usable_message(self, capsys):
        code = main(["run", "table1", "--set", "epoch=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "did you mean 'epochs'" in err

    def test_unparseable_override_exits_two(self, capsys):
        code = main(["run", "table1", "--set", "epochs"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "table1", "--config", str(tmp_path / "nope.toml")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_wrong_experiment_config_exits_two(self, tmp_path, capsys):
        from repro.config import save_config
        from repro.eval.scalability import ScalabilityConfig

        path = tmp_path / "scal.toml"
        save_config(ScalabilityConfig(), path, experiment="scalability")
        code = main(["run", "table1", "--config", str(path)])
        assert code == 2
        assert "scalability" in capsys.readouterr().err


class TestRunKeyboardInterrupt:
    def test_run_table1_interrupt_hints_resume(self, tmp_path, capsys, monkeypatch):
        import repro.eval.table1 as table1

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(table1, "run_table1", interrupted)
        code = main(["run", "table1", "--journal", str(tmp_path / "j.jsonl")])
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err

    def test_run_simulate_interrupt_has_no_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.eval.scenarios as scenarios

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(scenarios, "generate_trace", interrupted)
        code = main(["run", "simulate", "--out", str(tmp_path / "t.npz")])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" not in err
