"""Tests for the command-line interface."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_top_level_subcommands_are_the_one_front_door(self):
        parser = build_parser()
        (sub,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "run", "experiments", "train", "impute", "verify", "obs",
        }

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["run", "simulate"])
        assert args.config is None and args.overrides == []
        assert str(args.out) == "trace.npz"
        assert args.cache is None and args.selfcheck is False

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_selfcheck_off_by_default(self):
        for command in (
            ["run", "simulate"],
            ["impute", "--model", "m.npz"],
            ["run", "table1"],
        ):
            assert build_parser().parse_args(command).selfcheck is False

    def test_resilience_flags_off_by_default(self):
        train = build_parser().parse_args(["train"])
        assert train.checkpoint is None and train.resume is False
        table1 = build_parser().parse_args(["run", "table1"])
        assert table1.journal is None and table1.resume is False

    def test_resilience_flags_parse(self):
        train = build_parser().parse_args(
            ["train", "--checkpoint", "ck.npz", "--resume"]
        )
        assert str(train.checkpoint) == "ck.npz" and train.resume
        table1 = build_parser().parse_args(["run", "table1", "--journal", "j.jsonl"])
        assert str(table1.journal) == "j.jsonl"

    def test_bad_engine_rejected_with_usable_message(self, tmp_path, capsys):
        code = main(
            ["run", "simulate", "--set", "engine=warp", "--out", str(tmp_path / "t.npz")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "'warp'" in err
        # The message names the valid engines, so the fix is obvious.
        assert "array" in err and "reference" in err
        assert not (tmp_path / "t.npz").exists()


class TestSimulate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(
            [
                "run", "simulate",
                "--set", "scenario.duration_bins=300",
                "--set", "seed=1",
                "--out", str(out),
            ]
        )
        assert code == 0
        with np.load(out) as archive:
            assert archive["qlen"].shape[1] == 300
            assert (archive["sent"] >= 0).all()
        assert "simulated 300 bins" in capsys.readouterr().out

    def test_selfcheck_passes_on_healthy_run(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(
            [
                "run", "simulate",
                "--set", "scenario.duration_bins=200",
                "--out", str(out),
                "--selfcheck",
            ]
        )
        assert code == 0
        assert out.exists()

    def test_cache_pointing_at_file_errors_usably(self, tmp_path, capsys):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("something else lives here")
        code = main(
            [
                "run", "simulate",
                "--set", "scenario.duration_bins=50",
                "--out", str(tmp_path / "t.npz"),
                "--cache", str(not_a_dir),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--cache must point to a directory" in err
        assert str(not_a_dir) in err


class TestTrainImpute:
    def test_train_then_impute(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "train",
                "--profile",
                "quick",
                "--epochs",
                "1",
                "--out",
                str(model_path),
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert model_path.exists()

        code = main(
            ["impute", "--profile", "quick", "--model", str(model_path), "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert "constraint-satisfied" in out
        assert code == 0  # CEM makes every window consistent

    def test_infeasible_cem_exits_nonzero_with_message(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer

        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0

        def infeasible(self, raw, sample):
            raise CEMInfeasibleError("sample pins exceed the interval maximum")

        monkeypatch.setattr(ConstraintEnforcer, "enforce", infeasible)
        code = main(["impute", "--model", str(model_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "constraint enforcement infeasible" in err
        assert "sample pins exceed" in err

    def test_selfcheck_violation_exits_three(self, tmp_path, capsys, monkeypatch):
        from repro.imputation.cem import ConstraintEnforcer

        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0
        # A broken enforcer that returns the raw imputation untouched: the
        # --selfcheck oracle must catch it before the consistency report.
        monkeypatch.setattr(ConstraintEnforcer, "enforce", lambda self, raw, s: raw)
        code = main(["impute", "--model", str(model_path), "--selfcheck"])
        assert code == 3
        assert "self-check violation" in capsys.readouterr().err


class TestVerify:
    def test_train_then_verify(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(["train", "--epochs", "1", "--out", str(model_path)]) == 0
        code = main(
            [
                "verify",
                "--model",
                str(model_path),
                "--tolerance",
                "100.0",  # a 1-epoch model passes only a huge tolerance
                "--required-rate",
                "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert "constraint satisfaction" in out
        assert code == 0

    def test_verify_fails_below_required_rate(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(["train", "--epochs", "1", "--out", str(model_path)])
        code = main(
            [
                "verify",
                "--model",
                str(model_path),
                "--tolerance",
                "1e-9",  # exact satisfaction: a raw model cannot pass
                "--required-rate",
                "1.0",
            ]
        )
        assert code == 1


class TestScalability:
    def test_prints_table(self, capsys):
        code = main(
            [
                "run", "scalability",
                "--set", "horizons=[4]",
                "--set", "node_limit=5000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        assert "4" in out

    def test_tiny_deadline_marks_timeout(self, capsys):
        code = main(
            [
                "run", "scalability",
                "--set", "horizons=[4]",
                "--set", "deadline=0.000001",
            ]
        )
        assert code == 0
        assert "(timed out)" in capsys.readouterr().out


def _interrupt(monkeypatch, module, name):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, interrupted)


class TestKeyboardInterrupt:
    """Exit 130, with the resume hint only when progress was saved."""

    def test_simulate_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        import repro.eval.scenarios as scenarios

        _interrupt(monkeypatch, scenarios, "generate_trace")
        code = main(["run", "simulate", "--out", str(tmp_path / "t.npz")])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" not in err  # simulate has nothing to resume

    def test_table1_interrupt_hints_resume(self, tmp_path, capsys, monkeypatch):
        import repro.eval.table1 as table1

        # --resume journals to the default path in the working directory.
        monkeypatch.chdir(tmp_path)
        _interrupt(monkeypatch, table1, "run_table1")
        code = main(["run", "table1", "--resume"])
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err

    def test_table1_interrupt_without_journal_has_no_hint(self, capsys, monkeypatch):
        import repro.eval.table1 as table1

        # journal=None writes no journal, so nothing could be resumed.
        _interrupt(monkeypatch, table1, "run_table1")
        code = main(["run", "table1"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" not in err

    def test_train_interrupt_hints_resume(self, tmp_path, capsys, monkeypatch):
        import repro.eval.table1 as table1

        _interrupt(monkeypatch, table1, "train_transformer")
        code = main(
            ["train", "--epochs", "1", "--checkpoint", str(tmp_path / "ck.npz")]
        )
        assert code == 130
        assert "resumable with --resume" in capsys.readouterr().err

    def test_train_interrupt_without_checkpoint_has_no_hint(
        self, capsys, monkeypatch
    ):
        import repro.eval.table1 as table1

        # Without --checkpoint the trainer does no checkpoint I/O, even
        # when --resume is passed.
        _interrupt(monkeypatch, table1, "train_transformer")
        code = main(["train", "--epochs", "1", "--resume"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" not in err
