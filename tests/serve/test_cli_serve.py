"""CLI coverage: ``repro run serve`` and its registry entry."""

from __future__ import annotations

MICRO = [
    "--set", "epochs=1",
    "--set", "num_switches=2",
    "--set", "shards=2",
    "--set", "max_intervals=6",
    "--set", "d_model=8",
    "--set", "num_heads=2",
    "--set", "num_layers=1",
    "--set", "d_ff=16",
    "--set", "scenario.duration_bins=1200",
]


def test_run_serve_micro_stream_succeeds(capsys):
    from repro.cli import main

    assert main(["run", "serve", *MICRO]) == 0
    out = capsys.readouterr().out
    assert "streaming imputation service" in out
    assert "windows emitted" in out
    assert "imputation latency" in out


def test_serve_is_registered():
    from repro.experiments import experiment_names, get_experiment
    from repro.serve.config import ServeConfig

    assert "serve" in experiment_names()
    experiment = get_experiment("serve")
    assert experiment.config_cls is ServeConfig
    assert isinstance(experiment.default_config(), ServeConfig)


def test_run_serve_supervised_micro(capsys):
    from repro.cli import main

    assert main(["run", "serve", *MICRO, "--set", "supervised=true"]) == 0
    out = capsys.readouterr().out
    assert "shard respawns      0" in out


def test_run_serve_sustained_slo_breach_exits_4_with_slo_exit(
    tmp_path, monkeypatch, capsys
):
    import repro.obs as obs
    from repro.cli import main
    from repro.obs.fold import fold, read_records

    monkeypatch.chdir(tmp_path)
    stream = tmp_path / "obs" / "stream.jsonl"
    rc = main(
        [
            "run", "serve", *MICRO,
            "--slo-exit",
            "--set", "slo_p99_latency=1e-9",
            "--set", "slo_sustain=1",
            "--trace", str(stream),
        ]
    )
    obs.finish()
    assert rc == 4
    out = capsys.readouterr().out
    assert "sustained breach" in out
    assert "exit 4" in out
    # The live plane ran alongside: status sections and events in the stream.
    assert fold(stream)["sections"]["serve"]["windows"] > 0
    kinds = {r["name"] for r in read_records(stream) if r["ph"] == "i"}
    assert {"service_started", "slo_breach", "service_drained"} <= kinds


def test_run_serve_breach_without_slo_exit_still_exits_0(capsys):
    from repro.cli import main

    rc = main(
        [
            "run", "serve", *MICRO,
            "--set", "slo_p99_latency=1e-9",
            "--set", "slo_sustain=1",
        ]
    )
    assert rc == 0
    assert "sustained breach" in capsys.readouterr().out
