"""train_kal: Transformer+KAL epochs on the paper-scenario dataset.

Set-up simulates the paper scenario and windows it into the
(train, val, test) split, builds the model and ``Trainer`` exactly as
``train_transformer`` does under ``Table1Config`` defaults: float32,
fused kernels, batch 8, ``workers=1``, KAL on, and trains one warm-up
epoch.  The timed region runs one
epoch per ``Trainer.train`` call, including the per-epoch validation
pass, for ``--seconds``.  The operation is one epoch: ``ops_per_s`` is
epochs over their summed time, and ``latency_p50_ms``/``latency_p99_ms``
are percentiles of the epoch times.

Checks, after the timed region: every epoch loss is finite, and the
CEM-projected validation windows satisfy C1-C3.
"""

from __future__ import annotations

import math

import numpy as np

import repro.imputation.trainer as trainer_module
from repro.autodiff.tensor import Tensor
from repro.eval.scenarios import dataset_from_trace, generate_trace
from repro.eval.table1 import Table1Config
from repro.imputation.cem import ConstraintEnforcer
from repro.imputation.trainer import Trainer, TrainerConfig
from repro.imputation.transformer_imputer import TransformerConfig, TransformerImputer
from repro.nn.attention import MultiHeadAttention
from repro.testing.oracles import check_cem_exactness

from perfbench.common import (
    Outcome,
    clock,
    end_to_end,
    overhead,
    repeated_setup,
    self_time_metrics,
)
from perfbench.tracing import NullTracer, Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
MIN_EPOCHS = 5
#: Epoch pairs, one untraced and one traced, of a ``--trace 1`` run.
TRACE_EPOCHS = 4

_LAYERS = {
    "train.forward": "train.forward_s",
    "nn.attention_fwd": "nn.attention_fwd_s",
    "autodiff.backward": "autodiff.backward_s",
    "train.optimizer_step": "train.optimizer_step_s",
    "train.kal_residuals": "train.kal_residuals_s",
    "train.emd_loss": "train.emd_loss_s",
    "train.eval": "train.eval_s",
    "train.epoch": "unattributed_s",
}
_SETUP_LAYERS = {
    "setup.simulate": "setup.simulate_s",
    "setup.train": "setup.train_s",
    "telemetry.build_dataset": "telemetry.build_dataset_s",
    "setup": "setup.unattributed_s",
}


def _setup(seed: int, tracer) -> Trainer:
    config = Table1Config(seed=seed)
    scenario = config.scenario
    simulate = tracer.wrap("setup.simulate", generate_trace)
    window = tracer.wrap("telemetry.build_dataset", dataset_from_trace)
    with tracer.span("setup"):
        train, val, _ = window(scenario, simulate(scenario, seed=seed), seed=seed)
        # The model and trainer train_transformer builds, held here so
        # their methods can be timed.
        model = TransformerImputer(
            TransformerConfig(
                num_features=train.num_features,
                num_queues=train.num_queues,
                d_model=config.d_model,
                num_heads=config.num_heads,
                num_layers=config.num_layers,
                d_ff=config.d_ff,
            ),
            train.scaler,
            seed=config.seed,
        )
        trainer = Trainer(
            model,
            train,
            TrainerConfig(
                epochs=1,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                use_kal=True,
                mu=config.mu,
                seed=config.seed,
                dtype=config.dtype,
                workers=config.workers,
                fused_kernels=config.fused_kernels,
            ),
            val=val,
        )
        # The first epoch of a process pays lazy initialisation; warming
        # up here keeps it out of the timed epochs and in ``setup_s``.
        tracer.wrap("setup.train", _epoch)(trainer)
    return trainer


def _epoch(trainer: Trainer, tracer=NullTracer()) -> float:
    """Train one more epoch; its seconds.

    ``Trainer.train`` runs the epochs from the next one up to
    ``config.epochs``, as it does when resuming from a checkpoint.
    """
    trainer.config.epochs = len(trainer.history.loss) + 1
    start = clock()
    with tracer.span("train.epoch"):
        trainer.train()
    return clock() - start


def _trace_layers(trainer: Trainer) -> list[tuple]:
    return [
        (trainer.model, "forward", "train.forward"),
        (MultiHeadAttention, "forward", "nn.attention_fwd"),
        (Tensor, "backward", "autodiff.backward"),
        (trainer.optimizer, "step", "train.optimizer_step"),
        # The trainer looks these up in its own module.
        (trainer_module, "phi_max", "train.kal_residuals"),
        (trainer_module, "phi_periodic", "train.kal_residuals"),
        (trainer_module, "psi_sent", "train.kal_residuals"),
        (trainer_module, "emd_loss", "train.emd_loss"),
        (trainer, "evaluate", "train.eval"),
    ]


def _check(outcome: Outcome, trainer: Trainer) -> None:
    steps = math.ceil(len(trainer.train_set) / trainer.config.batch_size)
    losses = np.asarray(trainer.history.loss)
    outcome.attempted += steps * len(losses)
    bad = ~np.isfinite(losses)
    if bad.any():
        outcome.failed += steps * int(bad.sum())
        outcome.problem(f"{int(bad.sum())} of {len(losses)} epoch losses are not finite")
    val = trainer.val_set
    enforcer = ConstraintEnforcer(val.switch_config, vectorized=True)
    for index, (sample, imputed) in enumerate(
        zip(val.samples, trainer.model.impute_batch(val.samples))
    ):
        try:
            check_cem_exactness(enforcer.enforce(imputed, sample), sample, val.switch_config)
        except AssertionError as error:
            outcome.problem(f"validation window {index} after CEM: {error}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setup_tracer = Tracer() if trace else NullTracer()
    trainer, setup_s = repeated_setup(lambda: _setup(seed, setup_tracer), SETUP_REPEATS)
    if trace:
        # Untraced and traced epochs alternate, so both sample the same
        # stretch of the run.
        tracer = Tracer()
        untraced, epochs = [], []
        for _ in range(TRACE_EPOCHS):
            untraced.append(_epoch(trainer))
            with tracer.installed(_trace_layers(trainer)):
                epochs.append(_epoch(trainer, tracer))
    else:
        deadline = clock() + seconds
        epochs = [_epoch(trainer) for _ in range(MIN_EPOCHS)]
        while clock() < deadline:
            epochs.append(_epoch(trainer))
    _check(outcome, trainer)
    outcome.notes.update(
        train_windows=len(trainer.train_set),
        val_windows=len(trainer.val_set),
        epochs=len(trainer.history.loss),
        final_loss=trainer.history.loss[-1],
    )

    if not trace:
        end_to_end(outcome, setup_s, len(epochs), sum(epochs), epochs)
        return outcome

    self_time_metrics(outcome, tracer.self_times(), _LAYERS)
    self_time_metrics(
        outcome,
        {name: total / SETUP_REPEATS for name, total in setup_tracer.self_times().items()},
        _SETUP_LAYERS,
    )
    overhead(outcome, sum(untraced), sum(epochs))
    return outcome
