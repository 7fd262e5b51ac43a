"""repro.experiments — first-class, registered experiments.

Importing this package registers the built-in experiments (``table1``,
``scalability``, ``replication``, ``simulate``, ``serve``, ...); each is
a named triple of (typed config dataclass, run function, artifact
directory) the CLI resolves for
``repro run <name> --config cfg.toml --set key=value``.

See :mod:`repro.experiments.registry` for the registration API and
:mod:`repro.experiments.builtin` for the built-in entries.
"""

from repro.experiments.builtin import SimulateConfig  # importing registers
from repro.experiments.registry import (
    CliOption,
    Experiment,
    experiment_names,
    get_experiment,
    iter_experiments,
    register,
    run_experiment,
)

__all__ = [
    "CliOption",
    "Experiment",
    "SimulateConfig",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "register",
    "run_experiment",
]
