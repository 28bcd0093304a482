"""Experiment drivers regenerating the paper's tables and figures.

* :mod:`~repro.experiments.suite` — the declarative suite engine:
  TOML/JSON specs compiled into content-hashed run matrices, executed
  with store-backed resume and reported with statistical analysis.
* :mod:`~repro.experiments.stats` — bootstrap confidence intervals and
  paired significance tests for suite reports.
* :mod:`~repro.experiments.runner` — repeated-trial execution of tuning
  algorithms against shared measured pools, with per-trial metrics.
* :mod:`~repro.experiments.figures` — one spec-builder + driver per
  paper figure (Figs. 4–12), each returning structured rows.
* :mod:`~repro.experiments.sensitivity` — the Fig. 13 hyper-parameter
  sweeps.
* :mod:`~repro.experiments.presets` — tuned hyper-parameters and the
  declarative algorithm factor registry.
* :mod:`~repro.experiments.tables` — Tables 1 and 2.
* :mod:`~repro.experiments.reporting` — plain-text rendering.

Every driver accepts a ``repeats`` count (the paper averages 100 runs
per algorithm; benches default lower to bound runtime) and a base seed;
trial-running drivers also take ``jobs`` (parallel fan-out) and
``store`` (resumable matrices).
"""

from repro.experiments.figures import (
    FigureResult,
    fig04_lowfid_recall,
    fig05_best_config,
    fig06_mdape,
    fig07_recall,
    fig08_practicality,
    fig09_history_effect,
    fig10_ceal_vs_alph,
    fig11_alph_recall,
    fig12_alph_practicality,
)
from repro.experiments.headline import headline_claims, headline_spec
from repro.experiments.presets import (
    AlgorithmFactor,
    history_factors,
    history_specs,
    no_history_factors,
    no_history_specs,
    resolve_algorithm,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    AlgorithmSpec,
    TrialMetrics,
    resolve_jobs,
    run_trials,
    summarize,
    trial_seed,
)
from repro.experiments.sensitivity import fig13_sensitivity, sweep_ceal, sweep_spec
from repro.experiments.suite import (
    SuiteCell,
    SuiteGroup,
    SuiteIncompleteError,
    SuiteResult,
    SuiteSpec,
    compile_matrix,
    load_spec,
    run_suite,
    spec_from_dict,
)
from repro.experiments.tables import table1_parameter_spaces, table2_best_vs_expert
from repro.experiments.viz import render_bars, render_figure, render_series

__all__ = [
    "AlgorithmFactor",
    "AlgorithmSpec",
    "FigureResult",
    "SuiteCell",
    "SuiteGroup",
    "SuiteIncompleteError",
    "SuiteResult",
    "SuiteSpec",
    "TrialMetrics",
    "compile_matrix",
    "fig04_lowfid_recall",
    "fig05_best_config",
    "fig06_mdape",
    "fig07_recall",
    "fig08_practicality",
    "fig09_history_effect",
    "fig10_ceal_vs_alph",
    "fig11_alph_recall",
    "fig12_alph_practicality",
    "fig13_sensitivity",
    "format_table",
    "headline_claims",
    "headline_spec",
    "history_factors",
    "history_specs",
    "load_spec",
    "no_history_factors",
    "no_history_specs",
    "render_bars",
    "render_figure",
    "render_series",
    "resolve_algorithm",
    "resolve_jobs",
    "run_suite",
    "run_trials",
    "spec_from_dict",
    "summarize",
    "sweep_ceal",
    "sweep_spec",
    "table1_parameter_spaces",
    "table2_best_vs_expert",
    "trial_seed",
]
