"""Benchmark regression harness: scenarios, runner, artifact, scorecard.

The benchmark suite under ``benchmarks/`` reproduces the paper's figures
and tables interactively; this package makes the same measurements a
*regression instrument*:

* :mod:`repro.bench.scenarios` -- the figure/table points as named,
  single-execution scenarios over a loaded session;
* :mod:`repro.bench.runner` -- ``python -m repro bench``: runs every
  scenario, writes one schema-versioned, redacted, leak-checked
  ``BENCH_<date>.json`` artifact;
* :mod:`repro.bench.artifact` -- the artifact layout and its
  :data:`~repro.bench.artifact.BENCH` declaration: redaction allow-list
  and gate table (the gated, deterministic metrics, signatures,
  fairness floor, recorder budget) that :func:`repro.artifacts.compare`
  evaluates against the committed ``benchmarks/baseline.json``;
* :mod:`repro.bench.scorecard` -- the T9 estimate-quality table
  (est/meas ratio per candidate plan, per query family), also fed into
  the ``ghostdb_optimizer_est_over_meas`` histogram.

Simulated-device metrics are deterministic, so the comparator can gate
*exactly*: an unchanged tree reproduces the baseline bit-for-bit, and
any drift is a real cost change.  Host wall time is recorded for
context but never gated.
"""

from repro.bench.artifact import (
    BENCH,
    GATED_METRICS,
    build_artifact,
    scenario_record,
)
from repro.bench.runner import BenchConfig, BenchError, BenchRun, run_bench
from repro.bench.scenarios import SCENARIOS, Scenario, select_scenarios
from repro.bench.scorecard import (
    MISESTIMATE_THRESHOLD,
    FamilyScore,
    build_scorecard,
    render_scorecard,
    score_family,
)

__all__ = [
    "BENCH",
    "GATED_METRICS",
    "MISESTIMATE_THRESHOLD",
    "SCENARIOS",
    "BenchConfig",
    "BenchError",
    "BenchRun",
    "FamilyScore",
    "Scenario",
    "build_artifact",
    "build_scorecard",
    "render_scorecard",
    "run_bench",
    "scenario_record",
    "score_family",
    "select_scenarios",
]
