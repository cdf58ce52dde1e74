"""Experiment harness: the paper's figures and table as runnable code.

Each ``run_figN`` / ``run_table1`` function builds the workload, executes
both programming models, prices the resulting work traces on the XMT
machine model across the processor sweep, and returns a result object
that the CLI renders and :mod:`~repro.analysis.verification` grades.
The ablations beyond the paper are ``run_<name>`` functions in
:mod:`repro.analysis.ablations`, imported only when one runs.  See
DESIGN.md §4 for the experiment-to-module index.
"""

from repro.analysis.experiments import (
    ClusterAnecdotesResult,
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Table1Result,
    run_cluster_anecdotes,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
)
from repro.analysis.report import (
    format_scaling_table,
    format_series,
    format_table1,
)
from repro.analysis.verification import VerificationReport, verify_all
from repro.analysis.workload import (
    DEFAULT_PROCESSOR_COUNTS,
    ExperimentConfig,
    Workload,
    build_workload,
)

__all__ = [
    "ClusterAnecdotesResult",
    "DEFAULT_PROCESSOR_COUNTS",
    "ExperimentConfig",
    "run_cluster_anecdotes",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Table1Result",
    "VerificationReport",
    "Workload",
    "build_workload",
    "format_scaling_table",
    "format_series",
    "format_table1",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_table1",
    "verify_all",
]
