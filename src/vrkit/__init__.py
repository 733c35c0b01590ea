"""Variance-reduced and adaptive-metric optimizers for finite-sum convex
minimization, with datasets, diagnostics and a benchmark harness."""

from .data import SyntheticSpec, gen_separable, load_libsvm, parse_libsvm, save_libsvm, serialize_libsvm
from .diagnostics import PhaseTestState, Trace, TraceRow
from .optimizers import (
    RunResult,
    adagrad,
    adasvrg_adaptive,
    adasvrg_fixed,
    adasvrg_multistage,
    hybrid_adagrad_adasvrg,
    loopless_svrg,
    sarah,
    sgd,
    svrg,
    svrg_bb,
)
from .precond import PrecondState, PrecondVariant, ProjectionSpec, project
from .problems import Dataset, GradOracleCounters, Problem

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "GradOracleCounters",
    "PhaseTestState",
    "PrecondState",
    "PrecondVariant",
    "Problem",
    "ProjectionSpec",
    "RunResult",
    "SyntheticSpec",
    "Trace",
    "TraceRow",
    "adagrad",
    "adasvrg_adaptive",
    "adasvrg_fixed",
    "adasvrg_multistage",
    "gen_separable",
    "hybrid_adagrad_adasvrg",
    "load_libsvm",
    "loopless_svrg",
    "parse_libsvm",
    "project",
    "sarah",
    "save_libsvm",
    "serialize_libsvm",
    "sgd",
    "svrg",
    "svrg_bb",
]
