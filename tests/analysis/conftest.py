"""Shared fixtures: whole-package flow analyses are ~2s each, so the
expensive ones run once per session."""

from pathlib import Path

import pytest

from repro.analysis.flow import analyze_package
from repro.analysis.flow.contracts import FlowContracts
from repro.experiments.executor import model_modules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_PKG = Path(__file__).resolve().parent / "flowfixtures"


@pytest.fixture(scope="session")
def model_closure():
    """The model's module names (the package minus the tooling)."""
    return model_modules()


@pytest.fixture(scope="session")
def repro_flow(model_closure):
    """Flow analysis of the model closure under the package's own
    contracts (what ``self-check`` and ``flow`` analyze)."""
    return analyze_package(REPO_ROOT / "src" / "repro", package="repro",
                           modules=model_closure)


@pytest.fixture(scope="session")
def fixture_contracts():
    """Contracts pointing at the flowfixtures package's own roots/sinks."""
    return FlowContracts(
        assumed_pure=("flowfixtures.purity.supposedly_pure",),
        trace_sinks=("flowfixtures.kernel.emit",),
        schedule_sinks=("flowfixtures.kernel.Sim._schedule",),
        report_scope=("flowfixtures.",),
    )


@pytest.fixture(scope="session")
def fixture_flow(fixture_contracts):
    """Flow analysis of the violation-seeded fixture package."""
    return analyze_package(FIXTURE_PKG, contracts=fixture_contracts)
